"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation; ``--trace 1`` makes a separate
traced run and reports the per-layer metrics instead.  Every verdict and
output is checked against a known answer; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from measure import require_checkout

WORKLOADS = ("verify-cold", "service-replay", "engine-run")

#: (metric, unit) of the untraced run, identical for every workload
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("main_p50_ms", "ms"),
    ("main_p90_ms", "ms"),
    ("side_mean_ms", "ms"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long run over a handful of inputs")
    p.add_argument("--plant", choices=("buggy", "canonical", "engine"),
                   help=argparse.SUPPRESS)  # test hook: one wrong answer
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    if args.workload == "verify-cold":
        import wl_cold as workload
    elif args.workload == "service-replay":
        import wl_service as workload
    else:
        import wl_engine as workload
    start = time.perf_counter()
    tally, metrics, table = workload.run(
        args.seed, args.seconds, bool(args.trace), args.smoke, args.plant)

    if args.trace:
        from layers import PER_LAYER

        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        units = list(END_TO_END)
    for key, value in table.items():
        print(f"  {key:34s} {value}")
    for name, unit in units:
        print(f"{name:34s} {metrics[name]:14.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}")
    print(f"[{args.workload}] {tally.attempted} operation(s), "
          f"{tally.failed} failed, {time.perf_counter() - start:.1f}s")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
