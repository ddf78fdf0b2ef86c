"""engine-run: ``run_optimization`` over seeded pointer programs.

A child process generates programs of mixed size from the seed (set-up),
then applies every shipped optimization to every program through the
public ``repro.api.run_optimization``, in a seeded order, repeating the
batch until the window closes.  No prover is involved.  After the window,
and outside the timed region, every output is run in ``il.interp``
against its original (``fuzz.oracle.check_equivalence``); a repeated pass
must reproduce its first output exactly.

    python3 perfbench/wl_engine.py --seed N --seconds S [--trace]
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402

from measure import (  # noqa: E402
    HERE, WORK, Tally, emit, enable_src, median, peak_rss_mb, quantile,
    ratio, run_child,
)

#: program copies per size: enough passes that the seeded mix averages out
COPIES = 8


def _child(args) -> None:
    enable_src()
    import repro.api as api
    from repro import opts

    import inputs

    programs = inputs.engine_programs(args.seed, 1 if args.smoke else COPIES,
                                      args.smoke)
    optimizations = opts.ALL_OPTIMIZATIONS
    pairs = [(p, o) for p in range(len(programs))
             for o in range(len(optimizations))]
    random.Random(args.seed).shuffle(pairs)
    sizes = [len(prog.procs[0].stmts) for _size, prog in programs]
    setup_s = time.perf_counter() - _T0

    recorder = patcher = None
    if args.trace:
        from layers import install
        from spans import Patcher, SpanRecorder

        recorder, patcher = SpanRecorder(), Patcher()
        install(recorder, patcher)

    # -- timed ------------------------------------------------------------------
    first = {}
    times = {}  # (program, optimization) -> latency of each repeat
    repeats_differ = []
    deadline = time.perf_counter() + args.seconds
    # the traced run and its untraced baseline time exactly one batch
    limit = len(pairs) if args.one_batch else None
    done = 0
    while (done < limit if limit is not None
           else time.perf_counter() < deadline):
        p, o = pairs[done % len(pairs)]
        program = programs[p][1]
        if recorder:
            recorder.set_op(f"p{p}:{optimizations[o].name}")
        t = time.perf_counter()
        result = api.run_optimization(optimizations[o], program)
        times.setdefault((p, o), []).append(time.perf_counter() - t)
        previous = first.setdefault((p, o), result.program)
        if previous is not result.program and previous != result.program:
            repeats_differ.append((p, o))
        done += 1
    rss = peak_rss_mb()
    if patcher:
        patcher.restore()

    # -- known answers (outside the timed region) -------------------------
    from repro.fuzz.oracle import check_equivalence
    from repro.il import parse_program
    from repro.il.printer import program_to_str

    tally = Tally()
    for (p, o), output in sorted(first.items()):
        original = programs[p][1]
        if args.plant == "engine" and o == 0:  # expect one more than returned
            original = parse_program(re.sub(
                r"return (\w+);", r"\1 := \1 + 1;\n  return \1;",
                program_to_str(original)))
        mismatch = check_equivalence(original, output, inputs.ENGINE_ARGS)
        tally.op(mismatch is None,
                 f"program {p} under {optimizations[o].name}: {mismatch}")
    for p, o in repeats_differ:
        tally.fail(f"program {p} under {optimizations[o].name}: a repeated "
                   "pass produced a different output")
    tally.attempted += done - len(first)  # repeated passes, checked above

    # Every batch repeats the same deterministic passes, so each pass's
    # latency is its best time over the run's repeats: other load on the
    # machine only ever adds time, and the best of N filters its bursts.
    best = {pair: min(ts) for pair, ts in times.items()}
    small = [t for (p, _o), t in best.items()
             if programs[p][0] <= inputs.ENGINE_SMALL_MAX]
    doc = {
        "setup_s": setup_s,
        "rss_mb": rss,
        "passes": done,
        "busy_s": sum(sum(ts) for ts in times.values()),
        "best_s": sum(best.values()),
        "best_stmts": sum(sizes[p] for p, _o in best),
        "small_lat": small,
        "large_lat": [t for (p, _o), t in best.items()
                      if programs[p][0] > inputs.ENGINE_SMALL_MAX],
        "tally": tally.to_json(),
    }
    if recorder is not None:
        from layers import layer_metrics

        WORK.mkdir(parents=True, exist_ok=True)
        recorder.write(WORK / f"engine-{args.seed}.spans.jsonl")
        doc["layers"] = layer_metrics(recorder)
    emit(doc)


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        plant=None) -> tuple:
    def child(*flags: str) -> dict:
        argv = [str(HERE / "wl_engine.py"), "--seed", str(seed),
                "--seconds", str(seconds), *flags]
        argv += ["--smoke"] * smoke
        argv += ["--plant", plant] if plant else []
        return run_child(argv)

    if trace:
        base = child("--one-batch")
        traced = child("--one-batch", "--trace")
        tally = Tally.from_json(base["tally"])
        tally.merge(Tally.from_json(traced["tally"]))
        layers = dict(traced["layers"])
        layers.update({"trace.wall_s": traced["busy_s"],
                       "trace.untraced_s": base["busy_s"],
                       "trace.overhead_s": traced["busy_s"] - base["busy_s"]})
        return tally, layers, {"passes": traced["passes"]}

    doc = child()
    lat = doc["small_lat"] + doc["large_lat"]
    metrics = {
        "setup_s": doc["setup_s"],
        "peak_rss_mb": doc["rss_mb"],
        "ops_per_s": ratio(len(lat), doc["best_s"]),
        "main_p50_ms": 1000 * median(doc["small_lat"]),
        "main_p90_ms": 1000 * quantile(doc["small_lat"], 0.9),
        "side_mean_ms": 1000 * ratio(sum(doc["large_lat"]),
                                     len(doc["large_lat"])),
    }
    table = {
        "passes": doc["passes"],
        "distinct_passes": len(lat),
        "engine_stmts_per_s": ratio(doc["best_stmts"], doc["best_s"]),
        "passes_per_s (all repeats)": ratio(doc["passes"], doc["busy_s"]),
        "pass_p50_ms": 1000 * median(lat),
    }
    return Tally.from_json(doc["tally"]), metrics, table


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--one-batch", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--plant")
    _child(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
