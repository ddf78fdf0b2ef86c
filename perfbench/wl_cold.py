"""verify-cold: what a CLI user pays for verdicts on an empty cache.

Each repetition runs in a fresh child process with an empty L1 cache
directory (in-process repeats drift, because the global intern and memo
tables persist).  The child verifies the shipped suite with
``verify_suite``, then asks ``check_optimization`` about the 19
known-unsound rules, and reports per-item latencies, its peak RSS and the
deterministic work counters, which must repeat exactly between the
repetitions of one run.

    python3 perfbench/wl_cold.py --child --seed N --cache DIR [--trace]
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from measure import (  # noqa: E402
    HERE, WORK, Tally, emit, enable_src, median, peak_rss_mb, quantile, ratio,
    run_child,
)

#: ProverStats counters that, with the intern-table hits and misses, must
#: be identical across the repetitions of one run
PROVER_COUNTERS = ("instances", "decisions", "bindings", "lit_evals",
                   "struct_visits")


def _unique_reports(reports, seen=None):
    """Every report once: a checked analysis is also each dependant's
    dependency (the same object), and its searches ran only once."""
    seen = set() if seen is None else seen
    for report in reports:
        if id(report) not in seen:
            seen.add(id(report))
            yield report
            yield from _unique_reports(report.dependencies, seen)


def _child(args) -> None:
    enable_src()
    import repro.api as api
    from repro.fuzz.campaign import frontier_verify_options
    from repro.logic import intern
    from repro.prover import ProverStats

    import inputs

    analyses, optimizations = inputs.cold_suite(args.smoke)
    items = inputs.rejection_items(args.seed, args.smoke)
    options = api.VerifyOptions(cache_dir=args.cache)
    frontier = frontier_verify_options(cache_dir=args.cache)
    setup_s = time.perf_counter() - _T0

    recorder = patcher = None
    if args.trace:
        from layers import install
        from spans import Patcher, SpanRecorder

        recorder, patcher = SpanRecorder(), Patcher()
        install(recorder, patcher)
    intern_mark = intern.STATS.snapshot()

    # -- timed: the suite ----------------------------------------------------
    suite_lat = []
    last = [time.perf_counter()]

    def progress(_report) -> None:
        now = time.perf_counter()
        suite_lat.append(now - last[0])
        last[0] = now

    if recorder:
        recorder.set_op("suite")
    start = last[0] = time.perf_counter()
    suite = api.verify_suite(options, analyses=analyses,
                             optimizations=optimizations, progress=progress)
    suite_s = time.perf_counter() - start

    # -- timed: the rejections -----------------------------------------------
    reject_lat, rejected = [], []
    for label, rule, kind, _expected in items:
        if recorder:
            recorder.set_op(label)
        t = time.perf_counter()
        report = api.check_optimization(
            rule, frontier if kind == "frontier" else options)
        reject_lat.append(time.perf_counter() - t)
        rejected.append(report)
    reject_s = sum(reject_lat)
    rss = peak_rss_mb()
    if patcher:
        patcher.restore()

    # -- counters --------------------------------------------------------------
    stats = ProverStats()
    for report in _unique_reports(list(suite.reports) + rejected):
        for result in report.results:
            if result.stats is not None:
                stats.merge(result.stats)
    delta = intern.STATS.delta(intern_mark)
    counters = {name: getattr(stats, name) for name in PROVER_COUNTERS}
    counters["intern_hits"] = delta["term_hits"] + delta["formula_hits"]
    counters["intern_misses"] = delta["term_misses"] + delta["formula_misses"]

    # -- known answers (outside the timed region) -------------------------
    from repro.fuzz.oracle import check_equivalence
    from repro.il import parse_program

    tally = Tally()
    expected_names = [a.name for a in analyses] + [o.name for o in optimizations]
    got_names = [r.name for r in suite.reports]
    if got_names != expected_names:
        tally.fail(f"suite reported {got_names}, expected {expected_names}")
    for report in suite.reports:
        tally.op(report.sound, f"suite item {report.name} not SOUND")
    for (label, _rule, kind, expected), report in zip(items, rejected):
        failed_at = tuple(r.obligation for r in report.failed_obligations())
        if kind == "default":
            want = inputs.fails_at_expected(label, args.plant)
            tally.op(not report.sound and failed_at == tuple(want),
                     f"{label}: rejected={not report.sound} at {failed_at}, "
                     f"expected REJECTED at {tuple(want)}")
            continue
        entry = expected
        mismatch = check_equivalence(
            parse_program(entry.data["program"]),
            parse_program(entry.data["transformed"]),
            [entry.data["argument"]],
        )
        tally.op(not report.sound and mismatch is not None,
                 f"{label}: rejected={not report.sound}, stored "
                 f"miscompilation reproduces={mismatch is not None}")

    doc = {
        "setup_s": setup_s,
        "suite_s": suite_s,
        "reject_s": reject_s,
        "suite_lat": suite_lat,
        "reject_lat": reject_lat,
        "rss_mb": rss,
        "counters": counters,
        "tally": tally.to_json(),
    }
    if recorder is not None:
        from layers import layer_metrics

        recorder.write(args.cache + ".spans.jsonl")
        doc["layers"] = layer_metrics(recorder)
    emit(doc)


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        plant=None) -> tuple:
    """Parent side: repetitions in fresh children until ``seconds`` pass."""
    WORK.mkdir(parents=True, exist_ok=True)
    reps = []

    def rep(k: int, traced: bool) -> dict:
        cache = WORK / f"cold-{seed}-{k}"
        shutil.rmtree(cache, ignore_errors=True)
        argv = [str(HERE / "wl_cold.py"), "--child", "--seed", str(seed),
                "--cache", str(cache)]
        argv += ["--trace"] * traced + ["--smoke"] * smoke
        argv += ["--plant", plant] if plant else []
        try:
            return run_child(argv)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    tally = Tally()
    start = time.perf_counter()
    if trace:
        untraced, traced = rep(0, False), rep(1, True)
        reps = [untraced, traced]
    else:
        # at least two repetitions (the metrics take each item's best
        # time), then another only while at least half of one still fits
        last = 0.0
        while len(reps) < 2 or time.perf_counter() - start + last / 2 < seconds:
            began = time.perf_counter()
            reps.append(rep(len(reps), False))
            last = time.perf_counter() - began
    for r in reps:
        tally.merge(Tally.from_json(r["tally"]))
    first = reps[0]["counters"]
    for r in reps[1:]:
        if r["counters"] != first:
            tally.fail(f"work counters differ between repetitions: "
                       f"{first} vs {r['counters']}")

    if trace:
        wall = traced["suite_s"] + traced["reject_s"]
        untraced_s = untraced["suite_s"] + untraced["reject_s"]
        layers = dict(traced["layers"])
        layers.update({"trace.wall_s": wall, "trace.untraced_s": untraced_s,
                       "trace.overhead_s": wall - untraced_s})
        table = {
            "suite_s (traced)": traced["suite_s"],
            "reject_s (traced)": traced["reject_s"],
            **{f"counter.{k}": v for k, v in first.items()},
        }
        return tally, layers, table

    # Every repetition does the same deterministic work in the same order,
    # so each verdict's latency is its best time over the repetitions:
    # other load on the machine only ever adds time, and the best of N
    # filters a burst that hits one repetition.
    suite_lat = [min(times) for times in zip(*(r["suite_lat"] for r in reps))]
    reject_lat = [min(times) for times in zip(*(r["reject_lat"] for r in reps))]
    metrics = {
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": median(r["rss_mb"] for r in reps),
        "ops_per_s": ratio(len(suite_lat) + len(reject_lat),
                           sum(suite_lat) + sum(reject_lat)),
        # the main-class operation is one verify_suite call: percentiles of
        # 23 items this different in size jump between neighbouring items
        "main_p50_ms": 1000 * median(r["suite_s"] for r in reps),
        "main_p90_ms": 1000 * quantile([r["suite_s"] for r in reps], 0.9),
        "side_mean_ms": 1000 * ratio(sum(reject_lat), len(reject_lat)),
    }
    table = {
        "repetitions": len(reps),
        "suite_s": median(r["suite_s"] for r in reps),
        "reject_s": median(r["reject_s"] for r in reps),
        "suite_s per repetition": [round(r["suite_s"], 3) for r in reps],
        "reject_s per repetition": [round(r["reject_s"], 3) for r in reps],
        **{f"counter.{k}": v for k, v in first.items()},
    }
    return tally, metrics, table


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--child", action="store_true", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--plant")
    _child(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
