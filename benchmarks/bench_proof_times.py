"""E1 — per-optimization proof-discharge times (paper section 5.1).

Paper: "On a modern workstation, the time taken by Simplify to discharge
the optimization-specific obligations for these optimizations ranges from 3
to 104 seconds, with an average of 28 seconds."

This harness regenerates the same table for our prover: one row per shipped
optimization/analysis, the time to discharge all of its obligations, plus
the range/average summary line.  Absolute numbers differ (different prover,
different machine, three decades later); the *shape* should hold: folding
rules are near-instant, forward dataflow patterns cheap, backward patterns
and pointer-dependent proofs the most expensive.

The rows are discharged through a persistent proof cache (cold — the cache
starts empty), and a final pass replays every item against the populated
cache, so the E1 table also reports the warm, content-addressed replay time
per item (docs/VERIFYING.md).
"""

import time

import pytest

from repro.prover import ProverConfig
from repro.api import VerifyOptions
from repro.verify import SoundnessChecker
from repro.opts import ALL_OPTIMIZATIONS, taintedness_analysis

_RESULTS = {}
_WARM = {}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("proof-cache")


@pytest.fixture(scope="module")
def cached_checker(cache_dir):
    return SoundnessChecker(
        config=ProverConfig(timeout_s=120),
        options=VerifyOptions(cache_dir=str(cache_dir)),
    )


@pytest.mark.parametrize("opt", ALL_OPTIMIZATIONS, ids=lambda o: o.name)
def test_proof_time(benchmark, cached_checker, opt):
    def discharge():
        return cached_checker.check_optimization(opt)

    report = benchmark.pedantic(discharge, rounds=1, iterations=1)
    assert report.sound, report.summary()
    _RESULTS[opt.name] = report.elapsed_s


def test_analysis_proof_time(benchmark, cached_checker):
    report = benchmark.pedantic(
        lambda: cached_checker.check_analysis(taintedness_analysis),
        rounds=1,
        iterations=1,
    )
    assert report.sound
    _RESULTS[taintedness_analysis.name] = report.elapsed_s


def test_yy_warm_replay(benchmark, cache_dir):
    """Replays every row against the populated cache (a fresh checker, so
    nothing is in process memory — every verdict comes off disk)."""
    warm = SoundnessChecker(
        config=ProverConfig(timeout_s=120),
        options=VerifyOptions(cache_dir=str(cache_dir)),
    )

    def replay():
        start = time.monotonic()
        report = warm.check_analysis(taintedness_analysis)
        _WARM[taintedness_analysis.name] = time.monotonic() - start
        assert report.sound
        for opt in ALL_OPTIMIZATIONS:
            start = time.monotonic()
            report = warm.check_optimization(opt)
            _WARM[opt.name] = time.monotonic() - start
            assert report.sound, report.summary()

    benchmark.pedantic(replay, rounds=1, iterations=1)
    assert warm.cache.stats.misses == 0, "warm replay missed the cache"


def test_zz_report(benchmark):
    """Emits the E1 table (runs last; name-ordered after the rows)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert _RESULTS
    from _report import emit

    lines = ["=== E1: obligation-discharge time per optimization ==="]
    lines.append(f"{'optimization':24s} {'cold':>8s} {'warm':>9s}")
    for name, seconds in sorted(_RESULTS.items(), key=lambda kv: kv[1]):
        warm = _WARM.get(name)
        warm_cell = f"{warm * 1000:7.1f}ms" if warm is not None else "      - "
        lines.append(f"{name:24s} {seconds:8.2f} {warm_cell}")
    times = list(_RESULTS.values())
    lines.append(
        f"range {min(times):.2f}s .. {max(times):.2f}s, "
        f"average {sum(times) / len(times):.2f}s over {len(times)} items"
    )
    if _WARM:
        lines.append(
            f"warm replay total {sum(_WARM.values()):.3f}s "
            f"(vs. {sum(times):.2f}s cold)"
        )
    lines.append("paper (Simplify, 2003 workstation): range 3s .. 104s, average 28s")

    from repro.prover.kernels import kernel_identity

    rows = {
        "items": [
            {
                "name": name,
                "cold_s": round(seconds, 4),
                "warm_ms": (
                    round(_WARM[name] * 1000, 3) if name in _WARM else None
                ),
            }
            for name, seconds in sorted(_RESULTS.items())
        ],
    }
    config = {
        "timeout_s": 120,
        "default_kernel": kernel_identity(),
        "cold_rows_cached": True,
    }
    emit("E1_proof_times", "\n".join(lines), rows=rows, config=config)
