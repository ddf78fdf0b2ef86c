"""Per-layer instrumentation of ``repro``, installed from outside.

Nothing in ``src/`` knows about it: :func:`install` wraps each layer's
entry points at the name its caller actually looks up (``checker.py``
imports ``obligation_key`` and ``all_axioms`` by name, ``prover/core.py``
imports ``clausify`` by name), and :func:`layer_metrics` turns the spans
and counters into the ``per_layer`` metrics of ``BENCHMARK.json``.

``FlatEGraph.add_term`` runs hundreds of thousands of times per suite, so
it is counted, never timed.  Prover counters come from the
``ProverStats`` every search returns; searches run in pool workers are
read from the stats each result carries back (``prover.searches`` and the
span times count in-process searches only).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from measure import ratio
from spans import Patcher, SpanRecorder

#: (metric, unit, better) — the order of the per-layer table.
PER_LAYER = [
    ("obligations.calls", "count", "lower"),
    ("obligations.built", "count", "lower"),
    ("obligations.self_s", "s", "lower"),
    ("cache.key_calls", "count", "lower"),
    ("cache.key_s", "s", "lower"),
    ("cache.axioms_digest_s", "s", "lower"),
    ("cache.get_calls", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.get_s", "s", "lower"),
    ("cache.prefetch_s", "s", "lower"),
    ("cache.put_calls", "count", "lower"),
    ("cache.save_s", "s", "lower"),
    ("encode.all_axioms_s", "s", "lower"),
    ("encode.clausify_calls", "count", "lower"),
    ("encode.clausify_s", "s", "lower"),
    ("prover.searches", "count", "lower"),
    ("prover.self_s", "s", "lower"),
    ("prover.instances", "count", "lower"),
    ("prover.bindings", "count", "lower"),
    ("prover.dedup_hits", "count", "lower"),
    ("prover.instance_yield", "ratio", "higher"),
    ("prover.decisions", "count", "lower"),
    ("prover.lit_evals", "count", "lower"),
    ("prover.wakeups", "count", "lower"),
    ("prover.match_s", "s", "lower"),
    ("kernel.add_term_calls", "count", "lower"),
    ("kernel.add_term_new", "count", "lower"),
    ("kernel.add_term_new_ratio", "ratio", "higher"),
    ("kernel.struct_visits", "count", "lower"),
    ("intern.hits", "count", "higher"),
    ("intern.misses", "count", "lower"),
    ("intern.hit_ratio", "ratio", "higher"),
    ("broker.enqueued", "count", "lower"),
    ("broker.dispatches", "count", "lower"),
    ("broker.coalesced", "count", "higher"),
    ("broker.wait_s", "s", "lower"),
    ("http.requests", "count", "higher"),
    ("http.non200", "count", "lower"),
    ("http.overhead_ms", "ms", "lower"),
    ("wire.decode_ms", "ms", "lower"),
    ("engine.calls", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.pops", "count", "lower"),
    ("engine.keeps_evals", "count", "lower"),
    ("engine.keeps_hit_rate", "ratio", "higher"),
    ("engine.rewrites", "count", "higher"),
    ("api.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

#: span name -> the self-time metric it feeds
_SELF_METRICS = {
    "obligations": "obligations.self_s",
    "cache.key": "cache.key_s",
    "cache.axioms_digest": "cache.axioms_digest_s",
    "cache.get": "cache.get_s",
    "cache.prefetch": "cache.prefetch_s",
    "cache.save": "cache.save_s",
    "encode.all_axioms": "encode.all_axioms_s",
    "encode.clausify": "encode.clausify_s",
    "prover": "prover.self_s",
    "engine": "engine.self_s",
    "api": "api.self_s",
}

_PROVER_FIELDS = ("instances", "bindings", "dedup_hits", "decisions",
                  "lit_evals", "wakeups", "match_s", "struct_visits")

_ENGINE_FIELDS = (("worklist_pops", "engine.pops"),
                  ("keeps_evals", "engine.keeps_evals"),
                  ("keeps_hits", "engine.keeps_hits"),
                  ("transformations", "engine.rewrites"))


def _add_prover_stats(recorder: SpanRecorder, stats) -> None:
    if stats is None:
        return
    for name in _PROVER_FIELDS:
        recorder.bump("prover." + name, getattr(stats, name, 0))


def install(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every layer entry point; undone when ``patcher`` exits."""
    import repro.api as api
    import repro.logic.formulas as formulas
    import repro.prover.core as core
    import repro.verify.checker as checker
    import repro.verify.encode as encode
    import repro.verify.parallel as parallel
    from repro.cobalt.engine import CobaltEngine
    from repro.logic import intern
    from repro.prover.kernels.flat import FlatEGraph
    from repro.service import jobs
    from repro.verify.cache import ProofCache
    from repro.verify.obligations import ObligationBuilder

    span = patcher.span
    local = threading.local()

    # api: the roots of every workload's operations
    span(recorder, api, "verify_suite", "api")
    span(recorder, api, "check_optimization", "api")
    span(recorder, api, "run_optimization", "api")

    # verify.obligations (with labels2logic translation inside)
    def built(_args, _kwargs, result):
        recorder.bump("obligations.calls")
        recorder.bump("obligations.built", len(result))

    for attr in ("forward_obligations", "backward_obligations",
                 "analysis_obligations"):
        span(recorder, ObligationBuilder, attr, "obligations", built)

    # verify.cache: keys and the digest of the axiom set
    def keyed(_args, _kwargs, _result):
        recorder.bump("cache.key_calls")

    span(recorder, checker, "obligation_key", "cache.key", keyed)
    span(recorder, jobs, "obligation_key", "cache.key", keyed)
    span(recorder, checker, "axioms_digest", "cache.axioms_digest")

    # verify.cache: the tiers
    def got(_args, _kwargs, result):
        recorder.bump("cache.get_calls")
        recorder.bump("cache.get_hits", result is not None)

    span(recorder, ProofCache, "get", "cache.get", got)
    span(recorder, ProofCache, "prefetch", "cache.prefetch")
    span(recorder, ProofCache, "put", "cache.put",
         lambda *_: recorder.bump("cache.put_calls"))
    span(recorder, ProofCache, "save", "cache.save")

    # verify.encode / logic.formulas
    span(recorder, checker, "all_axioms", "encode.all_axioms")
    span(recorder, encode, "all_axioms", "encode.all_axioms")

    def clausified(_args, _kwargs, _result):
        recorder.bump("encode.clausify_calls")

    span(recorder, formulas, "clausify", "encode.clausify", clausified)
    span(recorder, core, "clausify", "encode.clausify", clausified)

    # prover.core: one span per search, counters from its ProverStats
    def proved(_args, _kwargs, result):
        recorder.bump("prover.searches")
        local.searches = getattr(local, "searches", 0) + 1
        _add_prover_stats(recorder, result.stats)

    span(recorder, core.Prover, "prove", "prover", proved)

    # verify.parallel: searches done in pool workers come back as stats
    original_parallel = parallel.discharge_parallel

    def discharge_parallel(*args, **kwargs):
        before = getattr(local, "searches", 0)
        results = original_parallel(*args, **kwargs)
        if getattr(local, "searches", 0) == before:  # nothing ran in-process
            for result in results:
                _add_prover_stats(recorder, result.stats)
        return results

    patcher.replace(parallel, "discharge_parallel",
                    recorder.wrap("parallel", discharge_parallel))

    # prover.kernels.flat: counted only
    original_add_term = FlatEGraph.add_term
    counts = recorder.counts

    def add_term(self, term):
        counts["kernel.add_term_calls"] += 1
        if term not in self.term_to_node:
            counts["kernel.add_term_new"] += 1
        return original_add_term(self, term)

    patcher.replace(FlatEGraph, "add_term", add_term)

    # service.jobs: submit-to-verdict time minus the obligation's own time
    original_submit = jobs.ObligationBroker.submit

    def submit(self, *args, **kwargs):
        start = time.perf_counter()
        futures = original_submit(self, *args, **kwargs)

        def done(future):
            if future.exception() is None:
                waited = time.perf_counter() - start - future.result().elapsed_s
                recorder.bump("broker.queue_s", max(0.0, waited))

        for future in futures:
            future.add_done_callback(done)
        return futures

    patcher.replace(jobs.ObligationBroker, "submit", submit)
    span(recorder, jobs.ServiceChecker, "_dispatch", "broker")

    traced_run_job = recorder.wrap("service.job",
                                   jobs.VerificationService._run_job)

    def run_job(self, job, *args, **kwargs):
        recorder.set_op(job.id)  # the job id tags every span of the job
        return traced_run_job(self, job, *args, **kwargs)

    patcher.replace(jobs.VerificationService, "_run_job", run_job)

    # cobalt.engine: one span per pass, counters from its EngineStats
    original_run_opt = CobaltEngine.run_optimization

    def run_optimization(self, *args, **kwargs):
        before = [getattr(self.stats, f) for f, _ in _ENGINE_FIELDS]
        result = original_run_opt(self, *args, **kwargs)
        for (field, metric), old in zip(_ENGINE_FIELDS, before):
            recorder.bump(metric, getattr(self.stats, field) - old)
        recorder.bump("engine.calls")
        return result

    patcher.replace(CobaltEngine, "run_optimization",
                    recorder.wrap("engine", run_optimization))

    # logic.intern: process-wide counters, read as a delta at the end
    recorder.intern_mark = intern.STATS.snapshot()


def layer_metrics(recorder: Optional[SpanRecorder],
                  extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric (0 where the workload never reached a layer)."""
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    if recorder is not None:
        c = recorder.counts
        for metric in ("obligations.calls", "obligations.built",
                       "cache.key_calls", "cache.get_calls", "cache.put_calls",
                       "encode.clausify_calls", "prover.searches",
                       "kernel.add_term_calls", "kernel.add_term_new",
                       "engine.calls", "engine.pops", "engine.keeps_evals",
                       "engine.rewrites"):
            values[metric] = c.get(metric, 0)
        for name in _PROVER_FIELDS:
            metric = ("kernel." if name == "struct_visits" else "prover.") + name
            values[metric] = c.get("prover." + name, 0)
        values["cache.hit_ratio"] = ratio(c.get("cache.get_hits", 0),
                                           c.get("cache.get_calls", 0))
        values["prover.instance_yield"] = ratio(values["prover.instances"],
                                                 values["prover.bindings"])
        values["kernel.add_term_new_ratio"] = ratio(
            values["kernel.add_term_new"], values["kernel.add_term_calls"])
        values["engine.keeps_hit_rate"] = ratio(
            c.get("engine.keeps_hits", 0),
            c.get("engine.keeps_hits", 0) + values["engine.keeps_evals"])
        selfs = recorder.self_times()
        for span_name, metric in _SELF_METRICS.items():
            values[metric] = selfs.get(span_name, (0, 0.0))[1]
        values["broker.wait_s"] = c.get("broker.queue_s", 0.0)
        values["trace.self_sum_s"] = sum(s for _, s in selfs.values())
        values["trace.spans"] = len(recorder.spans)
        mark = getattr(recorder, "intern_mark", None)
        if mark is not None:
            from repro.logic import intern

            delta = intern.STATS.delta(mark)
            values["intern.hits"] = delta["term_hits"] + delta["formula_hits"]
            values["intern.misses"] = (delta["term_misses"]
                                       + delta["formula_misses"])
            values["intern.hit_ratio"] = ratio(
                values["intern.hits"],
                values["intern.hits"] + values["intern.misses"])
    for name, value in (extra or {}).items():
        values[name] = value
    return values

