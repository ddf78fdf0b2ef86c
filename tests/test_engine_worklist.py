"""The worklist guard-fixpoint solver vs. the reference sweep.

The worklist engine (``CobaltEngine(..., mode="worklist")``, the default)
must be *observationally identical* to the retained reference sweep
(``mode="reference"``): same ``guard_facts``, same ``Delta`` including
order, same optimized programs — on the whole shipped suite and on
generated procedures.  These tests pin that contract, the deterministic
ordering of ``legal_transformations``, the backward-meet fix for nodes off
every exit path, the narrowed failure handling in ``run_pure_analysis``,
and the :class:`EngineStats` observability layer.
"""

import pytest

from repro.il.ast import Assign, Const, IfGoto, Return, Var, VarLhs
from repro.il.cfg import Cfg
from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.il.parser import parse_program
from repro.il.program import Procedure
from repro.cobalt.dsl import PureAnalysis
from repro.cobalt.engine import CobaltEngine, EngineStats
from repro.cobalt.guards import GLabel, GTrue
from repro.cobalt.labels import standard_registry
from repro.cobalt.patterns import VarPat, parse_pattern_stmt
from repro.opts import ALL_ANALYSES, ALL_OPTIMIZATIONS, const_prop, dae


@pytest.fixture()
def worklist():
    return CobaltEngine(standard_registry())


@pytest.fixture()
def reference():
    return CobaltEngine(standard_registry(), mode="reference")


def generated_procs(count, *, num_stmts=12, seed_base=0, **kw):
    return [
        ProgramGenerator(
            GeneratorConfig(num_stmts=num_stmts, **kw), seed=seed_base + s
        ).gen_proc()
        for s in range(count)
    ]


def canonical_facts(facts):
    """A byte string uniquely determined by a guard_facts result."""
    return "\n".join(
        ";".join(sorted(map(repr, fact))) for fact in facts
    ).encode()


# ---------------------------------------------------------------------------
# Cross-check: worklist == reference
# ---------------------------------------------------------------------------


class TestCrossCheck:
    def test_suite_guard_facts_byte_identical(self, worklist, reference):
        """Every shipped pattern computes byte-identical facts under both
        solvers, over a spread of generated programs."""
        procs = generated_procs(4, num_stmts=10) + generated_procs(
            2, num_stmts=20, seed_base=100, allow_pointers=True
        )
        for opt in ALL_OPTIMIZATIONS:
            pat = opt.pattern
            for proc in procs:
                a = worklist.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
                b = reference.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
                assert canonical_facts(a) == canonical_facts(b), (
                    f"facts diverge for {opt.name}"
                )

    def test_suite_transformations_identical(self, worklist, reference):
        """Applied-transformation lists (order included) and optimized
        procedures agree on the whole shipped optimization suite."""
        procs = generated_procs(3, num_stmts=14) + generated_procs(
            2, num_stmts=14, seed_base=50, allow_pointers=True
        )
        for opt in ALL_OPTIMIZATIONS:
            for proc in procs:
                out_wl, applied_wl = worklist.run_optimization(opt, proc)
                out_ref, applied_ref = reference.run_optimization(opt, proc)
                assert applied_wl == applied_ref, f"Delta diverges for {opt.name}"
                assert out_wl == out_ref, f"output diverges for {opt.name}"

    def test_suite_pure_analyses_identical(self, worklist, reference):
        for analysis in ALL_ANALYSES:
            for proc in generated_procs(3, num_stmts=12, allow_pointers=True):
                a = worklist.run_pure_analysis(analysis, proc)
                b = reference.run_pure_analysis(analysis, proc)
                assert a == b

    def test_iterated_and_composed_identical(self, worklist, reference):
        """The iterate loop and run_to_fixpoint — where state is derived
        across rewrites — stay identical too."""
        from dataclasses import replace

        from repro.opts import const_fold
        from repro.opts.algebraic import add_zero_right

        iterating = replace(dae, iterate=True)
        passes = [const_fold, const_prop, add_zero_right, dae]
        for proc in generated_procs(6, num_stmts=16, seed_base=7):
            out_wl, applied_wl = worklist.run_optimization(iterating, proc)
            out_ref, applied_ref = reference.run_optimization(iterating, proc)
            assert (out_wl, applied_wl) == (out_ref, applied_ref)
            fix_wl = worklist.run_to_fixpoint(passes, proc)
            fix_ref = reference.run_to_fixpoint(passes, proc)
            assert fix_wl == fix_ref

    def test_loops_and_unreachable_code(self, worklist, reference):
        """Back edges and unreachable regions — the worklist orderings'
        interesting cases."""
        proc = parse_program(
            """
            main(n) {
              decl i;
              decl s;
              decl t;
              i := 0;
              s := 2;
              t := i < n;
              if t goto 7 else 11;
              s := s + 1;
              i := i + 1;
              t := i < n;
              if t goto 7 else 11;
              s := 7;
              return s;
            }
            """
        ).proc("main")
        for opt in (const_prop, dae):
            pat = opt.pattern
            a = worklist.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
            b = reference.guard_facts(pat.psi1, pat.psi2, pat.direction, proc)
            assert canonical_facts(a) == canonical_facts(b)


# ---------------------------------------------------------------------------
# Deterministic Delta ordering (satellite)
# ---------------------------------------------------------------------------


class TestDeterministicDelta:
    def test_delta_stable_across_runs_and_engines(self):
        """Same Delta — order included — across repeated runs, across
        fresh engines, and across the two solvers, on 50+ generated
        procedures (one forward and one backward pattern)."""
        procs = generated_procs(50, num_stmts=12)
        wl1 = CobaltEngine(standard_registry())
        wl2 = CobaltEngine(standard_registry())
        ref = CobaltEngine(standard_registry(), mode="reference")
        for opt in (const_prop, dae):
            for proc in procs:
                first = wl1.legal_transformations(opt.pattern, proc)
                again = wl1.legal_transformations(opt.pattern, proc)
                fresh = wl2.legal_transformations(opt.pattern, proc)
                sweep = ref.legal_transformations(opt.pattern, proc)
                assert first == again == fresh == sweep


# ---------------------------------------------------------------------------
# Backward meet ordering (satellite regression)
# ---------------------------------------------------------------------------


class TestBackwardMeetOffPath:
    def _fall_off_proc(self):
        # 0: if n goto 1 else 2 / 1: return n / 2: a := 1  <- falls off
        # the end: no successors, not a return, off every exit path.
        return Procedure(
            "main",
            "n",
            (
                IfGoto(Var("n"), 1, 2),
                Return(Var("n")),
                Assign(VarLhs(Var("a")), Const(1)),
            ),
        )

    @pytest.mark.parametrize("mode", ["worklist", "reference"])
    def test_fall_off_the_end_gets_universe(self, mode):
        """A non-return node with no successors is off every entry-to-exit
        path, so its backward fact is the vacuously-full universe — not
        the empty region a true return contributes."""
        engine = CobaltEngine(standard_registry(), mode=mode)
        proc = self._fall_off_proc()
        psi1 = GLabel("stmt", (parse_pattern_stmt("X := C"),))
        facts = engine.guard_facts(psi1, GTrue(), "backward", proc)
        universe = frozenset().union(*(
            engine.guard_facts(psi1, GTrue(), "backward", proc)[i]
            for i in range(len(proc.stmts))
        )) or frozenset()
        # The generating node (a := 1) makes the universe non-empty.
        assert any(facts)
        # The true return still carries the empty region...
        assert facts[1] == frozenset()
        # ...while the fall-off-the-end node carries the full fact.
        assert facts[2] == universe
        assert facts[2] != frozenset()

    def test_both_engines_agree_on_fall_off_proc(self):
        proc = self._fall_off_proc()
        psi1 = GLabel("stmt", (parse_pattern_stmt("X := C"),))
        wl = CobaltEngine(standard_registry())
        ref = CobaltEngine(standard_registry(), mode="reference")
        assert canonical_facts(
            wl.guard_facts(psi1, GTrue(), "backward", proc)
        ) == canonical_facts(ref.guard_facts(psi1, GTrue(), "backward", proc))


# ---------------------------------------------------------------------------
# run_pure_analysis failure handling (satellite)
# ---------------------------------------------------------------------------


class TestPureAnalysisErrors:
    def _unbound_analysis(self):
        # psi1 = true binds nothing, so the label argument X is unbound in
        # every fact substitution: each instantiation fails benignly.
        return PureAnalysis(
            name="unboundLabel",
            psi1=GTrue(),
            psi2=GTrue(),
            label_name="notTainted",
            label_args=(VarPat("X"),),
            witness=None,
        )

    def test_unbound_label_args_are_skipped(self, worklist):
        proc = parse_program("main(n) { decl a; a := 1; return a; }").proc("main")
        labeling = worklist.run_pure_analysis(self._unbound_analysis(), proc)
        assert labeling.entries == {}

    def test_real_engine_bugs_propagate(self, worklist, monkeypatch):
        """Only the instantiation failure (unbound pattern variable) is
        swallowed; any other exception surfaces instead of silently
        dropping labels."""
        import repro.cobalt.engine as engine_mod

        def boom(term, theta):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(engine_mod, "instantiate_term", boom)
        proc = parse_program("main(n) { decl a; a := 1; return a; }").proc("main")
        with pytest.raises(RuntimeError, match="engine bug"):
            worklist.run_pure_analysis(self._unbound_analysis(), proc)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestEngineStats:
    def test_counters_populated(self, worklist):
        proc = generated_procs(1, num_stmts=16)[0]
        worklist.run_optimization(const_prop, proc)
        stats = worklist.stats
        assert stats.guard_facts_calls >= 1
        assert stats.worklist_pops > 0
        assert stats.sweeps == 0
        assert stats.keeps_evals + stats.keeps_hits > 0
        assert stats.gen_evals > 0
        assert stats.guard_s > 0.0
        assert 0.0 <= stats.keeps_hit_rate <= 1.0
        assert "worklist pops" in stats.table()

    def test_reference_counts_sweeps(self, reference):
        proc = generated_procs(1, num_stmts=16)[0]
        reference.run_optimization(const_prop, proc)
        assert reference.stats.sweeps >= 2  # at least one sweep + quiescence
        assert reference.stats.worklist_pops == 0
        assert reference.stats.keeps_hits == 0

    def test_reset_returns_snapshot(self, worklist):
        proc = generated_procs(1, num_stmts=8)[0]
        worklist.run_optimization(const_prop, proc)
        snap = worklist.reset_stats()
        assert snap.guard_facts_calls >= 1
        assert worklist.stats.guard_facts_calls == 0
        assert worklist.stats == EngineStats()

    def test_memoization_pays_off_across_iteration(self):
        """The iterate loop re-analyzes only what changed: the worklist
        engine's check evaluations stay well below the reference sweep's
        on an iterated DAE chain."""
        from dataclasses import replace

        proc = parse_program(
            """
            main(n) {
              decl a;
              decl b;
              decl c;
              a := n;
              b := a;
              c := b;
              c := 1;
              return c;
            }
            """
        ).proc("main")
        iterating = replace(dae, iterate=True)
        wl = CobaltEngine(standard_registry())
        ref = CobaltEngine(standard_registry(), mode="reference")
        out_wl, applied_wl = wl.run_optimization(iterating, proc)
        out_ref, applied_ref = ref.run_optimization(iterating, proc)
        assert (out_wl, applied_wl) == (out_ref, applied_ref)
        assert len(applied_wl) == 3
        assert wl.stats.keeps_evals < ref.stats.keeps_evals
        assert wl.stats.keeps_hits > 0
        # The rewrite preserved CFG shape, so the derived states never
        # rebuilt the graph after the first construction.
        assert wl.stats.cfg_builds == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CobaltEngine(standard_registry(), mode="chaotic")

    def test_invalid_direction_rejected(self, worklist):
        proc = generated_procs(1, num_stmts=4)[0]
        with pytest.raises(ValueError):
            worklist.guard_facts(GTrue(), GTrue(), "sideways", proc)


# ---------------------------------------------------------------------------
# Traversal orders
# ---------------------------------------------------------------------------


class TestBoundedMemos:
    def test_intern_tables_stay_bounded_and_results_unchanged(self, monkeypatch):
        """One engine over many programs, as a fuzz campaign runs it: the
        memos and the intern tables that key them are cleared together, so
        every table stays bounded and no answer changes."""
        from repro.cobalt import engine as engine_module

        gen_limit, keeps_limit, intern_limit = 64, 256, 24
        monkeypatch.setattr(engine_module, "_GEN_MEMO_LIMIT", gen_limit)
        monkeypatch.setattr(engine_module, "_KEEPS_MEMO_LIMIT", keeps_limit)
        monkeypatch.setattr(engine_module, "_INTERN_LIMIT", intern_limit)
        procs = generated_procs(24, num_stmts=8, allow_pointers=True, seed_base=900)
        shared = CobaltEngine(standard_registry())
        for proc in procs:
            n = len(proc.stmts)
            for opt in ALL_OPTIMIZATIONS:
                evals_before = shared.stats.keeps_evals
                got = shared.run_optimization(opt, proc)
                assert got == CobaltEngine(standard_registry()).run_optimization(opt, proc)
                # Bounds are enforced when a fixpoint starts, so a table
                # may exceed its limit by at most one fixpoint's additions.
                assert len(shared._guard_keys) <= intern_limit + 2
                assert len(shared._stmt_keys) <= intern_limit + n
                assert len(shared._label_keys) <= intern_limit + n
                assert len(shared._domain_keys) <= intern_limit + 1
                assert len(shared._gen_memo) <= gen_limit + n
                assert len(shared._keeps_memo) <= (
                    keeps_limit + shared.stats.keeps_evals - evals_before
                )
        distinct = {s for proc in procs for s in proc.stmts}
        assert len(distinct) > 2 * intern_limit, "the workload must overflow the tables"


class TestCfgOrders:
    def test_reverse_postorder_visits_before_successors(self):
        proc = parse_program(
            """
            main(n) {
              decl a;
              if n goto 2 else 3;
              a := 1;
              a := 2;
              return a;
            }
            """
        ).proc("main")
        cfg = Cfg.build(proc)
        rpo = cfg.reverse_postorder()
        assert sorted(rpo) == list(range(len(proc.stmts)))
        pos = {node: i for i, node in enumerate(rpo)}
        assert pos[0] == 0
        assert pos[1] < pos[2] and pos[1] < pos[3]
        assert pos[2] < pos[4] and pos[3] < pos[4]
        po = cfg.postorder()
        assert tuple(reversed(po)) == rpo

    def test_orders_cover_unreachable_nodes(self):
        proc = Procedure(
            "main",
            "n",
            (
                IfGoto(Var("n"), 2, 2),
                Assign(VarLhs(Var("a")), Const(5)),  # unreachable
                Return(Var("n")),
            ),
        )
        cfg = Cfg.build(proc)
        assert sorted(cfg.reverse_postorder()) == [0, 1, 2]
        assert sorted(cfg.postorder()) == [0, 1, 2]
        assert 1 not in cfg.reachable_from_entry()
