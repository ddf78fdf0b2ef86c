"""The worklist guard-fixpoint solver, and the answers the retired
chaotic sweep pinned.

The worklist engine used to be cross-checked at run time against a naive
round-robin sweep.  That twin is gone: ``tests/golden/engine_runs.txt``
was rendered at the last commit that still had it, in a run that asserted
the sweep reproduced every line — ``guard_facts``, ``Delta`` including
order, optimized programs and pure-analysis labels, over generated
procedures, a loop with unreachable code and a procedure that falls off
its end.  ``TestCrossCheck`` checks the live engine against that golden.
These tests also pin the deterministic ordering of
``legal_transformations``, the backward-meet fix for nodes off every exit
path, the narrowed failure handling in ``run_pure_analysis``, and the
:class:`EngineStats` observability layer.
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
from repro.opts import ALL_OPTIMIZATIONS, const_prop, dae

from tests.goldens import engine_lines


@pytest.fixture()
def worklist():
    return CobaltEngine(standard_registry())


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
# Against the golden the reference sweep reproduced
# ---------------------------------------------------------------------------


def _assert_lines_reproduce(kind, select=lambda line: True):
    expected = [line for line in engine_lines(kind) if select(line)]
    assert expected, f"no golden {kind} lines"
    assert [line for line in engine_lines(kind, rendered=True) if select(line)] == expected


class TestCrossCheck:
    def test_suite_guard_facts_byte_identical(self):
        """Every shipped pattern computes the recorded facts on every
        golden procedure."""
        _assert_lines_reproduce("facts")

    def test_suite_transformations_identical(self):
        """Applied-transformation lists (order included) and optimized
        procedures of the whole shipped optimization suite."""
        _assert_lines_reproduce("run")

    def test_suite_pure_analyses_identical(self):
        _assert_lines_reproduce("labels")

    def test_iterated_and_composed_identical(self):
        """The iterate loop and run_to_fixpoint — where state is derived
        across rewrites."""
        _assert_lines_reproduce("iterate")
        _assert_lines_reproduce("fixpoint")

    def test_loops_and_unreachable_code(self):
        """Back edges and unreachable regions — the worklist orderings'
        interesting cases."""
        _assert_lines_reproduce("run", lambda line: line.split()[2] == "loop")
        _assert_lines_reproduce("proc", lambda line: line.split()[1] == "loop")


# ---------------------------------------------------------------------------
# Deterministic Delta ordering (satellite)
# ---------------------------------------------------------------------------


class TestDeterministicDelta:
    def test_delta_stable_across_runs_and_engines(self):
        """Same Delta — order included — across repeated runs and across
        fresh engines, on 50 generated procedures (one forward and one
        backward pattern)."""
        procs = generated_procs(50, num_stmts=12)
        wl1 = CobaltEngine(standard_registry())
        wl2 = CobaltEngine(standard_registry())
        for opt in (const_prop, dae):
            for proc in procs:
                first = wl1.legal_transformations(opt.pattern, proc)
                again = wl1.legal_transformations(opt.pattern, proc)
                fresh = wl2.legal_transformations(opt.pattern, proc)
                assert first == again == fresh


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

    @pytest.mark.parametrize("mode", ["worklist"])
    def test_fall_off_the_end_gets_universe(self, mode):
        """A non-return node with no successors is off every entry-to-exit
        path, so its backward fact is the vacuously-full universe — not
        the empty region a true return contributes."""
        engine = CobaltEngine(standard_registry())
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
        """The facts the reference sweep recorded for this procedure."""
        proc = self._fall_off_proc()
        psi1 = GLabel("stmt", (parse_pattern_stmt("X := C"),))
        facts = CobaltEngine(standard_registry()).guard_facts(
            psi1, GTrue(), "backward", proc
        )
        (line,) = [line for line in engine_lines("facts") if line.startswith("facts falloff ")]
        recorded = line[len("facts falloff "):]
        assert " | ".join(";".join(sorted(map(repr, f))) for f in facts) == recorded


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
        assert stats.keeps_evals + stats.keeps_hits > 0
        assert stats.gen_evals > 0
        assert stats.guard_s > 0.0
        assert 0.0 <= stats.keeps_hit_rate <= 1.0
        assert "worklist pops" in stats.table()

    def test_reset_returns_snapshot(self, worklist):
        proc = generated_procs(1, num_stmts=8)[0]
        worklist.run_optimization(const_prop, proc)
        snap = worklist.reset_stats()
        assert snap.guard_facts_calls >= 1
        assert worklist.stats.guard_facts_calls == 0
        assert worklist.stats == EngineStats()

    def test_memoization_pays_off_across_iteration(self):
        """The iterate loop re-analyzes only what changed: on an iterated
        DAE chain most ``keeps`` lookups are memo hits."""
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
        out_wl, applied_wl = wl.run_optimization(iterating, proc)
        assert [inst.index for inst in applied_wl] == [5, 4, 3]
        assert all(str(out_wl.stmts[i]) == "skip" for i in (3, 4, 5))
        assert wl.stats.keeps_hits > wl.stats.keeps_evals
        # The rewrite preserved CFG shape, so the derived states never
        # rebuilt the graph after the first construction.
        assert wl.stats.cfg_builds == 1

    def test_invalid_mode_rejected(self):
        """There is one solver; the old selector is not accepted."""
        with pytest.raises(TypeError):
            CobaltEngine(standard_registry(), mode="reference")

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
