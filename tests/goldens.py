"""Golden renderings of the proof search and the Cobalt engine.

Two checked-in files pin what the prover and the engine answer, line by
line, so any change to either shows up as a readable diff:

* ``tests/golden/prover_search.txt`` — one line per obligation of the
  shipped suite (every analysis and optimization, built in the order
  ``verify_suite`` builds them), one per obligation of every rule stored
  in ``corpus/``, and one per seeded-random goal over a small quantified
  theory.  A line holds the canonical verdict, the first lines of a
  failing obligation's counterexample context (plus a digest of all of it),
  the search-shape counters (:meth:`ProverStats.search_fingerprint`) and,
  for the cheap suite rows and the goals, a digest of the instances
  admitted round by round.  Every search runs under counter-only budgets
  with a timeout that never fires, so the file does not depend on the
  machine.
* ``tests/golden/engine_runs.txt`` — the optimized program and the applied
  sites of every shipped pass over a fixed set of procedures (generated
  ones and a loop with unreachable code), the labels each pure analysis
  attaches, and a digest of the guard facts of every suite pattern on each
  of those procedures and on one that falls off its end.

``tests/test_goldens.py`` compares fresh renderings with the files.  After
an intended change of behaviour, rewrite them with::

    PYTHONPATH=src python tests/goldens.py
"""

from __future__ import annotations

import functools
import hashlib
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cobalt.dsl import BackwardPattern
from repro.cobalt.engine import CobaltEngine
from repro.cobalt.guards import GLabel, GTrue
from repro.cobalt.labels import standard_registry
from repro.cobalt.patterns import parse_pattern_stmt
from repro.fuzz import DEFAULT_CORPUS_DIR, load_entries
from repro.fuzz.campaign import FRONTIER_PROVER_OPTIONS
from repro.fuzz.rules import rule_from_json
from repro.il.ast import Assign, Const, IfGoto, Return, Var, VarLhs
from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.il.parser import parse_program
from repro.il.printer import stmt_to_str
from repro.il.program import Procedure
from repro.logic.formulas import And, Eq, Forall, Implies, Not, Or, Pred
from repro.logic.terms import App, IntConst, LVar
from repro.opts import ALL_ANALYSES, ALL_OPTIMIZATIONS, const_fold, const_prop, dae
from repro.opts.algebraic import add_zero_right
from repro.prover import Prover, ProverConfig
from repro.verify.checker import discharge_obligation
from repro.verify.encode import CONSTRUCTORS, all_axioms
from repro.verify.obligations import ObligationBuilder

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PROVER_GOLDEN = GOLDEN_DIR / "prover_search.txt"
ENGINE_GOLDEN = GOLDEN_DIR / "engine_runs.txt"

#: Suite rows whose per-round instance admissions are digested too.
FAST_ROWS = ("constProp", "copyProp", "constFold", "branchFold", "selfAssignRemoval")

#: Counterexample-context lines kept verbatim per failing obligation.
CONTEXT_LINES = 3

#: A wall-clock limit far above any search's budgeted run time: every
#: search ends on its counters, never on the clock.
NEVER_FIRES_S = 600.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Proof search
# ---------------------------------------------------------------------------


class _Recorder:
    """A prover stand-in that keeps every ``Result`` of an obligation."""

    def __init__(self, prover) -> None:
        self.prover = prover
        self.results: List = []

    def prove(self, goal, **kwargs):
        result = self.prover.prove(goal, **kwargs)
        self.results.append(result)
        return result


def _pattern_obligations(builder, pattern):
    if isinstance(pattern, BackwardPattern):
        return builder.backward_obligations(pattern)
    return builder.forward_obligations(pattern)


def _line(fields, proved, stats, logs, context) -> str:
    fields = list(fields) + [
        "proved" if proved else "failed",
        "fp=" + ",".join(map(str, stats.search_fingerprint())),
    ]
    if logs is not None:
        fields.append("rounds=" + digest(repr(logs)))
    if not proved:
        fields.append("ctx=" + digest("\n".join(context)))
        fields.extend(context[:CONTEXT_LINES])
    return " | ".join(fields)


def _obligation_line(section, owner, obligation, recorder, config, rounds) -> str:
    recorder.results = []
    result = discharge_obligation(recorder, owner, obligation, config)
    logs = [r.round_instances for r in recorder.results] if rounds else None
    return _line(
        (section, owner, obligation.name), result.proved, result.stats, logs, result.context
    )


def _suite_obligations() -> Iterable[Tuple[str, object]]:
    """``(owner, obligation)`` for the whole suite, in ``verify_suite``
    order: analyses first (each registering its label once checked), then
    each optimization with its own analyses registered."""
    registry = standard_registry()
    meanings = {}
    for analysis in ALL_ANALYSES:
        for ob in ObligationBuilder(registry, meanings).analysis_obligations(analysis):
            yield analysis.name, ob
        meanings[analysis.label_name] = analysis
    for opt in ALL_OPTIMIZATIONS:
        for analysis in opt.analyses:
            meanings[analysis.label_name] = analysis
        builder = ObligationBuilder(registry, meanings)
        for ob in _pattern_obligations(builder, opt.pattern):
            yield opt.name, ob


def _corpus_obligations() -> Iterable[Tuple[str, object]]:
    """``(owner, obligation)`` for every rule stored in ``corpus/``."""
    for path, entry in load_entries(DEFAULT_CORPUS_DIR):
        if "rule" not in entry.data:
            continue
        rule = rule_from_json(entry.data["rule"])
        builder = ObligationBuilder(standard_registry(), {})
        for ob in _pattern_obligations(builder, rule):
            yield f"{path.stem}:{rule.name}", ob


class _GoalGen:
    """Seeded random ground goals over a small equational vocabulary."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.consts = [App(n) for n in "abcde"]

    def term(self, depth=2):
        r = self.rng
        if depth == 0 or r.random() < 0.4:
            if r.random() < 0.8:
                return r.choice(self.consts)
            return IntConst(r.randrange(4))
        fn = r.choice(["f", "g", "pair"])
        if fn == "pair":
            return App("pair", (self.term(depth - 1), self.term(depth - 1)))
        return App(fn, (self.term(depth - 1),))

    def atom(self):
        if self.rng.random() < 0.6:
            return Eq(self.term(), self.term())
        return Pred("P", (self.term(),))

    def formula(self, depth=3):
        r = self.rng.random()
        if depth == 0 or r < 0.35:
            f = self.atom()
            return Not(f) if self.rng.random() < 0.3 else f
        if r < 0.55:
            return And((self.formula(depth - 1), self.formula(depth - 1)))
        if r < 0.75:
            return Or((self.formula(depth - 1), self.formula(depth - 1)))
        if r < 0.9:
            return Implies(self.formula(depth - 1), self.formula(depth - 1))
        return Not(self.formula(depth - 1))


def _random_theory():
    """A quantified background theory, so random goals exercise E-matching,
    merges, disequalities and backtracking."""
    x, y = LVar("x"), LVar("y")
    f = lambda t: App("f", (t,))
    g = lambda t: App("g", (t,))
    return [
        Forall(("x",), Eq(f(g(x)), g(f(x)))),
        Forall(("x",), Implies(Pred("P", (x,)), Pred("P", (f(x),)))),
        Forall(
            ("x", "y"),
            Implies(And((Eq(x, y), Pred("P", (x,)))), Pred("P", (y,))),
        ),
    ]


def _goals() -> Iterable[Tuple[str, list, object]]:
    """``(name, axioms, goal)``: 50 seeded-random goals (the odd seeds valid
    by construction, so refutations mix with saturations) and one goal
    whose proof needs instantiation rounds."""
    theory = _random_theory()
    for seed in range(50):
        gen = _GoalGen(seed)
        goal = gen.formula()
        if seed % 2:
            other = gen.formula()
            goal = Implies(And((goal, Implies(goal, other))), other)
        yield f"random{seed}", theory, goal
    x, y = LVar("x"), LVar("y")
    f = lambda t: App("f", (t,))
    axioms = [
        Forall(("x",), Implies(Pred("P", (x,)), Pred("P", (f(x),)))),
        Forall(
            ("x", "y"),
            Implies(And((Pred("P", (x,)), Eq(f(x), f(y)))), Pred("Q", (y,))),
        ),
    ]
    yield "quantified", axioms, Implies(Pred("P", (App("a"),)), Pred("Q", (f(App("a")),)))


@functools.lru_cache(maxsize=None)
def render_prover() -> str:
    """The text of ``prover_search.txt`` (rendered once per process)."""
    lines = [
        "# Proof-search golden: section | owner | obligation | verdict | fp=",
        "# search_fingerprint [| rounds=digest] [| ctx=digest | context...].",
        "# Regenerate with: PYTHONPATH=src python tests/goldens.py",
    ]
    suite_cfg = ProverConfig(timeout_s=NEVER_FIRES_S, record_round_instances=True)
    prover = _Recorder(Prover(all_axioms(), constructors=CONSTRUCTORS, config=suite_cfg))
    for owner, ob in _suite_obligations():
        lines.append(
            _obligation_line("suite", owner, ob, prover, suite_cfg, owner in FAST_ROWS)
        )
    # Corpus rules replay under the campaigns' deterministic budget.
    corpus_cfg = FRONTIER_PROVER_OPTIONS.to_config()
    prover = _Recorder(Prover(all_axioms(), constructors=CONSTRUCTORS, config=corpus_cfg))
    for owner, ob in _corpus_obligations():
        lines.append(_obligation_line("corpus", owner, ob, prover, corpus_cfg, False))
    goal_cfg = ProverConfig(
        max_rounds=4,
        max_instances=500,
        timeout_s=NEVER_FIRES_S,
        record_round_instances=True,
    )
    for name, axioms, goal in _goals():
        result = Prover(list(axioms), config=goal_cfg).prove(goal)
        lines.append(
            _line(
                ("goal", name),
                result.proved,
                result.stats,
                result.round_instances,
                result.context,
            )
        )
    return "\n".join(lines) + "\n"


def golden_rows(section: str, owner: Optional[str] = None, rendered: bool = False):
    """The lines of one section (and owner) of the prover golden — the
    checked-in file, or with ``rendered`` the live rendering."""
    text = render_prover() if rendered else PROVER_GOLDEN.read_text()
    rows = [line.split(" | ") for line in text.splitlines() if not line.startswith("#")]
    return [
        row for row in rows if row[0] == section and (owner is None or row[1] == owner)
    ]


def without_counters(rows):
    """Rows minus their ``fp=`` search counters: what a differently
    scheduled search over the same instances must still reproduce."""
    return [[field for field in row if not field.startswith("fp=")] for row in rows]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

_LOOP_PROGRAM = """
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


def _engine_procs() -> List[Tuple[str, object]]:
    """The named procedures every pass runs over."""
    procs = []
    for seed in range(4):
        config = GeneratorConfig(num_stmts=10)
        procs.append((f"gen{seed}", ProgramGenerator(config, seed=seed).gen_proc()))
    for seed in (100, 101, 102):
        config = GeneratorConfig(num_stmts=20, allow_pointers=True)
        procs.append((f"ptr{seed}", ProgramGenerator(config, seed=seed).gen_proc()))
    config = GeneratorConfig(num_stmts=40, num_branches=5, allow_pointers=True)
    procs.append(("big7", ProgramGenerator(config, seed=7).gen_proc()))
    procs.append(("loop", parse_program(_LOOP_PROGRAM).proc("main")))
    return procs


def _falloff_proc():
    """0: if n goto 1 else 2 / 1: return n / 2: a := 1 -- node 2 falls off
    the end: no successors, not a return, off every exit path.  Not a valid
    program (passes refuse to rewrite it), so only guard facts see it."""
    return Procedure(
        "main",
        "n",
        (IfGoto(Var("n"), 1, 2), Return(Var("n")), Assign(VarLhs(Var("a")), Const(1))),
    )


def _one_line(proc) -> str:
    return "; ".join(stmt_to_str(s) for s in proc.stmts)


def _facts_digest(facts: Sequence) -> str:
    return digest("\n".join(";".join(sorted(map(repr, fact))) for fact in facts))


@functools.lru_cache(maxsize=None)
def render_engine() -> str:
    """The text of ``engine_runs.txt`` (rendered once per process)."""

    procs = _engine_procs()
    lines = [
        "# Engine golden: run <pass> <proc> applied=<sites> => <output>;",
        "# labels <analysis> <proc> <digest>; facts <pattern> <digest per proc>.",
        "# Regenerate with: PYTHONPATH=src python tests/goldens.py",
    ]
    for name, proc in procs:
        lines.append(f"proc {name} {_one_line(proc)}")
    for opt in ALL_OPTIMIZATIONS:
        engine = CobaltEngine(standard_registry())
        for name, proc in procs:
            out, applied = engine.run_optimization(opt, proc)
            sites = ",".join(str(inst.index) for inst in applied) or "-"
            lines.append(f"run {opt.name} {name} applied={sites} => {_one_line(out)}")
    iterating = replace(dae, iterate=True)
    passes = [const_fold, const_prop, add_zero_right, dae]
    engine = CobaltEngine(standard_registry())
    for name, proc in procs:
        out, applied = engine.run_optimization(iterating, proc)
        sites = ",".join(str(inst.index) for inst in applied) or "-"
        lines.append(f"iterate {dae.name} {name} applied={sites} => {_one_line(out)}")
        fixed, counts = engine.run_to_fixpoint(passes, proc)
        counted = ",".join(f"{k}={v}" for k, v in sorted(counts.items())) or "-"
        lines.append(f"fixpoint {name} {counted} => {_one_line(fixed)}")
    for analysis in ALL_ANALYSES:
        engine = CobaltEngine(standard_registry())
        for name, proc in procs:
            labeling = engine.run_pure_analysis(analysis, proc)
            rendered = sorted(
                f"{i}:{label!r}"
                for i, labels in labeling.entries.items()
                for label in labels
            )
            lines.append(
                f"labels {analysis.name} {name} n={len(rendered)} {digest(chr(10).join(rendered))}"
            )
    engine = CobaltEngine(standard_registry())
    fact_procs = [proc for _, proc in procs] + [_falloff_proc()]
    for opt in ALL_OPTIMIZATIONS:
        pat = opt.pattern
        digests = [
            _facts_digest(engine.guard_facts(pat.psi1, pat.psi2, pat.direction, proc))
            for proc in fact_procs
        ]
        lines.append(f"facts {opt.name} {' '.join(digests)}")
    # The off-path backward meet: the fall-off node gets the universe.
    psi1 = GLabel("stmt", (parse_pattern_stmt("X := C"),))
    facts = engine.guard_facts(psi1, GTrue(), "backward", _falloff_proc())
    lines.append("facts falloff " + " | ".join(";".join(sorted(map(repr, f))) for f in facts))
    return "\n".join(lines) + "\n"


def engine_lines(kind: str, rendered: bool = False) -> List[str]:
    """The ``kind`` lines (``run``, ``facts``, ...) of the engine golden —
    the checked-in file, or with ``rendered`` the live rendering."""
    text = render_engine() if rendered else ENGINE_GOLDEN.read_text()
    return [line for line in text.splitlines() if line.split(" ", 1)[0] == kind]


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    PROVER_GOLDEN.write_text(render_prover())
    ENGINE_GOLDEN.write_text(render_engine())
    print(f"wrote {PROVER_GOLDEN} and {ENGINE_GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
