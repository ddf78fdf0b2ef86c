"""The e-graph kernel (``src/repro/prover/kernels/``): invariants, and the
answers the retired reference kernel pinned.

The flat struct-of-arrays kernel used to be cross-checked against a second,
object-graph e-graph at run time.  That twin is gone; what it guaranteed
lives on in two forms:

* ``tests/golden/prover_search.txt`` was rendered at the last commit that
  still had the reference kernel, in a run that asserted the reference
  kernel reproduced every line — verdicts, counterexample contexts,
  round-by-round instances and search counters.  The ``*_identical`` tests
  below check the live kernel against that golden, row group by row group;
* randomized add_term / assert_eq / assert_diseq / push / pop traces check
  the kernel's own invariants after every operation: asserted equalities
  and disequalities hold, classes are closed under congruence, member
  cycles agree with ``find`` as sets, and every ``pop`` restores exactly
  the state its ``push`` saw.

Plus the kernel plumbing: the build identity, trigger compilation errors,
the deadline inside the matcher, and proof-cache compatibility with the
directories written before the twins were retired.
"""

import json
import random
from pathlib import Path

import pytest

from repro.api import VerifyOptions, check_optimization, verify_suite
from repro.fuzz import DEFAULT_CORPUS_DIR, load_entries, replay_entry
from repro.logic.formulas import Eq
from repro.logic.terms import App, IntConst
from repro.opts import ALL_OPTIMIZATIONS
from repro.prover import Prover, ProverConfig
from repro.prover.kernels import FlatEGraph, compile_trigger, kernel_identity
from repro.verify.cache import SCHEMA_VERSION, config_fingerprint
from repro.verify.cas import ShardedStore

from tests.goldens import golden_rows
from tests.test_prover_incremental import FAST_OPTS, _explosive_setup

KERNELS = ("flat",)


def _assert_rows_reproduce(section, owner=None):
    expected = golden_rows(section, owner)
    assert expected, f"no golden rows for {section} {owner}"
    assert golden_rows(section, owner, rendered=True) == expected
    return expected


# ---------------------------------------------------------------------------
# Obligation-level answers over the shipped suite, against the golden.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("opt", FAST_OPTS, ids=lambda o: o.name)
def test_kernels_identical_fast(opt):
    _assert_rows_reproduce("suite", opt.name)


@pytest.mark.slow
@pytest.mark.parametrize("opt", ALL_OPTIMIZATIONS, ids=lambda o: o.name)
def test_kernels_identical_full_suite(opt):
    _assert_rows_reproduce("suite", opt.name)


@pytest.mark.slow
def test_kernels_identical_analysis():
    _assert_rows_reproduce("suite", "taintedness")


# ---------------------------------------------------------------------------
# Seeded-random goals: verdict, context, rounds, and counters.
# ---------------------------------------------------------------------------


def test_random_goals_identical():
    """50 seeded-random goals: same verdict, context, rounds, counters."""
    rows = [
        row for row in _assert_rows_reproduce("goal") if row[1].startswith("random")
    ]
    assert len(rows) == 50
    proved = sum(row[2] == "proved" for row in rows)
    assert 0 < proved < 50


def test_quantified_goal_rounds_identical():
    """A goal whose proof needs instantiation rounds."""
    (row,) = _assert_rows_reproduce("goal", "quantified")
    assert row[2] == "proved"
    assert any(field.startswith("rounds=") for field in row)


# ---------------------------------------------------------------------------
# Fuzzing corpus: every stored failure still replays.  ``flat`` replays the
# entry live; ``reference`` checks its rule's rows against the golden the
# reference kernel reproduced (entries without a rule replay live too).
# ---------------------------------------------------------------------------

ENTRIES = load_entries(DEFAULT_CORPUS_DIR)


@pytest.mark.parametrize("kernel", ("reference", "flat"))
@pytest.mark.parametrize(
    "path,entry", ENTRIES, ids=[p.name for p, _ in ENTRIES]
)
def test_corpus_replays_per_kernel(path, entry, kernel):
    if kernel == "reference" and "rule" in entry.data:
        owner = f"{path.stem}:{entry.data['rule']['name']}"
        _assert_rows_reproduce("corpus", owner)
        return
    ok, detail = replay_entry(entry)
    assert ok, f"{path.name}: {detail}"


@pytest.mark.parametrize(
    "path,entry",
    [(p, e) for p, e in ENTRIES if e.kind == "unsound-rule"],
    ids=[p.name for p, e in ENTRIES if e.kind == "unsound-rule"],
)
def test_corpus_unsound_rules_fingerprint_identical(path, entry):
    """Known-unsound rules: the rejection is reproduced row for row."""
    owner = f"{path.stem}:{entry.data['rule']['name']}"
    rows = _assert_rows_reproduce("corpus", owner)
    assert any(row[3] == "failed" for row in rows), f"{path.name}: now proves SOUND"


# ---------------------------------------------------------------------------
# Randomized substrate traces: the kernel's invariants after every step.
#
# The tests above exercise the kernel through one search policy; this
# drives it directly with operation sequences the search would never emit
# (deep push/pop nests, disequalities between interior terms, redundant
# asserts).  Every assert runs in its own scope so a conflicting one can be
# popped — which must restore the pre-assert state exactly.
# ---------------------------------------------------------------------------

_TRACE_CONSTRUCTORS = ("nil", "cons")


class _TraceGen:
    """Seeded random ground terms over a vocabulary with numerals,
    constructors, and interpreted arithmetic heads."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.consts = [App(n) for n in "abcd"]

    def term(self, depth=2):
        r = self.rng
        if depth == 0 or r.random() < 0.45:
            roll = r.random()
            if roll < 0.5:
                return r.choice(self.consts)
            if roll < 0.8:
                return IntConst(r.randrange(3))
            return App("nil")
        fn = r.choice(["f", "g", "pair", "cons", "add"])
        if fn in ("pair", "cons", "add"):
            return App(fn, (self.term(depth - 1), self.term(depth - 1)))
        return App(fn, (self.term(depth - 1),))


def _snapshot(eg):
    """The observable state a ``pop`` must restore."""
    n = len(eg.node_terms)
    finds = tuple(eg.find(i) for i in range(n))
    roots = sorted(set(finds))
    return (
        n,
        finds,
        tuple(eg.class_int_value(r) for r in roots),
        tuple(str(eg.representative(r)) for r in roots),
        tuple(tuple(sorted(eg.find(d) for d in eg.diseq[r])) for r in roots),
    )


def _check_invariants(eg, eqs, diseqs):
    for t1, t2 in eqs:
        assert eg.are_equal(t1, t2), f"asserted {t1} = {t2} no longer holds"
    for t1, t2 in diseqs:
        assert eg.are_diseq(t1, t2), f"asserted {t1} != {t2} no longer holds"
    n = len(eg.node_terms)
    finds = [eg.find(i) for i in range(n)]
    classes = {}
    for i, root in enumerate(finds):
        classes.setdefault(root, set()).add(i)
    # Members agree with find, as sets (cycle order is an implementation
    # detail).
    for root, members in classes.items():
        assert set(eg.members(root)) == members
    # Congruence: applications with the same head and pairwise-equal
    # arguments share a class.
    signatures = {}
    for i, term in enumerate(eg.node_terms):
        if isinstance(term, App) and term.args:
            sig = (term.fn, tuple(finds[eg.term_to_node[a]] for a in term.args))
            other = signatures.setdefault(sig, i)
            assert finds[other] == finds[i], f"{term} not congruent"
    # Numerals: a class's value is the value of every numeral member.
    for root, members in classes.items():
        for i in members:
            term = eg.node_terms[i]
            if isinstance(term, IntConst):
                assert eg.class_int_value(root) == term.value


@pytest.mark.parametrize("seed", range(12))
def test_random_traces_identical(seed):
    gen = _TraceGen(seed)
    rng = gen.rng
    eg = FlatEGraph(constructors=_TRACE_CONSTRUCTORS)
    added = []
    # One frame per open scope: (snapshot at push, equalities, disequalities).
    frames = [(None, [], [])]

    def asserted():
        eqs = [pair for frame in frames for pair in frame[1]]
        return eqs, [pair for frame in frames for pair in frame[2]]

    for step in range(120):
        roll = rng.random()
        if roll < 0.35 or not added:
            t = gen.term()
            added.append(t)
            eg.add_term(t)
        elif roll < 0.75:
            t1, t2 = rng.choice(added), rng.choice(added)
            equal = roll < 0.60
            before = _snapshot(eg)
            eg.push()
            ok = eg.assert_eq(t1, t2) if equal else eg.assert_diseq(t1, t2)
            if ok:
                frames.append((before, [(t1, t2)] if equal else [], [] if equal else [(t1, t2)]))
            else:
                eg.pop()
                assert eg.conflict is None
                assert _snapshot(eg) == before, f"seed {seed}: pop after conflict"
        elif roll < 0.85:
            frames.append((_snapshot(eg), [], []))
            eg.push()
        elif roll < 0.95 and len(frames) > 1:
            eg.pop()
            assert _snapshot(eg) == frames.pop()[0], f"seed {seed}: pop at step {step}"
        else:
            eg.bump_generation()
        _check_invariants(eg, *asserted())
    # Unwind every remaining scope: each pop restores its push's state.
    while len(frames) > 1:
        eg.pop()
        assert _snapshot(eg) == frames.pop()[0]
        _check_invariants(eg, *asserted())


def test_members_agree_as_sets():
    """Member cycles enumerate exactly the nodes ``find`` puts in a class."""
    gen = _TraceGen(99)
    eg = FlatEGraph(constructors=_TRACE_CONSTRUCTORS)
    terms = [gen.term(3) for _ in range(30)]
    for t in terms:
        eg.add_term(t)
    for i in range(0, 28, 2):
        eg.assert_eq(terms[i], terms[i + 1])
    for i in range(len(eg.node_terms)):
        root = eg.find(i)
        expected = {j for j in range(len(eg.node_terms)) if eg.find(j) == root}
        assert set(eg.members(root)) == expected


# ---------------------------------------------------------------------------
# Timeout enforcement inside the matcher.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_timeout_enforced_mid_match(kernel):
    import time

    axioms, goal = _explosive_setup()
    cfg = ProverConfig(timeout_s=0.2, max_rounds=50, max_instances=500_000)
    prover = Prover(axioms, config=cfg)
    start = time.monotonic()
    result = prover.prove(goal)
    elapsed = time.monotonic() - start
    assert not result.proved
    assert result.stats.kernel.startswith(kernel + "/")
    assert elapsed < 5.0, f"prove() took {elapsed:.2f}s against timeout_s=0.2"
    assert any("resource limit" in line for line in result.context)


def test_match_deadline_raises_mid_enumeration():
    """A past deadline stops ``flat_ematch`` inside the candidate loop."""
    import time

    from repro.logic.terms import LVar
    from repro.prover.kernels.flat import MatchTimeout, flat_ematch

    eg = FlatEGraph()
    for i in range(300):
        eg.add_term(App("P", (App(f"c{i}"),)))
    x, y = LVar("x"), LVar("y")
    prog = compile_trigger(eg, (App("P", (x,)), App("P", (y,))))
    assert len(flat_ematch(eg, prog)) == 300 * 300
    with pytest.raises(MatchTimeout):
        flat_ematch(eg, prog, deadline=time.monotonic() - 1.0)


# ---------------------------------------------------------------------------
# Cache identity: retiring the twins must not invalidate existing caches.
# ---------------------------------------------------------------------------

#: The L1 object files of the last commit with the reference twins, warmed
#: by ``verify_suite`` and one rejected optimization (so it holds an
#: ``unknown`` verdict scoped to ``internal;mode=incremental``):
#: ``{key: object}``.
PARENT_L1 = Path(__file__).parent / "golden" / "parent_l1.json"


def test_cache_schema_and_fingerprint_exclude_kernel():
    assert SCHEMA_VERSION == 4, (
        "retiring the twins changed the cache schema; existing caches "
        "must keep replaying"
    )
    assert config_fingerprint(ProverConfig(timeout_s=300.0)) == (
        "rounds=12;instances=20000;decisions=200000;timeout=300.0"
    )
    from repro.prover.backends.internal import INTERNAL_IDENTITY, InternalBackend

    assert INTERNAL_IDENTITY == "internal;mode=incremental"
    assert InternalBackend(ProverConfig()).identity() == INTERNAL_IDENTITY


def test_cache_hits_survive_kernel_switch(tmp_path):
    """An L1 directory warmed before the twins were retired replays the
    whole suite — 76 hits, 0 misses, every verdict proved — and its stored
    ``unknown`` verdicts replay too."""
    from repro.opts.buggy import ALL_BUGGY

    objects = json.loads(PARENT_L1.read_text())
    store = ShardedStore(tmp_path, SCHEMA_VERSION)
    for key, obj in objects.items():
        path = store.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(obj))
    unknowns = [o["entry"] for o in objects.values() if not o["entry"]["proved"]]
    assert unknowns
    assert all(e["backend"] == "internal;mode=incremental" for e in unknowns)

    report = verify_suite(VerifyOptions(cache_dir=str(tmp_path)))
    stats = report.cache.stats
    assert (stats.hits, stats.misses) == (76, 0)
    # Sound means every obligation proved, as every golden suite row is.
    assert report.sound
    assert all(row[3] == "proved" for row in golden_rows("suite"))

    buggy = next(opt for opt in ALL_BUGGY if opt.name == "buggyConstFoldWrongResult")
    options = VerifyOptions(cache_dir=str(tmp_path))
    rejected = check_optimization(buggy, options)
    assert not rejected.sound
    assert all(r.cached for r in rejected.results)
    assert any(not r.proved for r in rejected.results)


# ---------------------------------------------------------------------------
# Kernel plumbing: identity, trigger compilation errors.
# ---------------------------------------------------------------------------


def test_make_egraph_and_identities():
    """One kernel: no selector, no registry, no reference module."""
    import repro.prover.kernels as kernels

    assert kernel_identity() in ("flat/pure-python", "flat/compiled")
    assert not hasattr(kernels, "make_egraph")
    assert not hasattr(kernels, "KERNEL_NAMES")
    with pytest.raises(ImportError):
        import repro.prover.egraph  # noqa: F401
    with pytest.raises(TypeError):
        ProverConfig(kernel="reference")


def test_stats_report_kernel_identity():
    result = Prover([]).prove(Eq(App("a"), App("a")))
    assert result.stats.kernel == kernel_identity()
    assert kernel_identity() in result.stats.table()
    assert "structural visits" in result.stats.table()


def test_compile_trigger_rejects_bare_variable():
    from repro.logic.terms import LVar

    eg = FlatEGraph()
    with pytest.raises(ValueError, match="bare variable"):
        compile_trigger(eg, (LVar("x"),))
