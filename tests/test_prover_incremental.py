"""The incremental proof search, and the answers the retired full-rescan
reference mode pinned.

The incremental search (mod-times E-matching + watched ground clauses) used
to be cross-checked at run time against a reference mode that re-matched
and rescanned everything.  That twin is gone.
``tests/golden/prover_search.txt`` was rendered at the last commit that
still had it, in a run that asserted the reference mode reproduced every
verdict, counterexample context and round-by-round instance set (its
search counters differ by design: it evaluates more).  The tests below
check the live search against that golden with the counters left out —
exactly the comparison the mode cross-checks made:

* obligation-level rows over the shipped optimization suite (fast subset
  always; the full suite under ``-m slow``);
* round-by-round instance sets over the fast rows and 50 seeded-random
  goals;
* a timeout regression: ``prove`` must return within a small factor of
  ``timeout_s`` even while an explosive E-matching round is in flight.
"""

import time

import pytest

from repro.logic.formulas import And, Forall, Implies, Pred
from repro.logic.terms import App, LVar
from repro.opts import ALL_OPTIMIZATIONS
from repro.prover import Prover, ProverConfig

from tests.goldens import FAST_ROWS, golden_rows, without_counters

MODES = ("incremental",)

#: Cheap rows for the always-on checks; the slow tests cover the rest.
FAST_OPTS = [o for o in ALL_OPTIMIZATIONS if o.name in FAST_ROWS]


def _assert_answers_reproduce(section, owner=None):
    expected = without_counters(golden_rows(section, owner))
    assert expected, f"no golden rows for {section} {owner}"
    assert without_counters(golden_rows(section, owner, rendered=True)) == expected
    return expected


@pytest.mark.parametrize("opt", FAST_OPTS, ids=lambda o: o.name)
def test_modes_identical_fast(opt):
    _assert_answers_reproduce("suite", opt.name)


@pytest.mark.slow
@pytest.mark.parametrize("opt", ALL_OPTIMIZATIONS, ids=lambda o: o.name)
def test_modes_identical_full_suite(opt):
    _assert_answers_reproduce("suite", opt.name)


@pytest.mark.slow
def test_modes_identical_analysis():
    _assert_answers_reproduce("suite", "taintedness")


# ---------------------------------------------------------------------------
# Round-by-round instance sets.
#
# The mod-times completeness argument says: every instance a full
# re-enumeration discovers in round r is either newly matchable (and thus
# found by the restricted passes) or was deferred by the relevance guard in
# an earlier round (and thus carried over).  The golden's ``rounds=``
# digests, recorded when the full re-enumeration still existed and agreed,
# keep that argument executable.
# ---------------------------------------------------------------------------


def test_round_by_round_obligations():
    """Every obligation of the fast rows admits the recorded instances,
    round by round."""
    for opt in FAST_OPTS:
        rows = _assert_answers_reproduce("suite", opt.name)
        assert all(any(f.startswith("rounds=") for f in row) for row in rows)


def test_round_by_round_kind_split_obligation():
    """A quantified goal whose proof needs instantiation rounds."""
    (row,) = _assert_answers_reproduce("goal", "quantified")
    assert row[2] == "proved"


def test_round_by_round_random_goals():
    """50 seeded-random goals: same verdict, context, and rounds."""
    rows = [
        row for row in _assert_answers_reproduce("goal") if row[1].startswith("random")
    ]
    assert len(rows) == 50
    # Sanity: the corpus is a genuine mix, not all-trivial one way.
    assert 0 < sum(row[2] == "proved" for row in rows) < 50


# ---------------------------------------------------------------------------
# Timeout enforcement inside _instantiate / the scan loop.
# ---------------------------------------------------------------------------


def _explosive_setup():
    """~200 ground facts and a quadratic multi-pattern: one E-matching
    round enumerates ~40k bindings, so a tiny timeout necessarily fires
    *inside* ``_instantiate`` (or the scan that follows), not between
    rounds."""
    x, y = LVar("x"), LVar("y")
    facts = [Pred("P", (App(f"c{i}"),)) for i in range(200)]
    axiom = Forall(
        ("x", "y"),
        Implies(
            And((Pred("P", (x,)), Pred("P", (y,)))),
            Pred("Q", (App("pair", (x, y)),)),
        ),
        triggers=((App("P", (x,)), App("P", (y,))),),
    )
    goal = Implies(And(tuple(facts)), Pred("R", (App("z"),)))
    return [axiom], goal


@pytest.mark.parametrize("mode", MODES)
def test_timeout_enforced_mid_instantiation(mode):
    axioms, goal = _explosive_setup()
    cfg = ProverConfig(timeout_s=0.2, max_rounds=50, max_instances=500_000)
    prover = Prover(axioms, config=cfg)
    start = time.monotonic()
    result = prover.prove(goal)
    elapsed = time.monotonic() - start
    assert not result.proved
    # Generous factor for loaded CI machines; without the in-loop deadline
    # checks this blows past 10s (one full quadratic round).
    assert elapsed < 5.0, (
        f"prove() took {elapsed:.2f}s against timeout_s=0.2"
    )
    assert any("resource limit" in line for line in result.context)
