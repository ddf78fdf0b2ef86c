"""The proof search and the Cobalt engine reproduce their checked-in goldens.

``tests/golden/prover_search.txt`` pins, per obligation of the shipped suite
and of every ``corpus/`` rule, the verdict, the counterexample context, the
search-shape counters and (for the cheap rows) the instances admitted round
by round; ``tests/golden/engine_runs.txt`` pins every shipped pass's output
over a fixed procedure set, the pure analyses' labels, and the guard facts
of every suite pattern.  Both renderings are deterministic (counter-only
prover budgets, seeded programs), so any difference is a behaviour change.
An intended one is recorded by rewriting the files with
``PYTHONPATH=src python tests/goldens.py`` (see ``tests/goldens.py``).
"""

import difflib

from tests.goldens import ENGINE_GOLDEN, PROVER_GOLDEN, render_engine, render_prover


def _assert_matches(path, rendered):
    expected = path.read_text()
    if rendered != expected:
        diff = difflib.unified_diff(
            expected.splitlines(),
            rendered.splitlines(),
            str(path),
            "rendered",
            lineterm="",
        )
        raise AssertionError("\n".join(list(diff)[:60]))


def test_engine_runs_golden():
    _assert_matches(ENGINE_GOLDEN, render_engine())


def test_prover_search_golden():
    _assert_matches(PROVER_GOLDEN, render_prover())
