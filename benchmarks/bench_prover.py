"""Supplementary prover microbenchmarks.

Not a paper table, but the substrate the E1 numbers rest on: E-graph merge
throughput, E-matching over growing term sets, map-theory proof latency,
and the full background-axiom clausification cost.
"""

import pytest

from repro.logic.formulas import Eq, Forall, Implies, Not, Or, Pred
from repro.logic.terms import App, IntConst, LVar, mk
from repro.prover import Prover, ProverConfig
from repro.prover.kernels.flat import FlatEGraph, compiled_trigger, flat_ematch


def test_egraph_merge_chain(benchmark):
    terms = [App(f"c{i}") for i in range(300)]

    def run():
        e = FlatEGraph()
        for t1, t2 in zip(terms, terms[1:]):
            e.assert_eq(t1, t2)
        assert e.are_equal(terms[0], terms[-1])

    benchmark(run)


def test_egraph_congruence_cascade(benchmark):
    # Merging the leaves must collapse a tower of applications.
    def run():
        e = FlatEGraph()
        a, b = App("a"), App("b")
        ta, tb = a, b
        for _ in range(60):
            ta, tb = mk("f", ta), mk("f", tb)
        e.add_term(ta)
        e.add_term(tb)
        e.assert_eq(a, b)
        assert e.are_equal(ta, tb)

    benchmark(run)


def test_egraph_push_pop(benchmark):
    a, b = App("a"), App("b")

    def run():
        e = FlatEGraph()
        e.add_term(mk("f", a))
        e.add_term(mk("f", b))
        for _ in range(200):
            e.push()
            e.assert_eq(a, b)
            e.pop()

    benchmark(run)


def test_ematch_throughput(benchmark):
    e = FlatEGraph()
    x = LVar("x")
    for i in range(150):
        e.add_term(mk("f", App(f"c{i}")))

    def run():
        return len(flat_ematch(e, compiled_trigger((mk("f", x),))))

    assert benchmark(run) == 150


def test_map_theory_proof(benchmark):
    m, k, v, k2 = (LVar(n) for n in ("m", "k", "v", "k2"))
    axioms = [
        Forall(("m", "k", "v"), Eq(mk("select", mk("update", m, k, v), k), v),
               ((mk("update", m, k, v),),)),
        Forall(
            ("m", "k", "v", "k2"),
            Or((Eq(k, k2), Eq(mk("select", mk("update", m, k, v), k2), mk("select", m, k2)))),
            ((mk("select", mk("update", m, k, v), k2),),),
        ),
    ]
    base = App("m0")
    store = base
    keys = [App(f"k{i}") for i in range(6)]
    for i, key in enumerate(keys):
        store = mk("update", store, key, IntConst(i))
    prover = Prover(axioms, config=ProverConfig(timeout_s=30))
    distinct = [Not(Eq(k1, k2)) for i, k1 in enumerate(keys) for k2 in keys[i + 1 :]]
    goal = Implies(
        _conj(distinct),
        Eq(mk("select", store, keys[0]), IntConst(0)),
    )

    def run():
        return prover.prove(goal)

    result = benchmark(run)
    assert result.proved


def _conj(parts):
    from repro.logic.formulas import And, Top

    return And(tuple(parts)) if parts else Top()


def test_background_axiom_clausification(benchmark):
    from repro.verify.encode import CONSTRUCTORS, all_axioms

    def run():
        return Prover(all_axioms(), constructors=CONSTRUCTORS)

    prover = benchmark(run)
    assert len(prover._base_clauses) > 150
