"""Unit tests for the congruence closure engine (the flat e-graph kernel)."""

import pytest

from repro.logic.terms import App, IntConst, mk
from repro.prover.kernels.flat import FALSE, TRUE, FlatEGraph

a, b, c = App("a"), App("b"), App("c")


def f(*args):
    return App("f", tuple(args))


def g(*args):
    return App("g", tuple(args))


class TestBasics:
    def test_reflexivity(self):
        e = FlatEGraph()
        assert e.are_equal(f(a), f(a))

    def test_asserted_equality(self):
        e = FlatEGraph()
        assert e.assert_eq(a, b)
        assert e.are_equal(a, b)

    def test_transitivity(self):
        e = FlatEGraph()
        e.assert_eq(a, b)
        e.assert_eq(b, c)
        assert e.are_equal(a, c)

    def test_congruence(self):
        e = FlatEGraph()
        e.assert_eq(a, b)
        assert e.are_equal(f(a), f(b))

    def test_congruence_after_the_fact(self):
        e = FlatEGraph()
        e.add_term(f(a))
        e.add_term(f(b))
        e.assert_eq(a, b)
        assert e.are_equal(f(a), f(b))

    def test_nested_congruence(self):
        e = FlatEGraph()
        e.assert_eq(a, b)
        assert e.are_equal(g(f(a), a), g(f(b), b))

    def test_disequality_conflict(self):
        e = FlatEGraph()
        e.assert_diseq(a, b)
        assert not e.assert_eq(a, b)
        assert e.conflict is not None

    def test_congruence_triggers_diseq_conflict(self):
        e = FlatEGraph()
        e.assert_diseq(f(a), f(b))
        assert not e.assert_eq(a, b)

    def test_not_equal_by_default(self):
        e = FlatEGraph()
        e.add_term(a)
        e.add_term(b)
        assert not e.are_equal(a, b)
        assert not e.are_diseq(a, b)


class TestNumerals:
    def test_distinct_numerals(self):
        e = FlatEGraph()
        e.add_term(IntConst(1))
        e.add_term(IntConst(2))
        assert e.are_diseq(IntConst(1), IntConst(2))

    def test_merging_numerals_conflicts(self):
        e = FlatEGraph()
        assert not e.assert_eq(IntConst(1), IntConst(2))

    def test_indirect_numeral_conflict(self):
        e = FlatEGraph()
        e.assert_eq(a, IntConst(1))
        e.assert_eq(b, IntConst(2))
        assert not e.assert_eq(a, b)

    def test_arith_folding(self):
        e = FlatEGraph()
        e.add_term(mk("@plus", IntConst(2), IntConst(3)))
        assert e.are_equal(mk("@plus", IntConst(2), IntConst(3)), IntConst(5))

    def test_arith_folding_after_merge(self):
        e = FlatEGraph()
        e.add_term(mk("@plus", a, IntConst(3)))
        e.assert_eq(a, IntConst(2))
        assert e.are_equal(mk("@plus", a, IntConst(3)), IntConst(5))

    def test_div_by_zero_stays_uninterpreted(self):
        e = FlatEGraph()
        e.add_term(mk("@div", IntConst(1), IntConst(0)))
        assert not e.are_equal(mk("@div", IntConst(1), IntConst(0)), IntConst(0))


class TestConstructors:
    def test_distinct_heads_conflict(self):
        e = FlatEGraph(constructors={"skip", "assgn"})
        assert not e.assert_eq(App("skip"), mk("assgn", a, b))

    def test_distinct_heads_implicit_diseq(self):
        e = FlatEGraph(constructors={"skip", "assgn"})
        e.add_term(App("skip"))
        e.add_term(mk("assgn", a, b))
        assert e.are_diseq(App("skip"), mk("assgn", a, b))

    def test_injectivity(self):
        e = FlatEGraph(constructors={"assgn"})
        e.assert_eq(mk("assgn", a, b), mk("assgn", c, b))
        assert e.are_equal(a, c)

    def test_injectivity_cascades_conflict(self):
        e = FlatEGraph(constructors={"assgn"})
        e.assert_diseq(a, c)
        assert not e.assert_eq(mk("assgn", a, b), mk("assgn", c, b))

    def test_constructor_vs_numeral(self):
        e = FlatEGraph(constructors={"skip"})
        assert not e.assert_eq(App("skip"), IntConst(0))

    def test_non_constructor_merge_ok(self):
        e = FlatEGraph(constructors={"skip"})
        assert e.assert_eq(f(a), g(a))  # f, g uninterpreted


class TestBooleans:
    def test_true_false_distinct(self):
        e = FlatEGraph()
        assert e.are_diseq(TRUE, FALSE)

    def test_pred_conflict(self):
        e = FlatEGraph()
        p = mk("p", a)
        e.assert_eq(p, TRUE)
        assert not e.assert_eq(p, FALSE)


class TestBacktracking:
    def test_pop_undoes_merge(self):
        e = FlatEGraph()
        e.add_term(a)
        e.add_term(b)
        e.push()
        e.assert_eq(a, b)
        assert e.are_equal(a, b)
        e.pop()
        assert not e.are_equal(a, b)

    def test_pop_undoes_new_terms(self):
        e = FlatEGraph()
        e.push()
        e.add_term(f(a))
        e.pop()
        assert f(a) not in e.term_to_node

    def test_pop_undoes_diseq(self):
        e = FlatEGraph()
        e.add_term(a)
        e.add_term(b)
        e.push()
        e.assert_diseq(a, b)
        assert e.are_diseq(a, b)
        e.pop()
        assert not e.are_diseq(a, b)
        assert e.assert_eq(a, b)

    def test_pop_restores_congruence_state(self):
        e = FlatEGraph()
        e.add_term(f(a))
        e.add_term(f(b))
        e.push()
        e.assert_eq(a, b)
        assert e.are_equal(f(a), f(b))
        e.pop()
        assert not e.are_equal(f(a), f(b))
        # Re-asserting works after the pop.
        e.assert_eq(a, b)
        assert e.are_equal(f(a), f(b))

    def test_nested_scopes(self):
        e = FlatEGraph()
        e.push()
        e.assert_eq(a, b)
        e.push()
        e.assert_eq(b, c)
        assert e.are_equal(a, c)
        e.pop()
        assert e.are_equal(a, b)
        assert not e.are_equal(a, c)
        e.pop()
        assert not e.are_equal(a, b)

    def test_pop_after_conflict(self):
        e = FlatEGraph()
        e.assert_diseq(a, b)
        e.push()
        assert not e.assert_eq(a, b)  # conflict, partial state
        e.pop()
        assert not e.are_equal(a, b)
        assert e.conflict is None

    def test_diseq_migration_undone(self):
        e = FlatEGraph()
        e.add_term(a)
        e.add_term(b)
        e.add_term(c)
        e.assert_diseq(a, c)
        e.push()
        e.assert_eq(a, b)  # c's disequality migrates to the merged class
        assert e.are_diseq(b, c)
        e.pop()
        assert not e.are_diseq(b, c)
        assert e.are_diseq(a, c)
