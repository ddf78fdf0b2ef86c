"""Unit tests for E-matching (compiled trigger programs on the flat
e-graph kernel) and automatic trigger selection."""

import pytest

from repro.logic.terms import App, IntConst, LVar, mk
from repro.prover.kernels.flat import (
    FlatEGraph,
    compile_trigger,
    flat_ematch,
    select_triggers,
)


def ematch(e, patterns):
    return flat_ematch(e, compile_trigger(e, tuple(patterns)))


def binding_to_terms(e, binding):
    return {v: e.representative(root) for v, root in binding.items()}


a, b, c = App("a"), App("b"), App("c")
x, y = LVar("x"), LVar("y")


class TestBasicMatching:
    def test_single_match(self):
        e = FlatEGraph()
        e.add_term(mk("f", a))
        bindings = ematch(e, (mk("f", x),))
        assert len(bindings) == 1
        assert binding_to_terms(e, bindings[0]) == {"x": a}

    def test_multiple_matches(self):
        e = FlatEGraph()
        e.add_term(mk("f", a))
        e.add_term(mk("f", b))
        bindings = ematch(e, (mk("f", x),))
        terms = {binding_to_terms(e, t)["x"] for t in bindings}
        assert terms == {a, b}

    def test_no_match(self):
        e = FlatEGraph()
        e.add_term(mk("g", a))
        assert ematch(e, (mk("f", x),)) == []

    def test_nested_pattern(self):
        e = FlatEGraph()
        e.add_term(mk("f", mk("g", a)))
        bindings = ematch(e, (mk("f", mk("g", x)),))
        assert binding_to_terms(e, bindings[0]) == {"x": a}

    def test_nested_pattern_rejects_wrong_inner_head(self):
        e = FlatEGraph()
        e.add_term(mk("f", mk("h", a)))
        assert ematch(e, (mk("f", mk("g", x)),)) == []

    def test_nonlinear_pattern(self):
        e = FlatEGraph()
        e.add_term(mk("f", a, a))
        e.add_term(mk("f", a, b))
        bindings = ematch(e, (mk("f", x, x),))
        assert len(bindings) == 1

    def test_int_const_pattern(self):
        e = FlatEGraph()
        e.add_term(mk("f", IntConst(3)))
        e.add_term(mk("f", IntConst(4)))
        bindings = ematch(e, (mk("f", IntConst(3), ),))
        assert len(bindings) == 1


class TestMatchingModuloCongruence:
    def test_match_through_merged_class(self):
        e = FlatEGraph()
        e.add_term(mk("f", a))
        e.assert_eq(a, b)
        # Pattern f(g(x)) should match because a's class contains g(c)
        e.assert_eq(b, mk("g", c))
        bindings = ematch(e, (mk("f", mk("g", x)),))
        assert len(bindings) == 1
        assert binding_to_terms(e, bindings[0])["x"] == c

    def test_nonlinear_respects_classes(self):
        e = FlatEGraph()
        e.add_term(mk("f", a, b))
        assert ematch(e, (mk("f", x, x),)) == []
        e.assert_eq(a, b)
        assert len(ematch(e, (mk("f", x, x),))) == 1

    def test_bindings_deduplicated_by_class(self):
        e = FlatEGraph()
        e.add_term(mk("f", a))
        e.add_term(mk("f", b))
        e.assert_eq(a, b)
        bindings = ematch(e, (mk("f", x),))
        assert len(bindings) == 1  # a and b are one class now


class TestMultiPatterns:
    def test_joint_binding(self):
        e = FlatEGraph()
        e.add_term(mk("f", a))
        e.add_term(mk("g", a))
        e.add_term(mk("g", b))
        bindings = ematch(e, (mk("f", x), mk("g", x)))
        assert len(bindings) == 1
        assert binding_to_terms(e, bindings[0])["x"] == a

    def test_independent_variables(self):
        e = FlatEGraph()
        e.add_term(mk("f", a))
        e.add_term(mk("g", b))
        bindings = ematch(e, (mk("f", x), mk("g", y)))
        assert len(bindings) == 1
        terms = binding_to_terms(e, bindings[0])
        assert terms == {"x": a, "y": b}

    def test_cross_product(self):
        e = FlatEGraph()
        for t in (a, b):
            e.add_term(mk("f", t))
            e.add_term(mk("g", t))
        bindings = ematch(e, (mk("f", x), mk("g", y)))
        assert len(bindings) == 4


class TestRepresentatives:
    def test_small_representative_chosen(self):
        e = FlatEGraph()
        big = mk("f", mk("g", mk("h", a)))
        e.assert_eq(big, b)
        bindings = ematch(e, (mk("k", x),))
        assert bindings == []
        e.add_term(mk("k", big))
        bindings = ematch(e, (mk("k", x),))
        assert binding_to_terms(e, bindings[0])["x"] == b  # smaller member


class TestTriggerSelection:
    def test_single_covering_term(self):
        triggers = select_triggers([mk("f", x, y)], ["x", "y"])
        assert triggers == ((mk("f", x, y),),)

    def test_prefers_smallest_cover(self):
        triggers = select_triggers([mk("f", mk("g", x), y), mk("h", x, y)], ["x", "y"])
        assert triggers == ((mk("h", x, y),),)

    def test_multipattern_when_no_single_cover(self):
        triggers = select_triggers([mk("f", x), mk("g", y)], ["x", "y"])
        (multi,) = triggers
        assert set(multi) == {mk("f", x), mk("g", y)}

    def test_uncoverable_returns_empty(self):
        triggers = select_triggers([mk("f", x)], ["x", "z"])
        assert triggers == ()

    def test_bare_variable_not_a_trigger(self):
        e = FlatEGraph()
        with pytest.raises(ValueError):
            ematch(e, (x,))
