"""Tests for the guard formula language and the label library."""

import pytest

from repro.il.ast import Const, Var
from repro.il.cfg import Cfg
from repro.il.parser import parse_program
from repro.cobalt.guards import (
    GAnd,
    GCase,
    GEq,
    GFalse,
    GLabel,
    GNot,
    GOr,
    GTrue,
    check,
    generate,
    guard_pattern_vars,
)
from repro.cobalt.labels import (
    CaseLabel,
    LabelError,
    LabelRegistry,
    Labeling,
    NodeCtx,
    standard_registry,
)
from repro.cobalt.patterns import ConstPat, ExprPat, VarPat, parse_pattern_stmt


@pytest.fixture()
def registry():
    return standard_registry()


def ctx_for(text, index, registry, labeling=None):
    proc = parse_program(text).proc("main")
    return NodeCtx(proc, Cfg.build(proc), index, registry, labeling or Labeling())


PROGRAM = """
main(n) {
  decl a;
  decl p;
  a := 5;
  p := &a;
  *p := n;
  a := foo(n);
  if a goto 7 else 7;
  return a;
}
foo(x) {
  return x;
}
"""


class TestBuiltinLabels:
    def test_stmt_label_check(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        assert check(guard, {"Y": Var("a"), "C": Const(5)}, ctx)
        assert not check(guard, {"Y": Var("a"), "C": Const(6)}, ctx)

    def test_syntactic_def(self, registry):
        label = registry.lookup("syntacticDef")
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 0, registry))  # decl a
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 2, registry))  # a := 5
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 5, registry))  # call dest
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 3, registry))
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 4, registry))  # *p := n

    def test_may_def_conservative(self, registry):
        label = registry.lookup("mayDef")
        # Pointer stores and calls may define anything.
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 4, registry))
        assert label.eval((Var("n"),), ctx_for(PROGRAM, 4, registry))
        assert label.eval((Var("n"),), ctx_for(PROGRAM, 5, registry))
        # A branch defines nothing.
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 6, registry))

    def test_may_use(self, registry):
        label = registry.lookup("mayUse")
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 6, registry))  # if a
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 7, registry))  # return a
        assert not label.eval((Var("p"),), ctx_for(PROGRAM, 6, registry))
        # *p := n uses p and n.
        assert label.eval((Var("p"),), ctx_for(PROGRAM, 4, registry))
        assert label.eval((Var("n"),), ctx_for(PROGRAM, 4, registry))
        # Calls may read anything (conservatively).
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 5, registry))

    def test_may_use_pointer_load(self, registry):
        program = """
        main(n) {
          decl p;
          decl x;
          p := new;
          x := *p;
          return x;
        }
        """
        label = registry.lookup("mayUse")
        # A load may read any variable's cell.
        assert label.eval((Var("n"),), ctx_for(program, 3, registry))

    def test_unchanged(self, registry):
        from repro.il.ast import BinOp

        e = BinOp("+", Var("a"), Var("n"))
        label = registry.lookup("unchanged")
        assert not label.eval((e,), ctx_for(PROGRAM, 2, registry))  # a := 5 defines a
        assert not label.eval((e,), ctx_for(PROGRAM, 4, registry))  # pointer store
        assert label.eval((e,), ctx_for(PROGRAM, 6, registry))  # branch

    def test_unchanged_impure_expr(self, registry):
        from repro.il.ast import Deref

        e = Deref(Var("p"))
        label = registry.lookup("unchanged")
        # Any store-writing statement may change *p.
        assert not label.eval((e,), ctx_for(PROGRAM, 2, registry))
        assert label.eval((e,), ctx_for(PROGRAM, 6, registry))

    def test_not_tainted_consults_labeling(self, registry):
        labeling = Labeling()
        labeling.add(2, "notTainted", (Var("a"),))
        label = registry.lookup("notTainted")
        assert label.eval((Var("a"),), ctx_for(PROGRAM, 2, registry, labeling))
        assert not label.eval((Var("a"),), ctx_for(PROGRAM, 3, registry, labeling))

    def test_cell_unchanged(self, registry):
        labeling = Labeling()
        labeling.add(2, "notTainted", (Var("a"),))
        label = registry.lookup("cellUnchanged")
        # a := 5 with a notTainted cannot change *w.
        assert label.eval((Var("w"),), ctx_for(PROGRAM, 2, registry, labeling))
        # Without the taintedness fact it may.
        assert not label.eval((Var("w"),), ctx_for(PROGRAM, 2, registry))
        # Pointer stores always may.
        assert not label.eval((Var("w"),), ctx_for(PROGRAM, 4, registry, labeling))


class TestGuardEvaluation:
    def test_boolean_structure(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        stmt_guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        theta = {"Y": Var("a"), "C": Const(5)}
        assert check(GAnd((stmt_guard, GTrue())), theta, ctx)
        assert not check(GAnd((stmt_guard, GFalse())), theta, ctx)
        assert check(GOr((GFalse(), stmt_guard)), theta, ctx)
        assert check(GNot(GFalse()), theta, ctx)

    def test_term_equality(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        theta = {"X": Var("a"), "Y": Var("a"), "Z": Var("b")}
        assert check(GEq(VarPat("X"), VarPat("Y")), theta, ctx)
        assert not check(GEq(VarPat("X"), VarPat("Z")), theta, ctx)

    def test_case_first_match_wins(self, registry):
        case = GCase(
            (
                (parse_pattern_stmt("X := C"), GTrue()),
                (parse_pattern_stmt("X := E"), GFalse()),
            ),
            GFalse(),
        )
        assert check(case, {}, ctx_for(PROGRAM, 2, registry))  # a := 5 hits arm 1

    def test_case_default(self, registry):
        case = GCase(((parse_pattern_stmt("X := C"), GTrue()),), GLabel("stmt", (parse_pattern_stmt("return X"),)))
        assert check(case, {}, ctx_for(PROGRAM, 7, registry))

    def test_guard_pattern_vars(self):
        guard = GAnd(
            (
                GLabel("stmt", (parse_pattern_stmt("Y := C"),)),
                GNot(GLabel("mayDef", (VarPat("Y"),))),
            )
        )
        assert guard_pattern_vars(guard) == {"Y", "C"}


class TestGenerateMode:
    def test_stmt_generation(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        assert generate(guard, {}, ctx) == [{"Y": Var("a"), "C": Const(5)}]

    def test_no_match_generates_nothing(self, registry):
        ctx = ctx_for(PROGRAM, 0, registry)
        guard = GLabel("stmt", (parse_pattern_stmt("Y := C"),))
        assert generate(guard, {}, ctx) == []

    def test_disjunction_generates_union(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GOr(
            (
                GLabel("stmt", (parse_pattern_stmt("Y := C"),)),
                GLabel("stmt", (parse_pattern_stmt("decl Y"),)),
            )
        )
        thetas = generate(guard, {}, ctx)
        assert {"Y": Var("a"), "C": Const(5)} in thetas

    def test_enumeration_for_unbound_vars(self, registry):
        # 'return X' binds nothing; X must be enumerated and filtered by
        # the not-used condition (the DAE psi1 shape).
        ctx = ctx_for(PROGRAM, 7, registry)
        guard = GAnd(
            (
                GLabel("stmt", (parse_pattern_stmt("return ..."),)),
                GNot(GLabel("mayUse", (VarPat("X"),))),
            )
        )
        thetas = generate(guard, {}, ctx)
        names = {t["X"].name for t in thetas}
        assert "a" not in names  # return a uses a
        assert "p" in names and "n" in names

    def test_generated_bindings_satisfy_check(self, registry):
        ctx = ctx_for(PROGRAM, 2, registry)
        guard = GAnd(
            (
                GLabel("stmt", (parse_pattern_stmt("Y := C"),)),
                GNot(GLabel("mayUse", (VarPat("Y"),))),
            )
        )
        for theta in generate(guard, {}, ctx):
            assert check(guard, theta, ctx)


class TestRegistry:
    def test_duplicate_definition_rejected(self, registry):
        with pytest.raises(LabelError):
            registry.define(CaseLabel("mayDef", ("Y",), GTrue()))

    def test_unknown_label_rejected(self, registry):
        with pytest.raises(LabelError):
            registry.lookup("noSuchLabel")

    def test_arity_mismatch(self, registry):
        with pytest.raises(LabelError):
            registry.lookup("mayDef").eval((), ctx_for(PROGRAM, 0, registry))

    def test_copy_is_independent(self, registry):
        clone = registry.copy()
        clone.define(CaseLabel("custom", (), GTrue()))
        with pytest.raises(LabelError):
            registry.lookup("custom")


class TestStandardRegistry:
    def test_calls_return_independent_registries(self):
        first, second = standard_registry(), standard_registry()
        assert first is not second
        assert first.defs == second.defs
        first.define(CaseLabel("onlyInFirst", (), GTrue()))
        assert "onlyInFirst" not in second.defs
        assert "onlyInFirst" not in standard_registry().defs

    def test_library_is_built_once(self, monkeypatch):
        from repro.cobalt import labels

        calls = []
        real = labels.parse_pattern_stmt

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(labels, "parse_pattern_stmt", counting)
        labels._standard_library.cache_clear()
        try:
            built = standard_registry()
            assert calls, "the first call builds the library"
            calls.clear()
            again = standard_registry()
            assert calls == [], "a second call must parse no patterns"
            assert again.defs == built.defs
        finally:
            monkeypatch.undo()
            labels._standard_library.cache_clear()
