"""The compiled guard evaluator against the tree-walking interpreter it replaced.

``guards.check`` compiles each guard once into a tree of closures, and
``patterns.match_stmt`` runs compiled statement matchers.  The interpreter
and the structural matcher they replaced live on here, in this file only,
as the reference: over every guard the repository ships, every label body
of the standard library, and every node and substitution of seeded
generated pointer programs, both must give the same answers.
"""

import pytest

from repro import opts
from repro.il.ast import (
    AddrOf,
    Assign,
    BinOp,
    Call,
    Const,
    Decl,
    Deref,
    DerefLhs,
    IfGoto,
    New,
    Return,
    Skip,
    UnOp,
    Var,
    VarLhs,
)
from repro.il.cfg import Cfg
from repro.il.generator import GeneratorConfig, ProgramGenerator
from repro.il.parser import parse_program
from repro.cobalt import guards, patterns
from repro.cobalt.engine import CobaltEngine
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
)
from repro.cobalt.labels import (
    CaseLabel,
    LabelError,
    LabelRegistry,
    Labeling,
    NativeLabel,
    NodeCtx,
    standard_registry,
)
from repro.cobalt.patterns import (
    ConstPat,
    ExprPat,
    IndexPat,
    OpPat,
    PatternError,
    VarPat,
    Wildcard,
    instantiate_expr,
    match_stmt,
    parse_pattern_stmt,
)
from repro.opts.buggy import ALL_BUGGY

# ---------------------------------------------------------------------------
# The reference: the structural matcher and the interpreter, as they were
# ---------------------------------------------------------------------------


def _bind(theta, name, value):
    bound = theta.get(name)
    if bound is None:
        out = dict(theta)
        out[name] = value
        return out
    return theta if bound == value else None


def _match_var(pattern, var, theta):
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, VarPat):
        return _bind(theta, pattern.name, var)
    if isinstance(pattern, Var):
        return theta if pattern == var else None
    return None


def _match_base(pattern, value, theta):
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, VarPat):
        return _bind(theta, pattern.name, value) if isinstance(value, Var) else None
    if isinstance(pattern, ConstPat):
        return _bind(theta, pattern.name, value) if isinstance(value, Const) else None
    if isinstance(pattern, ExprPat):
        return _bind(theta, pattern.name, value)
    if isinstance(pattern, (Var, Const)):
        return theta if pattern == value else None
    return None


def _match_expr(pattern, expr, theta):
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, ExprPat):
        return _bind(theta, pattern.name, expr)
    if isinstance(pattern, (VarPat, ConstPat, Var, Const)):
        return _match_base(pattern, expr, theta) if isinstance(expr, (Var, Const)) else None
    if isinstance(pattern, Deref) and isinstance(expr, Deref):
        return _match_var(pattern.var, expr.var, theta)
    if isinstance(pattern, AddrOf) and isinstance(expr, AddrOf):
        return _match_var(pattern.var, expr.var, theta)
    if isinstance(pattern, UnOp) and isinstance(expr, UnOp):
        theta2 = _match_op(pattern.op, expr.op, theta)
        if theta2 is None:
            return None
        return _match_base(pattern.arg, expr.arg, theta2)
    if isinstance(pattern, BinOp) and isinstance(expr, BinOp):
        theta2 = _match_op(pattern.op, expr.op, theta)
        if theta2 is None:
            return None
        theta3 = _match_base(pattern.left, expr.left, theta2)
        if theta3 is None:
            return None
        return _match_base(pattern.right, expr.right, theta3)
    return None


def _match_op(pattern_op, op, theta):
    if isinstance(pattern_op, OpPat):
        return _bind(theta, pattern_op.name, op)
    return theta if pattern_op == op else None


def _match_index(pattern, index, theta):
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, IndexPat):
        return _bind(theta, pattern.name, index)
    return theta if pattern == index else None


def _match_lhs(pattern, lhs, theta):
    if isinstance(pattern, Wildcard):
        return theta
    if isinstance(pattern, VarLhs) and isinstance(lhs, VarLhs):
        return _match_var(pattern.var, lhs.var, theta)
    if isinstance(pattern, DerefLhs) and isinstance(lhs, DerefLhs):
        return _match_var(pattern.var, lhs.var, theta)
    return None


def reference_match(pattern, stmt, theta=None):
    theta = dict(theta or {})
    if isinstance(pattern, Skip) and isinstance(stmt, Skip):
        return theta
    if isinstance(pattern, Decl) and isinstance(stmt, Decl):
        return _match_var(pattern.var, stmt.var, theta)
    if isinstance(pattern, Assign) and isinstance(stmt, Assign):
        theta2 = _match_lhs(pattern.lhs, stmt.lhs, theta)
        if theta2 is None:
            return None
        return _match_expr(pattern.rhs, stmt.rhs, theta2)
    if isinstance(pattern, New) and isinstance(stmt, New):
        return _match_var(pattern.var, stmt.var, theta)
    if isinstance(pattern, Call) and isinstance(stmt, Call):
        theta2 = _match_var(pattern.var, stmt.var, theta)
        if theta2 is None:
            return None
        if not isinstance(pattern.proc, Wildcard) and pattern.proc != stmt.proc:
            return None
        return _match_base(pattern.arg, stmt.arg, theta2)
    if isinstance(pattern, IfGoto) and isinstance(stmt, IfGoto):
        theta2 = _match_base(pattern.cond, stmt.cond, theta)
        if theta2 is None:
            return None
        theta3 = _match_index(pattern.then_index, stmt.then_index, theta2)
        if theta3 is None:
            return None
        return _match_index(pattern.else_index, stmt.else_index, theta3)
    if isinstance(pattern, Return) and isinstance(stmt, Return):
        return _match_var(pattern.var, stmt.var, theta)
    return None


def reference_term(t, theta):
    if isinstance(t, (VarPat, ConstPat, ExprPat, OpPat, IndexPat)):
        value = theta.get(t.name)
        if value is None:
            raise PatternError(f"unbound pattern variable {t.name}")
        return value
    if isinstance(t, (Var, Const, str, int)):
        return t
    return instantiate_expr(t, theta)


def reference_check(guard, theta, ctx):
    if isinstance(guard, GTrue):
        return True
    if isinstance(guard, GFalse):
        return False
    if isinstance(guard, GNot):
        return not reference_check(guard.body, theta, ctx)
    if isinstance(guard, GAnd):
        return all(reference_check(p, theta, ctx) for p in guard.parts)
    if isinstance(guard, GOr):
        return any(reference_check(p, theta, ctx) for p in guard.parts)
    if isinstance(guard, GLabel):
        if guard.name == "stmt":
            return reference_match(guard.args[0], ctx.stmt, theta) is not None
        args = tuple(reference_term(a, theta) for a in guard.args)
        defn = ctx.registry.lookup(guard.name)
        if isinstance(defn, CaseLabel):
            # Interpret label bodies too, so no compiled closure answers
            # for the reference (native labels are Python either way).
            assert len(args) == len(defn.params)
            return reference_check(defn.body, dict(zip(defn.params, args)), ctx)
        return defn.eval(args, ctx)
    if isinstance(guard, GEq):
        return reference_term(guard.lhs, theta) == reference_term(guard.rhs, theta)
    if isinstance(guard, GCase):
        for pattern, arm in guard.arms:
            extended = reference_match(pattern, ctx.stmt, theta)
            if extended is not None:
                return reference_check(arm, extended, ctx)
        return reference_check(guard.default, theta, ctx)
    raise TypeError(f"not a guard: {guard!r}")


# ---------------------------------------------------------------------------
# Inputs: every shipped guard over seeded generated pointer programs
# ---------------------------------------------------------------------------

REGISTRY = standard_registry()

PATTERNS = [opt.pattern for opt in opts.ALL_OPTIMIZATIONS + ALL_BUGGY]
GUARDS = (
    [(p.name, p.psi1, p.psi2) for p in PATTERNS]
    + [(a.name, a.psi1, a.psi2) for a in opts.ALL_ANALYSES]
)
LABEL_BODIES = [d for d in REGISTRY.defs.values() if isinstance(d, CaseLabel)]


def _programs():
    out = []
    for seed in range(6):
        config = GeneratorConfig(
            num_vars=4, num_stmts=14, num_branches=2, allow_pointers=True,
            allow_calls=seed % 2 == 0,
        )
        out.append(ProgramGenerator(config, seed=seed).gen_proc())
    return out


PROCS = _programs()


def _labeling(engine, proc):
    """The semantic labels every shipped analysis puts on ``proc``."""
    labeling = Labeling()
    for analysis in opts.ALL_ANALYSES:
        labeling = labeling.merged_with(engine.run_pure_analysis(analysis, proc, labeling))
    return labeling


@pytest.fixture(scope="module")
def contexts():
    engine = CobaltEngine(REGISTRY)
    out = []
    for proc in PROCS:
        cfg = Cfg.build(proc)
        labeling = _labeling(engine, proc)
        out.append([NodeCtx(proc, cfg, i, REGISTRY, labeling) for i in cfg.nodes()])
    return out


def _universe(psi1, ctxs):
    """The engine's universe for ``psi1``: every generated substitution."""
    found = {}
    for ctx in ctxs:
        for theta in generate(psi1, {}, ctx):
            found[repr(sorted(theta.items(), key=lambda kv: kv[0]))] = theta
    return list(found.values())


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (PatternError, LabelError, TypeError) as exc:
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class TestAgainstInterpreter:
    @pytest.mark.parametrize("name,psi1,psi2", GUARDS, ids=[g[0] for g in GUARDS])
    def test_shipped_guards(self, contexts, name, psi1, psi2):
        compared = 0
        for ctxs in contexts:
            universe = _universe(psi1, ctxs)
            for ctx in ctxs:
                for theta in universe:
                    for guard in (psi1, psi2):
                        expected = _outcome(reference_check, guard, theta, ctx)
                        assert _outcome(check, guard, theta, ctx) == expected, (
                            name, str(guard), ctx.index, theta)
                        compared += 1
        assert compared

    @pytest.mark.parametrize("label", LABEL_BODIES, ids=lambda d: d.name)
    def test_label_bodies(self, contexts, label):
        for ctxs in contexts:
            variables = sorted(ctxs[0].proc.mentioned_vars())
            for ctx in ctxs:
                for name in variables:
                    theta = {label.params[0]: Var(name)}
                    assert check(label.body, theta, ctx) == reference_check(
                        label.body, theta, ctx), (label.name, ctx.index, name)

    def test_statement_matchers(self, contexts):
        """Every statement pattern the shipped guards and rewrites use,
        against every statement, from empty, consistent and conflicting
        incoming substitutions."""
        found = []

        def walk(g):
            if isinstance(g, GNot):
                walk(g.body)
            elif isinstance(g, (GAnd, GOr)):
                for part in g.parts:
                    walk(part)
            elif isinstance(g, GLabel) and g.name == "stmt":
                found.append(g.args[0])
            elif isinstance(g, GCase):
                walk(g.default)
                for pattern, arm in g.arms:
                    found.append(pattern)
                    walk(arm)

        for _name, psi1, psi2 in GUARDS:
            walk(psi1)
            walk(psi2)
        for label in LABEL_BODIES:
            walk(label.body)
        found.extend(p.s for p in PATTERNS)
        found.append(parse_pattern_stmt("X := X"))
        found.append(parse_pattern_stmt("if X goto I1 else I1"))
        stmts = {s for ctxs in contexts for s in ctxs[0].proc.stmts}
        thetas = [{}, {"X": Var("v0")}, {"X": Var("v1"), "Y": Var("v0")},
                  {"C": Const(1)}, {"E": Var("v2")}, {"I1": 3}]
        for pattern in found:
            for stmt in stmts:
                for theta in thetas:
                    before = dict(theta)
                    got = match_stmt(pattern, stmt, theta)
                    assert got == reference_match(pattern, stmt, theta), (
                        str(pattern), str(stmt), theta)
                    assert theta == before
                    assert got is not theta


# ---------------------------------------------------------------------------
# Errors, late binding, the memo
# ---------------------------------------------------------------------------

PROGRAM = """
main(n) {
  decl a;
  a := n + 1;
  return a;
}
"""


def _ctx(registry):
    proc = parse_program(PROGRAM).proc("main")
    return NodeCtx(proc, Cfg.build(proc), 1, registry, Labeling())


class TestErrorsAndBinding:
    def test_unbound_variable_raises_same_pattern_error(self):
        ctx = _ctx(REGISTRY)
        for guard in (
            GEq(VarPat("X"), VarPat("Y")),
            GLabel("mayDef", (VarPat("Y"),)),
            GEq(ExprPat("E"), Var("a")),
        ):
            theta = {"X": Var("a")}
            with pytest.raises(PatternError) as compiled:
                check(guard, theta, ctx)
            with pytest.raises(PatternError) as reference:
                reference_check(guard, theta, ctx)
            assert str(compiled.value) == str(reference.value)

    def test_undefined_label_raises_at_evaluation(self):
        ctx = _ctx(REGISTRY)
        guard = GOr((GTrue(), GLabel("noSuchLabel", (VarPat("X"),))))
        # Compiling (the first check) does not resolve the label ...
        assert check(guard, {"X": Var("a")}, ctx)
        # ... evaluating it does.
        with pytest.raises(LabelError, match="undefined label noSuchLabel"):
            check(GNot(guard.parts[1]), {"X": Var("a")}, ctx)

    def test_label_defined_after_compilation_is_honoured(self):
        registry = LabelRegistry()
        ctx = _ctx(registry)
        guard = GLabel("late", (VarPat("X"),))
        with pytest.raises(LabelError):
            check(guard, {"X": Var("a")}, ctx)
        registry.define(NativeLabel("late", 1, lambda args, c: args[0] == Var("a")))
        assert check(guard, {"X": Var("a")}, ctx)
        assert not check(guard, {"X": Var("n")}, ctx)

    def test_same_guard_follows_each_registry(self):
        yes, no = LabelRegistry(), LabelRegistry()
        yes.define(NativeLabel("flag", 0, lambda args, c: True))
        no.define(NativeLabel("flag", 0, lambda args, c: False))
        guard = GLabel("flag", ())
        assert check(guard, {}, _ctx(yes))
        assert not check(guard, {}, _ctx(no))

    def test_malformed_guard_raises_type_error_when_reached(self):
        ctx = _ctx(REGISTRY)
        guard = GOr((GTrue(), "not a guard"))
        assert check(guard, {}, ctx)
        with pytest.raises(TypeError, match="not a guard"):
            check(GAnd((GTrue(), "not a guard")), {}, ctx)

    def test_case_arms_keep_their_order_within_a_class(self):
        ctx = _ctx(REGISTRY)  # a := n + 1
        guard = GCase(
            (
                (parse_pattern_stmt("return X"), GFalse()),
                (parse_pattern_stmt("X := C1 OP C2"), GFalse()),
                (parse_pattern_stmt("X := E"), GEq(VarPat("X"), Var("a"))),
                (parse_pattern_stmt("X := ..."), GFalse()),
            ),
            GFalse(),
        )
        assert check(guard, {}, ctx) is True
        assert reference_check(guard, {}, ctx) is True


class TestMemo:
    def test_guard_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(guards, "_COMPILED", {})
        monkeypatch.setattr(guards, "_GUARD_MEMO_LIMIT", 8)
        ctx = _ctx(REGISTRY)
        keep = []
        for i in range(50):
            guard = GEq(Var("a"), Var(f"v{i}"))
            keep.append(guard)  # live guards: ids cannot be reused
            assert check(guard, {}, ctx) is False
            assert len(guards._COMPILED) <= 8
        assert check(GEq(Var("a"), Var("a")), {}, ctx)

    def test_matcher_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(patterns, "_MATCHERS", {})
        monkeypatch.setattr(patterns, "_MATCHERS_LIMIT", 4)
        stmt = parse_program(PROGRAM).proc("main").stmts[1]
        for i in range(20):
            pattern = Assign(VarLhs(Var("a")), BinOp("+", Var("n"), Const(i)))
            assert (match_stmt(pattern, stmt) is not None) == (i == 1)
            assert len(patterns._MATCHERS) <= 4

    def test_a_recycled_id_is_not_confused(self):
        """Entries pin their guard, so a new guard never inherits the
        compiled tree of a dead one that had the same id."""
        ctx = _ctx(REGISTRY)
        for i in range(200):
            expected = i % 2 == 0
            guard = GTrue() if expected else GFalse()
            assert check(guard, {}, ctx) is expected
            del guard
