"""The guard formula language psi (paper section 3.2.2) and its semantics.

Grammar::

    psi ::= true | false | ~psi | psi \\/ psi | psi /\\ psi
          | l(t, ..., t) | t = t
          | case currStmt of p -> psi ... else -> psi endcase

Terms ``t`` are extended-IL fragments (pattern variables or concrete
fragments).  The semantics ``iota |=theta psi`` says whether the node with
index ``iota`` of a labeled CFG satisfies ``psi`` under the substitution
``theta`` (Definition in section 3.2.2).

Two evaluation modes are provided:

* :func:`check` — ``theta`` binds every pattern variable of ``psi``; returns
  a boolean.  Used for the innocuous formula psi2 and for label bodies.
* :func:`generate` — enumerate the substitutions (extending a base
  ``theta``) under which the node satisfies ``psi``.  Used for the enabling
  formula psi1; this is the paper's "the flow function adds the substitution
  that caused psi1 to be true".  Enumeration is driven by statement-pattern
  matching, falling back to the finite domains of the procedure (its
  variables, constants, expressions, and indices) for pattern variables not
  determined by any statement pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.il.ast import Const, Expr, Stmt, Var
from repro.cobalt.patterns import (
    ConstPat,
    ExprPat,
    IndexPat,
    Matcher,
    OpPat,
    PStmt,
    PatternError,
    Subst,
    VarPat,
    Wildcard,
    instantiate_expr,
    memo_by_id,
    pattern_vars,
    stmt_matcher,
)

if TYPE_CHECKING:
    from repro.cobalt.labels import LabelRegistry, NodeCtx


# ---------------------------------------------------------------------------
# Guard AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GTrue:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class GFalse:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class GNot:
    body: "Guard"

    def __str__(self) -> str:
        return f"!{self.body}"


@dataclass(frozen=True)
class GAnd:
    parts: Tuple["Guard", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def __str__(self) -> str:
        return "(" + " && ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class GOr:
    parts: Tuple["Guard", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def __str__(self) -> str:
        return "(" + " || ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class GLabel:
    """A label predicate ``l(t1, ..., tn)``.

    ``stmt(p)`` is the built-in statement label; its single argument is a
    pattern statement.  Other labels take extended-IL term arguments.
    """

    name: str
    args: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class GEq:
    """Term equality ``t1 = t2`` between extended-IL fragments."""

    lhs: object
    rhs: object

    def __str__(self) -> str:
        return f"{self.lhs} == {self.rhs}"


@dataclass(frozen=True)
class GCase:
    """``case currStmt of p1 -> g1 ... else -> g endcase``.

    Arms are tried in order; the first whose pattern matches the current
    statement selects its guard, with the pattern's bindings in scope.
    """

    arms: Tuple[Tuple[PStmt, "Guard"], ...]
    default: "Guard"

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(tuple(a) for a in self.arms))

    def __str__(self) -> str:
        arms = "; ".join(f"{p} -> {g}" for p, g in self.arms)
        return f"case currStmt of {arms}; else -> {self.default} endcase"


Guard = object  # union of the above


def gand(*parts: Guard) -> Guard:
    flat = [p for p in parts if not isinstance(p, GTrue)]
    if any(isinstance(p, GFalse) for p in flat):
        return GFalse()
    if not flat:
        return GTrue()
    return flat[0] if len(flat) == 1 else GAnd(tuple(flat))


def gor(*parts: Guard) -> Guard:
    flat = [p for p in parts if not isinstance(p, GFalse)]
    if any(isinstance(p, GTrue) for p in flat):
        return GTrue()
    if not flat:
        return GFalse()
    return flat[0] if len(flat) == 1 else GOr(tuple(flat))


def guard_pattern_vars(guard: Guard) -> FrozenSet[str]:
    """All pattern-variable names occurring in a guard."""
    if isinstance(guard, (GTrue, GFalse)):
        return frozenset()
    if isinstance(guard, GNot):
        return guard_pattern_vars(guard.body)
    if isinstance(guard, (GAnd, GOr)):
        out: FrozenSet[str] = frozenset()
        for p in guard.parts:
            out |= guard_pattern_vars(p)
        return out
    if isinstance(guard, GLabel):
        out = frozenset()
        for a in guard.args:
            out |= pattern_vars(a)
        return out
    if isinstance(guard, GEq):
        return pattern_vars(guard.lhs) | pattern_vars(guard.rhs)
    if isinstance(guard, GCase):
        out = guard_pattern_vars(guard.default)
        for pattern, arm in guard.arms:
            out |= pattern_vars(pattern) | guard_pattern_vars(arm)
        return out
    raise TypeError(f"not a guard: {guard!r}")


def guard_leaves(guard: Guard) -> FrozenSet[object]:
    """All pattern-variable *leaves* (with their kinds) in a guard."""
    leaves: set = set()

    def walk_term(t: object) -> None:
        names = pattern_vars(t)
        for leaf in _leaves_of(t):
            leaves.add(leaf)
        del names

    def walk(g: Guard) -> None:
        if isinstance(g, (GTrue, GFalse)):
            return
        if isinstance(g, GNot):
            walk(g.body)
        elif isinstance(g, (GAnd, GOr)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, GLabel):
            for a in g.args:
                walk_term(a)
        elif isinstance(g, GEq):
            walk_term(g.lhs)
            walk_term(g.rhs)
        elif isinstance(g, GCase):
            walk(g.default)
            for pattern, arm in g.arms:
                walk_term(pattern)
                walk(arm)
        else:
            raise TypeError(f"not a guard: {g!r}")

    walk(guard)
    return frozenset(leaves)


def _leaves_of(t: object) -> Iterable[object]:
    from repro.il.ast import (
        AddrOf,
        Assign,
        BinOp,
        Call,
        Decl,
        Deref,
        DerefLhs,
        IfGoto,
        New,
        Return,
        Skip,
        UnOp,
        VarLhs,
    )

    if isinstance(t, (VarPat, ConstPat, ExprPat, OpPat, IndexPat)):
        yield t
    elif isinstance(t, (Var, Const, Wildcard, Skip, str, int)) or t is None:
        return
    elif isinstance(t, (Decl, New, Return)):
        yield from _leaves_of(t.var)
    elif isinstance(t, Assign):
        yield from _leaves_of(t.lhs)
        yield from _leaves_of(t.rhs)
    elif isinstance(t, (VarLhs, DerefLhs, Deref, AddrOf)):
        yield from _leaves_of(t.var)
    elif isinstance(t, Call):
        yield from _leaves_of(t.var)
        yield from _leaves_of(t.arg)
    elif isinstance(t, IfGoto):
        yield from _leaves_of(t.cond)
        yield from _leaves_of(t.then_index)
        yield from _leaves_of(t.else_index)
    elif isinstance(t, UnOp):
        yield from _leaves_of(t.op)
        yield from _leaves_of(t.arg)
    elif isinstance(t, BinOp):
        yield from _leaves_of(t.op)
        yield from _leaves_of(t.left)
        yield from _leaves_of(t.right)
    else:
        raise PatternError(f"unexpected term {t!r}")


# ---------------------------------------------------------------------------
# Instantiating guard terms
# ---------------------------------------------------------------------------


def instantiate_term(t: object, theta: Subst) -> object:
    """Resolve a guard term to a concrete fragment under ``theta``."""
    return _term_getter(t)(theta)


def _term_getter(t: object) -> Callable[[Subst], object]:
    """``instantiate_term(t, .)`` with the dispatch on ``t`` done once."""
    if isinstance(t, (VarPat, ConstPat, ExprPat, OpPat, IndexPat)):
        name = t.name

        def get(theta: Subst) -> object:
            value = theta.get(name)
            if value is None:
                raise PatternError(f"unbound pattern variable {name}")
            return value

        return get
    if isinstance(t, (Var, Const, str, int)):
        return lambda theta: t
    # Composite expressions (e.g. &X inside a label argument).
    return lambda theta: instantiate_expr(t, theta)


# ---------------------------------------------------------------------------
# Check mode
# ---------------------------------------------------------------------------
#
# A guard compiles once into a tree of closures ``(theta, ctx) -> bool``;
# ``check`` looks the tree up by the guard's id.  ``case`` arms are grouped
# by statement class, so only the arms for the current statement's class
# are tried.  Labels bind late: a label node looks its name up in
# ``ctx.registry`` on every evaluation, because registries differ between
# engines and a label may be defined after a guard was first compiled.

#: ``compiled(theta, ctx)``: the guard's truth at ``ctx`` under ``theta``.
Compiled = Callable[[Subst, "NodeCtx"], bool]

_COMPILED: Dict[int, Tuple[Guard, Compiled]] = {}
_LEAVES: Dict[int, Tuple[Guard, FrozenSet[object]]] = {}
_GUARD_MEMO_LIMIT = 1 << 12


def check(guard: Guard, theta: Subst, ctx: "NodeCtx") -> bool:
    """Evaluate ``iota |=theta psi`` with a fully binding ``theta``."""
    # The hot path, one probe; memo_by_id compiles and stores on a miss.
    entry = _COMPILED.get(id(guard))
    if entry is not None and entry[0] is guard:
        return entry[1](theta, ctx)
    compiled = memo_by_id(_COMPILED, _GUARD_MEMO_LIMIT, guard, _compile)
    return compiled(theta, ctx)  # type: ignore[operator]


def _true(theta: Subst, ctx: "NodeCtx") -> bool:
    return True


def _false(theta: Subst, ctx: "NodeCtx") -> bool:
    return False


def _compile(guard: Guard) -> Compiled:
    if isinstance(guard, GTrue):
        return _true
    if isinstance(guard, GFalse):
        return _false
    if isinstance(guard, GNot):
        body = _compile(guard.body)
        return lambda theta, ctx: not body(theta, ctx)
    if isinstance(guard, GAnd):
        conjuncts = tuple(map(_compile, guard.parts))

        def conj(theta: Subst, ctx: "NodeCtx") -> bool:
            for part in conjuncts:
                if not part(theta, ctx):
                    return False
            return True

        return conj
    if isinstance(guard, GOr):
        disjuncts = tuple(map(_compile, guard.parts))

        def disj(theta: Subst, ctx: "NodeCtx") -> bool:
            for part in disjuncts:
                if part(theta, ctx):
                    return True
            return False

        return disj
    if isinstance(guard, GLabel):
        if guard.name == "stmt":
            match = stmt_matcher(guard.args[0])
            return lambda theta, ctx: match(ctx.stmt, theta) is not None
        return _compile_label(guard.name, tuple(map(_term_getter, guard.args)))
    if isinstance(guard, GEq):
        lhs, rhs = _term_getter(guard.lhs), _term_getter(guard.rhs)
        return lambda theta, ctx: lhs(theta) == rhs(theta)
    if isinstance(guard, GCase):
        return _compile_case(guard)

    def malformed(theta: Subst, ctx: "NodeCtx") -> bool:
        raise TypeError(f"not a guard: {guard!r}")

    return malformed


def _compile_label(name: str, getters: Tuple[Callable[[Subst], object], ...]) -> Compiled:
    if len(getters) == 1:
        (get,) = getters

        def unary(theta: Subst, ctx: "NodeCtx") -> bool:
            return ctx.registry.lookup(name).eval((get(theta),), ctx)  # type: ignore[attr-defined]

        return unary

    def label(theta: Subst, ctx: "NodeCtx") -> bool:
        args = tuple([get(theta) for get in getters])
        return ctx.registry.lookup(name).eval(args, ctx)  # type: ignore[attr-defined]

    return label


def _compile_case(guard: GCase) -> Compiled:
    by_class: Dict[type, List[Tuple[Matcher, Compiled]]] = {}
    for pattern, arm in guard.arms:
        by_class.setdefault(type(pattern), []).append((stmt_matcher(pattern), _compile(arm)))
    arms = {cls: tuple(entries) for cls, entries in by_class.items()}
    default = _compile(guard.default)
    none: Tuple[Tuple[Matcher, Compiled], ...] = ()

    def case(theta: Subst, ctx: "NodeCtx") -> bool:
        stmt = ctx.stmt
        for match, arm in arms.get(stmt.__class__, none):
            extended = match(stmt, theta)
            if extended is not None:
                return arm(extended, ctx)
        return default(theta, ctx)

    return case


# ---------------------------------------------------------------------------
# Generate mode
# ---------------------------------------------------------------------------


def generate(guard: Guard, base: Subst, ctx: "NodeCtx") -> List[Subst]:
    """All substitutions theta extending ``base`` with ``iota |=theta psi``.

    The returned substitutions bind exactly the pattern variables of
    ``guard`` (plus whatever ``base`` already bound); variables that cannot
    be determined from statement patterns are enumerated over the finite
    domains of the enclosing procedure.
    """
    partials = _gen(guard, dict(base), ctx)
    needed = memo_by_id(_LEAVES, _GUARD_MEMO_LIMIT, guard, guard_leaves)
    out: List[Subst] = []
    seen: set = set()
    for theta in partials:
        missing = [leaf for leaf in needed if getattr(leaf, "name", None) not in theta]
        for completed in _enumerate(missing, theta, ctx):
            if check(guard, completed, ctx):
                key = tuple(sorted((k, repr(v)) for k, v in completed.items()))
                if key not in seen:
                    seen.add(key)
                    out.append(completed)
    return out


def _gen(guard: Guard, theta: Subst, ctx: "NodeCtx") -> List[Subst]:
    """Propose (possibly partial) bindings; final filtering is by check()."""
    if isinstance(guard, (GTrue, GFalse)):
        return [theta]
    if isinstance(guard, GLabel):
        if guard.name == "stmt":
            extended = stmt_matcher(guard.args[0])(ctx.stmt, theta)
            return [extended] if extended is not None else []
        return [theta]
    if isinstance(guard, GEq):
        return [theta]
    if isinstance(guard, GNot):
        return [theta]
    if isinstance(guard, GAnd):
        thetas = [theta]
        for part in guard.parts:
            thetas = [t2 for t in thetas for t2 in _gen(part, t, ctx)]
        return thetas
    if isinstance(guard, GOr):
        out: List[Subst] = []
        for part in guard.parts:
            out.extend(_gen(part, theta, ctx))
        return out
    if isinstance(guard, GCase):
        out = []
        for pattern, arm in guard.arms:
            extended = stmt_matcher(pattern)(ctx.stmt, theta)
            if extended is not None:
                out.extend(_gen(arm, extended, ctx))
                return out
        return _gen(guard.default, theta, ctx)
    raise TypeError(f"not a guard: {guard!r}")


def _enumerate(missing: Sequence[object], theta: Subst, ctx: "NodeCtx") -> Iterable[Subst]:
    if not missing:
        yield theta
        return
    domains: List[List[object]] = []
    for leaf in missing:
        domains.append(list(_domain(leaf, ctx)))
    names = [leaf.name for leaf in missing]  # type: ignore[attr-defined]
    for combo in itertools.product(*domains):
        extended = dict(theta)
        extended.update(zip(names, combo))
        yield extended


def _domain(leaf: object, ctx: "NodeCtx") -> Iterable[object]:
    if isinstance(leaf, VarPat):
        return sorted((Var(v) for v in ctx.proc.mentioned_vars()), key=str)
    if isinstance(leaf, ConstPat):
        return sorted((Const(c) for c in ctx.proc.constants()), key=lambda c: c.value)
    if isinstance(leaf, ExprPat):
        return ctx.proc_exprs()
    if isinstance(leaf, IndexPat):
        return list(ctx.proc.indices())
    if isinstance(leaf, OpPat):
        from repro.il.ast import BINARY_OPS, UNARY_OPS

        return list(BINARY_OPS) + list(UNARY_OPS)
    raise PatternError(f"cannot enumerate domain of {leaf!r}")
