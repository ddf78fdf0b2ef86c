"""The extended intermediate language: IL syntax with pattern variables.

Section 3.2.1 of the paper extends every production of the IL grammar with a
pattern-variable case.  Pattern statements are matched against concrete
statements of the procedure being optimized, producing substitutions
``theta`` that map pattern variables to program fragments of the matching
kind:

* :class:`VarPat`   — program variables (``X``, ``Y``, ...)
* :class:`ConstPat` — integer constants (``C``)
* :class:`ExprPat`  — whole expressions (``E``)
* :class:`OpPat`    — operator names
* :class:`IndexPat` — branch-target statement indices (``I1``, ``I2``)
* :class:`Wildcard` — the paper's ``...``: matches anything, binds nothing

A pattern statement is represented with the ordinary IL constructors whose
leaves may additionally be pattern variables; this module provides matching
(:func:`match_stmt`) and instantiation (:func:`instantiate_stmt`) and a
small concrete syntax (:func:`parse_pattern_stmt`) used by the Cobalt
parser, e.g. ``"X := Y"``, ``"*X := Z"``, ``"X := ?E"``, ``"return ..."``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.il.ast import (
    AddrOf,
    Assign,
    BaseExpr,
    BinOp,
    Call,
    Const,
    Decl,
    Deref,
    DerefLhs,
    Expr,
    IfGoto,
    New,
    Return,
    Skip,
    Stmt,
    UnOp,
    Var,
    VarLhs,
)


@dataclass(frozen=True)
class VarPat:
    """Matches any program variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstPat:
    """Matches any integer constant."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ExprPat:
    """Matches any whole expression."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class OpPat:
    """Matches any operator name."""

    name: str

    def __str__(self) -> str:
        return f"op:{self.name}"


@dataclass(frozen=True)
class IndexPat:
    """Matches any branch-target index."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class Wildcard:
    """The paper's ``...``: matches anything without binding."""

    def __str__(self) -> str:
        return "..."


PatternLeaf = Union[VarPat, ConstPat, ExprPat, OpPat, IndexPat, Wildcard]

#: A pattern statement/expression is an IL fragment whose leaves may be
#: pattern variables.  (Python's structural typing lets us reuse the IL
#: dataclasses directly.)
PStmt = Stmt
PExpr = Expr

#: A substitution maps pattern-variable names to matched fragments:
#: Var | Const | Expr | int (indices) | str (operators).
Subst = Dict[str, object]

FrozenSubst = Tuple[Tuple[str, object], ...]


def freeze_subst(theta: Mapping[str, object]) -> FrozenSubst:
    """A hashable view of a substitution (for dataflow fact sets)."""
    return tuple(sorted(theta.items(), key=lambda kv: kv[0]))


def thaw_subst(frozen: FrozenSubst) -> Subst:
    return dict(frozen)


#: Interned ordering keys: ``repr`` of a FrozenSubst is a stable total
#: order over the substitutions of a fact set, but recomputing it for
#: every sort on the engine's hot path is wasteful — the same frozen
#: substitutions recur across nodes and fixpoint iterations.  The table
#: is bounded so pathological workloads cannot grow it without limit.
_ORDER_KEYS: Dict[FrozenSubst, str] = {}
_ORDER_KEYS_LIMIT = 1 << 20


def subst_order_key(frozen: FrozenSubst) -> str:
    """A deterministic sort key for frozen substitutions (interned).

    Equal substitutions always produce equal keys, so any two engines
    sorting the same fact set enumerate it in the same order — the
    property the deterministic-``Delta`` guarantee rests on.
    """
    key = _ORDER_KEYS.get(frozen)
    if key is None:
        if len(_ORDER_KEYS) >= _ORDER_KEYS_LIMIT:
            _ORDER_KEYS.clear()
        key = repr(frozen)
        _ORDER_KEYS[frozen] = key
    return key


class PatternError(Exception):
    """Raised on malformed patterns or incomplete instantiations."""


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------
#
# A pattern statement compiles once into a matcher: the statement class it
# accepts, a list of binding-free tests (nested node classes, concrete
# leaves), and a list of ``(getter, name)`` bindings.  Matching runs the
# tests, then the bindings, and copies theta only when a binding adds a
# variable theta does not have yet.  A name bound twice (``X := X``) or
# already bound in theta must meet the same value again.

#: ``matcher(stmt, theta)``: the extended substitution, or None.  The
#: result is ``theta`` itself when the match binds nothing new.
Matcher = Callable[[Stmt, Subst], Optional[Subst]]

_MATCHERS: Dict[int, Tuple[PStmt, Matcher]] = {}
_MATCHERS_LIMIT = 1 << 12


def memo_by_id(table: Dict[int, Tuple[object, object]], limit: int, obj: object,
               build: Callable[[object], object]) -> object:
    """``build(obj)``, memoized in ``table`` under ``id(obj)``.

    Each entry pins ``obj``, so its id cannot be reused by another object
    while the entry lives; the table is cleared when it reaches ``limit``.
    Nothing is stored on ``obj`` itself (AST nodes are frozen and pickled).
    """
    entry = table.get(id(obj))
    if entry is not None and entry[0] is obj:
        return entry[1]
    value = build(obj)
    if len(table) >= limit:
        table.clear()
    table[id(obj)] = (obj, value)
    return value


class _Plan:
    """The tests and bindings of one pattern statement, in path order (a
    node's class test precedes every getter that descends into it)."""

    def __init__(self) -> None:
        self.tests: List[Callable[[Stmt], bool]] = []
        self.binds: List[Tuple[Callable[[Stmt], object], str]] = []
        self.never = False

    def equal(self, path: str, value: object) -> None:
        get = attrgetter(path)
        self.tests.append(lambda stmt: get(stmt) == value)

    def is_a(self, path: str, cls: type) -> None:
        get = attrgetter(path)
        self.tests.append(lambda stmt: isinstance(get(stmt), cls))

    def bind(self, path: str, name: str) -> None:
        self.binds.append((attrgetter(path), name))

    def var(self, pattern: object, path: str) -> None:
        if isinstance(pattern, Wildcard):
            return
        if isinstance(pattern, VarPat):
            self.bind(path, pattern.name)
        elif isinstance(pattern, Var):
            self.equal(path, pattern)
        else:
            self.never = True

    def base(self, pattern: object, path: str) -> None:
        if isinstance(pattern, Wildcard):
            return
        if isinstance(pattern, (VarPat, ConstPat)):
            self.is_a(path, Var if isinstance(pattern, VarPat) else Const)
            self.bind(path, pattern.name)
        elif isinstance(pattern, ExprPat):
            self.bind(path, pattern.name)
        elif isinstance(pattern, (Var, Const)):
            self.equal(path, pattern)
        else:
            self.never = True

    def expr(self, pattern: object, path: str) -> None:
        if isinstance(pattern, (Deref, AddrOf)):
            self.is_a(path, type(pattern))
            self.var(pattern.var, path + ".var")
        elif isinstance(pattern, UnOp):
            self.is_a(path, UnOp)
            self.op(pattern.op, path + ".op")
            self.base(pattern.arg, path + ".arg")
        elif isinstance(pattern, BinOp):
            self.is_a(path, BinOp)
            self.op(pattern.op, path + ".op")
            self.base(pattern.left, path + ".left")
            self.base(pattern.right, path + ".right")
        else:
            # A base pattern only matches a base expression, and an
            # expression pattern matches anything: the base rules say both.
            self.base(pattern, path)

    def op(self, pattern: object, path: str) -> None:
        if isinstance(pattern, OpPat):
            self.bind(path, pattern.name)
        else:
            self.equal(path, pattern)

    def index(self, pattern: object, path: str) -> None:
        if isinstance(pattern, Wildcard):
            return
        if isinstance(pattern, IndexPat):
            self.bind(path, pattern.name)
        else:
            self.equal(path, pattern)

    def lhs(self, pattern: object, path: str) -> None:
        if isinstance(pattern, Wildcard):
            return
        if isinstance(pattern, (VarLhs, DerefLhs)):
            self.is_a(path, type(pattern))
            self.var(pattern.var, path + ".var")
        else:
            self.never = True

    def stmt(self, pattern: PStmt) -> None:
        if isinstance(pattern, (Decl, New, Return)):
            self.var(pattern.var, "var")
        elif isinstance(pattern, Assign):
            self.lhs(pattern.lhs, "lhs")
            self.expr(pattern.rhs, "rhs")
        elif isinstance(pattern, Call):
            self.var(pattern.var, "var")
            if not isinstance(pattern.proc, Wildcard):
                self.equal("proc", pattern.proc)
            self.base(pattern.arg, "arg")
        elif isinstance(pattern, IfGoto):
            self.base(pattern.cond, "cond")
            self.index(pattern.then_index, "then_index")
            self.index(pattern.else_index, "else_index")
        elif not isinstance(pattern, Skip):
            self.never = True


def _never(stmt: Stmt, theta: Subst) -> None:
    return None


def _compile_stmt(pattern: PStmt) -> Matcher:
    plan = _Plan()
    plan.stmt(pattern)
    if plan.never:
        return _never
    cls = type(pattern)
    tests = tuple(plan.tests)
    binds = tuple(plan.binds)

    def match(stmt: Stmt, theta: Subst) -> Optional[Subst]:
        if stmt.__class__ is not cls:
            return None
        for test in tests:
            if not test(stmt):
                return None
        out = theta
        for get, name in binds:
            value = get(stmt)
            bound = out.get(name)
            if bound is None:
                if out is theta:
                    out = dict(theta)
                out[name] = value
            elif bound != value:
                return None
        return out

    return match


def stmt_matcher(pattern: PStmt) -> Matcher:
    """The compiled matcher of a pattern statement (built once per pattern
    object)."""
    return memo_by_id(_MATCHERS, _MATCHERS_LIMIT, pattern, _compile_stmt)  # type: ignore[return-value]


def match_stmt(pattern: PStmt, stmt: Stmt, theta: Optional[Subst] = None) -> Optional[Subst]:
    """Match a pattern statement against a concrete statement.

    Returns the extended substitution, or None when they do not match.
    The incoming ``theta`` is never mutated, and the result is always a
    fresh dict.
    """
    theta = theta or {}
    out = stmt_matcher(pattern)(stmt, theta)
    return dict(out) if out is theta else out


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def _inst_var(pattern: object, theta: Subst) -> Var:
    if isinstance(pattern, VarPat):
        value = theta.get(pattern.name)
        if not isinstance(value, Var):
            raise PatternError(f"pattern variable {pattern.name} unbound or not a variable")
        return value
    if isinstance(pattern, Var):
        return pattern
    raise PatternError(f"cannot instantiate {pattern!r} as a variable")


def _inst_base(pattern: object, theta: Subst) -> BaseExpr:
    if isinstance(pattern, VarPat):
        return _inst_var(pattern, theta)
    if isinstance(pattern, ConstPat):
        value = theta.get(pattern.name)
        if not isinstance(value, Const):
            raise PatternError(f"pattern constant {pattern.name} unbound or not a constant")
        return value
    if isinstance(pattern, (Var, Const)):
        return pattern
    if isinstance(pattern, ExprPat):
        value = theta.get(pattern.name)
        if isinstance(value, (Var, Const)):
            return value
        raise PatternError(f"pattern {pattern.name} is not a base expression")
    raise PatternError(f"cannot instantiate {pattern!r} as a base expression")


def instantiate_expr(pattern: object, theta: Subst) -> Expr:
    if isinstance(pattern, ExprPat):
        value = theta.get(pattern.name)
        if value is None:
            raise PatternError(f"expression pattern {pattern.name} unbound")
        return value  # type: ignore[return-value]
    if isinstance(pattern, (VarPat, ConstPat, Var, Const)):
        return _inst_base(pattern, theta)
    if isinstance(pattern, Deref):
        return Deref(_inst_var(pattern.var, theta))
    if isinstance(pattern, AddrOf):
        return AddrOf(_inst_var(pattern.var, theta))
    if isinstance(pattern, UnOp):
        return UnOp(_inst_op(pattern.op, theta), _inst_base(pattern.arg, theta))
    if isinstance(pattern, BinOp):
        return BinOp(
            _inst_op(pattern.op, theta),
            _inst_base(pattern.left, theta),
            _inst_base(pattern.right, theta),
        )
    raise PatternError(f"cannot instantiate {pattern!r} as an expression")


def _inst_op(pattern: object, theta: Subst) -> str:
    if isinstance(pattern, OpPat):
        value = theta.get(pattern.name)
        if not isinstance(value, str):
            raise PatternError(f"operator pattern {pattern.name} unbound")
        return value
    if isinstance(pattern, str):
        return pattern
    raise PatternError(f"cannot instantiate {pattern!r} as an operator")


def _inst_index(pattern: object, theta: Subst) -> int:
    if isinstance(pattern, IndexPat):
        value = theta.get(pattern.name)
        if not isinstance(value, int):
            raise PatternError(f"index pattern {pattern.name} unbound")
        return value
    if isinstance(pattern, int):
        return pattern
    raise PatternError(f"cannot instantiate {pattern!r} as an index")


def instantiate_stmt(pattern: PStmt, theta: Subst) -> Stmt:
    """Instantiate a pattern statement with a substitution; total on the
    pattern shapes produced by :func:`parse_pattern_stmt`."""
    if isinstance(pattern, Skip):
        return pattern
    if isinstance(pattern, Decl):
        return Decl(_inst_var(pattern.var, theta))
    if isinstance(pattern, Assign):
        if isinstance(pattern.lhs, VarLhs):
            lhs: object = VarLhs(_inst_var(pattern.lhs.var, theta))
        else:
            lhs = DerefLhs(_inst_var(pattern.lhs.var, theta))
        return Assign(lhs, instantiate_expr(pattern.rhs, theta))
    if isinstance(pattern, New):
        return New(_inst_var(pattern.var, theta))
    if isinstance(pattern, Call):
        if isinstance(pattern.proc, Wildcard):
            raise PatternError("cannot instantiate a wildcard procedure name")
        return Call(_inst_var(pattern.var, theta), pattern.proc, _inst_base(pattern.arg, theta))
    if isinstance(pattern, IfGoto):
        return IfGoto(
            _inst_base(pattern.cond, theta),
            _inst_index(pattern.then_index, theta),
            _inst_index(pattern.else_index, theta),
        )
    if isinstance(pattern, Return):
        return Return(_inst_var(pattern.var, theta))
    raise PatternError(f"cannot instantiate {pattern!r}")


def pattern_vars(pattern: object) -> frozenset[str]:
    """Names of all pattern variables occurring in an (extended-IL) fragment."""
    found: set[str] = set()

    def walk(node: object) -> None:
        if isinstance(node, (VarPat, ConstPat, ExprPat, OpPat, IndexPat)):
            found.add(node.name)
        elif isinstance(node, (Var, Const, Wildcard, Skip, str, int)) or node is None:
            pass
        elif isinstance(node, Decl):
            walk(node.var)
        elif isinstance(node, Assign):
            walk(node.lhs)
            walk(node.rhs)
        elif isinstance(node, (VarLhs, DerefLhs)):
            walk(node.var)
        elif isinstance(node, New):
            walk(node.var)
        elif isinstance(node, Call):
            walk(node.var)
            walk(node.arg)
        elif isinstance(node, IfGoto):
            walk(node.cond)
            walk(node.then_index)
            walk(node.else_index)
        elif isinstance(node, Return):
            walk(node.var)
        elif isinstance(node, Deref):
            walk(node.var)
        elif isinstance(node, AddrOf):
            walk(node.var)
        elif isinstance(node, UnOp):
            walk(node.op)
            walk(node.arg)
        elif isinstance(node, BinOp):
            walk(node.op)
            walk(node.left)
            walk(node.right)
        else:
            raise PatternError(f"unexpected pattern node {node!r}")

    walk(pattern)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Concrete syntax for pattern statements
# ---------------------------------------------------------------------------
#
# Upper-case identifiers are pattern variables: names starting with C
# followed by optional digits are constant patterns; E* are expression
# patterns; OP* are operator patterns; I followed by digits are index
# patterns; everything else upper-case is a variable pattern.  ``...`` is
# the wildcard.  Lower-case identifiers are concrete program variables.


def classify_ident(name: str) -> object:
    """Map a pattern-syntax identifier to a leaf (pattern var or concrete)."""
    if name == "...":
        return Wildcard()
    if not name[0].isupper():
        return Var(name)
    if name.startswith("E"):
        return ExprPat(name)
    if name.startswith("OP"):
        return OpPat(name)
    if name.startswith("C") and (len(name) == 1 or name[1:].isdigit()):
        return ConstPat(name)
    if name.startswith("I") and len(name) > 1 and name[1:].isdigit():
        return IndexPat(name)
    return VarPat(name)


def parse_pattern_stmt(text: str) -> PStmt:
    """Parse a pattern statement from concrete syntax.

    Examples::

        "X := Y"          assignment of a variable to a variable
        "Y := C"          assignment of a constant
        "X := E"          assignment of any expression
        "X := C1 OP C2"   operator application on constants
        "*X := Z"         pointer store
        "X := new"        allocation
        "X := P(...)"     any procedure call (P is matched as a wildcard)
        "if C goto I1 else I2"
        "decl X", "skip", "return X", "return ...", "X := ..."
        "X := &Y", "X := *Y"
    """
    from repro.cobalt._pattern_parser import parse

    return parse(text)
