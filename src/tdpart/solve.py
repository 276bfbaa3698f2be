"""Path conditions and a bounded-domain constraint solver.

Declared input domains are small by construction (parse enforces a width
cap), so satisfiability is decided exactly: interval narrowing to a fixpoint
prunes the domain cube, then ordered backtracking enumerates what is left.

Narrowing is HC4-style revise (Benhamou et al., "Revising hull and box
consistency", ICLP 1999): each constraint is pushed down its expression tree
to the input intervals. Node intervals are memoised for one fixpoint run and
dropped whenever an input interval shrinks, so between two shrinks each node
is evaluated at most once, and a node already inside its target range (or a
constraint already entailed) stops the descent. On the left-deep chains that
loops build, narrowing work is linear in the chain length. A product
narrows through any factor whose interval is a single point, and a square
of one input through integer square roots.

The fixpoint is an AC-3 worklist (Mackworth, 1977) over the pc's constraints:
a revise that shrinks input v queues again every constraint that reads v, up
to 100 revisions per constraint. It is incremental along the path, as a
test-depth pair's region is explored one branch at a time: each pc keeps its
narrowed box, and a child's box starts from a copy of its parent's with only
the new constraint queued (an ancestor without a box gets one first, the
same way). Backtracking pins each input but the last to a value, queues the
constraints that read it and narrows again, skipping the value when that
refutes the pc; the last input is checked by concrete evaluation.

Inputs are enumerated in declaration order with ascending values, so the
first solution found is the lexicographically smallest one, which is what
keeps models (and everything seeded from them) deterministic across runs.
Narrowing only ever removes points that are not solutions, so it never
changes which solution comes first, however much of it is done.

A solve may take a hint: the lex-min model of a subset of the path
condition's constraints (in the engine, the parent state's model). Every
solution of the whole pc is a solution of that subset, so when the hint
satisfies the whole pc it is already the pc's lex-min model and is returned
with no narrowing or enumeration. A pc keeps the model its last solve or
cache hit returned; a hint equal to the parent pc's model is known to
satisfy the parent's constraints and is checked against the new one only,
any other hint against the whole pc. A hint outside this contract still
yields a model, though not necessarily the lex-min one; a hint that fails
the pc is ignored.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from . import lang
from .lang import INT64_MAX, INT64_MIN, Binary, Const, Expr, SymDecl, Unary, Var

DEFAULT_DOMAIN_CAP = lang.DEFAULT_DOMAIN_CAP

Test = dict[str, int]


class SolveError(Exception):
    pass


class DomainCapError(SolveError):
    pass


# ---------------------------------------------------------------------------
# Concrete evaluation (signed 64-bit wrapping)
# ---------------------------------------------------------------------------


def wrap(v: int) -> int:
    return (v - INT64_MIN) % 2**64 + INT64_MIN


# One table per arity: what each operator makes of concrete operands.
BINARY_OPS = {
    "+": lambda a, b: wrap(a + b),
    "-": lambda a, b: wrap(a - b),
    "*": lambda a, b: wrap(a * b),
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "and": lambda a, b: 1 if a != 0 and b != 0 else 0,
    "or": lambda a, b: 1 if a != 0 or b != 0 else 0,
}
UNARY_OPS = {
    "neg": lambda a: wrap(-a),
    "not": lambda a: 0 if a else 1,
}


def evaluate_concrete(e: Expr, test: Test) -> int:
    """Evaluate under the test. An unbound name, which a malformed Task from
    the wire can carry, raises SolveError."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name in test:
            return test[e.name]
        raise SolveError(f"unbound variable {e.name}")
    if isinstance(e, Unary):
        return UNARY_OPS[e.op](evaluate_concrete(e.operand, test))
    return BINARY_OPS[e.op](evaluate_concrete(e.left, test), evaluate_concrete(e.right, test))


def solve_path(test: Test, cond: Expr) -> bool:
    """Which way a concrete test drives a branch condition."""
    return evaluate_concrete(cond, test) != 0


# ---------------------------------------------------------------------------
# Path conditions
# ---------------------------------------------------------------------------


def _all_hold(constraints: tuple[Constraint, ...], test: Test) -> bool:
    return all((evaluate_concrete(c.expr, test) != 0) == c.taken for c in constraints)


@dataclass(frozen=True)
class Constraint:
    expr: Expr
    taken: bool  # polarity: did execution take the true side
    depth: int  # 1-based symbolic branch depth

    @cached_property
    def text(self) -> str:
        t = lang.expr_text(self.expr)
        return t if self.taken else "!" + t

    @cached_property
    def inputs(self) -> frozenset[str]:
        return frozenset(lang.reads(self.expr))


@dataclass(frozen=True)
class PathCondition:
    constraints: tuple[Constraint, ...] = ()
    # the pc this one extends, whose narrowed box a solve starts from
    parent: PathCondition | None = field(default=None, compare=False, repr=False)
    # solver state, filled in by the first solve that needs it: the narrowed
    # box, and the model solve_model or a QueryCache hit returned
    _narrowed: _Narrowed | None = field(default=None, init=False, compare=False, repr=False)
    _model: Test | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def depth(self) -> int:
        return len(self.constraints)

    def extend(self, expr: Expr, taken: bool) -> "PathCondition":
        c = Constraint(expr, taken, len(self.constraints) + 1)
        return PathCondition(self.constraints + (c,), self)

    def satisfied_by(self, test: Test) -> bool:
        return _all_hold(self.constraints, test)

    def texts(self) -> list[str]:
        return [c.text for c in self.constraints]

    def path_bits(self) -> str:
        """PathVector: bit i is the decision at symbolic depth i+1, 1 = true."""
        return "".join("1" if c.taken else "0" for c in self.constraints)

    def key(self) -> str:
        """Canonical cache key: order-independent over the constraint set."""
        return "\n".join(sorted(self.texts()))


# ---------------------------------------------------------------------------
# Interval narrowing
# ---------------------------------------------------------------------------

_Interval = tuple[int, int]
_TOP: _Interval = (INT64_MIN, INT64_MAX)

_NEGATED_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


class _Unsat(Exception):
    pass


class _Box:
    """Input intervals plus a memo of node intervals under them (keyed by
    id(node); the nodes outlive the box). Every write to iv goes through
    _narrow_var, which drops the memo when an interval actually shrinks and
    notes the input in `shrunk`."""

    __slots__ = ("iv", "memo", "shrunk")

    def __init__(self, iv: dict[str, _Interval]) -> None:
        self.iv = iv
        self.memo: dict[int, _Interval] = {}
        self.shrunk: list[str] = []


def _interval(e: Expr, box: _Box) -> _Interval:
    """e's interval under box, evaluated at most once per node per shrink."""
    if isinstance(e, Var):
        return box.iv[e.name]
    r = box.memo.get(id(e))
    if r is None:
        r = box.memo[id(e)] = _ieval(e, box)
    return r


def _ieval(e: Expr, box: _Box) -> _Interval:
    """Over-approximation of e's value range; TOP when wrapping is possible.
    Evaluates this node only (never a Var): children come from _interval."""
    if isinstance(e, Const):
        return (e.value, e.value)
    if isinstance(e, Unary):
        lo, hi = _interval(e.operand, box)
        if e.op == "neg":
            if -hi < INT64_MIN or -lo > INT64_MAX:
                return _TOP
            return (-hi, -lo)
        # not: 0/1 valued
        if lo > 0 or hi < 0:
            return (0, 0)
        if lo == 0 and hi == 0:
            return (1, 1)
        return (0, 1)
    a = _interval(e.left, box)
    b = _interval(e.right, box)
    op = e.op
    if op in lang.ARITH_OPS:
        if op == "+":
            lo, hi = a[0] + b[0], a[1] + b[1]
        elif op == "-":
            lo, hi = a[0] - b[1], a[1] - b[0]
        elif a is b and _is_square(e):  # a square reads one interval twice
            lo, hi = _square(a)
        else:
            corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
            lo, hi = min(corners), max(corners)
        if lo < INT64_MIN or hi > INT64_MAX:
            return _TOP
        return (lo, hi)
    if op == "<":
        return (1, 1) if a[1] < b[0] else (0, 0) if a[0] >= b[1] else (0, 1)
    if op == "<=":
        return (1, 1) if a[1] <= b[0] else (0, 0) if a[0] > b[1] else (0, 1)
    if op == ">":
        return (1, 1) if a[0] > b[1] else (0, 0) if a[1] <= b[0] else (0, 1)
    if op == ">=":
        return (1, 1) if a[0] >= b[1] else (0, 0) if a[1] < b[0] else (0, 1)
    if op == "==":
        if a[0] == a[1] == b[0] == b[1]:
            return (1, 1)
        return (0, 0) if a[1] < b[0] or b[1] < a[0] else (0, 1)
    if op == "!=":
        if a[1] < b[0] or b[1] < a[0]:
            return (1, 1)
        return (0, 0) if a[0] == a[1] == b[0] == b[1] else (0, 1)
    # boolean ops: definitely-nonzero / definitely-zero on each side
    def_true_a = a[0] > 0 or a[1] < 0
    def_true_b = b[0] > 0 or b[1] < 0
    def_false_a = a == (0, 0)
    def_false_b = b == (0, 0)
    if op == "and":
        if def_true_a and def_true_b:
            return (1, 1)
        if def_false_a or def_false_b:
            return (0, 0)
        return (0, 1)
    if op == "or":
        if def_true_a or def_true_b:
            return (1, 1)
        if def_false_a and def_false_b:
            return (0, 0)
        return (0, 1)
    raise SolveError(f"unknown operator {op}")


def _is_square(e: Binary) -> bool:
    """A product of one input with itself."""
    left, right = e.left, e.right
    return isinstance(left, Var) and isinstance(right, Var) and left.name == right.name


def _square(a: _Interval) -> _Interval:
    lo, hi = a
    if lo >= 0:
        return (lo * lo, hi * hi)
    if hi <= 0:
        return (hi * hi, lo * lo)
    return (0, max(lo * lo, hi * hi))


def _narrow_square(name: str, lo: int, hi: int, box: _Box) -> None:
    """Force name*name into [lo, hi]: r <= |name| <= s, with r and s the
    integer square roots rounded inwards; the box keeps the hull of the
    negative and the positive part."""
    s = math.isqrt(hi)  # hi >= 0: the square's interval overlaps [lo, hi]
    r = math.isqrt(lo - 1) + 1 if lo > 0 else 0
    cur_lo, cur_hi = box.iv[name]
    neg = (max(cur_lo, -s), min(cur_hi, -r))
    pos = (max(cur_lo, r), min(cur_hi, s))
    parts = [p for p in (neg, pos) if p[0] <= p[1]]
    if not parts:
        raise _Unsat
    _narrow_var(name, parts[0][0], parts[-1][1], box)


def _def_true(e: Expr, box: _Box) -> bool:
    lo, hi = _interval(e, box)
    return lo > 0 or hi < 0


def _def_false(e: Expr, box: _Box) -> bool:
    return _interval(e, box) == (0, 0)


def _narrow_var(name: str, lo: int, hi: int, box: _Box) -> None:
    cur = box.iv[name]
    nlo, nhi = max(cur[0], lo), min(cur[1], hi)
    if nlo > nhi:
        raise _Unsat
    if (nlo, nhi) != cur:
        box.iv[name] = (nlo, nhi)
        box.memo.clear()
        box.shrunk.append(name)


def _narrow_into(e: Expr, lo: int, hi: int, box: _Box) -> None:
    """Force e's value into [lo, hi], propagating bounds down to variables.
    Skips nodes where wrapping could occur; always sound, never complete."""
    if lo > hi:
        raise _Unsat
    cur = _interval(e, box)
    if lo <= cur[0] and cur[1] <= hi:
        return  # already inside: nothing to narrow
    if cur[1] < lo or hi < cur[0]:
        raise _Unsat
    if isinstance(e, Var):
        _narrow_var(e.name, lo, hi, box)
        return
    if isinstance(e, Unary):
        if e.op == "neg":
            if cur == _TOP:
                return  # negation may wrap, leave it alone
            _narrow_into(e.operand, -hi, -lo, box)
        else:  # not: 0/1 valued
            if lo > 0:
                _require(e.operand, False, box)
            elif hi < 1:
                _require(e.operand, True, box)
        return
    op = e.op
    if op in lang.ARITH_OPS:
        a = _interval(e.left, box)
        b = _interval(e.right, box)
        if op == "+":
            if a[0] + b[0] < INT64_MIN or a[1] + b[1] > INT64_MAX:
                return
            _narrow_into(e.left, lo - b[1], hi - b[0], box)
            a = _interval(e.left, box)
            _narrow_into(e.right, lo - a[1], hi - a[0], box)
        elif op == "-":
            if a[0] - b[1] < INT64_MIN or a[1] - b[0] > INT64_MAX:
                return
            _narrow_into(e.left, lo + b[0], hi + b[1], box)
            a = _interval(e.left, box)
            _narrow_into(e.right, a[0] - hi, a[1] - lo, box)
        else:  # * : only through a factor whose interval is one point
            corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
            if min(corners) < INT64_MIN or max(corners) > INT64_MAX:
                return
            if a[0] == a[1]:
                c, other = a[0], e.right
            elif b[0] == b[1]:
                c, other = b[0], e.left
            elif a is b and _is_square(e):
                _narrow_square(e.left.name, lo, hi, box)
                return
            else:
                return
            # c != 0 here: a 0 factor makes cur (0, 0), settled above
            if c > 0:
                _narrow_into(other, -((-lo) // c), hi // c, box)
            else:
                _narrow_into(other, -((-hi) // c), lo // c, box)
        return
    # comparison / boolean node used as a value: 0/1
    if lo > 0:
        _require(e, True, box)
    elif hi < 1:
        _require(e, False, box)


def _enforce_cmp(op: str, left: Expr, right: Expr, box: _Box) -> None:
    if op == ">":
        op, left, right = "<", right, left
    elif op == ">=":
        op, left, right = "<=", right, left
    a = _interval(left, box)
    b = _interval(right, box)
    if op == "<":
        _narrow_into(left, a[0], min(a[1], b[1] - 1), box)
        b = _interval(right, box)
        a = _interval(left, box)
        _narrow_into(right, max(b[0], a[0] + 1), b[1], box)
    elif op == "<=":
        _narrow_into(left, a[0], min(a[1], b[1]), box)
        a = _interval(left, box)
        _narrow_into(right, max(b[0], a[0]), b[1], box)
    elif op == "==":
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        _narrow_into(left, lo, hi, box)
        _narrow_into(right, lo, hi, box)
    elif op == "!=":
        # one same point on both sides was refuted in _require already
        if b[0] == b[1]:
            p = b[0]
            if a[0] == p:
                _narrow_into(left, p + 1, a[1], box)
            elif a[1] == p:
                _narrow_into(left, a[0], p - 1, box)
        elif a[0] == a[1]:
            p = a[0]
            if b[0] == p:
                _narrow_into(right, p + 1, b[1], box)
            elif b[1] == p:
                _narrow_into(right, b[0], p - 1, box)


def _require(e: Expr, want: bool, box: _Box) -> None:
    """Narrow the box so that e is truthy (want) or zero (not want)."""
    lo, hi = _interval(e, box)
    if lo > 0 or hi < 0:  # definitely truthy
        if want:
            return
        raise _Unsat
    if lo == 0 and hi == 0:  # definitely zero
        if want:
            raise _Unsat
        return
    if isinstance(e, Var):
        if not want:
            _narrow_var(e.name, 0, 0, box)
        elif lo == 0:
            _narrow_var(e.name, 1, hi, box)
        elif hi == 0:
            _narrow_var(e.name, lo, -1, box)
        return
    if isinstance(e, Unary):
        # both !e and -e flip/keep truthiness structurally
        _require(e.operand, (not want) if e.op == "not" else want, box)
        return
    op = e.op
    if op in lang.CMP_OPS:
        _enforce_cmp(op if want else _NEGATED_CMP[op], e.left, e.right, box)
        return
    if op == "and":
        if want:
            _require(e.left, True, box)
            _require(e.right, True, box)
        else:
            if _def_true(e.left, box):
                _require(e.right, False, box)
            elif _def_true(e.right, box):
                _require(e.left, False, box)
        return
    if op == "or":
        if want:
            if _def_false(e.left, box):
                _require(e.right, True, box)
            elif _def_false(e.right, box):
                _require(e.left, True, box)
        else:
            _require(e.left, False, box)
            _require(e.right, False, box)
        return
    # arithmetic used as a condition
    if not want:
        _narrow_into(e, 0, 0, box)


def _fixpoint(
    constraints: tuple[Constraint, ...],
    iv: dict[str, _Interval],
    queue: Iterable[int] | None = None,
    watch: dict[str, tuple[int, ...]] | None = None,
) -> None:
    """Narrow iv in place by revising the queued constraints (indices into
    constraints; all of them by default), first in first out, until none is
    pending. A revise that shrinks input v queues again every constraint
    that reads v, as `watch` lists them (the watch list of constraints by
    default). Stops after 100 revisions per constraint, the work of 100 full
    passes; raises _Unsat when some constraint cannot hold inside the box."""
    if watch is None:
        watch = _watch_list({}, constraints, 0)
    pending = list(range(len(constraints)) if queue is None else queue)
    box = _Box(iv)
    shrunk = box.shrunk
    budget = 100 * len(constraints)
    while pending and budget:
        budget -= 1
        c = constraints[pending.pop(0)]
        _require(c.expr, c.taken, box)
        if shrunk:
            for name in shrunk:
                for k in watch[name]:
                    if k not in pending:
                        pending.append(k)
            shrunk.clear()


def _watch_list(
    watch: dict[str, tuple[int, ...]], constraints: tuple[Constraint, ...], start: int
) -> dict[str, tuple[int, ...]]:
    """Input -> indices of the constraints that read it: a copy of `watch`,
    which covers constraints[:start], extended with the rest."""
    watch = dict(watch)
    for k in range(start, len(constraints)):
        for name in constraints[k].inputs:
            watch[name] = watch.get(name, ()) + (k,)
    return watch


class _Narrowed:
    """A pc's box narrowed under one declaration tuple: the input intervals,
    or None when narrowing refuted the pc, and the watch list of its
    constraints."""

    __slots__ = ("decls", "iv", "watch")

    def __init__(self, decls, iv, watch) -> None:
        self.decls: tuple[SymDecl, ...] = decls
        self.iv: dict[str, _Interval] | None = iv
        self.watch: dict[str, tuple[int, ...]] = watch


def _narrowed(pc: PathCondition, decls: tuple[SymDecl, ...]) -> _Narrowed:
    """pc's narrowed box, cached on pc. A pc without one starts from a copy
    of its parent's box and revises only the constraints it adds; a parent
    without one gets it first, the same way, up the chain to the nearest
    pc that has a box or, failing that, to the declared domains."""
    chain: list[PathCondition] = []
    node: PathCondition | None = pc
    n: _Narrowed | None = None
    while node is not None:
        n = node._narrowed
        if n is not None and n.decls == decls:
            break
        chain.append(node)
        node = node.parent
        n = None
    for node in reversed(chain):
        constraints = node.constraints
        if n is None:
            start, iv = 0, {d.name: (d.lo, d.hi) for d in decls}
            watch = _watch_list({}, constraints, 0)
        else:
            start = len(node.parent.constraints)
            iv = dict(n.iv) if n.iv is not None else None
            watch = _watch_list(n.watch, constraints, start)
        if iv is not None:
            try:
                _fixpoint(constraints, iv, range(start, len(constraints)), watch)
            except _Unsat:
                iv = None
        n = _Narrowed(decls, iv, watch)
        object.__setattr__(node, "_narrowed", n)
    assert n is not None
    return n


# ---------------------------------------------------------------------------
# Decision procedure
# ---------------------------------------------------------------------------


def _hint_holds(pc: PathCondition, hint: Test) -> bool:
    """Does hint satisfy pc? The parent's own model is known to satisfy the
    parent's constraints, so only the ones pc adds are checked."""
    parent = pc.parent
    if parent is not None and parent._model is not None and hint == parent._model:
        return _all_hold(pc.constraints[len(parent.constraints):], hint)
    return _all_hold(pc.constraints, hint)


def _search(pc: PathCondition, decls: tuple[SymDecl, ...]) -> Test | None:
    """The lex-min model inside pc's narrowed box, by backtracking."""
    box = _narrowed(pc, decls)
    if box.iv is None:
        return None
    constraints, watch = pc.constraints, box.watch
    names = [d.name for d in decls]
    if not names:
        return {} if _all_hold(constraints, {}) else None

    def backtrack(k: int, iv: dict[str, _Interval]) -> Test | None:
        # names[:k] are pinned to points in iv
        name = names[k]
        lo, hi = iv[name]
        if k == len(names) - 1:
            env = {n: iv[n][0] for n in names}
            for v in range(lo, hi + 1):
                env[name] = v
                if _all_hold(constraints, env):
                    return env
            return None
        readers = watch.get(name, ())
        for v in range(lo, hi + 1):
            sub = dict(iv)
            sub[name] = (v, v)
            try:
                _fixpoint(constraints, sub, readers, watch)
            except _Unsat:
                continue
            found = backtrack(k + 1, sub)
            if found is not None:
                return found
        return None

    return backtrack(0, box.iv)


def solve_model(
    pc: PathCondition,
    decls: tuple[SymDecl, ...],
    *,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    hint: Test | None = None,
) -> Test | None:
    """Witness model, or None when unsatisfiable. `hint` must be the lex-min
    model of a subset of pc's constraints (see the module docstring): if it
    satisfies pc it is the answer; otherwise pc is solved from its narrowed
    box. A hint outside that contract still gives a model, not necessarily
    lex-min."""
    for d in decls:
        if d.size > domain_cap:
            raise DomainCapError(
                f"domain cap exceeded for {d.name} ({d.size} > {domain_cap})"
            )
        if d.lo > d.hi:
            return None
    if hint is not None and _hint_holds(pc, hint):
        model: Test | None = dict(hint)
    else:
        model = _search(pc, decls)
    if model is not None:
        object.__setattr__(pc, "_model", model)
    return model


def check_sat(
    pc: PathCondition,
    decls: tuple[SymDecl, ...],
    *,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
) -> bool:
    return solve_model(pc, decls, domain_cap=domain_cap) is not None


def get_model(
    pc: PathCondition,
    decls: tuple[SymDecl, ...],
    *,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
) -> Test:
    """Lexicographically smallest satisfying assignment, in declaration order."""
    m = solve_model(pc, decls, domain_cap=domain_cap)
    if m is None:
        raise SolveError("model requested for unsatisfiable path condition")
    return m


class QueryCache:
    """Pure memo over path-condition satisfiability queries.

    Keyed on the canonical sorted constraint text, so it is private to one
    (worker, program) pair. Stores the witness model alongside the verdict;
    a later get_model on the same pc is then a hit, not a second solve.
    `reused` counts the misses that the hint answered.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[bool, Test | None]] = {}
        self.hits = 0
        self.misses = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def query(
        self,
        pc: PathCondition,
        decls: tuple[SymDecl, ...],
        *,
        domain_cap: int = DEFAULT_DOMAIN_CAP,
        hint: Test | None = None,
    ) -> tuple[bool, Test | None]:
        """(sat, model), from the memo or by solve_model on a miss. `hint`
        is used only on a miss and under solve_model's contract: the lex-min
        model of a subset of pc's constraints."""
        key = pc.key()
        hit = self._entries.get(key)
        if hit is not None:
            self.hits += 1
            if hit[1] is not None:
                object.__setattr__(pc, "_model", hit[1])
            return hit
        self.misses += 1
        model = solve_model(pc, decls, domain_cap=domain_cap, hint=hint)
        # a solved model equals the hint only when the hint itself was
        # returned: a hint failing pc differs from every model of pc
        if model is not None and model == hint:
            self.reused += 1
        result = (model is not None, model)
        self._entries[key] = result
        return result


# ---------------------------------------------------------------------------
# Test serialization (shared by the wire protocol)
# ---------------------------------------------------------------------------


def encode_test(test: Test) -> bytes:
    """count:u16 then (name_len:u16, name:utf8, value:i64) per entry,
    entries in sorted name order. All fields big-endian."""
    out = [struct.pack(">H", len(test))]
    for name in sorted(test):
        nb = name.encode("utf-8")
        out.append(struct.pack(">H", len(nb)))
        out.append(nb)
        out.append(struct.pack(">q", test[name]))
    return b"".join(out)


def decode_test(buf: bytes, off: int = 0) -> tuple[Test, int]:
    """Inverse of encode_test; returns (test, next offset).
    Raises ValueError when the buffer is too short."""
    if off + 2 > len(buf):
        raise ValueError("truncated test encoding")
    (count,) = struct.unpack_from(">H", buf, off)
    off += 2
    test: Test = {}
    for _ in range(count):
        if off + 2 > len(buf):
            raise ValueError("truncated test encoding")
        (nlen,) = struct.unpack_from(">H", buf, off)
        off += 2
        if off + nlen + 8 > len(buf):
            raise ValueError("truncated test encoding")
        name = buf[off : off + nlen].decode("utf-8")
        off += nlen
        (value,) = struct.unpack_from(">q", buf, off)
        off += 8
        test[name] = value
    return test, off
