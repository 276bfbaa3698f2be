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

A comparison L op R whose sides are both affine (sums of inputs times
constants, plus a constant; not both a bare input or constant) skips the
tree. Each node's affine form is memoised and built from its operands'
forms, so a chain one link longer costs one step. `+ - *` and neg commute
with wrapping to int64, so a node's wrapped value is congruent mod 2**64 to
its form's value, and equals it whenever that value lies in int64. So where
L's and R's ranges under the box both lie in int64, the comparison is
exactly L - R op 0 over the whole box, and it is revised by bounds
consistency on that sum in work linear in the number of inputs (but for
!=, whose revise cuts at most one end point). At a point, it is checked as
two integer sums when both lie in int64. Otherwise it is revised and
checked on the tree, which wraps as the program does.

Any other comparison with an operand of + - * or neg, once revised HOT
times in one polarity, is revised by one generated Python function, kept
on the node, one per polarity, and on each constraint that has run it.
A forward pass puts every node's interval in locals, with the tree's
guard where a range may leave int64; a backward pass applies the tree's
rules (sums, differences, point factors, squares, negation, the six
comparisons) and narrows inputs only through the box, so the worklist
below sees every shrink as before. Its code is compiled once
per process, keyed on the constraint's text and polarity, in a cache of
generated code that is bounded and shared with the engine's loops, so a
comparison whose code is compiled already runs it from its first revise.
Comparisons holding and/or/not or another comparison, and trees too deep
to generate, stay on the tree, which is the reference.

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
changes which solution comes first, however much of it is done, by
whichever tier, or where the revision bound stops it.

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

import bisect
import math
import operator
import struct
import threading
from collections import deque
from collections.abc import Callable, Hashable, Iterable
from types import CodeType

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
# Generated code
# ---------------------------------------------------------------------------

# One bounded cache of compiled generated code, shared by the solver's
# revise functions and the engine's loops. A key determines the source its
# generator builds; past CODE_BOUND keys the least recently used one is
# dropped, so the cache never holds every constraint or loop a process saw.
CODE_BOUND = 1024
_codes: dict[Hashable, CodeType | None] = {}
_codes_lock = threading.Lock()
_MISSING = object()


def generated_code(
    key: Hashable, source: Callable[[], str | None] | None
) -> CodeType | None:
    """The bytecode of source(), the Python source that key determines, or
    None when source() returns None. source() runs, and its text is
    compiled, once per process per key while the key stays cached. With
    source None, only a cached result is returned (None if there is none)."""
    with _codes_lock:
        code = _codes.pop(key, _MISSING)
        if code is not _MISSING:
            _codes[key] = code  # now the most recently used
            return code
    if source is None:
        return None
    text = source()
    code = None if text is None else compile(text, "<tdpart generated>", "exec")
    with _codes_lock:
        _codes[key] = code
        if len(_codes) > CODE_BOUND:
            del _codes[next(iter(_codes))]
    return code


# ---------------------------------------------------------------------------
# Affine forms
# ---------------------------------------------------------------------------

# An affine form (c, ((x, a), ...)) stands for c + sum of a*x, with a term
# for every input the node reads (a coefficient may be 0, as in x - x).
# Constants and coefficients are kept wrapped to int64: a node's wrapped
# value is congruent to its form's value mod 2**64, which wrapping the
# form's numbers keeps.
_Affine = tuple[int, tuple[tuple[str, int], ...]]


def _affine(e: Expr) -> _Affine | None:
    """e's affine form, or None when e is not affine (a product of two
    non-constant operands, a comparison or a boolean). Memoised on e."""
    try:
        return e._solve_affine
    except AttributeError:
        pass
    f = None
    if isinstance(e, Binary):
        op = e.op
        if op in lang.ARITH_OPS:
            a = _affine(e.left)
            b = _affine(e.right) if a is not None else None
            if b is not None:
                if op != "*":
                    f = _sum(a, b if op == "+" else _scaled(b, -1))
                elif not b[1]:  # times a constant
                    f = _scaled(a, b[0])
                elif not a[1]:
                    f = _scaled(b, a[0])
    elif isinstance(e, Var):
        f = (0, ((e.name, 1),))
    elif isinstance(e, Const):
        f = (e.value, ())
    elif e.op == "neg":
        a = _affine(e.operand)
        f = None if a is None else _scaled(a, -1)
    e._solve_affine = f
    return f


def _scaled(a: _Affine, k: int) -> _Affine:
    c, terms = a
    return (wrap(c * k), tuple((x, wrap(v * k)) for x, v in terms))


def _sum(a: _Affine, b: _Affine) -> _Affine:
    c = wrap(a[0] + b[0])
    if not b[1]:  # a chain link adding a constant reuses the terms
        return (c, a[1])
    if not a[1]:
        return (c, b[1])
    coef = dict(a[1])
    for x, v in b[1]:
        coef[x] = wrap(coef.get(x, 0) + v)
    return (c, tuple(coef.items()))


def _linear(e: Binary) -> tuple[_Affine, _Affine, _Affine] | None:
    """For a comparison L op R with affine sides, not both a bare input or
    constant: the forms of L, R and L - R. None otherwise. Memoised on e."""
    try:
        return e._solve_linear
    except AttributeError:
        pass
    left, right = e.left, e.right
    lin = None
    if not (isinstance(left, (Var, Const)) and isinstance(right, (Var, Const))):
        a = _affine(left)
        b = _affine(right) if a is not None else None
        if b is not None:
            # L - R in unbounded integers: with both sides in int64, their
            # difference may not be
            coef = dict(a[1])
            for x, v in b[1]:
                coef[x] = coef.get(x, 0) - v
            lin = (a, b, (a[0] - b[0], tuple(coef.items())))
    e._solve_linear = lin
    return lin


def _exact_value(a: _Affine, test: Test) -> int | None:
    """a's value at test when it lies in int64, so that it equals the value
    of the node a is the form of; None otherwise."""
    v, terms = a
    for x, k in terms:
        v += k * test[x]
    return v if INT64_MIN <= v <= INT64_MAX else None


# ---------------------------------------------------------------------------
# Path conditions
# ---------------------------------------------------------------------------

_NEGATED_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
# each comparison's function and the range L - R must lie in (None for !=)
_CMP = {
    "<": (operator.lt, (None, -1)),
    "<=": (operator.le, (None, 0)),
    ">": (operator.gt, (1, None)),
    ">=": (operator.ge, (0, None)),
    "==": (operator.eq, (0, 0)),
    "!=": (operator.ne, None),
}


def _all_hold(constraints: tuple[Constraint, ...], test: Test) -> bool:
    for c in constraints:
        lin = c.lin
        if lin is not None:
            holds, _, left, right, _ = lin
            try:
                lv, rv = _exact_value(left, test), _exact_value(right, test)
            except KeyError:  # an unbound input: the tree raises SolveError
                lv = rv = None
            if lv is not None and rv is not None:
                if not holds(lv, rv):
                    return False
                continue
        if (evaluate_concrete(c.expr, test) != 0) != c.taken:
            return False
    return True


class Constraint:
    __slots__ = ("expr", "taken", "depth", "lin", "revise", "_text")

    def __init__(self, expr: Expr, taken: bool, depth: int):
        self.expr = expr
        self.taken = taken  # polarity: did execution take the true side
        self.depth = depth  # 1-based symbolic branch depth
        # when expr is a linear comparison L op R (see _linear): the
        # comparison that must hold, polarity applied, as its function and
        # the range L - R must lie in (None for !=), then the forms of L, R
        # and L - R
        lin = None
        if type(expr) is Binary and expr.op in lang.CMP_OPS:
            forms = _linear(expr)
            if forms is not None:
                lin = _CMP[expr.op if taken else _NEGATED_CMP[expr.op]] + forms
        self.lin = lin
        # expr's generated revise in this polarity, once _revise ran one
        self.revise: Callable[[_Box], None] | None = None
        self._text: str | None = None

    @property
    def text(self) -> str:
        t = self._text
        if t is None:
            t = lang.expr_text(self.expr)
            t = self._text = t if self.taken else "!" + t
        return t

    @property
    def inputs(self) -> frozenset[str]:
        return lang.reads(self.expr)


class PathCondition:
    __slots__ = ("constraints", "parent", "_narrowed", "_model", "_sorted")

    def __init__(
        self, constraints: tuple[Constraint, ...] = (), parent: PathCondition | None = None
    ):
        self.constraints = constraints
        # the pc this one extends, whose narrowed box a solve starts from
        self.parent = parent
        # solver state, filled in by the first solve that needs it: the
        # narrowed box, and the model solve_model or a QueryCache hit returned
        self._narrowed: _Narrowed | None = None
        self._model: Test | None = None
        # the constraint texts in sorted order, filled in by key()
        self._sorted: list[str] | None = None

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
        """Canonical cache key: order-independent over the constraint set.
        It is "\n".join(sorted(self.texts())); a pc keeps its sorted texts,
        and a child whose parent has them inserts its new text into a copy."""
        texts = self._sorted
        if texts is None:
            parent = self.parent
            if parent is not None and parent._sorted is not None:
                texts = parent._sorted.copy()
                bisect.insort(texts, self.constraints[-1].text)
            else:
                texts = sorted(self.texts())
            self._sorted = texts
        return "\n".join(texts)


# ---------------------------------------------------------------------------
# Interval narrowing
# ---------------------------------------------------------------------------

_Interval = tuple[int, int]
_TOP: _Interval = (INT64_MIN, INT64_MAX)

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


# ---------------------------------------------------------------------------
# Generated revise
# ---------------------------------------------------------------------------

# A comparison with an arithmetic operand, once revised HOT times in one
# polarity, is revised by one generated Python function from then on.
HOT = 64


class _ReviseSource:
    """Python source of the HC4 revise of a comparison whose operands are
    made of + - * neg, inputs and constants. A forward pass puts each
    node's interval in locals; a backward pass pushes the comparison down
    the tree by the rules of _narrow_into and reaches the box only through
    _narrow_var and _narrow_square. Each occurrence k of a node other than
    a constant (which stays a literal) keeps its interval in a<k>, b<k>
    and a flag d<k>, set when the backward pass narrows it. A + - * or neg
    node also has w<k>, set when its range may leave int64, which stops
    the narrowing there, as in _narrow_into. An occurrence is the tuple
    (lo, hi, k, node, operands), with lo and hi as source text."""

    def __init__(self) -> None:
        self.forward: list[str] = []
        self.backward: list[str] = []
        self.count = 0

    def visit(self, e: Expr) -> tuple | None:
        """e's occurrence, after the forward lines that compute it; None
        when e has a node other than + - * neg, an input or a constant."""
        kind = type(e)
        if kind is Const:
            v = f"({e.value})"
            return (v, v, None, e, ())
        self.count += 1
        k = self.count
        a, b = f"a{k}", f"b{k}"
        fwd = self.forward
        if kind is Var:
            fwd.append(f"{a}, {b} = iv[{e.name!r}]; d{k} = 0")
            return (a, b, k, e, ())
        if kind is Unary and e.op == "neg":
            o = self.visit(e.operand)
            if o is None:
                return None
            fwd.append(f"{a} = -{o[1]}; {b} = -{o[0]}")
            operands: tuple = (o,)
        elif kind is Binary and e.op in lang.ARITH_OPS:
            left = self.visit(e.left)
            right = self.visit(e.right) if left is not None else None
            if right is None:
                return None
            operands = (left, right)
            (al, bl, *_), (ar, br, *_) = operands
            if e.op == "+":
                fwd.append(f"{a} = {al} + {ar}; {b} = {bl} + {br}")
            elif e.op == "-":
                fwd.append(f"{a} = {al} - {br}; {b} = {bl} - {ar}")
            elif left[2] is None or right[2] is None:  # times a constant:
                # its sign says which end of the other factor gives which
                o, c = (right, left) if left[2] is None else (left, right)
                lo, hi = (o[0], o[1]) if c[3].value >= 0 else (o[1], o[0])
                fwd.append(f"{a} = {lo} * {c[0]}; {b} = {hi} * {c[0]}")
            elif _is_square(e):
                fwd.append(f"if {al} >= 0: {a} = {al} * {al}; {b} = {bl} * {bl}")
                fwd.append(f"elif {bl} <= 0: {a} = {bl} * {bl}; {b} = {al} * {al}")
                fwd.append(f"else: {a} = 0; {b} = max({al} * {al}, {bl} * {bl})")
            else:
                fwd.append(f"p = {al} * {ar}; q = {al} * {br}; r = {bl} * {ar}; s = {bl} * {br}")
                fwd.append("if p > q: p, q = q, p")
                fwd.append("if r > s: r, s = s, r")
                fwd.append(f"{a} = p if p < r else r; {b} = q if q > s else s")
        else:
            return None
        fwd.append(f"d{k} = w{k} = 0")
        fwd.append(
            f"if {a} < {INT64_MIN} or {b} > {INT64_MAX}: "
            f"{a} = {INT64_MIN}; {b} = {INT64_MAX}; w{k} = 1"
        )
        return (a, b, k, e, operands)

    def narrow(self, o: tuple, lo: str | None, hi: str | None, indent: str = "") -> None:
        """Lines that narrow occurrence o into [lo, hi] (None: unbounded)."""
        a, b, k = o[0], o[1], o[2]
        out = self.backward
        if k is None:  # a constant: in [lo, hi] or refuted
            tests = [t for t in (lo and f"{lo} > {a}", hi and f"{hi} < {a}") if t]
            out.append(f"{indent}if {' or '.join(tests)}: raise _Unsat")
            return
        if lo is not None:
            out.append(f"{indent}if {lo} > {a}: {a} = {lo}; d{k} = 1")
        if hi is not None:
            out.append(f"{indent}if {hi} < {b}: {b} = {hi}; d{k} = 1")
        out.append(f"{indent}if {a} > {b}: raise _Unsat")

    def project(self, o: tuple) -> None:
        """The backward lines of o's subtree, parents first: each node that
        its parent narrowed narrows its operands."""
        a, b, k, e, operands = o
        if k is None:
            return
        out = self.backward
        if type(e) is Var:
            out.append(f"if d{k}: _narrow_var({e.name!r}, {a}, {b}, box)")
            return
        head = f"if d{k} and not w{k}:"
        ind = "    "
        if type(e) is Unary:
            out.append(head)
            self.narrow(operands[0], f"-{b}", f"-{a}", ind)
        elif e.op == "+":
            (al, bl, *_), (ar, br, *_) = operands
            out.append(head)
            self.narrow(operands[0], f"{a} - {br}", f"{b} - {ar}", ind)
            self.narrow(operands[1], f"{a} - {bl}", f"{b} - {al}", ind)
        elif e.op == "-":
            (al, bl, *_), (ar, br, *_) = operands
            out.append(head)
            self.narrow(operands[0], f"{a} + {ar}", f"{b} + {br}", ind)
            self.narrow(operands[1], f"{al} - {b}", f"{bl} - {a}", ind)
        else:  # * : through a factor whose interval is one point, which
            # is not 0 (that would make this node (0, 0), never narrowed)
            if any(o[2] is None and not o[3].value for o in operands):
                return  # times the constant 0: nothing below is narrowed
            left, right = operands
            out.append(head)
            # a square's two factors are one input: one test covers both
            factors = ((left, right),) if _is_square(e) else ((left, right), (right, left))
            key = "if"
            for point, other in factors:
                c = point[0]
                if point[2] is None:  # a constant: a point of known sign
                    if key == "elif":
                        out.append(f"{ind}else:")
                    deeper = ind + "    " * (key == "elif")
                    self._divide(other, c, point[3].value > 0, a, b, deeper)
                    break
                out.append(f"{ind}{key} {c} == {point[1]}:")
                out.append(f"{ind}    if {c} > 0:")
                self._divide(other, c, True, a, b, ind + "        ")
                out.append(f"{ind}    else:")
                self._divide(other, c, False, a, b, ind + "        ")
                key = "elif"
            if _is_square(e):
                out.append(f"{ind}else: _narrow_square({e.left.name!r}, {a}, {b}, box)")
        for p in operands:
            self.project(p)

    def cut(self, o: tuple, v: str, indent: str) -> None:
        """Lines that cut an end point of occurrence o equal to v (for !=)."""
        a, b, k = o[0], o[1], o[2]
        for key, end, step in (("if", a, "+"), ("elif", b, "-")):
            self.backward.append(f"{indent}{key} {end} == {v}:")
            self.backward.append(f"{indent}    {end} = {end} {step} 1; d{k} = 1")
            self.backward.append(f"{indent}    if {a} > {b}: raise _Unsat")

    def _divide(self, o: tuple, c: str, positive: bool, a: str, b: str, indent: str) -> None:
        """Narrow o so that o * c lies in [a, b], c != 0 of the given sign."""
        if positive:
            self.narrow(o, f"-((-{a}) // {c})", f"{b} // {c}", indent)
        else:
            self.narrow(o, f"-((-{b}) // {c})", f"{a} // {c}", indent)


def _revise_source(e: Binary, want: bool) -> str | None:
    """Source of revise(box), the revise _require(e, want, box) makes by
    the same rules, for e a comparison of two operands made of + - * neg,
    inputs and constants; None for any other e. It evaluates each node's
    interval once per call, where the tree evaluates one again after a
    narrowing, so either may leave a box the other narrows further; both
    keep every solution."""
    op = e.op if want else _NEGATED_CMP[e.op]
    left, right = e.left, e.right
    if op in (">", ">="):
        op, left, right = ("<" if op == ">" else "<="), right, left
    src = _ReviseSource()
    lo = src.visit(left)
    ro = src.visit(right) if lo is not None else None
    if ro is None:
        return None
    (al, bl, *_), (ar, br, *_) = lo, ro
    out = src.backward
    if op == "<":
        out.append(f"if {bl} < {ar}: return")
        out.append(f"if {al} >= {br}: raise _Unsat")
        src.narrow(lo, None, f"{br} - 1")
        src.narrow(ro, f"{al} + 1", None)
    elif op == "<=":
        out.append(f"if {bl} <= {ar}: return")
        out.append(f"if {al} > {br}: raise _Unsat")
        src.narrow(lo, None, br)
        src.narrow(ro, al, None)
    elif op == "==":
        out.append(f"if {bl} < {ar} or {br} < {al}: raise _Unsat")
        src.narrow(lo, ar, br)
        src.narrow(ro, al, bl)
    else:  # != : cut an end point equal to the other side's one point;
        # two overlapping points are equal, and the cut refutes them. A
        # constant side (at most one side is) is a point with no test.
        out.append(f"if {bl} < {ar} or {br} < {al}: return")
        if lo[2] is None or ro[2] is None:
            point, other = (lo, ro) if lo[2] is None else (ro, lo)
            src.cut(other, point[0], "")
        else:
            out.append(f"if {ar} == {br}:")
            src.cut(lo, ar, "    ")
            out.append(f"elif {al} == {bl}:")
            src.cut(ro, al, "    ")
    src.project(lo)
    src.project(ro)
    body = ["iv = box.iv"] + src.forward + src.backward
    return "def revise(box):\n" + "".join(f"    {line}\n" for line in body)


def _generated_revise(e: Binary, want: bool, make: bool) -> Callable[[_Box], None] | None:
    """e's generated revise in polarity want, over this module's globals:
    made now if `make`, else only if its code is already compiled. None
    when there is no such code, or none can be made (see _revise_source)."""
    try:
        key = (lang.expr_text(e), want)
        code = generated_code(key, (lambda: _revise_source(e, want)) if make else None)
    except RecursionError:  # too deep to generate; the tree revises it
        return None
    if code is None:
        return None
    namespace: dict = {}
    exec(code, globals(), namespace)
    return namespace["revise"]


def _revise(e: Expr, want: bool, box: _Box) -> Callable[[_Box], None] | None:
    """One revise of e in polarity want: on the tree or, for a comparison
    with an arithmetic operand, through its generated function. That
    function is made on the HOT-th revise in that polarity, and taken at
    the first when the process compiled its code before (for an equal
    comparison on another path, say). Returns the function when it ran,
    which revises e in polarity want from then on, else None."""
    try:
        tier = e._solve_revise
    except AttributeError:
        # per polarity: the revises so far, then the generated function
        tier = [0, 0] if type(e) is Binary and e.op in lang.CMP_OPS and not (
            type(e.left) in (Var, Const) and type(e.right) in (Var, Const)
        ) else None
        e._solve_revise = tier
    if tier is not None:
        run = tier[want]
        if type(run) is not int:
            run(box)
            return run
        tier[want] = run + 1
        hot = run + 1 >= HOT
        if run == 0 or hot:
            made = _generated_revise(e, want, hot)
            if made is not None:
                tier[want] = made
                made(box)
                return made
            if hot:  # none can be made
                e._solve_revise = None
    _require(e, want, box)
    return None


def _range(a: _Affine, iv: dict[str, _Interval]) -> _Interval:
    lo = hi = a[0]
    for x, k in a[1]:
        xlo, xhi = iv[x]
        if k > 0:
            lo += k * xlo
            hi += k * xhi
        else:
            lo += k * xhi
            hi += k * xlo
    return lo, hi


def _revise_linear(lin: tuple, box: _Box) -> bool:
    """Revise a linear comparison by bounds consistency on L - R, in
    O(inputs). Returns False, leaving the box alone, for != (whose revise
    cuts at most one end point) and when L's or R's range leaves int64
    inside the box: the tree then revises it."""
    _, want, left, right, diff = lin
    if want is None:
        return False
    iv = box.iv
    lo, hi = _range(left, iv)
    if lo < INT64_MIN or hi > INT64_MAX:
        return False
    if right[1]:
        rlo, rhi = _range(right, iv)
        if rlo < INT64_MIN or rhi > INT64_MAX:
            return False
        lo, hi = _range(diff, iv)
    else:  # L - R has L's terms
        lo, hi = lo - right[0], hi - right[0]
    want_lo, want_hi = want
    if (want_hi is not None and lo > want_hi) or (want_lo is not None and hi < want_lo):
        raise _Unsat
    if (want_lo is None or lo >= want_lo) and (want_hi is None or hi <= want_hi):
        return True  # entailed
    for x, k in diff[1]:
        if not k:
            continue
        xlo, xhi = iv[x]
        kmin, kmax = (k * xlo, k * xhi) if k > 0 else (k * xhi, k * xlo)
        # k*x >= above and k*x <= below, the rest of the sum at its extremes
        above = None if want_lo is None else want_lo - hi + kmax
        below = None if want_hi is None else want_hi - lo + kmin
        if k < 0:  # dividing by k swaps the two bounds
            above, below = below, above
        new_lo = xlo if above is None else -(-above // k)  # ceil
        new_hi = xhi if below is None else below // k  # floor
        _narrow_var(x, new_lo, new_hi, box)
    return True


def _fixpoint(
    constraints: tuple[Constraint, ...],
    iv: dict[str, _Interval],
    queue: Iterable[int] | None = None,
    watch: dict[str, tuple[int, ...]] | None = None,
) -> None:
    """Narrow iv in place by revising the queued constraints (indices into
    constraints; all of them by default), first in first out, until none is
    pending. A revise that shrinks input v queues again every constraint
    that reads v and is not pending, as `watch` lists them (the watch list
    of constraints by default). Stops after 100 revisions per constraint,
    the work of 100 full passes; raises _Unsat when some constraint cannot
    hold inside the box."""
    if watch is None:
        watch = _watch_list({}, constraints, 0)
    pending = deque(range(len(constraints)) if queue is None else queue)
    queued = [False] * len(constraints)
    for k in pending:
        queued[k] = True
    box = _Box(iv)
    shrunk = box.shrunk
    budget = 100 * len(constraints)
    while pending and budget:
        budget -= 1
        k = pending.popleft()
        queued[k] = False
        c = constraints[k]
        if c.lin is None or not _revise_linear(c.lin, box):
            revise = c.revise
            if revise is None:
                c.revise = _revise(c.expr, c.taken, box)
            else:
                revise(box)
        if shrunk:
            for name in shrunk:
                for k in watch[name]:
                    if not queued[k]:
                        queued[k] = True
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
        node._narrowed = n
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
        pc._model = model
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
                pc._model = hit[1]
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
