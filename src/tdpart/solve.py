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
per process, keyed on the constraint's text and polarity, in a bounded
cache of generated code, so a comparison whose code is compiled already
runs it from its first revise.
Comparisons holding and/or/not or another comparison, and trees too deep
to generate, stay on the tree, which is the reference.

The fixpoint is an AC-3 worklist (Mackworth, 1977) over the pc's constraints:
a revise that shrinks input v queues again every constraint that reads v, up
to 100 revisions per constraint. It is incremental along the path, as a
test-depth pair's region is explored one branch at a time: each pc keeps its
narrowed box, and a child's box starts from a copy of its parent's with only
the new constraint queued (an ancestor without a box gets one first, the
same way). Backtracking on the tree path pins each input but the last to a
value, copies the box, queues the constraints that read the input and
narrows again, skipping the value when that refutes the pc; the last input
is checked by concrete evaluation.

A component of two or more inputs each of whose constraints is a
comparison that its node already revises by a generated function in that
polarity (so HOT decides this too) is searched by one generated function
instead once it misses a second time in the process (the component memo
answers a repeat within one run, so a one-shot run compiles none). It is
compiled once per process in the same cache, keyed on the component's
sorted constraint texts and its input order, and built by
the same emitter as the revises, which reads and writes each input's
bounds in locals in place of the box: a pin passes a point for an input's
bounds, with no box, queue or copy, and the component's revises run
inline in fixed rounds, == first and != last, until a round shrinks
nothing or for 100 rounds. The last input is checked by concrete
evaluation, as on the tree path, which searches every other component,
one too deep to generate, and one of more inputs than the compiler nests
loops for.

Inputs are enumerated in declaration order with ascending values, so the
first solution found is the lexicographically smallest one, which is what
keeps models (and everything seeded from them) deterministic across runs.
Narrowing only ever removes points that are not solutions, so it never
changes which solution comes first, however much of it is done, by
whichever tier, or where the revision bound stops it.

A solve takes a path condition and nothing else. A pc keeps the model its
solve or cache hit returned, and it knows its parent, so a solve answers
from the first of:

1. the model the pc already has;
2. a copy of its parent's model, when that satisfies the constraints the
   pc adds (checked on those only). Every solution of the pc is one of
   the parent, so the parent's lex-min model, when it satisfies the pc,
   is already the pc's, found with no narrowing or enumeration, as in
   KLEE's counterexample cache (Cadar et al., OSDI 2008);
3. a search.

A search whose parent pc has a model solves only the new constraint's
independent component (constraint independence, as in KLEE). The
constraints of a pc fall into components that share no input. As in
KLEE, a miss works its component out when it needs it: from the new
constraint, it follows shared inputs through the pc's constraints, so a
pc keeps no component map, and a pc its parent's model answers costs
nothing. The solutions of a pc are the product of its components'
solutions, so each input's least value in the lex-min model depends on
its own component only: the pc's lex-min model is its parent's, whose
other components are the pc's own, with the new component's inputs
replaced by that component's lex-min values. Those are found by
backtracking over the component's inputs alone, in declaration order,
inside the pc's narrowed box, the last one checked against the
component's constraints. A pc whose parent has no model is solved the
same way, as one component of every input and constraint. A pc keeps
only the models of this order and of cache hits, all lex-min, so the
parent's model is lex-min too.

A pc and its ancestors are solved under one declaration tuple, their
program's inputs, as in the engine: a pc is never solved again under
another, so the models and narrowed boxes they keep are taken as theirs
without checking which declarations they were made under.

A QueryCache solves its misses through its component memo: a component's
sorted constraint texts map to its lex-min values, or unsat, and its
narrowed intervals. Texts identify constraints, as the cache key already
assumes, and a cache serves one program, whose domains are fixed. A
component met again on another path (in a loop program, the same (y, z)
loop under every x path) is then answered with no narrowing or search.
A hit also gives the pc a box, when its parent has one: the parent's box
with the component's intervals in place, so that a descendant narrows
from it rather than through its ancestors again. A component holding
every constraint of the pc has the pc's own key, which just missed, so
it is neither looked up nor stored. The memo lives as long as its cache,
one engine in one run: kept on the Program object, it would outlive the
run, and a later run on that object would look components up where a
fresh run solves them.
"""

from __future__ import annotations

import bisect
import math
import operator
import threading
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Mapping
from types import CodeType

from . import lang
from .lang import INT64_MAX, INT64_MIN, Binary, Const, Expr, SymDecl, Unary, Var

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


def evaluate(e: Expr, env: Mapping[str, int | Expr]) -> int | Expr:
    """e's value over a store of plain ints (concrete values) and Exprs over
    the symbolic inputs; a name absent from the store, a symbolic input,
    stays its Var. An int when every operand is concrete, else the node
    rebuilt around Const leaves: no logic short-circuit, no re-association.
    A node none of whose operands changed comes back as the same object."""
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is Var:
        return env.get(e.name, e)
    if kind is Unary:
        o = evaluate(e.operand, env)
        if type(o) is int:
            return UNARY_OPS[e.op](o)
        return e if o is e.operand else Unary(e.op, o)
    left, right = evaluate(e.left, env), evaluate(e.right, env)
    if type(left) is int:
        if type(right) is int:
            return BINARY_OPS[e.op](left, right)
        left = e.left if type(e.left) is Const else Const(left)
    elif type(right) is int:
        right = e.right if type(e.right) is Const else Const(right)
    return e if left is e.left and right is e.right else Binary(e.op, left, right)


def evaluate_concrete(e: Expr, test: Test) -> int:
    """Evaluate under the test. An unbound name, which a malformed Task from
    the wire can carry, raises SolveError."""
    v = evaluate(e, test)
    if type(v) is not int:  # only the unbound names are left as Vars
        raise SolveError(f"unbound variable {min(lang.reads(v))}")
    return v


def solve_path(test: Test, cond: Expr) -> bool:
    """Which way a concrete test drives a branch condition."""
    return evaluate_concrete(cond, test) != 0


# ---------------------------------------------------------------------------
# Generated code
# ---------------------------------------------------------------------------

# One bounded cache of the compiled code of the generated revise functions
# and component searches. A key determines the source its generator builds;
# past CODE_BOUND keys the least recently used one is dropped, so the cache
# never holds every constraint a process saw.
CODE_BOUND = 1024
_codes: dict[Hashable, CodeType | None | object] = {}
_codes_lock = threading.Lock()
_MISSING = object()
_ASKED = object()  # the mark of a deferred key requested once


def _cache(key: Hashable, code: CodeType | None | object) -> None:
    """Put code last under key, the lock held, and drop the least recently
    used key past CODE_BOUND."""
    _codes[key] = code
    if len(_codes) > CODE_BOUND:
        del _codes[next(iter(_codes))]


def generated_code(
    key: Hashable, source: Callable[[], str | None] | None, defer: bool = False
) -> CodeType | None:
    """The bytecode of source(), the Python source that key determines, or
    None when source() returns None or its text cannot be made or compiled
    (too deep, or nested past the compiler's limit). source() runs, and its
    text is compiled, once per process per key while the key stays cached;
    with `defer`, at the key's second request, the first only marking the
    key, so that code one request alone asks for is never made. With source
    None, only a cached result is returned (None if there is none)."""
    with _codes_lock:
        code = _codes.pop(key, _MISSING)
        if code is _MISSING and defer or code is _ASKED and source is None:
            _cache(key, _ASKED)  # marked, and now the most recently used
            return None
        if code is not _MISSING and code is not _ASKED:
            _codes[key] = code  # now the most recently used
            return code
    if source is None:
        return None
    try:
        text = source()
        code = None if text is None else compile(text, "<tdpart generated>", "exec")
    except (RecursionError, SyntaxError):
        code = None
    with _codes_lock:
        _cache(key, code)
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


def _all_hold(constraints: Iterable[Constraint], test: Test) -> bool:
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
    __slots__ = ("expr", "taken", "depth", "inputs", "lin", "revise", "_text")

    def __init__(self, expr: Expr, taken: bool, depth: int):
        self.expr = expr
        self.taken = taken  # polarity: did execution take the true side
        self.depth = depth  # 1-based symbolic branch depth
        self.inputs = lang.reads(expr)
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


def _square_hull(lo: int, hi: int, cur_lo: int, cur_hi: int) -> _Interval:
    """The values of [cur_lo, cur_hi] whose square can lie in [lo, hi]:
    r <= |v| <= s, with r and s the integer square roots rounded inwards,
    as the hull of the negative and the positive part."""
    s = math.isqrt(hi)  # hi >= 0: the square's interval overlaps [lo, hi]
    r = math.isqrt(lo - 1) + 1 if lo > 0 else 0
    neg = (max(cur_lo, -s), min(cur_hi, -r))
    pos = (max(cur_lo, r), min(cur_hi, s))
    parts = [p for p in (neg, pos) if p[0] <= p[1]]
    if not parts:
        raise _Unsat
    return parts[0][0], parts[-1][1]


def _narrow_square(name: str, lo: int, hi: int, box: _Box) -> None:
    """Force name*name into [lo, hi] (see _square_hull)."""
    _narrow_var(name, *_square_hull(lo, hi, *box.iv[name]), box)


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
    the tree by the rules of _narrow_into and reaches an input's interval
    only through _narrow_var and _narrow_square on the box or, given
    `inputs` (name -> i), by the same rules on the locals l<i> and h<i>
    that hold input i's bounds. Each occurrence k of a node other than
    a constant (which stays a literal) keeps its interval in a<k>, b<k>
    and a flag d<k>, set when the backward pass narrows it. A + - * or neg
    node also has w<k>, set when its range may leave int64, which stops
    the narrowing there, as in _narrow_into. An occurrence is the tuple
    (lo, hi, k, node, operands), with lo and hi as source text."""

    def __init__(self, inputs: Mapping[str, int] | None = None) -> None:
        self.forward: list[str] = []
        self.backward: list[str] = []
        self.count = 0
        self.inputs = inputs

    def bounds(self, name: str) -> tuple[str, str]:
        """The locals of input name's bounds (inputs given)."""
        i = self.inputs[name]
        return f"l{i}", f"h{i}"

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
            read = f"iv[{e.name!r}]" if self.inputs is None else ", ".join(self.bounds(e.name))
            fwd.append(f"{a}, {b} = {read}; d{k} = 0")
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
            if self.inputs is None:
                out.append(f"if d{k}: _narrow_var({e.name!r}, {a}, {b}, box)")
                return
            lo, hi = self.bounds(e.name)
            out.append(f"if d{k}:")
            out.append(f"    if {a} > {lo}: {lo} = {a}")
            out.append(f"    if {b} < {hi}: {hi} = {b}")
            out.append(f"    if {lo} > {hi}: raise _Unsat")
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
            if _is_square(e) and self.inputs is None:
                out.append(f"{ind}else: _narrow_square({e.left.name!r}, {a}, {b}, box)")
            elif _is_square(e):
                lo, hi = self.bounds(e.left.name)
                out.append(f"{ind}else: {lo}, {hi} = _square_hull({a}, {b}, {lo}, {hi})")
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


def _revise_lines(e: Binary, want: bool, src: _ReviseSource) -> list[str] | None:
    """The lines of the revise _require(e, want, box) makes by the same
    rules, for e a comparison of two operands made of + - * neg, inputs and
    constants, on the intervals where src keeps them; None for any other
    e. It evaluates each node's interval once per run, where the tree
    evaluates one again after a narrowing, so either may leave a box the
    other narrows further; both keep every solution."""
    op = e.op if want else _NEGATED_CMP[e.op]
    left, right = e.left, e.right
    if op in (">", ">="):
        op, left, right = ("<" if op == ">" else "<="), right, left
    lo = src.visit(left)
    ro = src.visit(right) if lo is not None else None
    if ro is None:
        return None
    (al, bl, *_), (ar, br, *_) = lo, ro
    out = src.backward
    entailed = None  # when it holds, nothing is narrowed
    if op == "<":
        entailed = f"{bl} < {ar}"
        out.append(f"if {al} >= {br}: raise _Unsat")
        src.narrow(lo, None, f"{br} - 1")
        src.narrow(ro, f"{al} + 1", None)
    elif op == "<=":
        entailed = f"{bl} <= {ar}"
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
        entailed = f"{bl} < {ar} or {br} < {al}"
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
    if entailed is None:
        return src.forward + out
    if src.inputs is None:
        return src.forward + [f"if {entailed}: return"] + out
    return src.forward + [f"if not ({entailed}):"] + [f"    {line}" for line in out]


def _revise_source(e: Binary, want: bool) -> str | None:
    """Source of revise(box), _revise_lines on the box."""
    body = _revise_lines(e, want, _ReviseSource())
    if body is None:
        return None
    return "def revise(box):\n" + "".join(f"    {line}\n" for line in ["iv = box.iv"] + body)


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
    """A pc's narrowed box: the input intervals, or None when narrowing
    refuted the pc, and the watch list of its constraints."""

    __slots__ = ("iv", "watch")

    def __init__(self, iv, watch) -> None:
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
        if n is not None:
            break
        chain.append(node)
        node = node.parent
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
        n = _Narrowed(iv, watch)
        node._narrowed = n
    assert n is not None
    return n


# ---------------------------------------------------------------------------
# Decision procedure
# ---------------------------------------------------------------------------


def _component(pc: PathCondition) -> tuple[set[str], list[Constraint]]:
    """The independent component of pc's last constraint: the inputs it
    reaches through constraints that share an input, and those constraints
    in path order. A condition on no input is a component of its own."""
    constraints = pc.constraints
    last = constraints[-1]
    inputs = set(last.inputs)
    if not inputs:
        return inputs, [last]
    while True:
        # a constraint passed over before the inputs grew may now join, so
        # the walk is repeated until no such one is left
        part: list[Constraint] = []
        passed = again = False
        for c in constraints:
            ins = c.inputs
            if inputs.isdisjoint(ins):
                passed = True
                continue
            part.append(c)
            if not ins <= inputs:
                inputs |= ins
                again = again or passed
        if not again:
            return inputs, part


class ComponentMemo(dict):
    """A component's constraint texts, sorted and joined by newlines -> its
    lex-min model and its narrowed intervals, over its inputs, or (None,
    None) when it is unsatisfiable. `hits` counts the lookups it answered."""

    __slots__ = ("hits",)

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0


def _compose(pc: PathCondition, part_iv: dict[str, _Interval] | None) -> None:
    """Give pc, a component memo hit, its parent's box with the component's
    intervals in place (a refuted box when they are None: the component is
    unsat). A parent without a box leaves pc without one."""
    parent = pc.parent
    n = parent._narrowed
    if pc._narrowed is not None or n is None:
        return
    iv = None
    if part_iv is not None and n.iv is not None:
        iv = dict(n.iv)
        iv.update(part_iv)
    watch = _watch_list(n.watch, pc.constraints, len(parent.constraints))
    pc._narrowed = _Narrowed(iv, watch)


def _search(
    pc: PathCondition, decls: tuple[SymDecl, ...], memo: ComponentMemo | None = None
) -> Test | None:
    """pc's lex-min model, or None when pc is unsatisfiable. Only the new
    constraint's component is solved, the other inputs keeping the parent's
    values: from memo when it holds the component, else by backtracking
    over the component's inputs inside pc's narrowed box and storing the
    result in memo. When the parent has no model, every input is one
    component, which holds every constraint."""
    parent = pc.parent
    base = None if parent is None else parent._model
    if base is None:
        inputs, constraints, base = {d.name for d in decls}, pc.constraints, {}
    else:
        inputs, constraints = _component(pc)
    key = None
    # a component of every constraint has pc's key, which missed
    if memo is not None and len(constraints) < len(pc.constraints):
        key = "\n".join(sorted([c.text for c in constraints]))
        hit = memo.get(key)
        if hit is not None:
            memo.hits += 1
            _compose(pc, hit[1])
            if hit[0] is None:
                return None
            model = dict(base)
            model.update(hit[0])
            return model
    names = [d.name for d in decls if d.name in inputs]
    env = dict(base)
    box = _narrowed(pc, decls)
    if box.iv is None:
        model = None
    elif not names:
        model = env if _all_hold(constraints, env) else None
    else:
        search = _generated_search(constraints, names) if len(names) > 1 else None
        if search is None:
            model = _backtrack(pc, box.watch, names, constraints, env, box.iv, 0)
        else:
            model = search(box.iv, env, constraints)
    if key is not None:
        memo[key] = (
            (None, None) if model is None
            else ({n: model[n] for n in names}, {n: box.iv[n] for n in names})
        )
    return model


def _backtrack(
    pc: PathCondition, watch: dict[str, tuple[int, ...]], names: list[str],
    constraints: Iterable[Constraint], env: Test, iv: dict[str, _Interval], k: int,
) -> Test | None:
    """env with names[k:] set to the lex-min point of iv, names[:k] being
    pinned to points in it, that satisfies constraints; None if there is
    none. Each name but the last is pinned in turn and pc narrowed again;
    the last is checked by concrete evaluation."""
    name = names[k]
    lo, hi = iv[name]
    if k == len(names) - 1:
        for n in names[:k]:
            env[n] = iv[n][0]
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
            _fixpoint(pc.constraints, sub, readers, watch)
        except _Unsat:
            continue
        found = _backtrack(pc, watch, names, constraints, env, sub, k + 1)
        if found is not None:
            return found
    return None


# the order of a generated search's revises: == first, as the likeliest to
# refute a pin, then the inequalities, then != (it cuts at most an end point)
_REVISE_ORDER = {"==": 0, "!=": 2}


def _search_source(constraints: list[Constraint], names: list[str]) -> str:
    """Source of search(iv, env, constraints), which returns what
    _backtrack(pc, watch, names, constraints, env, iv, 0) returns for a
    component of these constraints and its inputs `names`, each of whose
    constraints has a generated revise. narrow() takes every input's
    bounds and runs those revises on them in rounds, in _REVISE_ORDER and
    then in order of their texts, until a round shrinks nothing or for 100
    rounds; a pin passes a point in place of an input's bounds."""
    n = len(names)
    inputs = {name: i for i, name in enumerate(names)}
    bounds = ", ".join(f"l{i}, h{i}" for i in range(n))
    out = [f"def narrow({bounds}):", "    for _ in range(100):", f"        was = {bounds}"]
    for c in sorted(constraints, key=lambda c: (
            _REVISE_ORDER.get(c.expr.op if c.taken else _NEGATED_CMP[c.expr.op], 1), c.text)):
        out += [f"        {line}" for line in _revise_lines(c.expr, c.taken, _ReviseSource(inputs))]
    out += [f"        if was == ({bounds}):", "            break", f"    return {bounds}"]
    # input i's bounds with j inputs pinned are lo<j>_<i> and hi<j>_<i>
    out.append("def search(iv, env, constraints, narrow=narrow):")
    out += [f"    lo0_{i}, hi0_{i} = iv[{name!r}]" for name, i in inputs.items()]
    ind = "    "
    for j in range(n - 1):
        pinned = ", ".join(f"v{j}, v{j}" if i == j else f"lo{j}_{i}, hi{j}_{i}" for i in range(n))
        out.append(f"{ind}for v{j} in range(lo{j}_{j}, hi{j}_{j} + 1):")
        out.append(f"{ind}    try:")
        out.append(f"{ind}        {', '.join(f'lo{j + 1}_{i}, hi{j + 1}_{i}' for i in range(n))}"
                   f" = narrow({pinned})")
        out.append(f"{ind}    except _Unsat:\n{ind}        continue")
        ind += "    "
    last = n - 1
    out += [f"{ind}env[{names[i]!r}] = lo{last}_{i}" for i in range(last)]
    out.append(f"{ind}for env[{names[last]!r}] in range(lo{last}_{last}, hi{last}_{last} + 1):")
    out.append(f"{ind}    if _all_hold(constraints, env):\n{ind}        return env")
    out.append("    return None")
    return "\n".join(out) + "\n"


def _generated_search(constraints: list[Constraint], names: list[str]) -> Callable | None:
    """The generated search (see _search_source) of a component each of
    whose constraints has a generated revise in its polarity (its node's
    revise tier holds one), keyed on the component's sorted constraint
    texts and its input order, and compiled once per process at the key's
    second miss, as the component memo answers a repeat within one run.
    None for any other component, at a key's first miss, and for one too
    deep or with too many inputs to compile: _backtrack searches it."""
    for c in constraints:
        tier = getattr(c.expr, "_solve_revise", None)
        if tier is None or type(tier[c.taken]) is int:
            return None
    key = ("\n".join(sorted([c.text for c in constraints])), tuple(names))
    code = generated_code(key, lambda: _search_source(constraints, names), defer=True)
    if code is None:
        return None
    namespace: dict = {}
    exec(code, globals(), namespace)
    return namespace["search"]


def solve_model(
    pc: PathCondition, decls: tuple[SymDecl, ...], *, memo: ComponentMemo | None = None
) -> Test | None:
    """pc's lex-min model, or None when pc is unsatisfiable, in the answer
    order of the module docstring: the model pc has; else a copy of its
    parent's, when that satisfies the constraints pc adds; else pc solved
    from its narrowed box, through `memo` (a QueryCache's, for one run)
    when given."""
    cap = lang.DOMAIN_CAP
    for d in decls:
        if d.size > cap:
            raise DomainCapError(f"domain cap exceeded for {d.name} ({d.size} > {cap})")
        if d.lo > d.hi:
            return None
    if pc._model is None:
        parent = pc.parent
        base = None if parent is None else parent._model
        if base is not None and _all_hold(pc.constraints[len(parent.constraints):], base):
            pc._model = dict(base)
        else:
            pc._model = _search(pc, decls, memo)
    return pc._model


class QueryCache:
    """Pure memo over path-condition satisfiability queries.

    Keyed on the canonical sorted constraint text, so it is private to one
    (worker, program) pair. An entry is the pc's lex-min model, or None when
    the pc is unsat, so a later model request for the same pc is a hit, not
    a second solve. `reused` counts the misses whose model is the parent
    pc's: a pc's lex-min model equals its parent's exactly when the parent's
    satisfies it. A miss is solved through `memo`, the components this
    cache's misses solved.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Test | None] = {}
        self.memo = ComponentMemo()
        self.hits = 0
        self.misses = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def query(self, pc: PathCondition, decls: tuple[SymDecl, ...]) -> Test | None:
        """pc's lex-min model, or None when pc is unsat: from the entries,
        or by solve_model on a miss."""
        key = pc.key()
        model = self._entries.get(key, _MISSING)
        if model is not _MISSING:
            self.hits += 1
            if model is not None:
                pc._model = model
            return model
        self.misses += 1
        model = self._entries[key] = solve_model(pc, decls, memo=self.memo)
        parent = pc.parent
        if model is not None and parent is not None and model == parent._model:
            self.reused += 1
        return model
