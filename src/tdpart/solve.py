"""Path conditions and a bounded-domain constraint solver.

Declared input domains are small by construction (parse enforces a width
cap), so satisfiability is decided exactly: interval narrowing to a fixpoint
prunes the domain cube, then ordered backtracking enumerates what is left.
Enumerating variables in declaration order with ascending values makes the
first solution the lexicographically smallest one, which is what keeps
models (and everything seeded from them) deterministic across runs.

A solve may take a hint: the lex-min model of a subset of the path
condition's constraints (in the engine, the parent state's model). Every
solution of the whole pc is a solution of that subset, so when the hint
satisfies the whole pc it is already the pc's lex-min model and is returned
after one concrete evaluation, with no narrowing or enumeration. A hint
outside this contract still yields a model, though not necessarily the
lex-min one; a hint that fails the pc is ignored.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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


def evaluate_concrete(e: Expr, test: Test, env: dict[str, int] | None = None) -> int:
    """Evaluate under env first, then the test. Unbound names are a caller bug."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if env is not None and e.name in env:
            return env[e.name]
        if e.name in test:
            return test[e.name]
        raise SolveError(f"unbound variable {e.name}")
    if isinstance(e, Unary):
        v = evaluate_concrete(e.operand, test, env)
        return wrap(-v) if e.op == "neg" else (0 if v else 1)
    a = evaluate_concrete(e.left, test, env)
    b = evaluate_concrete(e.right, test, env)
    op = e.op
    if op == "+":
        return wrap(a + b)
    if op == "-":
        return wrap(a - b)
    if op == "*":
        return wrap(a * b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "and":
        return int(a != 0 and b != 0)
    if op == "or":
        return int(a != 0 or b != 0)
    raise SolveError(f"unknown operator {op}")


def solve_path(test: Test, cond: Expr, env: dict[str, int] | None = None) -> bool:
    """Which way a concrete test drives a branch condition."""
    return evaluate_concrete(cond, test, env) != 0


# ---------------------------------------------------------------------------
# Path conditions
# ---------------------------------------------------------------------------


def _all_hold(
    constraints: tuple[Constraint, ...], test: Test, env: dict[str, int] | None = None
) -> bool:
    return all(
        (evaluate_concrete(c.expr, test, env) != 0) == c.taken for c in constraints
    )


@dataclass(frozen=True)
class Constraint:
    expr: Expr
    taken: bool  # polarity: did execution take the true side
    depth: int  # 1-based symbolic branch depth

    @cached_property
    def text(self) -> str:
        t = lang.expr_text(self.expr)
        return t if self.taken else "!" + t


@dataclass(frozen=True)
class PathCondition:
    constraints: tuple[Constraint, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.constraints)

    def extend(self, expr: Expr, taken: bool) -> "PathCondition":
        c = Constraint(expr, taken, len(self.constraints) + 1)
        return PathCondition(self.constraints + (c,))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for c in self.constraints:
            out |= lang.reads(c.expr)
        return out

    def satisfied_by(self, test: Test, env: dict[str, int] | None = None) -> bool:
        return _all_hold(self.constraints, test, env)

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


def _ieval(e: Expr, iv: dict[str, _Interval]) -> _Interval:
    """Over-approximation of e's value range; TOP when wrapping is possible."""
    if isinstance(e, Const):
        return (e.value, e.value)
    if isinstance(e, Var):
        return iv[e.name]
    if isinstance(e, Unary):
        lo, hi = _ieval(e.operand, iv)
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
    a = _ieval(e.left, iv)
    b = _ieval(e.right, iv)
    op = e.op
    if op in lang.ARITH_OPS:
        if op == "+":
            lo, hi = a[0] + b[0], a[1] + b[1]
        elif op == "-":
            lo, hi = a[0] - b[1], a[1] - b[0]
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


def _def_true(e: Expr, iv: dict[str, _Interval]) -> bool:
    lo, hi = _ieval(e, iv)
    return lo > 0 or hi < 0


def _def_false(e: Expr, iv: dict[str, _Interval]) -> bool:
    return _ieval(e, iv) == (0, 0)


def _narrow_var(name: str, lo: int, hi: int, iv: dict[str, _Interval]) -> None:
    cur = iv[name]
    nlo, nhi = max(cur[0], lo), min(cur[1], hi)
    if nlo > nhi:
        raise _Unsat
    iv[name] = (nlo, nhi)


def _narrow_into(e: Expr, lo: int, hi: int, iv: dict[str, _Interval]) -> None:
    """Force e's value into [lo, hi], propagating bounds down to variables.
    Skips nodes where wrapping could occur; always sound, never complete."""
    if lo > hi:
        raise _Unsat
    if isinstance(e, Const):
        if not lo <= e.value <= hi:
            raise _Unsat
        return
    if isinstance(e, Var):
        _narrow_var(e.name, lo, hi, iv)
        return
    if isinstance(e, Unary):
        if e.op == "neg":
            a = _ieval(e.operand, iv)
            if -a[0] > INT64_MAX or -a[1] < INT64_MIN:
                return  # negation may wrap, leave it alone
            _narrow_into(e.operand, -hi, -lo, iv)
        else:  # not: 0/1 valued
            if lo > 0:
                _require(e.operand, False, iv)
            elif hi < 1:
                _require(e.operand, True, iv)
        return
    op = e.op
    if op in lang.ARITH_OPS:
        a = _ieval(e.left, iv)
        b = _ieval(e.right, iv)
        if op == "+":
            if a[0] + b[0] < INT64_MIN or a[1] + b[1] > INT64_MAX:
                return
            _narrow_into(e.left, lo - b[1], hi - b[0], iv)
            b = _ieval(e.right, iv)
            a = _ieval(e.left, iv)
            _narrow_into(e.right, lo - a[1], hi - a[0], iv)
        elif op == "-":
            if a[0] - b[1] < INT64_MIN or a[1] - b[0] > INT64_MAX:
                return
            _narrow_into(e.left, lo + b[0], hi + b[1], iv)
            a = _ieval(e.left, iv)
            _narrow_into(e.right, a[0] - hi, a[1] - lo, iv)
        else:  # * : only through a constant factor
            corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
            if min(corners) < INT64_MIN or max(corners) > INT64_MAX:
                return
            c, other = None, None
            if isinstance(e.left, Const):
                c, other = e.left.value, e.right
            elif isinstance(e.right, Const):
                c, other = e.right.value, e.left
            if c is None:
                return
            if c == 0:
                if not lo <= 0 <= hi:
                    raise _Unsat
                return
            if c > 0:
                _narrow_into(other, -((-lo) // c), hi // c, iv)
            else:
                _narrow_into(other, -((-hi) // c), lo // c, iv)
        return
    # comparison / boolean node used as a value: 0/1
    if lo > 0:
        _require(e, True, iv)
    elif hi < 1:
        _require(e, False, iv)


def _enforce_cmp(op: str, left: Expr, right: Expr, iv: dict[str, _Interval]) -> None:
    if op == ">":
        op, left, right = "<", right, left
    elif op == ">=":
        op, left, right = "<=", right, left
    a = _ieval(left, iv)
    b = _ieval(right, iv)
    if op == "<":
        _narrow_into(left, a[0], min(a[1], b[1] - 1), iv)
        b = _ieval(right, iv)
        a = _ieval(left, iv)
        _narrow_into(right, max(b[0], a[0] + 1), b[1], iv)
    elif op == "<=":
        _narrow_into(left, a[0], min(a[1], b[1]), iv)
        a = _ieval(left, iv)
        _narrow_into(right, max(b[0], a[0]), b[1], iv)
    elif op == "==":
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        _narrow_into(left, lo, hi, iv)
        _narrow_into(right, lo, hi, iv)
    elif op == "!=":
        if a[0] == a[1] == b[0] == b[1]:
            raise _Unsat
        if b[0] == b[1]:
            p = b[0]
            if a[0] == p and a[1] == p:
                raise _Unsat
            if a[0] == p:
                _narrow_into(left, p + 1, a[1], iv)
            elif a[1] == p:
                _narrow_into(left, a[0], p - 1, iv)
        elif a[0] == a[1]:
            p = a[0]
            if b[0] == p:
                _narrow_into(right, p + 1, b[1], iv)
            elif b[1] == p:
                _narrow_into(right, b[0], p - 1, iv)


def _require(e: Expr, want: bool, iv: dict[str, _Interval]) -> None:
    """Narrow iv so that e is truthy (want) or zero (not want)."""
    if isinstance(e, Const):
        if (e.value != 0) != want:
            raise _Unsat
        return
    if isinstance(e, Var):
        lo, hi = iv[e.name]
        if want:
            if lo == 0 and hi == 0:
                raise _Unsat
            if lo == 0:
                iv[e.name] = (1, hi)
            elif hi == 0:
                iv[e.name] = (lo, -1)
        else:
            _narrow_var(e.name, 0, 0, iv)
        return
    if isinstance(e, Unary):
        # both !e and -e flip/keep truthiness structurally
        _require(e.operand, (not want) if e.op == "not" else want, iv)
        return
    op = e.op
    if op in lang.CMP_OPS:
        _enforce_cmp(op if want else _NEGATED_CMP[op], e.left, e.right, iv)
        return
    if op == "and":
        if want:
            _require(e.left, True, iv)
            _require(e.right, True, iv)
        else:
            if _def_true(e.left, iv):
                _require(e.right, False, iv)
            elif _def_true(e.right, iv):
                _require(e.left, False, iv)
        return
    if op == "or":
        if want:
            if _def_false(e.left, iv):
                _require(e.right, True, iv)
            elif _def_false(e.right, iv):
                _require(e.left, True, iv)
        else:
            _require(e.left, False, iv)
            _require(e.right, False, iv)
        return
    # arithmetic used as a condition
    if not want:
        _narrow_into(e, 0, 0, iv)


def _fixpoint(constraints: tuple[Constraint, ...], iv: dict[str, _Interval]) -> None:
    for _ in range(100):
        before = dict(iv)
        for c in constraints:
            _require(c.expr, c.taken, iv)
        if iv == before:
            return


# ---------------------------------------------------------------------------
# Decision procedure
# ---------------------------------------------------------------------------


def _solve(
    constraints: tuple[Constraint, ...],
    decls: tuple[SymDecl, ...],
    domain_cap: int,
    hint: Test | None = None,
) -> Test | None:
    for d in decls:
        if d.size > domain_cap:
            raise DomainCapError(
                f"domain cap exceeded for {d.name} ({d.size} > {domain_cap})"
            )
        if d.lo > d.hi:
            return None
    if hint is not None and _all_hold(constraints, hint):
        return dict(hint)
    iv: dict[str, _Interval] = {d.name: (d.lo, d.hi) for d in decls}
    try:
        _fixpoint(constraints, iv)
    except _Unsat:
        return None

    names = [d.name for d in decls]
    env: Test = {}

    def consistent() -> bool:
        pt = {n: ((env[n], env[n]) if n in env else iv[n]) for n in names}
        try:
            for c in constraints:
                lo, hi = _ieval(c.expr, pt)
                if c.taken:
                    if lo == 0 and hi == 0:
                        return False
                elif lo > 0 or hi < 0:
                    return False
        except _Unsat:  # pragma: no cover - _ieval does not raise
            return False
        return True

    def backtrack(k: int) -> Test | None:
        if k == len(names):
            return dict(env) if _all_hold(constraints, env) else None
        name = names[k]
        lo, hi = iv[name]
        for v in range(lo, hi + 1):
            env[name] = v
            if consistent():
                found = backtrack(k + 1)
                if found is not None:
                    return found
        del env[name]
        return None

    return backtrack(0)


def solve_model(
    pc: PathCondition,
    decls: tuple[SymDecl, ...],
    *,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
    hint: Test | None = None,
) -> Test | None:
    """Witness model, or None when unsatisfiable. `hint` must be the lex-min
    model of a subset of pc's constraints (see the module docstring): if it
    satisfies pc it is the answer; otherwise pc is solved from scratch. A
    hint outside that contract still gives a model, not necessarily lex-min."""
    return _solve(pc.constraints, decls, domain_cap, hint)


def check_sat(
    pc: PathCondition,
    decls: tuple[SymDecl, ...],
    *,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
) -> bool:
    return _solve(pc.constraints, decls, domain_cap) is not None


def get_model(
    pc: PathCondition,
    decls: tuple[SymDecl, ...],
    *,
    domain_cap: int = DEFAULT_DOMAIN_CAP,
) -> Test:
    """Lexicographically smallest satisfying assignment, in declaration order."""
    m = _solve(pc.constraints, decls, domain_cap)
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
            return hit
        self.misses += 1
        model = _solve(pc.constraints, decls, domain_cap, hint)
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
