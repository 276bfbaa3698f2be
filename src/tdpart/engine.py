"""Symbolic execution core: region exploration over test-depth pairs.

A region is named by a pair (test, test_depth): concrete replay of the test
pins the first test_depth symbolic decisions (not-taken siblings are
suspended without solving), and everything below is explored symbolically
until each state terminates or reaches final_depth. Only branches whose
condition stays non-constant after substitution through the symbolic store
count toward depth; a fully concrete branch just follows its edge.

The store holds a concrete value as a plain int and keeps an Expr only for
a value that depends on a symbolic input. Each block's assignments and
branch condition are compiled into closures over the store the first time
an engine reaches the block. Two concrete operands fold to an int at once;
a symbolic operand rebuilds the node around Const leaves, the very tree
substitution builds, so constraint texts, cache keys and witnesses do not
depend on how an expression was evaluated.

A block an engine has entered concretely HOT times is then run by one
generated Python function: it returns the successor block's index after
updating the store with inlined int64 arithmetic, or bails, leaving the
store untouched, when a name the block reads is not a plain int, and the
closure tier runs the block instead. The closures stay the reference;
both tiers count every instruction and truncate at the same one.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Set
from dataclasses import dataclass, field
from enum import Enum

from . import solve
from .lang import (
    ARITH_OPS, CMP_OPS, INT64_MAX, INT64_MIN, LOGIC_OPS, BasicBlock, Binary, Branch,
    Const, Error, Exit, Expr, Jump, Program, Terminator, Unary, Var, reads,
)
from .solve import PathCondition, QueryCache, Test

DEFAULT_MAX_STEPS = 10_000_000

# a variable store: an int when concrete, an Expr when input-dependent
Store = dict[str, int | Expr]
Compiled = Callable[[Store], int | Expr]


class ReplayDivergenceError(Exception):
    """The dispatched test does not satisfy the region root's path condition."""


class Status(Enum):
    ACTIVE = "active"
    SUSPENDED = "suspended"
    FRONTIER = "frontier"
    TERMINATED = "terminated"


@dataclass(frozen=True)
class Outcome:
    kind: str  # 'exit' | 'error'
    code: int = 0
    label: str = ""

    def __str__(self) -> str:
        return f"exit {self.code}" if self.kind == "exit" else f"error {self.label}"


@dataclass
class ExecState:
    block: int
    instr: int
    env: Store
    pc: PathCondition
    status: Status
    serial: int  # creation order, engine-wide
    outcome: Outcome | None = None
    # lex-min model of pc when the solver checked this state at its fork;
    # None for initial, guided-phase and suspended states
    model: Test | None = None

    @property
    def depth(self) -> int:
        return self.pc.depth

    @property
    def path(self) -> str:
        return self.pc.path_bits()


@dataclass(frozen=True)
class Strategy:
    kind: str  # 'dfs' | 'bfs' | 'random'
    seed: int | None = None


@dataclass(frozen=True)
class TestDepthPair:
    __test__ = False  # not a test case, despite the name

    test: Test
    depth: int


@dataclass
class EngineStats:
    states_created: int = 0
    states_suspended: int = 0
    frontier: int = 0
    solver_queries: int = 0
    cache_hits: int = 0
    instructions: int = 0
    truncated: bool = False
    wall_us: int = 0
    paths: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class CompletedPath:
    path: str
    outcome: Outcome
    test: Test  # emitted witness; replaying it reproduces `path`
    constraints: tuple[str, ...]  # pc texts in depth order, polarity applied


@dataclass
class RegionResult:
    completed: list[CompletedPath]
    frontier: list[ExecState]
    suspended_new: list[ExecState]
    stats: EngineStats


# Closure factories, kept apart from _compile so that its calls, one per
# node, do not allocate the closures' cells. Like substitution, a closure
# returns its own node when no operand changed.


def _load(var: Var) -> Compiled:
    name = var.name

    def load(env):
        try:
            return env[name]
        except KeyError:  # a symbolic input read before its assignment
            return var

    return load


def _unary(e: Unary, operand: Compiled) -> Compiled:
    fold = solve.UNARY_OPS[e.op]

    def unary(env):
        v = operand(env)
        if type(v) is int:
            return fold(v)
        return e if v is e.operand else Unary(e.op, v)

    return unary


def _fixed_left(e: Binary, lnode: Expr, right: Compiled) -> Compiled:
    fold = solve.BINARY_OPS[e.op]
    lvalue = lnode.value if type(lnode) is Const else None

    def fixed_left(env):
        r = right(env)
        if type(r) is not int:
            return e if r is e.right and lnode is e.left else Binary(e.op, lnode, r)
        return Binary(e.op, lnode, Const(r)) if lvalue is None else fold(lvalue, r)

    return fixed_left


def _fixed_right(e: Binary, left: Compiled, rnode: Expr) -> Compiled:
    fold = solve.BINARY_OPS[e.op]
    rvalue = rnode.value if type(rnode) is Const else None

    def fixed_right(env):
        l = left(env)
        if type(l) is not int:
            return e if l is e.left and rnode is e.right else Binary(e.op, l, rnode)
        return Binary(e.op, Const(l), rnode) if rvalue is None else fold(l, rvalue)

    return fixed_right


def _binary(e: Binary, left: Compiled, right: Compiled) -> Compiled:
    fold = solve.BINARY_OPS[e.op]

    def binary(env):
        l = left(env)
        r = right(env)
        if type(l) is int:
            if type(r) is int:
                return fold(l, r)
            return Binary(e.op, Const(l), r)
        if type(r) is int:
            return Binary(e.op, l, Const(r))
        return e if l is e.left and r is e.right else Binary(e.op, l, r)

    return binary


def _compile(e: Expr, assigned: Set[str]) -> Expr | Compiled:
    """e compiled against a store binding at most the names in `assigned`.
    When e reads none of them, returns what substitution gives for every
    such store: a Const if e folds, else e itself unless a constant part of
    it folded. Otherwise returns a closure store -> int | Expr."""
    kind = type(e)
    if kind is Const:
        return e
    if kind is Var:
        return _load(e) if e.name in assigned else e
    if kind is Unary:
        o = _compile(e.operand, assigned)
        if callable(o):
            return _unary(e, o)
        if type(o) is Const:
            return Const(solve.UNARY_OPS[e.op](o.value))
        return e if o is e.operand else Unary(e.op, o)
    left = _compile(e.left, assigned)
    right = _compile(e.right, assigned)
    if callable(left):
        if callable(right):
            return _binary(e, left, right)
        return _fixed_right(e, left, right)
    if callable(right):
        return _fixed_left(e, left, right)
    if type(left) is Const and type(right) is Const:
        return Const(solve.BINARY_OPS[e.op](left.value, right.value))
    if left is e.left and right is e.right:
        return e
    return Binary(e.op, left, right)


def compile_expr(e: Expr, assigned: Set[str]) -> int | Expr | Compiled:
    """e compiled against a store mapping at most the names in `assigned`
    to plain ints (concrete values) or Exprs over the symbolic inputs;
    names not in the store stay symbolic. Returns e's value when it does
    not depend on the store, else a closure store -> int | Expr. A value is
    an int when every operand is concrete, else the tree substitution
    builds: no logic short-circuit, no re-association."""
    c = _compile(e, assigned)
    return c.value if type(c) is Const else c


def substitute(e: Expr, env: dict[str, Expr]) -> Expr:
    """Replace assigned variables by their stored expressions and fold any
    all-constant node. Variables absent from env (the symbolic inputs) stay."""
    store = {k: v.value if isinstance(v, Const) else v for k, v in env.items()}
    c = compile_expr(e, frozenset(store))
    r = c(store) if callable(c) else c
    return Const(r) if type(r) is int else r


# Generated tier: a block entered concretely HOT times in an engine is
# compiled into one Python function over plain ints.

HOT = 64
_NEST = 50  # deepest parenthesis nesting before a value goes to a local


class _BlockSource:
    """Python source for one block. Program names occur only as repr()'d
    store keys; each value lives in a local: v<k> for a value loaded from
    the store, t<k> for one computed in the block."""

    def __init__(self):
        self.loads: dict[str, str] = {}  # store name -> local holding it
        self.current: dict[str, str] = {}  # name -> local with its value now
        self.lines: list[str] = []

    def local(self, text: str) -> str:
        t = f"t{len(self.lines)}"
        self.lines.append(f"    {t} = {text}")
        return t

    def read(self, name: str) -> str:
        if name not in self.current:
            self.current[name] = self.loads[name] = f"v{len(self.loads)}"
        return self.current[name]

    def raw(self, e: Expr, depth: int = 0) -> str:
        """e's value modulo 2**64: + - * and neg wrap only where consumed."""
        if depth < _NEST and type(e) is Binary and e.op in ARITH_OPS:
            return f"({self.raw(e.left, depth + 1)} {e.op} {self.raw(e.right, depth + 1)})"
        if depth < _NEST and type(e) is Unary and e.op == "neg":
            return f"(-{self.raw(e.operand, depth + 1)})"
        return self.value(e)

    def value(self, e: Expr) -> str:
        """e's int64 value, exactly as solve.BINARY_OPS/UNARY_OPS fold it."""
        kind = type(e)
        if kind is Const:
            return f"({e.value})"
        if kind is Var:
            return self.read(e.name)
        if (kind is Binary and e.op in ARITH_OPS) or (kind is Unary and e.op == "neg"):
            t = self.local(self.raw(e))
            self.lines.append(f"    if not {INT64_MIN} <= {t} <= {INT64_MAX}: {t} = wrap({t})")
            return t
        return self.local(f"1 if {self.truth(e)} else 0")

    def truth(self, e: Expr, depth: int = 0) -> str:
        """A Python test that holds iff e's int64 value is nonzero."""
        if depth < _NEST and type(e) is Binary and e.op in LOGIC_OPS:
            return f"({self.truth(e.left, depth + 1)} {e.op} {self.truth(e.right, depth + 1)})"
        if type(e) is Binary and e.op in CMP_OPS:
            return f"({self.value(e.left)} {e.op} {self.value(e.right)})"
        if depth < _NEST and type(e) is Unary and e.op == "not":
            return f"(not {self.truth(e.operand, depth + 1)})"
        return self.value(e)


def generate_block(blk: BasicBlock, assigned: Set[str]) -> Callable[[Store], int] | None:
    """A function run(env) that runs blk on a store binding every name blk
    reads to an int: it writes the assigned names back in first-assignment
    order and returns the successor block's index. It returns -1, with env
    untouched, when a name blk reads is unbound or holds an Expr. None when
    blk gets no function: it exits, or it reads a name that no assignment
    in `assigned` binds, which therefore always holds an Expr."""
    term = blk.term
    if type(term) is not Branch and type(term) is not Jump:
        return None
    exprs = [a.expr for a in blk.body] + ([term.cond] if type(term) is Branch else [])
    src = _BlockSource()
    try:
        if any(reads(e) - assigned for e in exprs):
            return None
        for a in blk.body:
            src.current[a.name] = src.value(a.expr)
        if type(term) is Jump:
            ret = f"return {term.target}"
        else:
            ret = f"return {term.on_true} if {src.truth(term.cond)} else {term.on_false}"
    except RecursionError:  # too deep to generate; the closures run it
        return None
    loads = list(src.loads.items())
    out = ["def run(env):"]
    if loads:
        out.append("    try:")
        out += [f"        {v} = env[{name!r}]" for name, v in loads]
        out.append("    except KeyError:\n        return -1")
        types = " or ".join(f"type({v}) is not int" for _, v in loads)
        out.append(f"    if {types}:\n        return -1")
    out += src.lines
    written = dict.fromkeys(a.name for a in blk.body)
    out += [f"    env[{name!r}] = {src.current[name]}" for name in written]
    out.append(f"    {ret}")
    namespace = {"wrap": solve.wrap}
    exec(compile("\n".join(out) + "\n", "<tdpart block>", "exec"), namespace)
    # popped, so the function and its globals form no cycle that only the
    # garbage collector could free once the engine is gone
    return namespace.pop("run")


@dataclass(slots=True)
class _CompiledBlock:
    # compile_expr results: a closure, or a value that needs no store
    body: tuple[tuple[str, int | Expr | Compiled], ...]  # (assigned name, expr)
    cond: int | Expr | Compiled | None  # branch condition; None for other terminators
    term: Terminator


class Engine:
    """Per-worker execution engine; the query cache and creation-order serial
    numbers live for the engine's lifetime, spanning all its regions."""

    def __init__(
        self,
        program: Program,
        *,
        cache_enabled: bool = True,
        max_steps: int = DEFAULT_MAX_STEPS,
        solver_delay: float = 0.0,
    ):
        self.program = program
        self.decls = program.inputs
        self.max_steps = max_steps
        self.solver_delay = solver_delay
        self.cache: QueryCache | None = QueryCache() if cache_enabled else None
        # blocks compiled on first visit, for this engine's lifetime
        self._assigned = {a.name for b in program.blocks for a in b.body}
        self._compiled: list[_CompiledBlock | None] = [None] * len(program.blocks)
        # generated tier: entries per block, and once a block is hot its
        # function with the instructions one run accounts for (None before,
        # and for a block that gets no function)
        self._heat = [0] * len(program.blocks)
        self._runs: list[tuple[Callable[[Store], int], int] | None] = (
            [None] * len(program.blocks)
        )
        self._serial = itertools.count()
        # lifetime counters; regions report deltas
        self.queries = 0
        self.cache_hits = 0
        self.created = 0

    # -- states

    def initial_state(self) -> ExecState:
        self.created += 1
        return ExecState(
            block=0, instr=0, env={}, pc=PathCondition(),
            status=Status.ACTIVE, serial=next(self._serial),
        )

    # -- solver access (all SAT/model traffic funnels through here)

    def _query(
        self, pc: PathCondition, hint: Test | None = None
    ) -> tuple[bool, Test | None]:
        """`hint`, used only when the cache misses: the lex-min model of a
        subset of pc's constraints (solve_model's contract)."""
        self.queries += 1
        if self.cache is not None:
            misses_before = self.cache.misses
            sat, model = self.cache.query(pc, self.decls, hint=hint)
            if self.cache.misses == misses_before:
                self.cache_hits += 1
            elif self.solver_delay > 0:
                time.sleep(self.solver_delay)
            return sat, model
        if self.solver_delay > 0:
            time.sleep(self.solver_delay)
        model = solve.solve_model(pc, self.decls, hint=hint)
        return model is not None, model

    def model_of(self, pc: PathCondition, hint: Test | None = None) -> Test:
        """Model of pc; `hint` as in _query, typically the state's own model."""
        sat, model = self._query(pc, hint)
        if not sat:
            raise solve.SolveError("model requested for unsatisfiable path condition")
        assert model is not None
        return model

    # -- single-state execution up to the next event

    def _compile_block(self, idx: int) -> _CompiledBlock:
        blk = self.program.blocks[idx]
        assigned, term = self._assigned, blk.term
        cb = self._compiled[idx] = _CompiledBlock(
            tuple([(a.name, compile_expr(a.expr, assigned)) for a in blk.body]),
            compile_expr(term.cond, assigned) if type(term) is Branch else None,
            term,
        )
        return cb

    def _advance(
        self,
        state: ExecState,
        final_depth: int,
        stats: EngineStats,
        deadline: float | None = None,
    ):
        """Run a state until it terminates, is censored at final_depth, forks
        at a symbolic branch, or exhausts the instruction budget or the soft
        `deadline` (a time.monotonic() value, checked every 1024 instructions).
        Each assignment and each terminator is one instruction.
        Returns 'term' | 'frontier' | 'trunc' | ('fork', symbolic_cond)."""
        compiled, runs, heat = self._compiled, self._runs, self._heat
        env = state.env
        limit = self.max_steps
        count = stats.instructions
        b, i = state.block, state.instr
        try:
            while True:
                # generated tier: chain hot blocks' functions while the whole
                # block fits the budget and the deadline check it spans passes
                while i == 0:
                    hot = runs[b]
                    if hot is None:
                        heat[b] += 1
                        if heat[b] == HOT:
                            self._generate(b)
                        break
                    run, steps = hot
                    if count + steps > limit or (
                        deadline is not None
                        and -count % 1024 < steps
                        and time.monotonic() > deadline
                    ):
                        break
                    nxt = run(env)
                    if nxt < 0:
                        break
                    count += steps
                    b = nxt
                cb = compiled[b] or self._compile_block(b)
                body = cb.body
                while True:
                    if count >= limit or (
                        deadline is not None
                        and count % 1024 == 0
                        and time.monotonic() > deadline
                    ):
                        return "trunc"
                    count += 1
                    if i == len(body):
                        break
                    name, value = body[i]
                    env[name] = value(env) if callable(value) else value
                    i += 1
                term = cb.term
                if cb.cond is not None:
                    cond = cb.cond(env) if callable(cb.cond) else cb.cond
                    if type(cond) is int:
                        b = term.on_true if cond else term.on_false
                        i = 0
                        continue
                    if state.depth == final_depth:
                        state.status = Status.FRONTIER
                        return "frontier"
                    return ("fork", cond)
                if isinstance(term, Jump):
                    b = term.target
                    i = 0
                    continue
                state.status = Status.TERMINATED
                if isinstance(term, Exit):
                    state.outcome = Outcome("exit", code=term.code)
                else:
                    state.outcome = Outcome("error", label=term.label)
                return "term"
        finally:
            state.block, state.instr = b, i
            stats.instructions = count

    def _generate(self, idx: int) -> None:
        blk = self.program.blocks[idx]
        run = generate_block(blk, self._assigned)
        if run is not None:
            self._runs[idx] = (run, len(blk.body) + 1)

    def step_branch(
        self,
        state: ExecState,
        cond: Expr,
        test: Test,
        test_depth: int,
    ) -> tuple[list[ExecState], ExecState | None]:
        """Fork at a symbolic branch. In the guided phase (depth < test_depth)
        the test picks the taken side and the sibling is suspended unsolved;
        below, both sides are solver-checked, with the parent's model as the
        hint, and only satisfiable children are created, each keeping its
        model. Children are created false-side first. Returns
        (active successors, suspended sibling or None)."""
        term = self.program.blocks[state.block].term
        assert isinstance(term, Branch)

        # one pc per side, shared by the query and the child, so each
        # constraint's text is rendered once
        pcs = {flag: state.pc.extend(cond, flag) for flag in (False, True)}

        def make(taken: bool, status: Status, model: Test | None = None) -> ExecState:
            self.created += 1
            return ExecState(
                block=term.on_true if taken else term.on_false,
                instr=0,
                env=dict(state.env),
                pc=pcs[taken],
                status=status,
                serial=next(self._serial),
                model=model,
            )

        if state.depth < test_depth:
            taken = solve.solve_path(test, cond)
            first = make(False, Status.ACTIVE if not taken else Status.SUSPENDED)
            second = make(True, Status.ACTIVE if taken else Status.SUSPENDED)
            if taken:
                return [second], first
            return [first], second

        actives: list[ExecState] = []
        for flag in (False, True):
            sat, model = self._query(pcs[flag], state.model)
            if sat:
                actives.append(make(flag, Status.ACTIVE, model))
        return actives, None

    def _select(self, active: list[ExecState], strategy: Strategy, rng) -> ExecState:
        if strategy.kind == "dfs":
            idx = max(range(len(active)), key=lambda i: (active[i].depth, active[i].serial))
        elif strategy.kind == "bfs":
            idx = min(range(len(active)), key=lambda i: (active[i].depth, active[i].serial))
        elif strategy.kind == "random":
            idx = rng.randrange(len(active))
        else:
            raise ValueError(f"unknown strategy {strategy.kind}")
        return active.pop(idx)

    # -- region execution

    def start_execution(
        self,
        root: ExecState,
        test: Test,
        test_depth: int,
        final_depth: int,
        strategy: Strategy,
        *,
        poll=None,
    ) -> RegionResult:
        """Explore the region (test, test_depth) from `root` (either the
        initial state or a resumed suspended state on the test's path).

        `poll`, when given, is called as poll(active_states) before each
        select step; a work-stealing worker uses it to hand off a state."""
        t0 = time.perf_counter()
        stats = EngineStats()
        q0, h0, c0 = self.queries, self.cache_hits, self.created

        if not root.pc.satisfied_by(test):
            raise ReplayDivergenceError(
                f"test {test} does not satisfy region root pc {root.pc.texts()}"
            )
        root.status = Status.ACTIVE
        rng = random.Random(strategy.seed) if strategy.kind == "random" else None

        active = [root]
        completed: list[CompletedPath] = []
        frontier: list[ExecState] = []
        suspended_new: list[ExecState] = []
        while active:
            if poll is not None:
                poll(active)
            if not active:
                break
            state = self._select(active, strategy, rng)
            r = self._advance(state, final_depth, stats)
            if r == "trunc":
                stats.truncated = True
                break
            if r == "term":
                witness = self.model_of(state.pc, state.model)
                completed.append(
                    CompletedPath(state.path, state.outcome, witness, tuple(state.pc.texts()))
                )
                stats.paths.append(state.path)
            elif r == "frontier":
                frontier.append(state)
            else:
                _, cond = r
                actives, susp = self.step_branch(state, cond, test, test_depth)
                active.extend(actives)
                if susp is not None:
                    suspended_new.append(susp)

        stats.states_created = self.created - c0
        stats.states_suspended = len(suspended_new)
        stats.frontier = len(frontier)
        stats.solver_queries = self.queries - q0
        stats.cache_hits = self.cache_hits - h0
        stats.wall_us = int((time.perf_counter() - t0) * 1e6)
        return RegionResult(completed, frontier, suspended_new, stats)

    # -- resume matching

    def find_resumable(self, suspended: list[ExecState], test: Test) -> ExecState | None:
        """Suspended state to reuse for a new pair instead of replaying from
        the root. States satisfying the test form a chain along its replay
        path, so the deepest one minimizes re-replay."""
        candidates = [s for s in suspended if s.pc.satisfied_by(test)]
        if not candidates:
            return None
        return max(candidates, key=lambda s: (s.depth, -s.serial))

    # -- breadth-first layer expansion (pool seeding, depth calibration)

    def bfs_layers(self, final_depth: int, *, deadline: float | None = None):
        """Expand the tree breadth-first from a fresh initial state, one whole
        layer at a time. Yields ([initial state], []) first, then, after each
        layer, (next layer, states of that layer that terminated or reached
        final_depth). Ends after yielding an empty layer, or without yielding
        when the instruction budget (one for all layers) or the soft
        `deadline` (also checked before each state) cuts a layer short."""
        stats = EngineStats()
        layer = [self.initial_state()]
        yield layer, []
        while layer:
            nxt: list[ExecState] = []
            finished: list[ExecState] = []
            for s in layer:
                if deadline is not None and time.monotonic() > deadline:
                    return
                r = self._advance(s, final_depth, stats, deadline)
                if r == "trunc":
                    return
                if r in ("term", "frontier"):
                    finished.append(s)
                else:
                    _, cond = r
                    actives, _ = self.step_branch(s, cond, {}, 0)
                    nxt.extend(actives)
            layer = nxt
            yield layer, finished

    def bfs_seed(self, num_targets: int, final_depth: int) -> list[ExecState]:
        """Expand whole breadth-first layers from the initial state until the
        finished-plus-frontier state count reaches num_targets or the tree is
        exhausted. Returns the pool states in creation order. A program that
        finishes nothing within the instruction budget yields an empty list."""
        done: list[ExecState] = []
        for layer, finished in self.bfs_layers(final_depth):
            done.extend(finished)
            if not layer or len(layer) + len(done) >= num_targets:
                return sorted(done + layer, key=lambda s: s.serial)
        return []
