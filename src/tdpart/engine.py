"""Symbolic execution core: region exploration over test-depth pairs.

A region is named by a pair (test, test_depth): concrete replay of the test
pins the first test_depth symbolic decisions (not-taken siblings are
suspended without solving), and everything below is explored symbolically
until each state terminates or reaches final_depth. Only branches whose
condition stays non-constant after substitution through the symbolic store
count toward depth; a fully concrete branch just follows its edge.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from enum import Enum

from . import solve
from .lang import Binary, Branch, Const, Error, Exit, Expr, Jump, Program, Unary, Var
from .solve import PathCondition, QueryCache, Test

DEFAULT_MAX_STEPS = 10_000_000


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
    env: dict[str, Expr]
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


def substitute(e: Expr, env: dict[str, Expr]) -> Expr:
    """Replace assigned variables by their stored expressions and fold any
    all-constant node. Variables absent from env (the symbolic inputs) stay."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return env.get(e.name, e)
    if isinstance(e, Unary):
        o = substitute(e.operand, env)
        if isinstance(o, Const):
            return Const(solve.evaluate_concrete(Unary(e.op, o), {}))
        return e if o is e.operand else Unary(e.op, o)
    left = substitute(e.left, env)
    right = substitute(e.right, env)
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(solve.evaluate_concrete(Binary(e.op, left, right), {}))
    if left is e.left and right is e.right:
        return e
    return Binary(e.op, left, right)


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
        Returns 'term' | 'frontier' | 'trunc' | ('fork', substituted_cond)."""
        blocks = self.program.blocks
        while True:
            if stats.instructions >= self.max_steps:
                return "trunc"
            if (
                deadline is not None
                and stats.instructions % 1024 == 0
                and time.monotonic() > deadline
            ):
                return "trunc"
            blk = blocks[state.block]
            if state.instr < len(blk.body):
                a = blk.body[state.instr]
                state.env[a.name] = substitute(a.expr, state.env)
                state.instr += 1
                stats.instructions += 1
                continue
            term = blk.term
            stats.instructions += 1
            if isinstance(term, Jump):
                state.block = term.target
                state.instr = 0
                continue
            if isinstance(term, Exit):
                state.status = Status.TERMINATED
                state.outcome = Outcome("exit", code=term.code)
                return "term"
            if isinstance(term, Error):
                state.status = Status.TERMINATED
                state.outcome = Outcome("error", label=term.label)
                return "term"
            cond = substitute(term.cond, state.env)
            if isinstance(cond, Const):
                state.block = term.on_true if cond.value != 0 else term.on_false
                state.instr = 0
                continue
            if state.depth == final_depth:
                state.status = Status.FRONTIER
                return "frontier"
            return ("fork", cond)

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

        `poll`, when given, is called as poll(active_states, step) between
        select steps; a work-stealing worker uses it to hand off a state."""
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
        step = 0
        while active:
            if poll is not None:
                poll(active, step)
            step += 1
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
