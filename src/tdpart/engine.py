"""Symbolic execution core: region exploration over test-depth pairs.

A region is named by a pair (test, test_depth): concrete replay of the test
pins the first test_depth symbolic decisions (not-taken siblings are
suspended without solving), and everything below is explored symbolically
until each state terminates or reaches final_depth. Only branches whose
condition stays non-constant after substitution through the symbolic store
count toward depth; a fully concrete branch just follows its edge.

The store holds a concrete value as a plain int and keeps an Expr only for
a value that depends on a symbolic input. One recursive evaluator runs each
assignment and branch condition over the store: two concrete operands fold
to an int at once; a symbolic operand rebuilds the node around Const
leaves, so constraint texts, cache keys and witnesses depend only on the
expression and the store.

Once an engine has entered a block concretely HOT times, it finds the
loop around it (the blocks reachable from it that can reach it back) and
runs the whole loop through one generated Python function: a `while` over
the loop's blocks, on locals holding plain ints, with inlined int64
arithmetic, that returns where control leaves the loop. It bails, leaving
the store untouched, when a name the loop uses is not a plain int, and the
evaluator runs the block instead. Heat is counted per engine, but the
function is kept on the Program object: every engine on that object (the
seeding engine, each worker thread, each later run) takes it from the
loop's first entry, and a forked worker would inherit the functions made
before the fork. A loop's source is built and compiled once per process
(solve.generated_code), so an equal program parsed again starts cold but
compiles nothing. The evaluator stays the reference; both tiers count
every instruction and truncate at the same one.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Mapping, Sequence, Set

from . import solve
from .lang import (
    ARITH_OPS, CMP_OPS, INT64_MAX, INT64_MIN, LOGIC_OPS, BasicBlock, Binary, Branch,
    Const, Exit, Expr, Jump, Program, Unary, Var, reads,
)
from .record import Record
from .solve import PathCondition, QueryCache, Test

DEFAULT_MAX_STEPS = 10_000_000

# a variable store: an int when concrete, an Expr when input-dependent
Store = dict[str, int | Expr]


class ReplayDivergenceError(Exception):
    """The dispatched test does not satisfy the region root's path condition."""


class Outcome:
    __slots__ = ("kind", "code", "label")

    def __init__(self, kind: str, code: int = 0, label: str = ""):
        self.kind = kind  # 'exit' | 'error'
        self.code, self.label = code, label

    def __str__(self) -> str:
        return f"exit {self.code}" if self.kind == "exit" else f"error {self.label}"


class ExecState:
    """One execution state. It is mutable and has a unique serial, so it
    compares by identity."""

    __slots__ = ("block", "instr", "env", "pc", "serial", "outcome", "model")

    def __init__(
        self, block: int, instr: int, env: Store, pc: PathCondition, serial: int,
        outcome: Outcome | None = None, model: Test | None = None,
    ):
        self.block, self.instr, self.env, self.pc = block, instr, env, pc
        self.serial = serial  # creation order, engine-wide
        self.outcome = outcome
        # lex-min model of pc when the solver checked this state at its
        # fork; None for initial, guided-phase and suspended states
        self.model = model

    @property
    def depth(self) -> int:
        return self.pc.depth

    @property
    def path(self) -> str:
        return self.pc.path_bits()


class Strategy(Record):
    __slots__ = ("kind", "seed")

    def __init__(self, kind: str, seed: int | None = None):
        self.kind = kind  # 'dfs' | 'bfs' | 'random'
        self.seed = seed


class TestDepthPair(Record):
    __test__ = False  # not a test case, despite the name
    __slots__ = ("test", "depth")

    def __init__(self, test: Test, depth: int):
        self.test, self.depth = test, depth


class EngineStats(Record):
    __slots__ = (
        "states_created", "states_suspended", "frontier", "solver_queries",
        "cache_hits", "instructions", "truncated", "wall_us", "paths",
    )

    def __init__(
        self, states_created: int = 0, states_suspended: int = 0, frontier: int = 0,
        solver_queries: int = 0, cache_hits: int = 0, instructions: int = 0,
        truncated: bool = False, wall_us: int = 0, paths: list[str] | None = None,
    ):
        self.states_created, self.states_suspended = states_created, states_suspended
        self.frontier, self.solver_queries = frontier, solver_queries
        self.cache_hits, self.instructions = cache_hits, instructions
        self.truncated, self.wall_us = truncated, wall_us
        self.paths = [] if paths is None else paths


class CompletedPath:
    __slots__ = ("path", "outcome", "test", "constraints")

    def __init__(self, path: str, outcome: Outcome, test: Test, constraints: tuple[str, ...]):
        self.path, self.outcome = path, outcome
        self.test = test  # emitted witness; replaying it reproduces `path`
        self.constraints = constraints  # pc texts in depth order, polarity applied


class RegionResult:
    __slots__ = ("completed", "frontier", "suspended_new", "stats")

    def __init__(
        self, completed: list[CompletedPath], frontier: list[ExecState],
        suspended_new: list[ExecState], stats: EngineStats,
    ):
        self.completed, self.frontier = completed, frontier
        self.suspended_new, self.stats = suspended_new, stats


_BINARY, _UNARY = solve.BINARY_OPS, solve.UNARY_OPS


def evaluate(e: Expr, env: Store) -> int | Expr:
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
            return _UNARY[e.op](o)
        return e if o is e.operand else Unary(e.op, o)
    left, right = evaluate(e.left, env), evaluate(e.right, env)
    if type(left) is int:
        if type(right) is int:
            return _BINARY[e.op](left, right)
        left = e.left if type(e.left) is Const else Const(left)
    elif type(right) is int:
        right = e.right if type(e.right) is Const else Const(right)
    return e if left is e.left and right is e.right else Binary(e.op, left, right)


# Generated tier: once a block has been entered concretely HOT times in an
# engine, the loop around it is compiled into one Python function over
# plain ints. The program's _engine_runs holds it for each of the loop's
# blocks (None before, and for a block on no generable loop); each store
# is one whole function, so engines on several threads need no lock, and
# two that generate one loop at once store equivalent functions.

HOT = 64
_NEST = 50  # deepest parenthesis nesting before a value goes to a local


def _generable(blk: BasicBlock, assigned: Set[str]) -> bool:
    """blk jumps or branches, and reads only names an assignment binds."""
    term = blk.term
    if type(term) is not Branch and type(term) is not Jump:
        return False
    exprs = [a.expr for a in blk.body] + ([term.cond] if type(term) is Branch else [])
    return not any(reads(e) - assigned for e in exprs)


def find_loop(blocks: Sequence[BasicBlock], idx: int, assigned: Set[str]) -> list[int]:
    """The loop around block idx, in index order: the generable blocks that
    are reachable from it and can reach it through generable blocks. Empty
    when idx is on no such cycle."""
    if not _generable(blocks[idx], assigned):
        return []
    reached: set[int] = set()
    preds: dict[int, list[int]] = {}
    todo = [idx]
    while todo:
        i = todo.pop()
        term = blocks[i].term
        for j in (term.target,) if type(term) is Jump else (term.on_true, term.on_false):
            if j in reached or _generable(blocks[j], assigned):
                preds.setdefault(j, []).append(i)
                if j not in reached:
                    reached.add(j)
                    todo.append(j)
    if idx not in reached:
        return []
    loop, todo = {idx}, [idx]
    while todo:
        for i in preds[todo.pop()]:
            if i not in loop:
                loop.add(i)
                todo.append(i)
    return sorted(loop)


class _LoopSource:
    """Python source for a set of blocks. Program names occur only as
    repr()'d store keys; each name's value lives in one local v<k> across
    all the blocks, and t<k> holds a value computed within one block."""

    def __init__(self):
        self.names: dict[str, str] = {}  # store name -> its local
        self.lines: list[str] = []
        # per block: names read before the block assigns them, and the
        # names it assigns, in first-assignment order
        self.exposed: set[str] = set()
        self.written: dict[str, None] = {}

    def emit(self, line: str) -> None:
        self.lines.append(f"            {line}")

    def local(self, text: str, into: str | None = None) -> str:
        t = into or f"t{len(self.lines)}"
        self.emit(f"{t} = {text}")
        return t

    def var(self, name: str) -> str:
        return self.names.setdefault(name, f"v{len(self.names)}")

    def read(self, name: str) -> str:
        if name not in self.written:
            self.exposed.add(name)
        return self.var(name)

    def assign(self, name: str, e: Expr) -> None:
        into = self.var(name)
        v = self.value(e, into)
        if v != into:  # a constant, or another name's local
            self.emit(f"{into} = {v}")
        self.written[name] = None

    def raw(self, e: Expr, depth: int = 0) -> str:
        """e's value modulo 2**64: + - * and neg wrap only where consumed."""
        if depth < _NEST and type(e) is Binary and e.op in ARITH_OPS:
            return f"({self.raw(e.left, depth + 1)} {e.op} {self.raw(e.right, depth + 1)})"
        if depth < _NEST and type(e) is Unary and e.op == "neg":
            return f"(-{self.raw(e.operand, depth + 1)})"
        return self.value(e)

    def value(self, e: Expr, into: str | None = None) -> str:
        """e's int64 value, exactly as solve.BINARY_OPS/UNARY_OPS fold it."""
        kind = type(e)
        if kind is Const:
            return f"({e.value})"
        if kind is Var:
            return self.read(e.name)
        if (kind is Binary and e.op in ARITH_OPS) or (kind is Unary and e.op == "neg"):
            t = self.local(self.raw(e), into)
            self.emit(f"if not {INT64_MIN} <= {t} <= {INT64_MAX}: {t} = wrap({t})")
            return t
        return self.local(f"1 if {self.truth(e)} else 0", into)

    def truth(self, e: Expr, depth: int = 0) -> str:
        """A Python test that holds iff e's int64 value is nonzero."""
        if depth < _NEST and type(e) is Binary and e.op in LOGIC_OPS:
            return f"({self.truth(e.left, depth + 1)} {e.op} {self.truth(e.right, depth + 1)})"
        if type(e) is Binary and e.op in CMP_OPS:
            return f"({self.value(e.left)} {e.op} {self.value(e.right)})"
        if depth < _NEST and type(e) is Unary and e.op == "not":
            return f"(not {self.truth(e.operand, depth + 1)})"
        return self.value(e)


def generate_block(
    members: Mapping[int, BasicBlock], assigned: Set[str]
) -> Callable[[Store, int, int], tuple[int, int]] | None:
    """A function run(env, b, room) that runs whole member blocks (index ->
    block) from block b on a store of plain ints, for as long as the next
    one's len(body) + 1 instructions fit in `room`. It returns the block
    where it stopped, the first outside the members or the one that did not
    fit, with the instructions it ran. It loads each name the members read
    or assign once, and writes the assigned ones back on return: names new
    to env arrive in first-assignment order. It returns (b, 0), with env
    untouched, when block b is no member or does not fit, or when one of
    those names is unbound or not an int, except a name that every member
    assigns (in one order with the other such names) before reading it.
    None when a member gets no function: it exits, or it reads a name that
    no assignment in `assigned` binds, which therefore always holds an
    Expr. With one member and room len(body) + 1, run runs that block.
    Whatever run leaves, the evaluator runs, and it is the reference.
    The source is built and compiled once per process for the same
    members and `assigned`; each call makes a function over its own
    globals."""
    key = (tuple(members.items()), frozenset(assigned))
    try:
        code = solve.generated_code(key, lambda: _loop_source(members, assigned))
    except RecursionError:  # too deep to generate; the evaluator runs it
        return None
    if code is None:
        return None
    namespace = {"wrap": solve.wrap}
    exec(code, namespace)
    # popped, so the function and its globals form no cycle that only the
    # garbage collector could free once the engine is gone
    return namespace.pop("run")


def _loop_source(members: Mapping[int, BasicBlock], assigned: Set[str]) -> str | None:
    """The source of generate_block's function, or None when it makes none."""
    src = _LoopSource()
    cases, firsts, written = [], [], {}
    for idx, blk in members.items():
        if not _generable(blk, assigned):
            return None
        src.exposed, src.written, start = set(), {}, len(src.lines)
        for a in blk.body:
            src.assign(a.name, a.expr)
        term = blk.term
        if type(term) is Jump:
            nxt = f"b = {term.target}"
        else:
            nxt = f"b = {term.on_true} if {src.truth(term.cond)} else {term.on_false}"
        cases.append((idx, len(blk.body) + 1, src.lines[start:], nxt))
        firsts.append([n for n in src.written if n not in src.exposed])
        written.update(src.written)
    # names every entry block binds before reading them may be unbound
    fresh = firsts[0] if all(f == firsts[0] for f in firsts) else []
    loads = [(name, v) for name, v in src.names.items() if name not in fresh]
    out = ["def run(env, b, room):"]
    if loads:
        out.append("    try:")
        out += [f"        {v} = env[{name!r}]" for name, v in loads]
        out.append("    except KeyError:\n        return b, 0")
        types = " or ".join(f"type({v}) is not int" for _, v in loads)
        out.append(f"    if {types}:\n        return b, 0")
    out.append("    left = room\n    while True:")
    for k, (idx, size, lines, nxt) in enumerate(cases):
        out.append(f"        {'elif' if k else 'if'} b == {idx}:")
        out.append(f"            if left < {size}:\n                break")
        out.append(f"            left -= {size}")
        out += lines
        out.append(f"            {nxt}")
    out.append("        else:\n            break")
    out.append("    if left == room:\n        return b, 0")
    # new names are fresh ones, which every member assigns in one order
    out += [f"    env[{name!r}] = {src.names[name]}" for name in written]
    out.append("    return b, room - left")
    return "\n".join(out) + "\n"


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
        # generated tier: this engine's entries per block
        self._heat = [0] * len(program.blocks)
        self._serial = itertools.count()
        # lifetime counters; regions report deltas
        self.queries = 0
        self.cache_hits = 0
        self.created = 0

    # -- states

    def initial_state(self) -> ExecState:
        self.created += 1
        return ExecState(
            block=0, instr=0, env={}, pc=PathCondition(), serial=next(self._serial)
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
        Each assignment and each terminator is one instruction. A hot
        loop's function runs whole blocks within the budget left, cut under
        a deadline at the next multiple of 1024, so a block that would span
        a time check runs in the evaluator, which makes it.
        Returns 'term' | 'frontier' | 'trunc' | ('fork', symbolic_cond)."""
        blocks, runs, heat = self.program.blocks, self.program._engine_runs, self._heat
        env = state.env
        limit = self.max_steps
        count = stats.instructions
        b, i = state.block, state.instr
        try:
            while True:
                # generated tier: run hot loops while their blocks fit the
                # budget and span no deadline check
                while i == 0:
                    run = runs[b]
                    if run is None:
                        heat[b] += 1
                        if heat[b] == HOT:
                            self._generate(b)
                        break
                    room = limit - count
                    if deadline is not None:
                        room = min(room, -count % 1024)
                    b, n = run(env, b, room)
                    if n == 0:
                        break
                    count += n
                blk = blocks[b]
                body = blk.body
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
                    a = body[i]
                    env[a.name] = evaluate(a.expr, env)
                    i += 1
                term = blk.term
                if type(term) is Branch:
                    cond = evaluate(term.cond, env)
                    if type(cond) is int:
                        b = term.on_true if cond else term.on_false
                        i = 0
                        continue
                    if state.depth == final_depth:
                        return "frontier"
                    return ("fork", cond)
                if isinstance(term, Jump):
                    b = term.target
                    i = 0
                    continue
                if isinstance(term, Exit):
                    state.outcome = Outcome("exit", code=term.code)
                else:
                    state.outcome = Outcome("error", label=term.label)
                return "term"
        finally:
            state.block, state.instr = b, i
            stats.instructions = count

    def _generate(self, idx: int) -> None:
        program = self.program
        blocks = program.blocks
        try:
            assigned = program._engine_assigned
        except AttributeError:
            assigned = program._engine_assigned = frozenset(
                a.name for b in blocks for a in b.body
            )
        loop = find_loop(blocks, idx, assigned)
        if loop:
            run = generate_block({m: blocks[m] for m in loop}, assigned)
            if run is not None:
                runs = program._engine_runs
                for m in loop:  # whole functions, one item at a time
                    runs[m] = run

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

        def make(taken: bool, model: Test | None = None) -> ExecState:
            self.created += 1
            return ExecState(
                block=term.on_true if taken else term.on_false,
                instr=0,
                env=dict(state.env),
                pc=pcs[taken],
                serial=next(self._serial),
                model=model,
            )

        if state.depth < test_depth:
            taken = solve.solve_path(test, cond)
            first, second = make(False), make(True)
            return ([second], first) if taken else ([first], second)

        actives: list[ExecState] = []
        for flag in (False, True):
            sat, model = self._query(pcs[flag], state.model)
            if sat:
                actives.append(make(flag, model))
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
