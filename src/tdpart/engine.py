"""Symbolic execution core: region exploration over test-depth pairs.

A region is named by a pair (test, test_depth): concrete replay of the test
pins the first test_depth symbolic decisions (not-taken siblings are
suspended without solving), and everything below is explored symbolically
until each state terminates or reaches final_depth. Only branches whose
condition stays non-constant after substitution through the symbolic store
count toward depth; a fully concrete branch just follows its edge. The
pair is all a region is given: the engine keeps the siblings it suspended
across its regions, and a region of test depth above 0 starts at the
deepest one its test satisfies, else at the initial state.
Engine.start_execution is the only exploration loop: seeding and depth
calibration run the root pair's region breadth-first under a poll.

The store holds a concrete value as a plain int and keeps an Expr only for
a value that depends on a symbolic input. One recursive evaluator,
solve.evaluate, runs each assignment and branch condition over the store:
two concrete operands fold to an int at once; a symbolic operand rebuilds
the node around Const leaves, so constraint texts, cache keys and
witnesses depend only on the expression and the store.

The first block entry of any engine on a Program object finds the
program's loops (each a set of blocks that reach one another), once per
object, and the first entry of a loop makes it one generated Python
function on locals holding plain ints, with inlined int64 arithmetic, that
returns where control leaves the loop. A loop that is one simple cycle,
as a `while` with no branch in its body is, runs one whole iteration at a
time as straight-line code from the block entered first, with one budget
test per iteration; other loops, and the blocks of a last part iteration,
run through a `while` that dispatches on the block. A name can hold a
plain int only when some assignment binds it from names that can, so no
function is made for a loop that reads any other name, an input or a
name always computed from one: that loop's blocks are marked as on no
loop. The object keeps the function on every block of its loop, and False
on every block on no loop, so every engine on it (the seeding engine, each
worker thread, each later run) skips a False block and runs a loop's
function from the loop's first entry, and a forked worker would inherit
both. A function bails, leaving the store untouched, when a name the loop
uses is not a plain int, and the evaluator runs the block instead. The
evaluator stays the reference; both tiers count every instruction and
truncate at the same one.

A loop's function is pure in the ints it loads (a name every member
assigns before reading it is an output only), and sibling states under a
fork, like regions replaying one prefix, enter a loop with the same ints
again and again. So each engine keeps a memo, loop_memo, that every
function it runs shares: a run that left its loop is recorded under its
entry block and loaded ints, with the exit block, the instruction count
and the values it wrote back, and a later entry with that key whose
count fits the room writes those values back in the same order and
returns at once. A run the room cut short stops inside its loop and is
never recorded, so an answer never spans a budget or deadline check. The
memo stops recording at LOOP_MEMO_SIZE entries, so a loop whose entries
never repeat (an inner loop reading an outer counter) costs a lookup per
entry and bounded memory. The memo is per-run state, like the query
cache: it lives as long as its engine (a worker's across its regions)
and is kept on neither the Program nor a function, so no run reuses
another's entries.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence, Set
from typing import TYPE_CHECKING

from . import solve
from .lang import (
    ARITH_OPS, CMP_OPS, INT64_MAX, INT64_MIN, LOGIC_OPS, BasicBlock, Binary, Branch,
    Const, Error, Exit, Expr, Jump, Program, Unary, Var, reads, successors,
)
from .record import Record
from .solve import PathCondition, QueryCache, Test, evaluate

if TYPE_CHECKING:
    from .harness import RunConfig

# one region's instruction budget, read at call time so a test can lower it
MAX_STEPS = 10_000_000
# seconds each uncached solver query waits, read at call time like MAX_STEPS
SOLVER_DELAY = 0.0
# the most loop runs an engine's memo records: an entry of three names
# takes ~330 bytes, so a full memo adds ~0.3 MB however many entries miss
LOOP_MEMO_SIZE = 1024

# a variable store: an int when concrete, an Expr when input-dependent
Store = dict[str, int | Expr]
# a loop run that left its loop: (entry block, loaded ints) -> (exit block,
# instructions, written values)
LoopMemo = dict[tuple[int, ...], tuple[int, ...]]


class ExecState:
    """One execution state. It is mutable and has a unique serial, so it
    compares by identity."""

    __slots__ = ("block", "instr", "env", "pc", "serial", "outcome")

    def __init__(self, block: int, instr: int, env: Store, pc: PathCondition, serial: int):
        self.block, self.instr, self.env, self.pc = block, instr, env, pc
        self.serial = serial  # creation order, engine-wide
        self.outcome: Exit | Error | None = None  # the terminator it stopped at

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


# EngineStats' counters: summed when regions are folded into a worker's tally
COUNTERS = (
    "states_created", "states_suspended", "frontier", "solver_queries",
    "cache_hits", "instructions", "wall_us",
)


class EngineStats(Record):
    """One region's counts and completed paths, as a Finish carries them."""

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

    def __init__(self, path: str, outcome: Exit | Error, test: Test, constraints: tuple[str, ...]):
        self.path, self.outcome = path, outcome
        self.test = test  # emitted witness; replaying it reproduces `path`
        self.constraints = constraints  # pc texts in depth order, polarity applied


class RegionResult:
    __slots__ = ("completed", "frontier", "stats")

    def __init__(
        self, completed: list[CompletedPath], frontier: list[ExecState], stats: EngineStats
    ):
        self.completed, self.frontier, self.stats = completed, frontier, stats


_analysis_lock = threading.Lock()  # so threads analyse a program's loops once
_NEST = 50  # deepest parenthesis nesting before a value goes to a local


def _reads(blk: BasicBlock) -> frozenset[str]:
    """The names blk's assignments and branch condition read."""
    term = blk.term
    names = reads(term.cond) if type(term) is Branch else frozenset()
    return names.union(*[reads(a.expr) for a in blk.body])


def _generable(blk: BasicBlock, concrete: Set[str]) -> bool:
    """blk jumps or branches, and reads only names that can hold an int."""
    return type(blk.term) in (Branch, Jump) and _reads(blk) <= concrete


def concrete_names(
    blocks: Sequence[BasicBlock], wanted: Iterable[str] | None = None
) -> frozenset[str]:
    """The names that can hold a plain int: those some assignment binds
    from an expression reading only such names. Every other name, an input
    or one every assignment of which reads an always-symbolic name, is
    unbound or an Expr wherever it is read, since evaluate never folds a
    symbolic operand. The least fixpoint, in time linear in the program.
    With `wanted`, only those names and, in turn, the names their
    assignments read get a verdict, so the set holds no other name."""
    assigned: dict[str, list[Expr]] = {}
    for blk in blocks:
        for a in blk.body:
            assigned.setdefault(a.name, []).append(a.expr)
    waiting: dict[str, list[list]] = {}  # name -> [target, names unknown] of assignments reading it
    todo: list[str] = []
    judged = set(assigned if wanted is None else wanted)
    stack = list(judged)
    while stack:
        name = stack.pop()
        for e in assigned.get(name, ()):
            names = reads(e)
            entry = [name, len(names)]
            for n in names:
                waiting.setdefault(n, []).append(entry)
                if n not in judged:
                    judged.add(n)
                    stack.append(n)
            if not names:
                todo.append(name)
    concrete: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in concrete:
            concrete.add(name)
            for entry in waiting.get(name, ()):
                entry[1] -= 1
                if entry[1] == 0:
                    todo.append(entry[0])
    return frozenset(concrete)


def _cycles(succ: Mapping[int, Sequence[int]]) -> list[list[int]]:
    """The strongly connected components that hold a cycle of the graph
    succ (node -> successors; a successor that is no node is dropped),
    each in index order, in order of their first nodes. Kosaraju's
    algorithm, in time linear in the nodes and edges."""
    succ = {i: [j for j in js if j in succ] for i, js in succ.items()}
    preds: dict[int, list[int]] = {i: [] for i in succ}
    for i, js in succ.items():
        for j in js:
            preds[j].append(i)
    order: list[int] = []  # a depth-first postorder; ~i on todo marks i's finish
    seen: set[int] = set()
    todo = list(succ)
    while todo:
        i = todo.pop()
        if i < 0:
            order.append(~i)
        elif i not in seen:
            seen.add(i)
            todo += [~i] + succ[i]
    # in reverse postorder, each node no component holds heads one
    parts: list[list[int]] = []
    taken: set[int] = set()
    for root in reversed(order):
        if root not in taken:
            taken.add(root)
            part, todo = [root], [root]
            while todo:
                for i in preds[todo.pop()]:
                    if i not in taken:
                        taken.add(i)
                        part.append(i)
                        todo.append(i)
            if len(part) > 1 or root in succ[root]:
                parts.append(sorted(part))
    return sorted(parts)


def find_loops(
    blocks: Sequence[BasicBlock], concrete: Set[str] | None = None
) -> tuple[list[list[int]], Set[str]]:
    """The program's loops, each in index order, in order of their first
    blocks, with the concrete names they were tested against: the strongly
    connected components of the generable blocks that hold a cycle, so
    that every block of a loop reaches every other through generable
    blocks. Only a block on a cycle of the whole control-flow graph can lie
    on one of them, so only those are tested for it, and `concrete`
    defaults to concrete_names of the names they read. Each
    block of a cycle lies between the ends of one of its backward edges
    (target <= source): the first edge on from the block that steps below
    it, or else the edge back into it. So the search for cycles skips
    every block outside the index range of every backward edge."""
    ends = [-1] * len(blocks)  # target -> the greatest source of its backward edges
    for i, blk in enumerate(blocks):
        for j in successors(blk.term):
            if j <= i and ends[j] < i:
                ends[j] = i
    spanned, end = {}, -1  # block -> successors, inside some backward edge's range
    for i, e in enumerate(ends):
        if e > end:
            end = e
        if i <= end:
            spanned[i] = successors(blocks[i].term)
    cyclic = [i for part in _cycles(spanned) for i in part]
    if concrete is None:
        concrete = concrete_names(blocks, set().union(*[_reads(blocks[i]) for i in cyclic]))
    return _cycles({i: spanned[i] for i in cyclic if _generable(blocks[i], concrete)}), concrete


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
        self.lines.append(line)

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
    members: Mapping[int, BasicBlock], concrete: Set[str]
) -> Callable[[Store, int, int, LoopMemo], tuple[int, int]] | None:
    """A function run(env, b, room, memo) that runs whole member blocks
    (index -> block) from block b on a store of plain ints, for as long as
    the next one's len(body) + 1 instructions fit in `room`. It returns the
    block where it stopped, the first outside the members or the one that
    did not fit, with the instructions it ran. A run that stopped outside
    the members is recorded in the caller's dict `memo` under (b, the ints
    it loaded) as (that block, the count, the values it wrote back), while
    memo holds fewer than LOOP_MEMO_SIZE entries, and a call with a
    recorded key whose count fits `room` returns the record, writing the
    values back as the run did. When the members form one simple
    cycle from the first, its head (each member has exactly one successor
    among them, and following those visits them all), run takes a whole
    iteration from the head at a time as straight-line code, with one
    budget test, while one fits, and then the blocks of a last part
    iteration one at a time. It loads each name the members read or assign
    once, and writes the assigned ones back on return: names new to env
    arrive in first-assignment order. It returns (b, 0), with env
    untouched, when block b is no member or does not fit, or when one of
    those names is unbound or not an int, except a name that every member
    assigns (in one order with the other such names) before reading it.
    None when a member gets no function: it exits, or it reads a name
    outside `concrete`, which therefore always holds an Expr. With one
    member and room len(body) + 1, run runs that block. Whatever run
    leaves, the evaluator runs, and it is the reference."""
    try:
        source = _loop_source(members, concrete)
        if source is None:
            return None
        code = compile(source, "<tdpart generated>", "exec")
    except RecursionError:  # too deep to generate; the evaluator runs it
        return None
    namespace = {"wrap": solve.wrap}
    exec(code, namespace)
    # popped, so the function and its globals form no cycle that only the
    # garbage collector could free once the engine is gone
    return namespace.pop("run")


def _cycle(members: Mapping[int, BasicBlock]) -> list[int] | None:
    """The members in cycle order from the first, when they form one
    simple cycle; else None."""
    head = b = next(iter(members))
    order: list[int] = []
    for _ in members:
        nxt = [t for t in successors(members[b].term) if t in members]
        if len(nxt) != 1 or b in order:
            return None
        order.append(b)
        b = nxt[0]
    return order if b == head else None


def _loop_source(members: Mapping[int, BasicBlock], concrete: Set[str]) -> str | None:
    """The source of generate_block's function, or None when it makes none."""
    cycle = _cycle(members)
    src = _LoopSource()
    parts, firsts, written = [], [], {}
    for idx in cycle or members:
        blk = members[idx]
        if not _generable(blk, concrete):
            return None
        src.exposed, src.written, start = set(), {}, len(src.lines)
        for a in blk.body:
            src.assign(a.name, a.expr)
        term = blk.term
        cond = src.truth(term.cond) if type(term) is Branch else None
        parts.append((idx, len(blk.body) + 1, src.lines[start:], term, cond))
        firsts.append([n for n in src.written if n not in src.exposed])
        written.update(src.written)
    # names every entry block binds before reading them may be unbound
    fresh = firsts[0] if all(f == firsts[0] for f in firsts) else []
    loads = [(name, v) for name, v in src.names.items() if name not in fresh]
    out = ["def run(env, b, room, memo):"]
    if loads:
        out.append("    try:")
        out += [f"        {v} = env[{name!r}]" for name, v in loads]
        out.append("    except KeyError:\n        return b, 0")
        types = " or ".join(f"type({v}) is not int" for _, v in loads)
        out.append(f"    if {types}:\n        return b, 0")
    # a run that left the loop, recorded under its entry block and loads:
    # the exit, the count and the written names' values
    record = ", ".join(["b", "n"] + [src.names[name] for name in written])
    store = [f"    env[{name!r}] = {src.names[name]}" for name in written]
    out.append(f"    key = ({', '.join(['b'] + [v for _, v in loads])},)")
    out.append("    hit = memo.get(key)")
    out.append(f"    if hit is not None and hit[1] <= room:\n        {record} = hit")
    out += [f"    {line}" for line in store]
    out.append("        return b, n")
    out.append("    left = room")
    if cycle:
        # the whole iterations from the head that fit: a branch leaves the
        # cycle (to a block no dispatch case takes) or falls through to the
        # next member
        size = sum(part[1] for part in parts)
        out.append(f"    if b == {cycle[0]}:\n        for it in range(room // {size}):")
        ran, body = 0, len(out)
        for _, n, lines, term, cond in parts:
            out += [f"            {line}" for line in lines]
            ran += n
            if cond is not None:
                stay = term.on_true in members
                out.append(f"            if {f'not {cond}' if stay else cond}:")
                out.append(f"                left = room - {size} * it - {ran}")
                out.append(f"                b = {term.on_false if stay else term.on_true}")
                out.append("                break")
        if len(out) == body:  # an empty block jumping to itself
            out.append("            pass")
        out.append(f"        else:\n            left = room % {size}")
    out.append("    while True:")
    for k, (idx, n, lines, term, cond) in enumerate(parts):
        out.append(f"        {'elif' if k else 'if'} b == {idx}:")
        out.append(f"            if left < {n}:\n                break")
        out.append(f"            left -= {n}")
        out += [f"            {line}" for line in lines]
        if cond is None:
            out.append(f"            b = {term.target}")
        else:
            out.append(f"            b = {term.on_true} if {cond} else {term.on_false}")
    out.append("        else:\n            break")
    out.append("    if left == room:\n        return b, 0")
    out.append("    n = room - left")
    # a run the room cut short stopped at a member, and is not recorded;
    # nor is any run once the memo is full
    out.append(f"    if b not in {set(members)} and len(memo) < {LOOP_MEMO_SIZE}:")
    out.append(f"        memo[key] = {record}")
    # new names are fresh ones, which every member assigns in one order
    out += store
    out.append("    return b, n")
    return "\n".join(out) + "\n"


class Engine:
    """Per-worker execution engine; the query cache, the loop memo, the
    suspended states and creation-order serial numbers live for the
    engine's lifetime, spanning all its regions, and `stats` is the running
    region's EngineStats. Its cache is on when cfg (none in seeding and
    calibration) does not turn it off; every engine, seeding's too, waits
    SOLVER_DELAY per uncached query."""

    def __init__(self, program: Program, cfg: RunConfig | None = None):
        self.program = program
        self.decls = program.inputs
        self.cache: QueryCache | None = (
            QueryCache() if cfg is None or cfg.cache_enabled else None
        )
        self._serial = itertools.count()
        self.stats = EngineStats()
        self.loop_memo: LoopMemo = {}
        # guided-phase siblings, each a region root a later test may resume
        self.suspended: list[ExecState] = []

    # -- states

    def initial_state(self) -> ExecState:
        """A region root at the entry; no region counts it as created."""
        return ExecState(
            block=0, instr=0, env={}, pc=PathCondition(), serial=next(self._serial)
        )

    # -- solver access (all SAT/model traffic funnels through here)

    def _query(self, pc: PathCondition) -> Test | None:
        """pc's lex-min model, or None when pc is unsat. A cache hit returns
        at once; a miss, and every solve with the cache off, then waits
        SOLVER_DELAY."""
        self.stats.solver_queries += 1
        cache = self.cache
        if cache is None:
            model = solve.solve_model(pc, self.decls)
        else:
            misses = cache.misses
            model = cache.query(pc, self.decls)
            if cache.misses == misses:
                self.stats.cache_hits += 1
                return model
        if SOLVER_DELAY > 0:
            time.sleep(SOLVER_DELAY)
        return model

    def model_of(self, pc: PathCondition) -> Test:
        """pc's lex-min model; SolveError when pc is unsat."""
        model = self._query(pc)
        if model is None:
            raise solve.SolveError("model requested for unsatisfiable path condition")
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
        Each assignment and each terminator is one instruction. A loop's
        function runs whole blocks within the budget left, cut under a
        deadline at the next multiple of 1024, so a block that would span a
        time check runs in the evaluator, which makes it.
        Returns 'term' | 'frontier' | 'trunc' | ('fork', symbolic_cond)."""
        blocks, runs = self.program.blocks, self.program._engine_runs
        memo = self.loop_memo
        env = state.env
        limit = MAX_STEPS
        count = stats.instructions
        b, i = state.block, state.instr
        try:
            while True:
                # generated tier: run loops while their blocks fit the
                # budget and span no deadline check
                while i == 0:
                    run = runs[b]
                    if run is None:
                        run = self._analyse(b)
                    if run is False:
                        break
                    room = limit - count
                    if deadline is not None:
                        room = min(room, -count % 1024)
                    b, n = run(env, b, room, memo)
                    if n == 0:
                        break
                    count += n
                blk = blocks[b]
                body = blk.body
                while True:
                    if count >= limit or (
                        deadline is not None
                        and count % 1024 == 0
                        and time.monotonic() >= deadline
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
                state.outcome = term
                return "term"
        finally:
            state.block, state.instr = b, i
            stats.instructions = count

    def _analyse(self, idx: int):
        """Find the program's loops at its first block entry, marking every
        block on no loop False, and a loop's function (False when it gets
        none) on its blocks at its first entry. Returns block idx's mark."""
        program = self.program
        blocks, runs = program.blocks, program._engine_runs
        with _analysis_lock:
            try:
                loops, concrete = program._engine_loops
            except AttributeError:  # no engine has entered the program
                found, concrete = find_loops(blocks)
                loops = {m: loop for loop in found for m in loop}
                program._engine_loops = loops, concrete
                for b in range(len(blocks)):
                    if b not in loops:
                        runs[b] = False
            if runs[idx] is None:  # on a loop no engine has entered
                loop = loops[idx]
                # the block entered first heads the loop's function
                members = {m: blocks[m] for m in (idx, *loop)}
                run = generate_block(members, concrete) or False
                for m in loop:
                    runs[m] = run
            return runs[idx]

    def step_branch(
        self,
        state: ExecState,
        cond: Expr,
        test: Test,
        test_depth: int,
    ) -> tuple[list[ExecState], ExecState | None]:
        """Fork at a symbolic branch. In the guided phase (depth < test_depth)
        the test picks the taken side and the sibling is suspended unsolved;
        below, both sides are solver-checked and only satisfiable children
        are created; a checked child's pc keeps its model, from which its
        own children's solves start. Children are created false-side first.
        Returns (active successors, suspended sibling or None)."""
        term = self.program.blocks[state.block].term
        assert isinstance(term, Branch)

        # one pc per side, shared by the query and the child, so each
        # constraint's text is rendered once
        pcs = {flag: state.pc.extend(cond, flag) for flag in (False, True)}

        def make(taken: bool) -> ExecState:
            self.stats.states_created += 1
            return ExecState(
                block=term.on_true if taken else term.on_false,
                instr=0,
                env=dict(state.env),
                pc=pcs[taken],
                serial=next(self._serial),
            )

        if state.depth < test_depth:
            taken = solve.solve_path(test, cond)
            first, second = make(False), make(True)
            return ([second], first) if taken else ([first], second)

        actives: list[ExecState] = []
        for flag in (False, True):
            if self._query(pcs[flag]) is not None:
                actives.append(make(flag))
        return actives, None

    def _select(self, active: deque[ExecState], strategy: Strategy, rng) -> ExecState:
        """Pop the next state: dfs the deepest, latest-created one, bfs the
        shallowest, earliest-created one. Under dfs and bfs, `active` is in
        (depth, serial) order: it starts as one root, a fork's children
        (depth + 1, fresh serials) are appended after dfs popped the
        greatest state or bfs the least one (bfs keeps every depth within
        one of the least), a guided step appends one such child, and an
        offload only removes a state. So the pick is the deque's last or first."""
        if strategy.kind == "dfs":
            return active.pop()
        if strategy.kind == "bfs":
            return active.popleft()
        if strategy.kind == "random":
            state = active[i := rng.randrange(len(active))]
            del active[i]
            return state
        raise ValueError(f"unknown strategy {strategy.kind}")

    # -- region execution

    def start_execution(
        self,
        test: Test,
        test_depth: int,
        final_depth: int,
        strategy: Strategy,
        *,
        poll=None,
        deadline: float | None = None,
    ) -> RegionResult:
        """Explore the region (test, test_depth). A guided region (test_depth
        > 0) starts at find_resumable(test), which it takes off `suspended`,
        and otherwise at the initial state; each sibling its guided phase
        makes joins `suspended`.

        `poll`, when given, is called as poll(active), `active` being the
        deque of active states, before each select step: a work-stealing
        worker hands off a state, and seeding cuts a bfs region at a
        layer. The soft `deadline` (a time.monotonic() value) is checked
        after each poll and in _advance; a region it or the instruction
        budget cuts short is truncated."""
        t0 = time.perf_counter()
        stats = self.stats = EngineStats()
        root = self.find_resumable(test) if test_depth > 0 else None
        if root is None:
            root = self.initial_state()
        else:
            self.suspended.remove(root)
        rng = random.Random(strategy.seed) if strategy.kind == "random" else None

        active = deque([root])
        completed: list[CompletedPath] = []
        frontier: list[ExecState] = []
        while active:
            if poll is not None:
                poll(active)
                if not active:
                    break
            if deadline is not None and time.monotonic() >= deadline:
                stats.truncated = True
                break
            state = self._select(active, strategy, rng)
            r = self._advance(state, final_depth, stats, deadline)
            if r == "trunc":
                stats.truncated = True
                break
            if r == "term":
                witness = self.model_of(state.pc)
                completed.append(
                    CompletedPath(state.path, state.outcome, witness, tuple(state.pc.texts()))
                )
                stats.paths.append(state.path)
            elif r == "frontier":
                frontier.append(state)
                stats.frontier += 1
            else:
                _, cond = r
                actives, susp = self.step_branch(state, cond, test, test_depth)
                active.extend(actives)
                if susp is not None:
                    self.suspended.append(susp)
                    stats.states_suspended += 1

        stats.wall_us = int((time.perf_counter() - t0) * 1e6)
        return RegionResult(completed, frontier, stats)

    # -- resume matching

    def find_resumable(self, test: Test) -> ExecState | None:
        """The suspended state to start a guided region of `test` from
        instead of replaying from the root, or None. The states the test
        satisfies form a chain along its replay path, so the deepest one
        minimizes re-replay. A run's pairs partition the tree, so a
        suspended state a later test satisfies lies on that test's guided
        path; nothing checks it."""
        candidates = [s for s in self.suspended if s.pc.satisfied_by(test)]
        if not candidates:
            return None
        return max(candidates, key=lambda s: (s.depth, -s.serial))
