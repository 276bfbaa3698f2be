"""The generated tier (one Python function per loop) against the
evaluator (evaluate), which stays the reference."""

import collections
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from tdpart import engine, solve
from tdpart.engine import Engine, Strategy, evaluate, find_loops, generate_block
from tdpart.harness import RunConfig, gen_corpus, path_digest, program_digest, run_program
from tdpart.lang import (
    ARITH_OPS, CMP_OPS, LOGIC_OPS, Assign, BasicBlock, Binary, Branch, Const, Error, Exit,
    Jump, Program, Unary, Var, expr_text, parse_program, reads,
)
from tdpart.solve import PathCondition

_LO, _HI = -(2**63), 2**63 - 1
_EDGE = (_LO, _LO + 1, _HI, _HI - 1, -1, 0, 1, 2, 3, 2**32, -(2**31))
# names that are also the generated code's own identifiers
_NAMES = ("env", "wrap", "v0", "a0", "t0", "k")
_OPS = ARITH_OPS + CMP_OPS + LOGIC_OPS


def _generating(monkeypatch, generated):
    """Give loops their functions, or (generated False) no block a
    function, so every block runs in the evaluator, the reference."""
    if not generated:
        monkeypatch.setattr(engine, "generate_block", lambda members, assigned: None)


def _marks(prog):
    """What each block of prog holds: None until an engine enters the
    program, or on a loop until one enters the loop; then True for a
    loop's function, else False."""
    return [run if run is None or run is False else True for run in prog._engine_runs]


def _evaluator_run(blk, env):
    """Run blk through the evaluator; the successor block's index."""
    for a in blk.body:
        env[a.name] = evaluate(a.expr, env)
    if type(blk.term) is Jump:
        return blk.term.target
    cond = evaluate(blk.term.cond, env)
    assert type(cond) is int
    return blk.term.on_true if cond else blk.term.on_false


def _random_expr(rng, depth, names=_NAMES):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return Const(rng.choice(_EDGE) if rng.random() < 0.7 else rng.randint(-9, 9))
        return Var(rng.choice(names))
    if rng.random() < 0.2:
        return Unary(rng.choice(("neg", "not")), _random_expr(rng, depth - 1, names))
    return Binary(
        rng.choice(_OPS), _random_expr(rng, depth - 1, names), _random_expr(rng, depth - 1, names)
    )


def _random_block(rng):
    body = tuple(
        Assign(rng.choice(_NAMES), _random_expr(rng, rng.randint(0, 4)))
        for _ in range(rng.randint(0, 5))
    )
    if rng.random() < 0.25:
        return BasicBlock(body, Jump(rng.randint(0, 9)))
    return BasicBlock(body, Branch(_random_expr(rng, rng.randint(0, 4)), 1, 2))


def test_generated_blocks_match_the_evaluator_seeded():
    rng = random.Random(8)
    assigned = frozenset(_NAMES)
    seen_ops, new_names = set(), 0
    for _ in range(3000):
        blk = _random_block(rng)
        run = generate_block({0: blk}, assigned)
        assert run is not None
        # bind every name read before the block assigns it, and some others,
        # so the order in which new names are written back shows
        needed, bound = set(), set()
        for a in blk.body:
            needed |= reads(a.expr) - bound
            bound.add(a.name)
        if type(blk.term) is Branch:
            needed |= reads(blk.term.cond) - bound
        store = {n: rng.choice(_EDGE) if rng.random() < 0.7 else rng.randint(-5, 5)
                 for n in _NAMES if n in needed or rng.random() < 0.5}
        want_env = dict(store)
        want = _evaluator_run(blk, want_env)
        got_env = dict(store)
        steps = len(blk.body) + 1
        assert run(got_env, 0, steps) == (want, steps), blk
        assert list(got_env.items()) == list(want_env.items()), blk
        assert all(type(v) is int and _LO <= v <= _HI for v in got_env.values())
        new_names += len(got_env) > len(store)
        for a in blk.body:
            stack = [a.expr]
            while stack:
                e = stack.pop()
                if type(e) in (Binary, Unary):
                    seen_ops.add(e.op)
                    stack += [e.left, e.right] if type(e) is Binary else [e.operand]
    assert seen_ops == set(_OPS) | {"neg", "not"}
    assert new_names > 500


def test_generated_blocks_wrap_at_the_int64_edges():
    def run(expr, **store):
        blk = BasicBlock((Assign("r", expr),), Jump(0))
        env = dict(store)
        assert generate_block({0: blk}, frozenset(store) | {"r"})(env, 0, 2) == (0, 2)
        return env["r"]

    m, n = Var("m"), Var("n")
    assert run(Binary("+", m, Const(1)), m=_HI) == _LO
    assert run(Binary("-", n, Const(1)), n=_LO) == _HI
    assert run(Unary("neg", n), n=_LO) == _LO
    assert run(Binary("*", m, Const(2)), m=_HI) == -2
    # wrapped before a comparison reads it
    assert run(Binary("<", Binary("+", m, Const(1)), Const(0)), m=_HI) == 1
    assert run(Binary("==", Binary("*", m, m), Const(1)), m=_HI) == 1
    assert run(Unary("not", Binary("*", m, Const(2**32))), m=2**32) == 1


def test_a_block_reading_a_non_int_bails_with_env_untouched():
    blk = BasicBlock(
        (Assign("a", Binary("+", Var("a"), Const(1))), Assign("b", Var("a"))),
        Branch(Binary("<", Var("b"), Var("c")), 1, 2),
    )
    run = generate_block({0: blk}, frozenset("abc"))
    symbolic = Binary("+", Var("x"), Const(1))
    for store in ({"a": 1}, {"a": 1, "c": symbolic}, {"a": symbolic, "c": 3}, {}):
        env = dict(store)
        assert run(env, 0, 3) == (0, 0)
        assert env == store and all(env[k] is store[k] for k in store)
    env = {"a": 1, "c": 3}
    assert run(env, 0, 3) == (1, 3) and env == {"a": 2, "c": 3, "b": 2}


def test_blocks_that_get_no_function():
    assigned = frozenset("a")
    read_input = Binary("<", Var("a"), Var("x"))
    assert generate_block({0: BasicBlock((), Exit(0))}, assigned) is None
    assert generate_block({0: BasicBlock((Assign("a", Const(1)),), Error("e"))}, assigned) is None
    assert generate_block({0: BasicBlock((), Branch(read_input, 1, 2))}, assigned) is None
    assert generate_block({0: BasicBlock((Assign("a", Var("x")),), Jump(1))}, assigned) is None
    # an input the program assigns is read like any other name
    assert generate_block({0: BasicBlock((), Branch(read_input, 1, 2))}, assigned | {"x"})


def test_program_names_that_are_python_identifiers_of_the_generated_code(monkeypatch):
    src = (
        "program p;\nsym x in [0, 3];\n"
        "env = 0; wrap = 5; v0 = 0; a0 = 0; t0 = 9223372036854775807;\n"
        "while (env < 100) { env = env + 1; v0 = v0 + wrap; t0 = t0 + 1; a0 = t0 < 0; }\n"
        "if (x < v0) { exit(1); } else { exit(2); }\n"
    )
    for generated in (True, False):
        with monkeypatch.context() as m:
            _generating(m, generated)
            prog = parse_program(src)  # a program keeps its functions
            eng = Engine(prog)
            res = eng.start_execution(eng.initial_state(), {}, 0, 0, Strategy("dfs"))
        (state,) = res.frontier
        assert state.env == {"env": 100, "wrap": 5, "v0": 500, "a0": 1, "t0": _LO + 99}
        assert (True in _marks(prog)) == generated


# names that are also the loop function's own identifiers
_LOOP_NAMES = ("b", "room", "left", "env", "v0", "k")


def _random_loop(rng):
    """A cycle through blocks 0..m-1 (m in 1-4, so m = 1 is a self-loop);
    a branch may leave it, from any block, or jump within it."""
    m = rng.randint(1, 4)
    blocks = {}
    for i in range(m):
        body = tuple(
            Assign(rng.choice(_LOOP_NAMES), _random_expr(rng, rng.randint(0, 3), _LOOP_NAMES))
            for _ in range(rng.randint(0, 4))
        )
        nxt = (i + 1) % m
        if rng.random() < 0.3:
            term = Jump(nxt)
        else:
            cond = _random_expr(rng, rng.randint(0, 3), _LOOP_NAMES)
            other = rng.randint(7, 9) if rng.random() < 0.6 else rng.randrange(m)
            term = Branch(cond, nxt, other) if rng.random() < 0.5 else Branch(cond, other, nxt)
        blocks[i] = BasicBlock(body, term)
    return blocks


def _evaluator_loop(blocks, env, b, room):
    """Run member blocks through the evaluator while the next one fits."""
    n = 0
    while b in blocks and len(blocks[b].body) + 1 <= room - n:
        n += len(blocks[b].body) + 1
        b = _evaluator_run(blocks[b], env)
    return b, n


def test_generated_loops_match_the_evaluator_seeded():
    rng = random.Random(12)
    assigned = frozenset(_LOOP_NAMES)
    symbolic = Binary("*", Var("x"), Const(3))
    ran = bails = multi = new_names = stopped = 0
    for _ in range(1500):
        blocks = _random_loop(rng)
        run = generate_block(blocks, assigned)
        used = set()
        for blk in blocks.values():
            used |= {a.name for a in blk.body}.union(*(reads(a.expr) for a in blk.body))
            used |= reads(blk.term.cond) if type(blk.term) is Branch else set()
        for _ in range(4):
            store, spoil = {}, rng.choice((0, 0.1, 0.3))
            for name in rng.sample(_LOOP_NAMES, len(_LOOP_NAMES)):
                r = rng.random()
                if r >= spoil:
                    store[name] = rng.choice(_EDGE) if rng.random() < 0.5 else rng.randint(-5, 5)
                elif r < spoil / 2:
                    store[name] = symbolic
            b = rng.randrange(len(blocks))
            room = rng.choice((0, rng.randint(0, 12), rng.randint(0, 300)))
            got_env = dict(store)
            got = run(got_env, b, room)
            if got[1] == 0:
                bails += 1
                assert got == (b, 0)
                assert list(got_env.items()) == list(store.items())
                assert all(got_env[k] is store[k] for k in store)
                # only an unbound or non-int name, or no room, makes it bail
                assert (
                    room < len(blocks[b].body) + 1
                    or any(type(store.get(n)) is not int for n in used)
                )
                continue
            want_env = dict(store)
            assert got == _evaluator_loop(blocks, want_env, b, room), blocks
            assert list(got_env.items()) == list(want_env.items()), blocks
            assert all(type(v) is int and _LO <= v <= _HI for k, v in got_env.items()
                       if k in used)
            ran += 1
            multi += got[1] > len(blocks[b].body) + 1
            new_names += len(got_env) > len(store)
            stopped += got[0] in blocks
    assert min(ran, bails) > 1500 and multi > 1000 and new_names > 20 and stopped > 1000


# -- whole iterations: a loop whose blocks form one simple cycle


def _cycle_program(rng, m, exit_at, flip):
    """Block 0 binds i, s and t and jumps to block 1, which heads a cycle
    through blocks 1..m; member exit_at leaves it for block m + 1 (an exit)
    once i reaches 5, on the false side of its branch or (flip) the true
    side. Member 1 counts i up; every member may assign s and t."""
    names = ("i", "s", "t")
    blocks = [BasicBlock((Assign("i", Const(0)), Assign("s", Const(3)), Assign("t", Const(-2))),
                         Jump(1))]
    for j in range(1, m + 1):
        body = [Assign("i", Binary("+", Var("i"), Const(1)))] if j == 1 else []
        body += [Assign(rng.choice("st"), _random_expr(rng, rng.randint(0, 3), names))
                 for _ in range(rng.randint(0, 3))]
        nxt = j % m + 1
        if j == exit_at:
            stay = Binary("<", Var("i"), Const(5))
            term = (Branch(Unary("not", stay), m + 1, nxt) if flip
                    else Branch(stay, nxt, m + 1))
        else:
            term = Jump(nxt)
        blocks.append(BasicBlock(tuple(body), term))
    blocks.append(BasicBlock((), Exit(0)))
    return blocks


def _cycle_cases():
    rng = random.Random(25)
    for m in range(1, 5):
        for exit_at in sorted({1, m // 2 + 1, m}):  # at the head, mid-cycle, last
            for flip in (False, True):
                for _ in range(3):
                    yield m, exit_at, _cycle_program(rng, m, exit_at, flip)


def test_a_simple_cycle_runs_whole_iterations_like_the_evaluator_from_every_member():
    fused = 0
    for m, exit_at, blocks in _cycle_cases():
        members = {j: blocks[j] for j in range(1, m + 1)}
        assert engine._cycle(members) == list(members)
        run = generate_block(members, frozenset("ist"))
        size = sum(len(blk.body) + 1 for blk in members.values())
        for b in members:
            for room in range(3 * size + 2):
                for i in (0, 3, 4, 5):  # i = 0 leaves after five iterations, the rest sooner
                    store = {"i": i, "s": 7, "t": _HI}
                    got_env, want_env = dict(store), dict(store)
                    got = run(got_env, b, room)
                    assert got == _evaluator_loop(members, want_env, b, room), (blocks, b, room)
                    assert list(got_env.items()) == list(want_env.items()), (blocks, b, room)
                    fused += b == 1 and room >= size
    assert fused > 1000


def _cuts(monkeypatch, blocks, generated, m, size):
    """From each member of the cycle, with every room up to three
    iterations before a passed deadline's check at the next multiple of
    1024 and then before the instruction budget: what _advance returned and
    left the state and the count at, on a program whose loop block 0
    entered first."""
    out = []
    with monkeypatch.context() as mp:
        _generating(mp, generated)
        prog = Program("p", (), tuple(blocks))
        eng = Engine(prog)
        assert eng._advance(eng.initial_state(), 3, engine.EngineStats()) == "term"
        for entry in range(1, m + 1):
            for room in range(3 * size + 2):
                for start, deadline, limit in (
                    (2048 - room, time.monotonic() - 1, engine.MAX_STEPS),
                    (5000, None, 5000 + room),
                ):
                    mp.setattr(engine, "MAX_STEPS", limit)
                    state = eng.initial_state()
                    state.block, state.env = entry, {"i": 1, "s": 7, "t": _HI}
                    stats = engine.EngineStats(instructions=start)
                    r = eng._advance(state, 3, stats, deadline)
                    out.append((entry, room, r, state.block, state.instr, stats.instructions,
                                list(state.env.items())))
    assert (True in _marks(prog)) == generated
    return out


def test_a_simple_cycle_truncates_like_the_evaluator_from_every_member(monkeypatch):
    cut = 0
    for m, exit_at, blocks in _cycle_cases():
        size = sum(len(blk.body) + 1 for blk in blocks[1:m + 1])
        want = _cuts(monkeypatch, blocks, False, m, size)
        assert _cuts(monkeypatch, blocks, True, m, size) == want, blocks
        cut += sum(w[2] == "trunc" for w in want)
    assert cut > 1000


def test_a_loop_body_holding_a_branch_keeps_the_dispatch(monkeypatch):
    prog = parse_program(
        "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
        "while (k < 50) { k = k + 1; if (k < 20) { s = s + k; } else { s = s - 1; } }\n"
        "j = 0;\nwhile (j < 9) { j = j + 1; s = s + j; }\n"
        "if (x < s) { exit(1); }\nexit(2);\n"
    )
    (branching, simple), _ = find_loops(prog.blocks, frozenset("kjs"))
    assert len(branching) == 5 and len(simple) == 2
    assert engine._cycle({b: prog.blocks[b] for b in branching}) is None
    assert engine._cycle({b: prog.blocks[b] for b in simple}) == simple
    heads = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block",
                        lambda members, c: heads.append(next(iter(members))) or real(members, c))
    got, made = _explore(monkeypatch, prog, True, 3, "dfs")
    # each loop's function is headed by the block entered first, its header
    assert heads == [branching[0], simple[0]]
    want, none = _explore(monkeypatch, prog, False, 3, "dfs")
    assert got == want and made == 7 and none == 0


# -- names that can hold an int


def _reference_concrete(blocks):
    """The names an assignment can bind to an int, by rounds: each round
    adds the names assigned from names already in."""
    concrete = set()
    while True:
        new = {a.name for blk in blocks for a in blk.body if reads(a.expr) <= concrete}
        if new <= concrete:
            return concrete
        concrete |= new


def test_concrete_names_match_a_fixpoint_by_rounds_seeded():
    rng = random.Random(19)
    names = "abcdex"
    sizes = []
    for _ in range(2000):
        blocks = [
            BasicBlock(tuple(
                Assign(rng.choice(names), _random_expr(rng, rng.randint(0, 2), names))
                for _ in range(rng.randint(0, 3))
            ), Exit(0))
            for _ in range(rng.randint(1, 4))
        ]
        got = engine.concrete_names(blocks)
        assert got == _reference_concrete(blocks), blocks
        sizes.append(len(got))
    assert min(sizes) == 0 and max(sizes) >= 5 and len(set(sizes)) >= 5


def test_a_loop_reading_an_always_symbolic_name_gets_no_function(monkeypatch, tmp_path):
    calls = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: calls.append(a) or real(*a))
    paths = [Path("perfbench/programs/loops.tdp")] + gen_corpus(7, 20, tmp_path)
    loops = 0
    for path in paths:
        prog = parse_program(path.read_text())
        assert not engine.concrete_names(prog.blocks) & {d.name for d in prog.inputs}
        run_program(prog, RunConfig(final_depth=6))
        # its loops, were every assigned name concrete: none is a loop here
        loops += len(find_loops(prog.blocks, {a.name for b in prog.blocks for a in b.body})[0])
        assert _marks(prog) == [False] * len(prog.blocks), path
    assert calls == [] and loops > 10
    # a name always computed from an input, and a concrete loop inside a
    # loop on an input, which gets its own function
    prog = parse_program(
        "program p;\nsym x in [0, 30];\nt = x + 1; k = 0;\n"
        "while (k < t) { k = k + 1; }\n"
        "while (x < 20) { j = 0; while (j < 9) { j = j + 1; } x = x + 3; }\nexit(0);\n"
    )
    assert engine.concrete_names(prog.blocks) == {"k", "j"}
    got, made = _explore(monkeypatch, prog, True, 6, "dfs")
    want, none = _explore(monkeypatch, prog, False, 6, "dfs")
    assert got == want and made == 2 and none == 0


def test_find_loops_tests_only_the_blocks_on_a_cycle(monkeypatch):
    tested = []
    real = engine._generable
    monkeypatch.setattr(engine, "_generable", lambda blk, c: tested.append(blk) or real(blk, c))
    prog = parse_program(
        "program p;\nsym x in [0, 9];\na = 0;\n"
        + "if (a > 0) { a = a + 1; }\n" * 300
        + "k = 0;\nwhile (k < 10) { k = k + 1; }\nif (x < k) { exit(1); }\nexit(0);\n"
    )
    assert len(prog.blocks) > 900
    (loop,), _ = find_loops(prog.blocks, frozenset("ak"))
    assert [prog.blocks[b] for b in loop] == tested
    assert [tuple(loop)] == _reference_loops(prog.blocks, frozenset("ak"))
    # the search for cycles sees only the loop's blocks, which lie between
    # the ends of its backward edge, and only the names they read, with
    # what those names' assignments read, get a verdict
    searched, judged = [], []
    cycles, names = engine._cycles, engine.concrete_names
    monkeypatch.setattr(engine, "_cycles", lambda succ: searched.append(set(succ)) or cycles(succ))
    monkeypatch.setattr(engine, "concrete_names",
                        lambda blocks, wanted: judged.append(wanted) or names(blocks, wanted))
    assert find_loops(prog.blocks) == ([loop], {"k"})
    assert searched[0] <= set(range(loop[0], loop[-1] + 1)) and judged == [{"k"}]


def test_concrete_names_judges_the_wanted_names_as_the_whole_fixpoint_does_seeded():
    rng = random.Random(23)
    names = "abcdex"
    for _ in range(2000):
        blocks = [
            BasicBlock(tuple(
                Assign(rng.choice(names), _random_expr(rng, rng.randint(0, 2), names))
                for _ in range(rng.randint(0, 3))
            ), Exit(0))
            for _ in range(rng.randint(1, 4))
        ]
        wanted = set(rng.sample(names, rng.randint(0, 3)))
        whole = _reference_concrete(blocks)
        got = engine.concrete_names(blocks, wanted)
        assert got & wanted == whole & wanted and got <= whole, (blocks, wanted)


def test_find_loops_judges_names_as_the_whole_program_does_seeded():
    # random programs whose names are assigned from one another and from an
    # input (x): the loops found judging only what the cyclic blocks read
    # are those found with every name judged
    rng = random.Random(29)
    found = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        blocks = []
        for _ in range(n):
            body = tuple(Assign(rng.choice("abc"), _random_expr(rng, 1, "abcx"))
                         for _ in range(rng.choice((0, 1, 2))))
            r = rng.random()
            term = (Exit(0) if r < 0.1 else Jump(rng.randrange(n)) if r < 0.4
                    else Branch(Var(rng.choice("abcx")), rng.randrange(n), rng.randrange(n)))
            blocks.append(BasicBlock(body, term))
        loops, concrete = find_loops(blocks)
        assert loops == find_loops(blocks, engine.concrete_names(blocks))[0], blocks
        assert concrete <= engine.concrete_names(blocks), blocks
        found += len(loops)
    assert found > 500


def test_find_loops_takes_the_whole_nest_and_only_generable_blocks():
    nest = parse_program(
        "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
        "while (k < 9) { j = 0; while (j < k) { j = j + 1; s = s + j; } k = k + 1; }\n"
        "if (x < s) { exit(1); }\nexit(2);\n"
    )
    (loop,), _ = find_loops(nest.blocks, frozenset("jks"))
    assert len(loop) >= 4  # both headers and both bodies
    # a loop that branches on an input has no generable cycle
    on_input = parse_program(
        "program p;\nsym x in [0, 3];\nk = 0;\n"
        "while (k < 9) { k = k + 1; if (x < k) { k = k + 2; } }\nexit(2);\n"
    )
    assert find_loops(on_input.blocks, {"k"})[0] == []


def _reference_loops(blocks, assigned):
    """The loops by brute force: block i's loop is the generable blocks it
    reaches through generable blocks and that reach it back, when it
    reaches itself."""
    gen = {i for i, blk in enumerate(blocks) if engine._generable(blk, assigned)}

    def reach(i):
        seen, todo = set(), [i]
        while todo:
            term = blocks[todo.pop()].term
            for j in (term.target,) if type(term) is Jump else (term.on_true, term.on_false):
                if j in gen and j not in seen:
                    seen.add(j)
                    todo.append(j)
        return seen

    reached = {i: reach(i) for i in gen}
    return sorted({tuple(sorted(j for j in reached[i] if i in reached[j]))
                   for i in gen if i in reached[i]})


def test_find_loops_finds_the_blocks_that_reach_one_another_seeded():
    rng = random.Random(31)
    assigned = frozenset("ab")
    found = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        blocks = []
        for _ in range(n):
            name = rng.choice("abx")  # x is never assigned
            body = (Assign("a", Var(name)),) if rng.random() < 0.3 else ()
            r = rng.random()
            if r < 0.1:
                term = Exit(0)
            elif r < 0.4:
                term = Jump(rng.randrange(n))
            else:
                term = Branch(Var(rng.choice("aab")), rng.randrange(n), rng.randrange(n))
            blocks.append(BasicBlock(body, term))
        loops, _ = find_loops(blocks, assigned)
        assert sorted(tuple(loop) for loop in loops) == _reference_loops(blocks, assigned), blocks
        found += len(loops)
    assert found > 1000


# -- whole explorations, every block generated at once against none


def _programs(tmp_dir):
    paths = [Path("programs/find_middle.tdp")]
    paths += gen_corpus(7, 60, tmp_dir)
    paths += sorted(Path("perfbench/programs").glob("*.tdp"))
    return [(p.stem, parse_program(p.read_text())) for p in paths]


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    return _programs(tmp_path_factory.mktemp("corpus"))


def _explore(monkeypatch, prog, generated, depth, strategy):
    """One region of an equal but fresh copy of prog, with loops generated
    or not (a program keeps the functions any engine made for it), and the
    number of blocks that copy has a function for afterwards."""
    prog = Program(prog.name, prog.inputs, prog.blocks)
    with monkeypatch.context() as m:
        _generating(m, generated)
        eng = Engine(prog)
        res = eng.start_execution(eng.initial_state(), {}, 0, depth, Strategy(strategy))
    st = res.stats
    return (
        [(c.path, str(c.outcome), sorted(c.test.items()), c.constraints) for c in res.completed],
        [(s.path, s.block, s.instr, list(s.env.items())) for s in res.frontier],
        st.instructions, st.solver_queries, st.cache_hits, st.truncated,
    ), _marks(prog).count(True)


@pytest.mark.parametrize("strategy", ["dfs", "bfs"])
@pytest.mark.parametrize("depth", [2, 6, 12])
def test_generated_tier_explores_exactly_like_the_evaluator(
    programs, monkeypatch, depth, strategy
):
    generated = 0
    for name, prog in programs:
        want, none = _explore(monkeypatch, prog, False, depth, strategy)
        got, made = _explore(monkeypatch, prog, True, depth, strategy)
        assert got == want and none == 0, name
        generated += made
    assert generated > 0


@pytest.mark.parametrize("max_steps", [1, 7, 50, 137, 1000, 5000])
def test_generated_tier_truncates_exactly_like_the_evaluator(
    programs, monkeypatch, max_steps
):
    monkeypatch.setattr(engine, "MAX_STEPS", max_steps)
    truncated = generated = 0
    for name, prog in programs:
        want, none = _explore(monkeypatch, prog, False, 6, "dfs")
        got, made = _explore(monkeypatch, prog, True, 6, "dfs")
        assert got == want and none == 0, name
        truncated += want[-1]
        generated += made
    assert truncated > 0
    assert (generated > 0) == (max_steps > 1)  # one instruction reaches no loop


def test_a_loop_is_generated_on_its_first_entry_once_per_program(monkeypatch):
    calls = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: calls.append(a) or real(*a))

    def loop(n):  # the loop runs n times
        return parse_program(
            f"program p;\nsym x in [0, 3];\nk = 0;\n"
            f"while (k < {n}) {{ k = k + 1; }}\nif (x < k) {{ exit(1); }}\nexit(2);\n"
        )

    # the header's first entry generates its loop with the body, however
    # often the loop then runs: at n = 0 the body never runs
    for n in (0, 1, 200):
        prog = loop(n)
        # a second engine on the program takes its function; an equal
        # program parsed again is another object, analysed again
        for p, want in ((prog, 1), (prog, 0), (loop(n), 1)):
            calls.clear()
            eng = Engine(p)
            eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"))
            assert len(calls) == want, n
            assert _marks(p).count(True) == 2, n  # the header and the body
    # the same engine's next region reuses its program's functions
    calls.clear()
    eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("bfs"))
    assert calls == []


def _run_region(prog):
    eng = Engine(prog)
    eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"))
    return eng


_CONCRETE_LOOP = (
    "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
    "while (k < 200) { k = k + 1; s = s + k; }\nif (x < s) { exit(1); }\nexit(2);\n"
)


def test_a_second_engine_runs_the_programs_function_from_the_loops_first_entry(
    monkeypatch,
):
    built, compiled, generated, evaluated = [], [], [], []
    source = engine._loop_source
    monkeypatch.setattr(engine, "_loop_source", lambda *a: built.append(a) or source(*a))
    monkeypatch.setattr(engine, "compile", lambda *a: compiled.append(a) or compile(*a),
                        raising=False)
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: generated.append(a) or real(*a))
    prog = parse_program(_CONCRETE_LOOP)
    _run_region(prog)  # the first engine generates the loop on its first entry
    assert len(built) == len(compiled) == len(generated) == 1
    runs = list(prog._engine_runs)
    assert _marks(prog).count(True) == 2
    for calls in (built, compiled, generated):
        calls.clear()
    monkeypatch.setattr(engine, "evaluate", lambda e, env: evaluated.append(e) or evaluate(e, env))
    second = _run_region(prog)
    assert generated == built == compiled == []
    # the same function, from the loop's first entry: of the 800-odd
    # instructions, the evaluator runs only the two assignments before the
    # loop and the branch after it
    assert all(r is s for r, s in zip(prog._engine_runs, runs))
    assert len(evaluated) == 3 and second.stats.solver_queries > 0


def test_a_program_that_ran_keeps_its_value():
    ran, fresh = parse_program(_CONCRETE_LOOP), parse_program(_CONCRETE_LOOP)
    before = repr(ran)
    run_program(ran, RunConfig(mode="single", final_depth=3))
    assert any(ran._engine_runs) and program_digest(ran) == program_digest(fresh)
    assert ran == fresh and hash(ran) == hash(fresh) and repr(ran) == before == repr(fresh)


@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
def test_every_mode_shares_the_programs_functions(monkeypatch, mode):
    calls = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: calls.append(a) or real(*a))
    text = Path("perfbench/programs/interp.tdp").read_text()
    want = path_digest(run_program(parse_program(text), RunConfig(final_depth=12)).paths)
    prog = parse_program(text)
    cfg = RunConfig(mode=mode, workers=1 if mode == "single" else 2, final_depth=12)
    for ran_before in (False, True):
        calls.clear()
        out = run_program(prog, cfg)
        assert path_digest(out.paths) == want and len(out.paths) == 64
        assert any(prog._engine_runs)
        # a second run on the object takes every function it needs
        assert (calls == []) == ran_before


def test_worker_threads_generating_at_once_leave_every_loop_a_function():
    # the program and each loop are analysed at their first entry, by
    # whichever of four threads (on fewer cores) gets there first,
    # switching as often as it can
    text = Path("perfbench/programs/interp.tdp").read_text()
    single = parse_program(text)
    want = path_digest(run_program(single, RunConfig(final_depth=12)).paths)
    marks = _marks(single)
    assert True in marks and False in marks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            prog = parse_program(text)
            out = run_program(prog, RunConfig(mode="threads", workers=4, final_depth=12))
            assert path_digest(out.paths) == want
            assert _marks(prog) == marks
    finally:
        sys.setswitchinterval(interval)


def test_threads_entering_a_program_or_a_loop_at_once_analyse_it_once(monkeypatch):
    calls = []

    def slowed(name):
        real = getattr(engine, name)

        def slow(*args):
            calls.append(name)
            time.sleep(0.01)  # the other thread enters the block meanwhile
            return real(*args)

        monkeypatch.setattr(engine, name, slow)

    def both(target):
        threads = [threading.Thread(target=target) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    slowed("find_loops")
    slowed("generate_block")
    prog = parse_program(_CONCRETE_LOOP)
    both(lambda: Engine(prog)._analyse(0))  # the program's first block entry
    assert calls == ["find_loops"] and _marks(prog).count(None) == 2
    both(lambda: _run_region(prog))  # the loop's first entry
    assert calls == ["find_loops", "generate_block"] and _marks(prog).count(True) == 2


def test_the_code_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(solve, "HOT", 1)
    bound = solve.CODE_BOUND
    box = {"x": (-9, 9), "y": (-9, 9)}
    for c in range(bound + 20):
        e = Binary("<", Binary("*", Var("x"), Var("x")), Const(c))
        assert solve._generated_revise(e, c % 2 == 0, True) is not None
        assert len(solve._codes) <= bound
        if c % 8 == 0:  # and a component search of it and a product
            pc = PathCondition().extend(e, True).extend(
                Binary("==", Binary("*", Var("x"), Var("y")), Const(c)), False)
            for con in pc.constraints:  # each revise generated at its first
                try:
                    solve._revise(con.expr, con.taken, solve._Box(dict(box)))
                except solve._Unsat:
                    pass
            # the first miss marks the key, and the second compiles it
            assert solve._generated_search(list(pc.constraints), ["x", "y"]) is None
            assert len(solve._codes) <= bound
            assert solve._generated_search(list(pc.constraints), ["x", "y"]) is not None
            assert len(solve._codes) <= bound
    # the last `bound` keys: a revise's (text, polarity) and a component
    # search's (sorted texts, input order)
    assert len(solve._codes) == bound
    assert list(solve._codes)[-1] == (expr_text(e), c % 2 == 0)
    kinds = collections.Counter(type(key[1]).__name__ for key in solve._codes)
    assert kinds["tuple"] > 100 and kinds["bool"] > 800, kinds
    assert ("\n".join(sorted(pc.texts())), ("x", "y")) in solve._codes


def _component_compiles(monkeypatch):
    """Empty the code cache; return a function that lists the sources of
    the component searches compiled since (each starts `def narrow(`)."""
    compiled = []
    monkeypatch.setattr(solve, "_codes", {})
    monkeypatch.setattr(solve, "compile",
                        lambda text, *a: compiled.append(text) or compile(text, *a), raising=False)
    return lambda: [text for text in compiled if text.startswith("def narrow(")]


def test_a_corpus_round_and_loops_compile_no_component_search(monkeypatch, tmp_path):
    # nor any generated revise: their comparisons are affine, or revised
    # too few times, so solve compiles no code at all for them (and marks
    # no deferred key)
    monkeypatch.setattr(solve, "_codes", {})
    paths = gen_corpus(501, 120, tmp_path) + [Path("programs/find_middle.tdp")]
    for path in paths:
        prog = parse_program(path.read_text())
        for depth in (6, 12):
            run_program(prog, RunConfig(mode="threads", workers=2, final_depth=depth))
    run_program(parse_program(Path("perfbench/programs/loops.tdp").read_text()),
                RunConfig(final_depth=15))
    run_program(parse_program(Path("perfbench/programs/interp.tdp").read_text()),
                RunConfig(mode="tcp", workers=2, final_depth=12))
    assert solve._codes == {}


def test_nonlinear_compiles_each_component_search_once_per_process(monkeypatch):
    compiled = _component_compiles(monkeypatch)
    text = Path("perfbench/programs/nonlinear.tdp").read_text()
    want = path_digest(run_program(parse_program(text), RunConfig(final_depth=8)).paths)
    made = [len(compiled())]
    # the component memo answers a repeat within a run, so a component's
    # search is compiled at its miss in a second run; the first run
    # searches some components before their revises are hot (HOT revises
    # of one node), and from the second every revise is generated at its
    # first, so those components are marked then and compiled in the third
    for _ in range(4):
        out = run_program(parse_program(text), RunConfig(final_depth=8))
        assert path_digest(out.paths) == want
        made.append(len(compiled()) - sum(made))
    keys = [key for key in solve._codes if type(key[1]) is tuple]
    assert made[0] == 0 and made[1] > 0 and made[2] > 0 and made[3:] == [0, 0], made
    assert len(keys) == sum(made), made
    assert len(set(compiled())) == len(compiled())


def test_nonlinear_runs_its_searches_to_the_backtracking_results_in_every_order_and_mode(
    monkeypatch,
):
    # a one-shot run compiles no component search, so three dfs runs in
    # this process make them first; then bfs and random(7) give the
    # witnesses (path, outcome, model) that backtracking alone gives, and
    # threads and tcp the same paths, with the searches running in each
    _component_compiles(monkeypatch)
    text = Path("perfbench/programs/nonlinear.tdp").read_text()
    strategies = (Strategy("bfs"), Strategy("random", 7))

    def witnesses(strategy):
        eng = Engine(parse_program(text))
        res = eng.start_execution(eng.initial_state(), {}, 0, 8, strategy)
        return [(c.path, str(c.outcome), sorted(c.test.items())) for c in res.completed]

    real = solve._generated_search
    monkeypatch.setattr(solve, "_generated_search", lambda *a: None)
    want = {strategy: witnesses(strategy) for strategy in strategies}
    digest = path_digest(run_program(parse_program(text), RunConfig(final_depth=8)).paths)
    searched = []
    monkeypatch.setattr(solve, "_generated_search",
                        lambda *a: searched.append(real(*a)) or searched[-1])
    for _ in range(3):
        run_program(parse_program(text), RunConfig(final_depth=8))
    for strategy in strategies:
        searched.clear()
        assert witnesses(strategy) == want[strategy], strategy
        assert sum(s is not None for s in searched) > 5, strategy
        for mode in ("threads", "tcp"):
            searched.clear()
            cfg = RunConfig(mode=mode, workers=2, strategy=strategy, final_depth=8)
            assert path_digest(run_program(parse_program(text), cfg).paths) == digest
            assert sum(s is not None for s in searched) > 5, (strategy, mode)


def test_a_code_cache_hit_makes_its_key_the_most_recently_used(monkeypatch):
    monkeypatch.setattr(solve, "_codes", {})
    monkeypatch.setattr(solve, "CODE_BOUND", 3)
    built = []

    def source(key):
        text = None if key == "none" else f"def f():\n    return {key!r}\n"
        return lambda: built.append(key) or text

    a = solve.generated_code("a", "f", source("a"))
    assert a() == "a"  # the cache holds the function the source defines
    for key in ("none", "b"):
        solve.generated_code(key, "f", source(key))
    # hits build nothing, a cached None included, and move their keys last
    assert solve.generated_code("a", "f", source("a")) is a
    assert solve.generated_code("none", "f", source("none")) is None
    solve.generated_code("c", "f", source("c"))  # evicts b, now the least recently used
    assert list(solve._codes) == ["a", "none", "c"] and built == ["a", "none", "b", "c"]
    assert solve.generated_code("b", "f", None) is None
    assert solve.generated_code("a", "f", None) is a
    # deferred, the first request only marks the key and the second builds
    assert solve.generated_code("d", "f", source("d"), defer=True) is None and built[-1] == "c"
    assert solve.generated_code("d", "f", None) is None and list(solve._codes)[-1] == "d"
    assert solve.generated_code("d", "f", source("d"), defer=True) is not None and built[-1] == "d"
    # a source the compiler refuses is cached as None, so built once
    def bad():
        built.append("bad")
        return "for\n"

    assert solve.generated_code("bad", "f", bad) is None
    assert solve.generated_code("bad", "f", bad) is None
    assert built.count("bad") == 1


def _counting_find_loops(monkeypatch):
    """The list of the programs (their blocks) find_loops is called on."""
    analysed = []
    real = engine.find_loops
    monkeypatch.setattr(engine, "find_loops", lambda *a: analysed.append(a[0]) or real(*a))
    return analysed


def test_a_program_with_no_loop_is_analysed_once_and_marks_every_block(monkeypatch):
    calls = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: calls.append(a) or real(*a))
    analysed = _counting_find_loops(monkeypatch)
    prog = parse_program("program p;\nsym x in [0, 3];\nk = 1;\nif (x < k) { exit(1); }\nexit(2);\n")
    for _ in range(3):
        eng = Engine(prog)
        for _ in range(3):
            eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"))
    assert analysed == [prog.blocks] and calls == []
    assert _marks(prog) == [False] * len(prog.blocks)


@pytest.mark.parametrize("search", ["dfs", "bfs"])
@pytest.mark.parametrize("depth", [6, 12])
def test_the_loop_analysis_runs_once_per_program(monkeypatch, tmp_path, search, depth):
    # one program object in every mode, then in single mode again: the
    # first block entry, in whichever engine, finds the loops for them all,
    # and a loop's first entry generates it for them all
    analysed = _counting_find_loops(monkeypatch)
    generated = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: generated.extend(a[0]) or real(*a))
    paths = [Path("programs/find_middle.tdp")] + gen_corpus(7, 20, tmp_path)
    paths += sorted(Path("perfbench/programs").glob("*.tdp"))
    modes = [("single", 1), ("threads", 2), ("tcp", 2), ("single", 1)]
    loops = 0
    for path in paths:
        analysed.clear()
        generated.clear()
        prog = parse_program(path.read_text())
        digests = set()
        for mode, workers in modes:
            cfg = RunConfig(mode=mode, workers=workers, strategy=Strategy(search),
                            final_depth=depth)
            out = run_program(prog, cfg)
            assert not out.truncated
            digests.add(path_digest(out.paths))
        assert len(digests) == 1, path
        assert analysed == [prog.blocks], path
        assert len(generated) == len(set(generated)), path
        # a block left None is on a loop that no engine entered
        unentered = {b for b, mark in enumerate(_marks(prog)) if mark is None}
        assert unentered <= set(prog._engine_loops[0]) - set(generated), path
        loops += True in _marks(prog)
    # interp's; every other loop here reads an always-symbolic name
    assert loops == 1


@pytest.mark.parametrize("start", [1, 1000, 1023, 1024, 3000])
def test_a_passed_deadline_stops_both_tiers_at_the_same_instruction(monkeypatch, start):
    src = (
        "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
        "while (k < 5000) { k = k + 1; s = s + k; }\nexit(0);\n"
    )
    got = []
    for generated in (False, True):
        with monkeypatch.context() as m:
            _generating(m, generated)
            prog = parse_program(src)  # a program keeps its functions
            eng = Engine(prog)
            state, stats = eng.initial_state(), engine.EngineStats(instructions=start)
            assert eng._advance(state, 3, stats) == "term"  # warm up: analyse every block
            state, stats = eng.initial_state(), engine.EngineStats(instructions=start)
            assert eng._advance(state, 3, stats, deadline=time.monotonic() - 1) == "trunc"
        got.append((stats.instructions, state.block, state.instr, state.env))
        assert (True in _marks(prog)) == generated
    assert got[0] == got[1]
    assert got[0][0] == -(-start // 1024) * 1024


@pytest.mark.parametrize("op", ["+ 1", "* 3", "- k", "and 1", "or k", "< 5 == 1"])
def test_deeply_nested_blocks_run_alike_in_both_tiers(monkeypatch, op):
    # 250 levels exceed Python's parenthesis nesting limit, so the
    # generated source must split the chain into locals (or give up)
    prog = parse_program(
        "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
        f"while (k < 70) {{ k = k + 1; s = s {f' {op}' * 250}; }}\n"
        "if (x < s) { exit(1); }\nexit(2);\n"
    )
    got, made = _explore(monkeypatch, prog, True, 3, "dfs")
    want, none = _explore(monkeypatch, prog, False, 3, "dfs")
    assert got == want and none == 0
    # 250 nested comparisons recurse too deep to generate
    assert (made > 0) == (op != "< 5 == 1")
