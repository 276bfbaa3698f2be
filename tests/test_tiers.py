"""The generated tier (one Python function per hot loop) against the
evaluator (evaluate), which stays the reference."""

import random
import sys
import time
from pathlib import Path

import pytest

from tdpart import engine, solve
from tdpart.engine import Engine, Strategy, evaluate, find_loop, generate_block
from tdpart.harness import RunConfig, gen_corpus, path_digest, program_digest, run_program
from tdpart.lang import (
    ARITH_OPS, CMP_OPS, LOGIC_OPS, Assign, BasicBlock, Binary, Branch, Const, Error, Exit,
    Jump, Program, Unary, Var, parse_program, reads,
)

_LO, _HI = -(2**63), 2**63 - 1
_EDGE = (_LO, _LO + 1, _HI, _HI - 1, -1, 0, 1, 2, 3, 2**32, -(2**31))
# names that are also the generated code's own identifiers
_NAMES = ("env", "wrap", "v0", "a0", "t0", "k")
_OPS = ARITH_OPS + CMP_OPS + LOGIC_OPS
NEVER = float("inf")


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
    for hot in (1, NEVER):
        monkeypatch.setattr(engine, "HOT", hot)
        prog = parse_program(src)  # a program keeps its functions
        eng = Engine(prog)
        res = eng.start_execution(eng.initial_state(), {}, 0, 0, Strategy("dfs"))
        (state,) = res.frontier
        assert state.env == {"env": 100, "wrap": 5, "v0": 500, "a0": 1, "t0": _LO + 99}
        assert any(prog._engine_runs) == (hot == 1)


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


def test_find_loop_takes_the_whole_nest_and_only_generable_blocks():
    nest = parse_program(
        "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
        "while (k < 9) { j = 0; while (j < k) { j = j + 1; s = s + j; } k = k + 1; }\n"
        "if (x < s) { exit(1); }\nexit(2);\n"
    )
    assigned = frozenset("jks")
    loops = {i: find_loop(nest.blocks, i, assigned) for i in range(len(nest.blocks))}
    members = {i for i, loop in loops.items() if loop}
    assert len(members) >= 4  # both headers and both bodies
    assert all(loops[i] == sorted(members) for i in members)
    # a loop that branches on an input has no generable cycle
    on_input = parse_program(
        "program p;\nsym x in [0, 3];\nk = 0;\n"
        "while (k < 9) { k = k + 1; if (x < k) { k = k + 2; } }\nexit(2);\n"
    )
    assert not any(find_loop(on_input.blocks, i, {"k"}) for i in range(len(on_input.blocks)))


# -- whole explorations, every block generated at once against none


def _programs(tmp_dir):
    paths = [Path("programs/find_middle.tdp")]
    paths += gen_corpus(7, 60, tmp_dir)
    paths += sorted(Path("perfbench/programs").glob("*.tdp"))
    return [(p.stem, parse_program(p.read_text())) for p in paths]


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    return _programs(tmp_path_factory.mktemp("corpus"))


def _explore(monkeypatch, prog, hot, depth, strategy, max_steps=engine.DEFAULT_MAX_STEPS):
    """One region of an equal but fresh copy of prog with the given HOT (a
    program keeps the functions any engine made for it), and the number of
    blocks that copy has a function for afterwards."""
    monkeypatch.setattr(engine, "HOT", hot)
    prog = Program(prog.name, prog.inputs, prog.blocks)
    eng = Engine(prog, max_steps=max_steps)
    res = eng.start_execution(eng.initial_state(), {}, 0, depth, Strategy(strategy))
    st = res.stats
    return (
        [(c.path, str(c.outcome), sorted(c.test.items()), c.constraints) for c in res.completed],
        [(s.path, s.block, s.instr, list(s.env.items())) for s in res.frontier],
        st.instructions, st.solver_queries, st.cache_hits, st.truncated,
    ), sum(run is not None for run in prog._engine_runs)


@pytest.mark.parametrize("strategy", ["dfs", "bfs"])
@pytest.mark.parametrize("depth", [2, 6, 12])
def test_generated_tier_explores_exactly_like_the_evaluator(
    programs, monkeypatch, depth, strategy
):
    generated = 0
    for name, prog in programs:
        want, none = _explore(monkeypatch, prog, NEVER, depth, strategy)
        got, made = _explore(monkeypatch, prog, 1, depth, strategy)
        assert got == want and none == 0, name
        generated += made
    assert generated > 0


@pytest.mark.parametrize("max_steps", [1, 7, 50, 137, 1000, 5000])
def test_generated_tier_truncates_exactly_like_the_evaluator(
    programs, monkeypatch, max_steps
):
    truncated = generated = 0
    for name, prog in programs:
        want, none = _explore(monkeypatch, prog, NEVER, 6, "dfs", max_steps)
        got, made = _explore(monkeypatch, prog, 1, 6, "dfs", max_steps)
        assert got == want and none == 0, name
        truncated += want[-1]
        generated += made
    assert truncated > 0
    assert (generated > 0) == (max_steps > 1)  # one instruction reaches no loop


def test_a_block_is_generated_on_its_hot_entry_once_per_program(monkeypatch):
    calls = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: calls.append(a) or real(*a))

    def loop(n):  # the loop's header block is entered n + 1 times
        return parse_program(
            f"program p;\nsym x in [0, 3];\nk = 0;\n"
            f"while (k < {n}) {{ k = k + 1; }}\nif (x < k) {{ exit(1); }}\nexit(2);\n"
        )

    # the header gets hot first, and generates its loop with the body
    for n, generated in ((engine.HOT - 2, 0), (engine.HOT - 1, 1), (engine.HOT, 1)):
        prog = loop(n)
        # a second engine on the program takes its function, and heat is
        # the engine's own: at HOT - 2 neither engine gets hot, although
        # both together enter the header more than HOT times; an equal
        # program parsed again starts cold and generates again
        for p, want in ((prog, generated), (prog, 0), (loop(n), generated)):
            calls.clear()
            eng = Engine(p)
            eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"))
            assert len(calls) == want, n
            assert any(p._engine_runs) == bool(generated), n
    # the same engine's next region reuses its program's functions
    calls.clear()
    eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("bfs"))
    assert calls == []


def _run_region(prog):
    eng = Engine(prog)
    eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"))
    return eng


_HOT_LOOP = (
    "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
    "while (k < 200) { k = k + 1; s = s + k; }\nif (x < s) { exit(1); }\nexit(2);\n"
)


def test_a_second_engine_runs_the_programs_function_from_the_loops_first_entry(
    monkeypatch,
):
    prog = parse_program(_HOT_LOOP)
    first = _run_region(prog)
    runs = list(prog._engine_runs)
    (run1,) = {r for r in runs if r}
    loop = [b for b, r in enumerate(runs) if r]
    assert first._heat[loop[0]] == engine.HOT  # generated on the HOT-th entry
    built, compiled, generated = [], [], []
    source = engine._loop_source
    monkeypatch.setattr(engine, "_loop_source", lambda *a: built.append(a) or source(*a))
    monkeypatch.setattr(solve, "compile", lambda *a: compiled.append(a) or compile(*a),
                        raising=False)
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: generated.append(a) or real(*a))
    second = _run_region(prog)
    assert generated == built == compiled == []
    # the same function, every entry: the loop's blocks never warmed up
    assert all(r is s for r, s in zip(prog._engine_runs, runs))
    assert [second._heat[b] for b in loop] == [0] * len(loop)
    # an equal program parsed again starts cold, and makes its own
    # function from the compiled code on its HOT-th entry
    again = parse_program(_HOT_LOOP)
    assert again == prog and not any(again._engine_runs)
    third = _run_region(again)
    assert built == compiled == [] and len(generated) == 1
    assert third._heat[loop[0]] == engine.HOT
    (run3,) = {r for r in again._engine_runs if r}
    assert run3 is not run1 and run3.__code__ is run1.__code__
    assert run3.__globals__ is not run1.__globals__


def test_a_program_that_ran_keeps_its_value():
    ran, fresh = parse_program(_HOT_LOOP), parse_program(_HOT_LOOP)
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


def test_worker_threads_generating_at_once_leave_every_loop_a_function(monkeypatch):
    # every block is generated on its first entry, by whichever of four
    # threads (on fewer cores) gets there first, switching as often as it can
    monkeypatch.setattr(engine, "HOT", 1)
    text = Path("perfbench/programs/interp.tdp").read_text()
    single = parse_program(text)
    want = path_digest(run_program(single, RunConfig(final_depth=12)).paths)
    generated = [run is not None for run in single._engine_runs]
    assert any(generated)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            prog = parse_program(text)
            out = run_program(prog, RunConfig(mode="threads", workers=4, final_depth=12))
            assert path_digest(out.paths) == want
            assert [run is not None for run in prog._engine_runs] == generated
    finally:
        sys.setswitchinterval(interval)


def test_the_code_cache_stays_within_its_bound():
    # loops and revise functions share the cache and its bound
    bound = solve.CODE_BOUND
    for c in range(bound + 20):
        generate_block({0: BasicBlock((Assign("r", Const(c)),), Jump(0))}, {"r"})
        e = Binary("<", Binary("*", Var("x"), Var("x")), Const(c))
        assert solve._generated_revise(e, c % 2 == 0, True) is not None
        assert len(solve._codes) <= bound
    assert any(type(k[0]) is str for k in solve._codes)  # a revise's key
    assert any(type(k[0]) is tuple for k in solve._codes)  # a loop's key


def test_a_code_cache_hit_makes_its_key_the_most_recently_used(monkeypatch):
    monkeypatch.setattr(solve, "_codes", {})
    monkeypatch.setattr(solve, "CODE_BOUND", 3)
    built = []

    def source(key):
        return lambda: built.append(key) or (None if key == "none" else f"k = {key!r}\n")

    a = solve.generated_code("a", source("a"))
    for key in ("none", "b"):
        solve.generated_code(key, source(key))
    # hits build nothing, a cached None included, and move their keys last
    assert solve.generated_code("a", source("a")) is a
    assert solve.generated_code("none", source("none")) is None
    solve.generated_code("c", source("c"))  # evicts b, now the least recently used
    assert list(solve._codes) == ["a", "none", "c"] and built == ["a", "none", "b", "c"]
    assert solve.generated_code("b", None) is None and solve.generated_code("a", None) is a


def test_a_hot_block_on_no_cycle_gets_no_function(monkeypatch):
    calls = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: calls.append(a) or real(*a))
    prog = parse_program("program p;\nsym x in [0, 3];\nk = 1;\nif (x < k) { exit(1); }\nexit(2);\n")
    eng = Engine(prog)
    for _ in range(engine.HOT + 3):  # block 0 is entered once per region
        eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"))
    assert eng._heat[0] > engine.HOT
    assert prog._engine_runs == [None] * len(prog.blocks) and calls == []


@pytest.mark.parametrize("mode,workers", [("single", 1), ("threads", 2)])
@pytest.mark.parametrize("depth", [6, 12])
def test_the_loop_analysis_runs_only_on_a_hot_block(monkeypatch, tmp_path, mode, workers, depth):
    # lazy, never per engine: a corpus exploration makes several engines.
    # Only the single engine at depth 12 enters a corpus block HOT times:
    # `while (y < 6) { y = y + 1; }` in two programs, whose y is symbolic.
    calls = []
    monkeypatch.setattr(engine, "find_loop", lambda blocks, idx, assigned: calls.append(idx) or [])
    for path in [Path("programs/find_middle.tdp")] + gen_corpus(7, 20, tmp_path):
        calls.clear()
        cfg = RunConfig(mode=mode, workers=workers, final_depth=depth)
        assert not run_program(parse_program(path.read_text()), cfg).truncated
        hot = (mode, depth) == ("single", 12) and path.stem in ("prog_05", "prog_15")
        assert calls == ([4] if hot else []), path


@pytest.mark.parametrize("start", [1, 1000, 1023, 1024, 3000])
def test_a_passed_deadline_stops_both_tiers_at_the_same_instruction(monkeypatch, start):
    src = (
        "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
        "while (k < 5000) { k = k + 1; s = s + k; }\nexit(0);\n"
    )
    got = []
    for hot in (NEVER, 1):
        monkeypatch.setattr(engine, "HOT", hot)
        prog = parse_program(src)  # a program keeps its functions
        eng = Engine(prog)
        state, stats = eng.initial_state(), engine.EngineStats(instructions=start)
        assert eng._advance(state, 3, stats) == "term"  # warm up: HOT=1 generates
        state, stats = eng.initial_state(), engine.EngineStats(instructions=start)
        assert eng._advance(state, 3, stats, deadline=time.monotonic() - 1) == "trunc"
        got.append((stats.instructions, state.block, state.instr, state.env))
        assert any(prog._engine_runs) == (hot == 1)
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
    got, made = _explore(monkeypatch, prog, 1, 3, "dfs")
    want, none = _explore(monkeypatch, prog, NEVER, 3, "dfs")
    assert got == want and none == 0
    # 250 nested comparisons recurse too deep to generate
    assert (made > 0) == (op != "< 5 == 1")
