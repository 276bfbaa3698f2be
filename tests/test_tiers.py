"""The generated tier (one Python function per hot block) against the
closure tier (compile_expr), which stays the reference."""

import random
import time
from pathlib import Path

import pytest

from tdpart import engine
from tdpart.engine import Engine, Strategy, compile_expr, generate_block
from tdpart.harness import gen_corpus
from tdpart.lang import (
    ARITH_OPS, CMP_OPS, LOGIC_OPS, Assign, BasicBlock, Binary, Branch, Const, Error, Exit,
    Jump, Unary, Var, parse_program, reads,
)

_LO, _HI = -(2**63), 2**63 - 1
_EDGE = (_LO, _LO + 1, _HI, _HI - 1, -1, 0, 1, 2, 3, 2**32, -(2**31))
# names that are also the generated code's own identifiers
_NAMES = ("env", "wrap", "v0", "a0", "t0", "k")
_OPS = ARITH_OPS + CMP_OPS + LOGIC_OPS
NEVER = float("inf")


def _closure_run(blk, assigned, env):
    """Run blk through the closure tier; the successor block's index."""
    for a in blk.body:
        c = compile_expr(a.expr, assigned)
        env[a.name] = c(env) if callable(c) else c
    if type(blk.term) is Jump:
        return blk.term.target
    c = compile_expr(blk.term.cond, assigned)
    cond = c(env) if callable(c) else c
    assert type(cond) is int
    return blk.term.on_true if cond else blk.term.on_false


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return Const(rng.choice(_EDGE) if rng.random() < 0.7 else rng.randint(-9, 9))
        return Var(rng.choice(_NAMES))
    if rng.random() < 0.2:
        return Unary(rng.choice(("neg", "not")), _random_expr(rng, depth - 1))
    return Binary(rng.choice(_OPS), _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _random_block(rng):
    body = tuple(
        Assign(rng.choice(_NAMES), _random_expr(rng, rng.randint(0, 4)))
        for _ in range(rng.randint(0, 5))
    )
    if rng.random() < 0.25:
        return BasicBlock(body, Jump(rng.randint(0, 9)))
    return BasicBlock(body, Branch(_random_expr(rng, rng.randint(0, 4)), 1, 2))


def test_generated_blocks_match_the_closure_tier_seeded():
    rng = random.Random(8)
    assigned = frozenset(_NAMES)
    seen_ops, new_names = set(), 0
    for _ in range(3000):
        blk = _random_block(rng)
        run = generate_block(blk, assigned)
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
        want = _closure_run(blk, assigned, want_env)
        got_env = dict(store)
        assert run(got_env) == want, blk
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
        assert generate_block(blk, frozenset(store) | {"r"})(env) == 0
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
    run = generate_block(blk, frozenset("abc"))
    symbolic = Binary("+", Var("x"), Const(1))
    for store in ({"a": 1}, {"a": 1, "c": symbolic}, {"a": symbolic, "c": 3}, {}):
        env = dict(store)
        assert run(env) == -1
        assert env == store and all(env[k] is store[k] for k in store)
    env = {"a": 1, "c": 3}
    assert run(env) == 1 and env == {"a": 2, "c": 3, "b": 2}


def test_blocks_that_get_no_function():
    assigned = frozenset("a")
    read_input = Binary("<", Var("a"), Var("x"))
    assert generate_block(BasicBlock((), Exit(0)), assigned) is None
    assert generate_block(BasicBlock((Assign("a", Const(1)),), Error("e")), assigned) is None
    assert generate_block(BasicBlock((), Branch(read_input, 1, 2)), assigned) is None
    assert generate_block(BasicBlock((Assign("a", Var("x")),), Jump(1)), assigned) is None
    # an input the program assigns is read like any other name
    assert generate_block(BasicBlock((), Branch(read_input, 1, 2)), assigned | {"x"})


def test_program_names_that_are_python_identifiers_of_the_generated_code(monkeypatch):
    src = (
        "program p;\nsym x in [0, 3];\n"
        "env = 0; wrap = 5; v0 = 0; a0 = 0; t0 = 9223372036854775807;\n"
        "while (env < 100) { env = env + 1; v0 = v0 + wrap; t0 = t0 + 1; a0 = t0 < 0; }\n"
        "if (x < v0) { exit(1); } else { exit(2); }\n"
    )
    prog = parse_program(src)
    for hot in (1, NEVER):
        monkeypatch.setattr(engine, "HOT", hot)
        eng = Engine(prog)
        res = eng.start_execution(eng.initial_state(), {}, 0, 0, Strategy("dfs"))
        (state,) = res.frontier
        assert state.env == {"env": 100, "wrap": 5, "v0": 500, "a0": 1, "t0": _LO + 99}


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
    monkeypatch.setattr(engine, "HOT", hot)
    eng = Engine(prog, max_steps=max_steps)
    res = eng.start_execution(eng.initial_state(), {}, 0, depth, Strategy(strategy))
    st = res.stats
    return (
        [(c.path, str(c.outcome), sorted(c.test.items()), c.constraints) for c in res.completed],
        [(s.path, s.block, s.instr, list(s.env.items())) for s in res.frontier],
        st.instructions, st.solver_queries, st.cache_hits, st.truncated,
    )


@pytest.mark.parametrize("strategy", ["dfs", "bfs"])
@pytest.mark.parametrize("depth", [2, 6, 12])
def test_generated_tier_explores_exactly_like_the_closure_tier(
    programs, monkeypatch, depth, strategy
):
    for name, prog in programs:
        want = _explore(monkeypatch, prog, NEVER, depth, strategy)
        assert _explore(monkeypatch, prog, 1, depth, strategy) == want, name


@pytest.mark.parametrize("max_steps", [1, 7, 50, 137, 1000, 5000])
def test_generated_tier_truncates_exactly_like_the_closure_tier(
    programs, monkeypatch, max_steps
):
    truncated = 0
    for name, prog in programs:
        want = _explore(monkeypatch, prog, NEVER, 6, "dfs", max_steps)
        assert _explore(monkeypatch, prog, 1, 6, "dfs", max_steps) == want, name
        truncated += want[-1]
    assert truncated > 0


def test_a_block_is_generated_on_its_hot_entry_once_per_engine(monkeypatch):
    calls = []
    real = engine.generate_block
    monkeypatch.setattr(engine, "generate_block", lambda *a: calls.append(a) or real(*a))

    def loop(n):  # the loop's header block is entered n + 1 times
        return parse_program(
            f"program p;\nsym x in [0, 3];\nk = 0;\n"
            f"while (k < {n}) {{ k = k + 1; }}\nif (x < k) {{ exit(1); }}\nexit(2);\n"
        )

    for n, generated in ((engine.HOT - 2, 0), (engine.HOT - 1, 1), (engine.HOT, 2)):
        for _ in range(2):  # a new engine generates again
            calls.clear()
            eng = Engine(loop(n))
            eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"))
            assert len(calls) == generated, n
    # the same engine's next region reuses its functions
    eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("bfs"))
    assert len(calls) == 2


@pytest.mark.parametrize("start", [1, 1000, 1023, 1024, 3000])
def test_a_passed_deadline_stops_both_tiers_at_the_same_instruction(monkeypatch, start):
    prog = parse_program(
        "program p;\nsym x in [0, 3];\nk = 0; s = 0;\n"
        "while (k < 5000) { k = k + 1; s = s + k; }\nexit(0);\n"
    )
    got = []
    for hot in (NEVER, 1):
        monkeypatch.setattr(engine, "HOT", hot)
        eng = Engine(prog)
        state, stats = eng.initial_state(), engine.EngineStats(instructions=start)
        assert eng._advance(state, 3, stats) == "term"  # warm up: HOT=1 generates
        state, stats = eng.initial_state(), engine.EngineStats(instructions=start)
        assert eng._advance(state, 3, stats, deadline=time.monotonic() - 1) == "trunc"
        got.append((stats.instructions, state.block, state.instr, state.env))
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
    assert _explore(monkeypatch, prog, 1, 3, "dfs") == _explore(monkeypatch, prog, NEVER, 3, "dfs")
