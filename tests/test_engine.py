"""Region execution: guided replay, symbolic forking, censoring, resume."""

import itertools
import random
from pathlib import Path

import pytest

from oracles import decision_sequence, enumerate_paths
from tdpart import engine, solve
from tdpart.coord import seed_pool
from tdpart.engine import (
    Engine,
    ReplayDivergenceError,
    Strategy,
    evaluate,
)
from tdpart.harness import RunConfig, corpus_shape, gen_corpus, generate_program, run_program
from tdpart.lang import (
    ARITH_OPS, CMP_OPS, LOGIC_OPS, Binary, Const, Error, Exit, Unary, Var, parse_program,
)
from tdpart.solve import PathCondition, solve_model
from tdpart.worker import choose_offload

FIND_MIDDLE = parse_program(Path("programs/find_middle.tdp").read_text())

# ground truth for find_middle at final depth 3
FM_PATHS = {"01", "11", "000", "001", "100", "101"}
FM_CONSTRAINTS = {
    "01": ["!(x<y)", "(x<z)"],
    "11": ["(x<y)", "(y<z)"],
    "000": ["!(x<y)", "!(x<z)", "!(y<z)"],
    "001": ["!(x<y)", "!(x<z)", "(y<z)"],
    "100": ["(x<y)", "!(y<z)", "!(x<z)"],
    "101": ["(x<y)", "!(y<z)", "(x<z)"],
}
T3 = {"x": -8, "y": -8, "z": -8}  # lex-min model of the 00 prefix
T5 = {"x": -8, "y": -7, "z": -8}  # lex-min model of the 10 prefix


def full_region(program, final_depth, strategy=Strategy("dfs"), **kw):
    eng = Engine(program, **kw)
    res = eng.start_execution(eng.initial_state(), {}, 0, final_depth, strategy)
    return eng, res


def test_find_middle_full_exploration():
    eng, res = full_region(FIND_MIDDLE, 3)
    assert {c.path for c in res.completed} == FM_PATHS
    assert res.frontier == [] and res.suspended_new == []
    for c in res.completed:
        assert list(c.constraints) == FM_CONSTRAINTS[c.path]
        assert str(c.outcome) == "exit 0"
    assert not res.stats.truncated


def test_find_middle_region_counters():
    eng, res = full_region(FIND_MIDDLE, 3)
    st = res.stats
    assert st.states_created == 10  # two children at each of the five forks
    assert st.solver_queries == 16  # 10 fork checks + 6 terminal witnesses
    assert st.cache_hits == 6  # every terminal pc was cached at its fork
    assert st.states_suspended == 0
    assert st.frontier == 0
    assert sorted(st.paths) == sorted(FM_PATHS)


def test_find_middle_parent_models_answer_misses():
    eng, _ = full_region(FIND_MIDDLE, 3)
    # the 10 fork checks all miss; in 4 of them the parent's model already
    # satisfies the child, so no narrowing or enumeration runs
    assert eng.cache.misses == 10
    assert eng.cache.reused == 4


def _fresh(pc):
    """A copy of pc with no solver state, so that a solve of it searches."""
    fresh = PathCondition()
    for c in pc.constraints:
        fresh = fresh.extend(c.expr, c.taken)
    return fresh


def bfs_region(program, final_depth):
    """The root pair's region explored breadth-first, with each layer as a
    poll sees it at its boundary, where all of active is that layer."""
    eng = Engine(program)
    layers = []

    def poll(active):
        if active[0].depth == len(layers):
            layers.append(list(active))

    eng.start_execution(eng.initial_state(), {}, 0, final_depth, Strategy("bfs"), poll=poll)
    return eng, layers


def test_solver_checked_children_keep_their_lex_min_model():
    eng, layers = bfs_region(FIND_MIDDLE, 3)
    [root], depth1, depth2 = layers[:3]
    assert root.pc._model is None
    assert [s.pc._model for s in depth1] == [{"x": -8, "y": -8, "z": -8}, T5]
    assert [s.pc._model for s in depth2] == [
        solve_model(_fresh(s.pc), FIND_MIDDLE.inputs) for s in depth2
    ]
    res = eng.start_execution(eng.initial_state(), T3, 2, 3, Strategy("dfs"))
    assert [s.pc._model for s in res.suspended_new] == [None, None]


def test_witness_tests_replay_their_paths():
    _, res = full_region(FIND_MIDDLE, 3)
    for c in res.completed:
        assert c.test.keys() == {"x", "y", "z"}
        bits, outcome = decision_sequence(FIND_MIDDLE, c.test)
        assert bits == c.path
        assert outcome == str(c.outcome)


def test_censoring_at_final_depth_two():
    _, res = full_region(FIND_MIDDLE, 2)
    assert {c.path for c in res.completed} == {"01", "11"}
    assert {s.path for s in res.frontier} == {"00", "10"}
    assert res.stats.frontier == 2


def test_guided_region_t3_completes_000_001():
    eng = Engine(FIND_MIDDLE)
    res = eng.start_execution(eng.initial_state(), T3, 2, 3, Strategy("dfs"))
    assert {c.path for c in res.completed} == {"000", "001"}
    assert {(s.path, s.depth) for s in res.suspended_new} == {("1", 1), ("01", 2)}
    # the guided phase never touches the solver: one symbolic fork below the
    # pinned prefix (2 checks) plus 2 terminal witnesses
    assert res.stats.solver_queries == 2 + 2
    assert res.stats.cache_hits == 2


def test_guided_region_t5_completes_100_101():
    eng = Engine(FIND_MIDDLE)
    res = eng.start_execution(eng.initial_state(), T5, 2, 3, Strategy("dfs"))
    assert {c.path for c in res.completed} == {"100", "101"}
    assert {(s.path, s.depth) for s in res.suspended_new} == {("0", 1), ("11", 2)}


def test_regions_partition_the_tree():
    # the four depth-2 regions together produce exactly the full path set
    pairs = seed_pool(FIND_MIDDLE, 4, 3)
    assert len(pairs) == 4
    all_paths = []
    for pair in pairs:
        worker_eng = Engine(FIND_MIDDLE)
        res = worker_eng.start_execution(
            worker_eng.initial_state(), pair.test, pair.depth, 3, Strategy("dfs"),
        )
        all_paths.extend(c.path for c in res.completed)
    assert sorted(all_paths) == sorted(FM_PATHS)  # no duplicates, no gaps


def test_replay_divergence_detected():
    eng = Engine(FIND_MIDDLE)
    res = eng.start_execution(eng.initial_state(), T3, 2, 3, Strategy("dfs"))
    wrong_side = next(s for s in res.suspended_new if s.path == "1")
    with pytest.raises(ReplayDivergenceError):
        eng.start_execution(wrong_side, T3, 2, 3, Strategy("dfs"))


def test_resume_prefers_deepest_then_list_order():
    eng = Engine(FIND_MIDDLE)
    res = eng.start_execution(eng.initial_state(), T3, 2, 3, Strategy("dfs"))
    suspended = list(res.suspended_new)
    t_01 = {"x": -8, "y": -8, "z": -7}  # drives 0 then 1
    pick = eng.find_resumable(suspended, t_01)
    assert pick is not None and pick.path == "01"
    # T5 drives 1 at depth 1: only the "1" sibling matches
    assert eng.find_resumable(suspended, T5).path == "1"
    assert eng.find_resumable(suspended, {"x": -8, "y": -8, "z": -8}) is None


def test_resumed_state_finishes_the_region():
    eng = Engine(FIND_MIDDLE)
    res = eng.start_execution(eng.initial_state(), T3, 2, 3, Strategy("dfs"))
    suspended = list(res.suspended_new)
    t_01 = {"x": -8, "y": -8, "z": -7}
    pick = eng.find_resumable(suspended, t_01)
    suspended.remove(pick)
    res2 = eng.start_execution(pick, t_01, 2, 3, Strategy("dfs"))
    assert {c.path for c in res2.completed} == {"01"}
    assert res2.suspended_new == []


def test_single_worker_path_set_invariant_across_strategies():
    results = {}
    for strat in (Strategy("dfs"), Strategy("bfs"), Strategy("random", 123),
                  Strategy("random", 9)):
        _, res = full_region(FIND_MIDDLE, 3, strategy=strat)
        results[strat] = [c.path for c in res.completed]
    sets = {frozenset(v) for v in results.values()}
    assert sets == {frozenset(FM_PATHS)}


def test_dfs_and_bfs_completion_order():
    _, res_dfs = full_region(FIND_MIDDLE, 3, strategy=Strategy("dfs"))
    assert res_dfs.stats.paths[0] == "11"  # true side first, depth first
    _, res_bfs = full_region(FIND_MIDDLE, 3, strategy=Strategy("bfs"))
    assert res_bfs.stats.paths[0] == "01"  # shallowest termination first


def test_random_strategy_is_seed_deterministic():
    _, a = full_region(FIND_MIDDLE, 3, strategy=Strategy("random", 42))
    _, b = full_region(FIND_MIDDLE, 3, strategy=Strategy("random", 42))
    assert a.stats.paths == b.stats.paths


def test_concrete_branches_do_not_consume_depth():
    src = (
        "program p;\nsym x in [0, 3];\n"
        "c = 1;\n"
        "if (c < 2) { t = 0; } else { t = 9; }\n"  # concrete: follows the edge
        "k = 0;\n"
        "while (k < 3) { k = k + 1; }\n"  # concrete loop: no decisions
        "if (x < 2) { exit(1); } else { exit(2); }\n"
    )
    prog = parse_program(src)
    _, res = full_region(prog, 1)
    assert {c.path for c in res.completed} == {"0", "1"}
    assert res.frontier == []


def test_assignment_can_deactivate_taint():
    # x is overwritten by a constant before the branch: branch is concrete
    src = (
        "program p;\nsym x in [0, 3];\n"
        "t = x + 1;\n"
        "t = 2;\n"
        "if (t < 3) { exit(1); } else { exit(2); }\n"
    )
    _, res = full_region(parse_program(src), 5)
    assert {c.path for c in res.completed} == {""}
    assert str(res.completed[0].outcome) == "exit 1"


def test_substitute_folds_constants():
    env = {"t": 2, "u": Var("x")}
    assert evaluate(Binary("+", Var("t"), Const(1)), env) == 3
    got = evaluate(Binary("*", Const(0), Var("u")), env)
    assert got == Binary("*", Const(0), Var("x"))  # not folded: one leaf is a var
    assert evaluate(Binary("-", Var("x"), Var("x")), {}) == Binary(
        "-", Var("x"), Var("x")
    )


# -- evaluator against a reference fold written here

_LO, _HI = -(2**63), 2**63 - 1


def _ref_wrap(v: int) -> int:
    return ((v + 2**63) % 2**64) - 2**63


def _ref_binary(op: str, a: int, b: int) -> int:
    if op in ARITH_OPS:
        return _ref_wrap(a + b if op == "+" else a - b if op == "-" else a * b)
    if op == "and":
        return int(bool(a) and bool(b))
    if op == "or":
        return int(bool(a) or bool(b))
    return int({"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "==": a == b, "!=": a != b}[op])


def _ref_fold(e, store):
    """Substitute store values (int -> Const) and fold all-constant nodes
    bottom-up; unbound names stay Vars. Nothing else is simplified."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        v = store.get(e.name, e)
        return Const(v) if isinstance(v, int) else v
    if isinstance(e, Unary):
        o = _ref_fold(e.operand, store)
        if isinstance(o, Const):
            v = o.value
            return Const(_ref_wrap(-v) if e.op == "neg" else int(v == 0))
        return Unary(e.op, o)
    left, right = _ref_fold(e.left, store), _ref_fold(e.right, store)
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(_ref_binary(e.op, left.value, right.value))
    return Binary(e.op, left, right)


_EDGE = (_LO, _LO + 1, _HI, _HI - 1, -1, 0, 1, 2, 2**32)
_NAMES = ("a", "b", "c", "x", "y")
_OPS = ARITH_OPS + CMP_OPS + LOGIC_OPS


def _random_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Const(rng.choice(_EDGE) if rng.random() < 0.6 else rng.randint(-9, 9))
        return Var(rng.choice(_NAMES))
    if rng.random() < 0.15:
        return Unary(rng.choice(("neg", "not")), _random_expr(rng, depth - 1))
    return Binary(rng.choice(_OPS), _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _random_store(rng: random.Random) -> dict:
    # each name is a concrete int, an input-dependent Expr, or unbound
    store = {}
    for name in _NAMES:
        kind = rng.randrange(3)
        if kind == 0:
            store[name] = rng.choice(_EDGE)
        elif kind == 1:
            store[name] = Binary(rng.choice(_OPS), Var("x"), Const(rng.choice(_EDGE)))
    return store


def test_compiled_evaluator_matches_reference_fold():
    rng = random.Random(1234)
    kinds = {int: 0, "expr": 0}
    for _ in range(3000):
        e = _random_expr(rng, rng.randint(1, 5))
        store = _random_store(rng)
        got = evaluate(e, store)
        want = _ref_fold(e, store)
        if type(got) is int:
            kinds[int] += 1
            assert isinstance(want, Const) and got == want.value, (e, store)
            assert _LO <= got <= _HI
        else:
            kinds["expr"] += 1
            assert not isinstance(got, Const) and got == want, (e, store)
            if want == e:  # nothing substituted or folded: e itself
                assert got is e
    assert min(kinds.values()) > 500  # both outcomes exercised


def test_compiled_evaluator_wraps_at_the_int64_edges():
    store = {"m": _HI, "n": _LO}
    assert evaluate(Binary("+", Var("m"), Const(1)), store) == _LO
    assert evaluate(Binary("-", Var("n"), Const(1)), store) == _HI
    assert evaluate(Unary("neg", Var("n")), store) == _LO
    assert evaluate(Binary("*", Var("m"), Const(2)), store) == -2
    # no short-circuit: a symbolic right operand keeps the node
    got = evaluate(Binary("and", Const(0), Var("x")), store)
    assert got == Binary("and", Const(0), Var("x"))


def test_concrete_assignments_store_plain_ints():
    src = (
        "program p;\nsym x in [0, 3];\n"
        "t = 2 + 3;\n"
        "u = x + t;\n"
        "if (u < 7) { exit(1); } else { exit(2); }\n"
    )
    eng = Engine(parse_program(src))
    res = eng.start_execution(eng.initial_state(), {}, 0, 0, Strategy("dfs"))
    (state,) = res.frontier
    assert type(state.env["t"]) is int and state.env["t"] == 5
    assert state.env["u"] == Binary("+", Var("x"), Const(5))
    assert res.stats.instructions == 3


def test_truncation_on_step_budget(monkeypatch):
    src = (
        "program p;\nsym x in [0, 1];\n"
        "k = 0;\n"
        "while (k < 1000) { k = k + 1; }\n"
        "exit(0);\n"
    )
    monkeypatch.setattr(engine, "MAX_STEPS", 50)
    _, res = full_region(parse_program(src), 3)
    assert res.stats.truncated
    assert res.completed == []


def test_error_outcomes_are_reported():
    src = (
        "program p;\nsym x in [0, 3];\n"
        'if (x < 1) { error("boom"); } else { exit(4); }\n'
    )
    _, res = full_region(parse_program(src), 2)
    by_path = {c.path: str(c.outcome) for c in res.completed}
    assert by_path == {"1": "error boom", "0": "exit 4"}
    # the outcome is the terminator the path reached
    assert {c.path: c.outcome for c in res.completed} == {"1": Error("boom"), "0": Exit(4)}


def test_poll_hook_sees_every_step():
    seen = []
    eng = Engine(FIND_MIDDLE)
    real = eng._select
    selects = []

    def select(*args):
        selects.append(None)
        return real(*args)

    eng._select = select
    eng.start_execution(
        eng.initial_state(), {}, 0, 3, Strategy("dfs"),
        poll=lambda active: seen.append(len(active)),
    )
    # one call before each select step, none after the last
    assert len(seen) == len(selects) > 0
    assert seen[0] == 1


def test_poll_can_steal_a_state_mid_region():
    stolen = []
    calls = []

    def poll(active):
        calls.append(None)
        if len(calls) == 4 and len(active) > 1:  # the fourth step, step 3
            victim = min(active, key=lambda s: (s.depth, s.serial))
            active.remove(victim)
            stolen.append(victim)

    eng = Engine(FIND_MIDDLE)
    res = eng.start_execution(eng.initial_state(), {}, 0, 3, Strategy("dfs"), poll=poll)
    assert len(stolen) == 1
    thief = Engine(FIND_MIDDLE)
    tres = thief.start_execution(
        thief.initial_state(), thief.model_of(stolen[0].pc), stolen[0].depth, 3,
        Strategy("dfs"),
    )
    victim_paths = {c.path for c in res.completed}
    thief_paths = {c.path for c in tres.completed}
    assert victim_paths | thief_paths == FM_PATHS
    assert victim_paths.isdisjoint(thief_paths)


@pytest.mark.parametrize("search", ["dfs", "bfs"])
def test_select_takes_the_state_a_scan_over_depth_and_serial_takes(
    monkeypatch, tmp_path, search
):
    # dfs and bfs pop the last or the first active state, which must be the
    # greatest or the least by (depth, serial): in single mode, in guided
    # regions that hand a state off at every third poll, and in two worker
    # threads that offload whenever they hold more than one state
    picks, wrong = [], []
    real = Engine._select

    def checked(self, active, strategy, rng):
        key = lambda s: (s.depth, s.serial)  # noqa: E731
        want = (max if strategy.kind == "dfs" else min)(active, key=key)
        got = real(self, active, strategy, rng)
        picks.append(None)
        if got is not want:
            wrong.append([key(s) for s in active] + [key(got)])
        return got

    monkeypatch.setattr(Engine, "_select", checked)
    paths = [Path("programs/find_middle.tdp")] + gen_corpus(11, 30, tmp_path)
    paths += sorted(Path("perfbench/programs").glob("*.tdp"))
    offloads = 0
    for path in paths:
        prog = parse_program(path.read_text())
        for depth in (6, 12):
            cfg = RunConfig(strategy=Strategy(search), final_depth=depth)
            single = run_program(prog, cfg)
            # a region below a test of a path at least two decisions deep
            eng = Engine(prog)
            res = eng.start_execution(eng.initial_state(), {}, 0, depth, Strategy(search))
            tests = [c.test for c in res.completed if len(c.path) >= 2]
            tests += [eng.model_of(st.pc) for st in res.frontier if st.depth >= 2]
            polls = itertools.count(1)

            def poll(active, polls=polls):
                nonlocal offloads
                victim = choose_offload(active, 2)
                if next(polls) % 3 == 0 and len(active) > 1 and victim is not None:
                    active.remove(victim)
                    offloads += 1

            eng.start_execution(eng.initial_state(), tests[-1], 2, depth, Strategy(search),
                                poll=poll)
            threads = RunConfig(mode="threads", workers=2, strategy=Strategy(search),
                                final_depth=depth, offload_threshold=1)
            assert sorted(run_program(prog, threads).paths) == sorted(single.paths)
    assert wrong == [] and len(picks) > 5000 and offloads > 20


def test_cache_disabled_never_hits():
    eng, res = full_region(FIND_MIDDLE, 3, cfg=RunConfig(cache_enabled=False))
    assert eng.cache is None
    assert res.stats.cache_hits == 0
    assert res.stats.solver_queries == 16


def test_cache_off_witnesses_reuse_the_state_model(monkeypatch):
    # every witness pc was solved at its fork and the state kept that model,
    # so with the cache off no witness needs narrowing either
    calls = []
    real = solve._fixpoint
    monkeypatch.setattr(solve, "_fixpoint", lambda *a: calls.append(1) or real(*a))
    counts = {}
    for cache_enabled in (True, False):
        calls.clear()
        _, res = full_region(FIND_MIDDLE, 3, cfg=RunConfig(cache_enabled=cache_enabled))
        counts[cache_enabled] = (len(calls), res.stats.solver_queries, res.stats.cache_hits)
    assert counts == {True: (21, 16, 6), False: (21, 16, 0)}


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 26])
def test_matches_oracle_on_find_middle(depth):
    _, res = full_region(FIND_MIDDLE, depth)
    completed, frontier = enumerate_paths(FIND_MIDDLE, depth)
    assert {c.path for c in res.completed} == set(completed)
    assert {s.path for s in res.frontier} == frontier
    for c in res.completed:
        assert str(c.outcome) == completed[c.path]


def test_matches_oracle_on_generated_programs():
    rng = random.Random(77)
    for i in range(10):
        prog = parse_program(generate_program(rng, f"eo_{i}", corpus_shape(i)))
        for depth in (1, 3, 26):
            _, res = full_region(prog, depth)
            completed, frontier = enumerate_paths(prog, depth)
            engine_paths = [c.path for c in res.completed]
            assert len(engine_paths) == len(set(engine_paths))
            assert set(engine_paths) == set(completed), (i, depth)
            assert {s.path for s in res.frontier} == frontier, (i, depth)
            for c in res.completed:
                assert str(c.outcome) == completed[c.path]
