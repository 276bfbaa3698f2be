"""Value semantics of tdpart's plain classes: what compares, hashes and
prints by value, what compares by identity, and what has no __dict__."""

import pytest

from tdpart.engine import Engine, EngineStats, ExecState, Strategy, TestDepthPair
from tdpart.lang import Binary, Const, Unary, Var, parse_program
from tdpart.proto import Finish, NoWork, Offload, ProvideWork, Task, Terminate, decode, encode
from tdpart.solve import Constraint, PathCondition


def test_strategies_are_equal_and_hashable_by_value():
    assert Strategy("dfs") == Strategy("dfs")
    assert Strategy("random", 7) == Strategy(kind="random", seed=7)
    assert Strategy("random", 7) != Strategy("random", 8)
    assert Strategy("dfs") != Strategy("bfs")
    assert len({Strategy("dfs"), Strategy("dfs"), Strategy("random", 7)}) == 2
    assert {Strategy("random", 7): 1}[Strategy("random", 7)] == 1
    assert repr(Strategy("random", 7)) == "Strategy(kind='random', seed=7)"


@pytest.mark.parametrize("msg", [
    Task(Strategy("dfs"), {"x": -8, "y": 7}, 2, 3),
    Task(Strategy("random", 2**64 - 1), {}, 0, 1),
    Finish(EngineStats(states_created=3, frontier=1, truncated=True, wall_us=9,
                       paths=["01", ""])),
    Finish(EngineStats()),
    ProvideWork(),
    Offload({"z": 1}, 5),
    NoWork(),
    Terminate(),
], ids=lambda m: type(m).__name__)
def test_every_message_round_trips_to_an_equal_value(msg):
    back = decode(encode(msg))
    assert back == msg and type(back) is type(msg)
    assert not back != msg


def test_messages_differ_by_type_and_by_field():
    assert NoWork() != Terminate() != ProvideWork() != NoWork()
    assert NoWork() == NoWork() and hash(NoWork()) == hash(NoWork())
    assert Offload({"x": 1}, 2) != Offload({"x": 1}, 3)
    assert Finish(EngineStats(paths=["1"])) != Finish(EngineStats(paths=["0"]))
    assert TestDepthPair({"x": 1}, 2) == TestDepthPair({"x": 1}, 2)


def test_parsed_expressions_compare_structurally():
    def cond(text):
        p = parse_program(f"program p; sym x in [0, 3]; sym y in [0, 3];\n"
                          f"if ({text}) {{ exit(1); }} exit(2);")
        return p.blocks[0].term.cond

    a, b = cond("x * 2 + -y < 3"), cond("x*2 + (-y) < 3")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == Binary("<", Binary("+", Binary("*", Var("x"), Const(2)),
                                   Unary("neg", Var("y"))), Const(3))
    assert a != cond("x * 2 + -y <= 3")
    assert Const(1) != Var("x") and Var("x") != Var("y") and Const(1) == Const(1)
    # what a node caches is not part of its value
    str(a)
    assert a == b


def test_hot_classes_have_no_instance_dict():
    pc = PathCondition().extend(Binary("<", Var("x"), Const(3)), True)
    eng = Engine(parse_program("program p; sym x in [0, 3]; exit(0);"))
    objects = [Const(1), Var("x"), Unary("neg", Var("x")), Binary("+", Var("x"), Const(1)),
               pc.constraints[0], pc, eng.initial_state()]
    assert [type(o) for o in objects[4:]] == [Constraint, PathCondition, ExecState]
    for o in objects:
        assert not hasattr(o, "__dict__"), type(o).__name__


def test_exec_states_compare_by_identity():
    eng = Engine(parse_program("program p; sym x in [0, 3]; exit(0);"))
    a, b = eng.initial_state(), eng.initial_state()
    twin = ExecState(a.block, a.instr, a.env, a.pc, a.serial)
    assert a == a and a != twin and a != b
    states = [twin, a, b]
    states.remove(a)
    assert states[0] is twin and states[1] is b
    assert len({a, twin}) == 2
