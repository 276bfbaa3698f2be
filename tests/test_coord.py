"""Pool seeding, dispatch, work stealing, soft deadline, termination."""

import threading
from pathlib import Path
import time

import pytest

from oracles import decision_sequence, domain_cube, enumerate_paths
from tdpart import proto
from tdpart.coord import WorkerTally, run_coordinator, seed_pool
from tdpart.engine import EngineStats, Strategy, TestDepthPair
from tdpart.harness import RunConfig, ScheduleHub, gen_corpus
from tdpart.lang import parse_program
from tdpart.proto import Finish, NoWork, Offload, ProvideWork, QueueHub, Task, Terminate

FIND_MIDDLE = parse_program(Path("programs/find_middle.tdp").read_text())

ONE_BRANCH = parse_program(
    "program p;\nsym x in [0, 3];\nif (x < 1) { exit(0); } else { exit(1); }\n"
)
STRAIGHT = parse_program("program p;\nsym x in [0, 3];\nexit(0);\n")


@pytest.fixture(autouse=True)
def short_recv(monkeypatch):
    # a scripted or real worker that stalls fails a test in 20 s, not 120 s
    monkeypatch.setattr(proto, "RECV_TIMEOUT", 20)


# -- tallies


def test_worker_tally_sums_every_counter():
    # distinct values per counter and region: a counter EngineStats has but
    # COUNTERS leaves out is not summed, and one summed twice is caught
    counters = [f for f in EngineStats._fields if f not in ("truncated", "paths")]
    first = EngineStats(**{f: k + 1 for k, f in enumerate(counters)}, paths=["0"])
    second = EngineStats(
        **{f: 100 * (k + 1) for k, f in enumerate(counters)}, truncated=True, paths=["1", "0"]
    )
    tally = WorkerTally()
    tally.add(first)
    tally.add(second)
    assert {f: getattr(tally, f) for f in counters} == {
        f: 101 * (k + 1) for k, f in enumerate(counters)
    }
    assert tally.paths == ["0", "1", "0"]
    assert tally.truncated is True
    assert (tally.regions, tally.transfers_in, tally.transfers_out) == (2, 0, 0)
    assert WorkerTally.__slots__ == ("regions", "transfers_in", "transfers_out")


# -- pool seeding


def prefixes(program, pairs):
    """Each pair's (prefix, depth): the first `depth` decisions its test makes."""
    return [(decision_sequence(program, p.test)[0][: p.depth], p.depth) for p in pairs]


def test_seed_pool_one_worker_is_root_pair():
    pairs = seed_pool(FIND_MIDDLE, 1, 3)
    assert pairs == [TestDepthPair({"x": -8, "y": -8, "z": -8}, 0)]


def test_seed_pool_two_workers_depth_one():
    pairs = seed_pool(FIND_MIDDLE, 2, 3)
    assert pairs == [
        TestDepthPair({"x": -8, "y": -8, "z": -8}, 1),
        TestDepthPair({"x": -8, "y": -7, "z": -8}, 1),
    ]
    assert prefixes(FIND_MIDDLE, pairs) == [("0", 1), ("1", 1)]


def test_seed_pool_four_workers_depth_two():
    pairs = seed_pool(FIND_MIDDLE, 4, 3)
    assert sorted((tuple(p.test.values()), p.depth) for p in pairs) == [
        ((-8, -8, -8), 2),  # 00
        ((-8, -8, -7), 2),  # 01
        ((-8, -7, -8), 2),  # 10
        ((-8, -7, -6), 2),  # 11
    ]
    assert prefixes(FIND_MIDDLE, pairs) == [("00", 2), ("01", 2), ("10", 2), ("11", 2)]


def test_seed_pool_overshoots_whole_layers():
    assert len(seed_pool(FIND_MIDDLE, 3, 3)) == 4  # a whole layer is taken, never a part


def test_seed_pool_mixes_finished_and_deeper_states():
    prog = parse_program(
        "program p;\nsym x in [0, 3];\nsym y in [0, 3];\n"
        "if (x < 1) { exit(0); } else {\n"
        "  if (y < 1) { exit(1); } else { exit(2); }\n"
        "}\n"
    )
    # the true side exits at depth 1; the false side forks once more
    assert prefixes(prog, seed_pool(prog, 3, 5)) == [("1", 1), ("00", 2), ("01", 2)]


def test_seed_pool_exhausts_small_trees():
    assert seed_pool(STRAIGHT, 4, 3) == [TestDepthPair({"x": 0}, 0)]
    pairs = seed_pool(ONE_BRANCH, 3, 3)
    assert [p.depth for p in pairs] == [1, 1]


SEED_PROGRAMS = ["programs/find_middle.tdp"] + [
    f"programs/corpus/prog_{i:02d}.tdp" for i in (1, 4, 8, 9, 13, 17)
]


@pytest.mark.parametrize("path", SEED_PROGRAMS)
def test_seed_pool_pairs_carry_the_lex_min_model_of_their_prefix(path):
    # seeding forks through step_branch, each child solved from its parent's
    # model when that satisfies it; each pair's test must still be the first
    # cube point, in declaration order, that makes the pair's first `depth`
    # decisions, and the pairs' prefixes must partition the cube
    program = parse_program(Path(path).read_text())
    cube = [(t, decision_sequence(program, t)[0]) for t in domain_cube(program.inputs)]
    for workers in (2, 4):
        for final_depth in (3, 6):
            prefixes = []
            for pair in seed_pool(program, workers, final_depth):
                prefix = decision_sequence(program, pair.test)[0][: pair.depth]
                assert len(prefix) == pair.depth
                lex_min = next(t for t, bits in cube if bits.startswith(prefix))
                assert pair.test == lex_min, (path, workers, pair)
                prefixes.append(prefix)
            for _, bits in cube:
                assert sum(bits.startswith(p) for p in prefixes) == 1, (path, bits)


def layer_cut(cube, completed, frontier, final_depth, num_workers):
    """The pool seed_pool must give, from the oracle alone (cube: each
    domain point with its decisions; completed and frontier: enumerate_paths
    at final_depth): the first layer k whose prefixes plus the paths
    shorter than k reach num_workers, or else every completed path and
    frontier prefix; in (depth, prefix) order, each with the first cube
    point whose decisions start with it."""
    cut = list(completed) + list(frontier)
    for k in range(final_depth + 1):
        layer = {bits[:k] for _, bits in cube if len(bits) >= k}
        done = [p for p in completed if len(p) < k]
        if len(layer) + len(done) >= num_workers:
            cut = done + list(layer)
            break
    cut.sort(key=lambda p: (len(p), p))
    return [TestDepthPair(next(t for t, bits in cube if bits.startswith(p)), len(p)) for p in cut]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_pool_is_the_oracle_layer_cut(tmp_path, seed):
    for f in gen_corpus(seed, 20, tmp_path):
        program = parse_program(f.read_text())
        cube = [(t, decision_sequence(program, t)[0]) for t in domain_cube(program.inputs)]
        for final_depth in (0, 1, 3, 6):
            completed, frontier = enumerate_paths(program, final_depth)
            for workers in (1, 2, 3, 4, 7):
                want = layer_cut(cube, completed, frontier, final_depth, workers)
                got = seed_pool(program, workers, final_depth)
                assert got == want, (f.name, workers, final_depth)


# -- scripted workers: each entry is ('recv', type) or ('send', message)


class ScriptedWorker(threading.Thread):
    def __init__(self, transport, script, errors):
        super().__init__(daemon=True)
        self.transport = transport
        self.script = script
        self.errors = errors
        self.received = []

    def run(self):
        try:
            for step, arg in self.script:
                if step == "recv":
                    msg = self.transport.recv(timeout=20)
                    self.received.append(msg)
                    if not isinstance(msg, arg):
                        raise AssertionError(f"expected {arg.__name__}, got {msg!r}")
                elif step == "send":
                    self.transport.send(arg)
                else:
                    time.sleep(arg)
        except BaseException as e:  # pragma: no cover - surfaced by the test
            self.errors.append(e)


def run_scripted(program, num_workers, scripts, **cfg_kw):
    hub = QueueHub(num_workers)
    errors: list[BaseException] = []
    workers = [
        ScriptedWorker(hub.transport_for(w), scripts[w], errors)
        for w in range(num_workers)
    ]
    for w in workers:
        w.start()
    cfg = RunConfig(
        mode="threads",
        workers=num_workers,
        final_depth=cfg_kw.pop("final_depth", 3),
        strategy=cfg_kw.pop("strategy", Strategy("dfs")),
        **cfg_kw,
    )
    result = run_coordinator(hub, program, cfg)
    for w in workers:
        w.join(timeout=20)
        assert not w.is_alive()
    assert errors == [], errors
    return result, workers


def all_paths(tallies):
    """Every worker's completed paths, sorted."""
    return sorted(p for t in tallies for p in t.paths)


def fin(paths=(), **kw):
    """A Finish carrying `paths`, path bit strings as the codec requires."""
    return Finish(EngineStats(paths=list(paths), **kw))


def test_offload_is_forwarded_to_idle_worker_as_task():
    # pool has one pair; worker 1 idles, worker 0 is asked and offloads
    scripts = {
        0: [
            ("recv", Task),
            ("recv", ProvideWork),
            ("send", Offload({"x": 2}, 1)),
            ("recv", ProvideWork),  # re-polled after the thief finishes
            ("send", NoWork()),
            ("send", fin(["0"])),
            ("recv", Terminate),
        ],
        1: [
            ("recv", Task),
            ("send", fin(["1"])),
            ("recv", Terminate),
        ],
    }
    (tallies, _, undispatched), workers = run_scripted(STRAIGHT, 2, scripts)
    assert tallies[0].transfers_out == 1
    assert tallies[1].transfers_in == 1
    forwarded = workers[1].received[0]
    assert forwarded == Task(Strategy("dfs"), {"x": 2}, 1, 3)
    assert all_paths(tallies) == ["0", "1"]
    assert undispatched == 0


def test_unsolicited_offload_is_pooled_and_redispatched():
    scripts = {
        0: [
            ("recv", Task),
            ("send", Offload({"x": 3}, 2)),
            ("send", fin(["00"])),
            ("recv", Task),  # the pooled pair comes back
            ("send", fin(["01"])),
            ("recv", Terminate),
        ],
    }
    (tallies, _, _), workers = run_scripted(STRAIGHT, 1, scripts)
    assert tallies[0].transfers_out == 1
    assert tallies[0].transfers_in == 0
    assert tallies[0].regions == 2
    assert workers[0].received[1] == Task(Strategy("dfs"), {"x": 3}, 2, 3)
    assert all_paths(tallies) == ["00", "01"]


def test_every_busy_worker_is_asked_once_per_idle_episode():
    # two busy workers decline; the coordinator stops asking until a Finish
    scripts = {
        0: [
            ("recv", Task),
            ("recv", ProvideWork),
            ("send", NoWork()),
            ("send", fin(["10"])),
            ("recv", Terminate),
        ],
        1: [
            ("recv", Task),
            ("recv", ProvideWork),
            ("send", NoWork()),
            ("recv", ProvideWork),  # new episode after worker 0 finished
            ("send", NoWork()),
            ("send", fin(["11"])),
            ("recv", Terminate),
        ],
        2: [
            ("recv", Terminate),  # idle worker is never polled for work
        ],
    }
    (tallies, _, _), workers = run_scripted(ONE_BRANCH, 3, scripts)
    assert tallies[2].regions == 0
    assert [type(m).__name__ for m in workers[2].received] == ["Terminate"]
    assert all_paths(tallies) == ["10", "11"]


def test_zero_time_budget_dispatches_nothing():
    scripts = {
        0: [("recv", Terminate)],
        1: [("recv", Terminate)],
    }
    (tallies, pool_size, undispatched), _ = run_scripted(ONE_BRANCH, 2, scripts, time_budget=0.0)
    assert undispatched == pool_size == 2
    assert all_paths(tallies) == []
    assert all(t.regions == 0 for t in tallies)


def test_deadline_terminates_each_worker_at_its_finish():
    # pool of 4, three workers: one pair is left undispatched when the
    # budget expires while the first three regions are in flight
    prog = parse_program(
        "program p;\nsym x in [0, 3];\nsym y in [0, 3];\n"
        "if (x < 2) { t = 0; } else { t = 1; }\n"
        "if (y < 2) { exit(0); } else { exit(1); }\n"
    )
    assert len(seed_pool(prog, 3, 4)) == 4
    scripts = {
        w: [
            ("recv", Task),
            ("sleep", 0.5),
            ("send", fin([f"{w:02b}"])),
            ("recv", Terminate),
        ]
        for w in range(3)
    }
    (tallies, pool_size, undispatched), _ = run_scripted(
        prog, 3, scripts, final_depth=4, time_budget=0.1
    )
    assert pool_size == 4
    assert undispatched == 1
    assert all_paths(tallies) == ["00", "01", "10"]


def test_stale_no_work_after_finish_is_ignored():
    scripts = {
        0: [
            ("recv", Task),
            ("recv", ProvideWork),
            ("send", fin(["0"])),  # finishes instead of answering
            ("send", NoWork()),  # late answer arrives afterwards
            ("recv", Terminate),
        ],
        1: [
            ("recv", Task),
            ("sleep", 0.3),
            ("recv", ProvideWork),  # the next idle episode polls worker 1
            ("send", NoWork()),
            ("send", fin(["1"])),
            ("recv", Terminate),
        ],
        2: [("recv", Terminate)],
    }
    (tallies, _, _), _ = run_scripted(ONE_BRANCH, 3, scripts)
    assert all_paths(tallies) == ["0", "1"]


def test_unexpected_message_raises_protocol_error():
    hub = QueueHub(1)
    errors: list[BaseException] = []
    w = ScriptedWorker(
        hub.transport_for(0),
        [("recv", Task), ("send", Task(Strategy("dfs"), {}, 0, 1))],
        errors,
    )
    w.start()
    cfg = RunConfig(mode="threads", workers=1, final_depth=3)
    with pytest.raises(proto.ProtocolError, match="unexpected Task"):
        run_coordinator(hub, STRAIGHT, cfg)
    w.join(timeout=10)
    assert errors == []


def test_strategy_and_final_depth_travel_in_tasks():
    scripts = {
        0: [("recv", Task), ("send", fin()), ("recv", Terminate)],
    }
    _, workers = run_scripted(
        STRAIGHT, 1, scripts, strategy=Strategy("random", 31), final_depth=7
    )
    task = workers[0].received[0]
    assert task.strategy == Strategy("random", 31)
    assert task.final_depth == 7
    assert task.test_depth == 0


# -- schedule hub record/replay


def scheduled_hub(arrivals, replay, prompts):
    """A ScheduleHub over a fresh QueueHub whose coordinator has sent each
    worker the requests in `prompts` (worker -> count), so each worker owes
    that many answers."""
    hub = QueueHub(2)
    sh = ScheduleHub(hub, arrivals, replay)
    for wid, n in prompts.items():
        for _ in range(n):
            sh.send(wid, ProvideWork())
    return hub, sh


def test_receiver_records_arrival_order():
    recorded = []
    hub, sh = scheduled_hub(recorded, False, {0: 1, 1: 1})
    hub.inbox.put((1, proto.encode(NoWork())))
    hub.inbox.put((0, proto.encode(fin())))
    assert sh.recv(5)[0] == 1
    assert sh.recv(5)[0] == 0
    assert recorded == [(1, "NoWork"), (0, "Finish")]


def test_receiver_replay_reorders_buffered_messages():
    hub, sh = scheduled_hub([(0, "NoWork"), (1, "NoWork")], True, {0: 1, 1: 1})
    hub.inbox.put((1, proto.encode(NoWork())))
    hub.inbox.put((0, proto.encode(NoWork())))
    assert sh.recv(5) == (0, NoWork())
    assert sh.recv(5) == (1, NoWork())
    with pytest.raises(proto.ProtocolError, match="exhausted"):
        sh.recv(5)


def test_receiver_replay_takes_each_workers_messages_in_order():
    def receiver(schedule, order=(0, 1, 0)):
        hub, sh = scheduled_hub(schedule, True, {0: 2, 1: 1})
        msgs = {0: [NoWork(), fin(["0"])], 1: [fin(["1"])]}
        for wid in order:  # each worker's own messages stay in order
            hub.inbox.put((wid, proto.encode(msgs[wid].pop(0))))
        return sh

    rx = receiver([(0, "NoWork"), (0, "Finish"), (1, "Finish")])
    assert rx.recv(5) == (0, NoWork())
    wid, msg = rx.recv(5)
    assert wid == 0 and msg.stats.paths == ["0"]
    wid, msg = rx.recv(5)
    assert wid == 1 and msg.stats.paths == ["1"]
    # worker 0 sent NoWork before its Finish, so a schedule taking the
    # Finish first can never be met: replay fails on the first message
    rx = receiver([(0, "Finish"), (0, "NoWork"), (1, "Finish")])
    with pytest.raises(proto.ProtocolError, match="expects Finish from worker 0"):
        rx.recv(5)
    # so does an out-of-order message from a worker replay is not waiting
    # on: worker 0's NoWork arrives while replay waits for worker 1
    rx = receiver([(1, "Finish"), (0, "Finish")])
    with pytest.raises(proto.ProtocolError, match="expects Finish from worker 0"):
        rx.recv(5)
    # and a message buffered behind an older one is checked when taken
    rx = receiver([(1, "Finish"), (0, "NoWork"), (0, "NoWork")], order=(0, 0, 1))
    assert rx.recv(5)[0] == 1
    assert rx.recv(5) == (0, NoWork())
    with pytest.raises(proto.ProtocolError, match="expects NoWork from worker 0"):
        rx.recv(5)


def test_receiver_replay_refuses_to_wait_on_a_worker_owing_no_answer():
    # worker 1 was sent one request and has answered it; a schedule that
    # waits for a second answer can never be met, so replay fails at once
    # instead of waiting out the recv timeout
    hub, sh = scheduled_hub([(1, "NoWork"), (1, "NoWork")], True, {1: 1})
    hub.inbox.put((1, proto.encode(NoWork())))
    assert sh.recv(60) == (1, NoWork())
    t0 = time.perf_counter()
    with pytest.raises(proto.ProtocolError, match="worker 1, which owes no answer"):
        sh.recv(60)
    assert time.perf_counter() - t0 < 1.0


# -- end to end over queues with real workers


def test_coordinator_with_real_workers_completes_the_tree():
    from tdpart.worker import run_worker

    hub = QueueHub(2)
    cfg = RunConfig(mode="threads", workers=2, final_depth=3)
    threads = []
    for wid in range(2):
        t = threading.Thread(
            target=run_worker, args=(hub.transport_for(wid), FIND_MIDDLE, cfg), daemon=True
        )
        t.start()
        threads.append(t)
    tallies, _, _ = run_coordinator(hub, FIND_MIDDLE, cfg)
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert all_paths(tallies) == ["000", "001", "01", "100", "101", "11"]
    assert sum(t.regions for t in tallies) == 2
    assert any(t.truncated for t in tallies) is False
