"""Worker loop: task service, suspended-state reuse, offload answers."""

import threading
from collections import Counter
from pathlib import Path

import pytest

from tdpart import proto, worker
from tdpart.coord import run_coordinator, seed_pool
from tdpart.engine import Engine, ExecState, Strategy
from tdpart.harness import RunConfig, ScheduleTransport, calibrate_depth, run_program
from tdpart.lang import Binary, Const, Var, parse_program
from tdpart.proto import Finish, NoWork, Offload, ProvideWork, QueueHub, Task, Terminate
from tdpart.solve import PathCondition
from tdpart.worker import choose_offload, run_worker

FIND_MIDDLE = parse_program(Path("programs/find_middle.tdp").read_text())

T3 = {"x": -8, "y": -8, "z": -8}
T5 = {"x": -8, "y": -7, "z": -8}
T01 = {"x": -8, "y": -8, "z": -7}
T11 = {"x": -8, "y": -7, "z": -6}


@pytest.fixture(autouse=True)
def short_recv(monkeypatch):
    # a worker or coordinator that stalls fails a test in 20 s, not 120 s
    monkeypatch.setattr(proto, "RECV_TIMEOUT", 20)


class WorkerHarness:
    """run_worker in a thread, driven message by message from the test.
    With `polls`, the worker polls exactly at those (region, step) points,
    as in a replayed schedule."""

    def __init__(self, program, cfg: RunConfig | None = None, polls=None):
        self.hub = QueueHub(1)
        self.sent = []  # every message the worker sent, in order
        self.error = None
        cfg = cfg or RunConfig()
        transport = self.hub.transport_for(0)
        if polls is not None:
            transport = ScheduleTransport(transport, polls, replay=True)

        def body():
            try:
                run_worker(transport, program, cfg)
            except BaseException as e:
                self.error = e

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()

    def send(self, msg):
        self.hub.send(0, msg)

    def recv(self):
        wid, msg = self.hub.recv(timeout=20)
        assert wid == 0
        self.sent.append(msg)
        return msg

    def finish(self):
        """Terminate the worker; the count of each kind of message it sent,
        those the test did not read included."""
        self.send(Terminate())
        self.thread.join(timeout=20)
        assert not self.thread.is_alive()
        if self.error is not None:
            raise self.error
        while True:
            try:
                _, msg = self.hub.recv(timeout=0)
            except proto.RecvTimeout:
                return Counter(type(m).__name__ for m in self.sent)
            self.sent.append(msg)


def test_worker_serves_full_region_and_idle_poll():
    h = WorkerHarness(FIND_MIDDLE)
    h.send(Task(Strategy("dfs"), {"x": -8, "y": -8, "z": -8}, 0, 3))
    msg = h.recv()
    assert isinstance(msg, Finish)
    assert sorted(msg.stats.paths) == ["000", "001", "01", "100", "101", "11"]
    # idle workers answer steal requests with NoWork
    h.send(ProvideWork())
    assert h.recv() == NoWork()
    assert msg.stats.states_suspended == 0
    assert h.finish() == {"Finish": 1, "NoWork": 1}


def test_worker_resumes_suspended_states_across_tasks():
    h = WorkerHarness(FIND_MIDDLE)
    h.send(Task(Strategy("dfs"), T3, 2, 3))
    first = h.recv()
    assert sorted(first.stats.paths) == ["000", "001"]
    assert first.stats.states_suspended == 2  # the "1" and "01" siblings

    # the next pair lands on the suspended "01" state: no forks, no suspends
    h.send(Task(Strategy("dfs"), T01, 2, 3))
    second = h.recv()
    assert second.stats.paths == ["01"]
    assert second.stats.states_created == 0
    assert second.stats.states_suspended == 0

    # T5 resumes the depth-1 "1" sibling and explores the 10 subtree
    h.send(Task(Strategy("dfs"), T5, 2, 3))
    third = h.recv()
    assert sorted(third.stats.paths) == ["100", "101"]
    assert third.stats.states_created == 4  # one guided fork, one solver fork
    assert third.stats.states_suspended == 1  # the "11" sibling

    # three states were suspended and two resumed: the one left, "11", is
    # resumed by a test on its path, with nothing to replay or fork
    h.send(Task(Strategy("dfs"), T11, 2, 3))
    fourth = h.recv()
    assert fourth.stats.paths == ["11"]
    assert fourth.stats.states_created == 0
    assert h.finish() == {"Finish": 4}


@pytest.fixture
def lookups(monkeypatch):
    """(suspended states the test satisfies, state picked) per lookup."""
    seen = []
    real = Engine.find_resumable

    def counting(self, test):
        picked = real(self, test)
        seen.append((sum(s.pc.satisfied_by(test) for s in self.suspended), picked))
        return picked

    monkeypatch.setattr(Engine, "find_resumable", counting)
    return seen


def test_a_dispatched_test_matches_at_most_one_suspended_state(monkeypatch, lookups):
    # A worker's suspended list stays prefix-free: a state is only suspended
    # while replaying past its sibling, and any listed ancestor would have
    # been resumed (and removed) by that same replay first. A test therefore
    # matches at most one listed state, so the deepest match is the only one.
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 1)
    strategies = (Strategy("dfs"), Strategy("bfs"), Strategy("random", 5))
    for path in sorted(Path("programs/corpus").glob("*.tdp")):
        program = parse_program(path.read_text())
        for workers in (2, 4):
            for strategy in strategies:
                cfg = RunConfig(mode="threads", workers=workers, strategy=strategy, final_depth=26)
                assert not run_program(program, cfg).truncated
    assert max(n for n, _ in lookups) <= 1


def test_serving_a_pool_in_order_resumes_suspended_states(lookups):
    # how many lookups resume a state in threaded runs depends on timing;
    # one worker served each seeded pool in pool order does not
    for path in sorted(Path("programs/corpus").glob("*.tdp")):
        program = parse_program(path.read_text())
        for workers in (2, 4):
            hub = QueueHub(1)
            pool = seed_pool(program, workers, 26)
            for pair in pool:
                hub.send(0, Task(Strategy("dfs"), pair.test, pair.depth, 26))
            hub.send(0, Terminate())
            # a replayed schedule with no poll hits: no Task is read mid-region
            transport = ScheduleTransport(hub.transport_for(0), set(), replay=True)
            run_worker(transport, program, RunConfig())
            for _ in pool:
                _, msg = hub.recv(timeout=1)
                assert isinstance(msg, Finish) and not msg.stats.truncated
    assert len(lookups) == 120
    assert sum(picked is not None for _, picked in lookups) == 80
    assert max(n for n, _ in lookups) <= 1


def test_a_root_is_looked_up_once_per_guided_region(monkeypatch):
    # the engine looks up a suspended state for each region of test depth
    # above 0, on the thread that runs it, and for no other region: single
    # mode, seeding and calibration run only the root pair
    finds, guided = Counter(), Counter()
    real_find, real_start = Engine.find_resumable, Engine.start_execution

    def find_resumable(self, test):
        finds[threading.current_thread().name] += 1
        return real_find(self, test)

    def start_execution(self, test, test_depth, *args, **kw):
        if test_depth > 0:
            guided[threading.current_thread().name] += 1
        return real_start(self, test, test_depth, *args, **kw)

    monkeypatch.setattr(Engine, "find_resumable", find_resumable)
    monkeypatch.setattr(Engine, "start_execution", start_execution)
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 1)
    program = parse_program(Path("programs/corpus/prog_05.tdp").read_text())
    assert not run_program(program, RunConfig(final_depth=26)).truncated
    # every seeded pair lies below the root, and each run dispatches them all
    pairs = [seed_pool(program, workers, 26) for workers in (2, 3)]
    assert all(pair.depth > 0 for pool in pairs for pair in pool)
    assert calibrate_depth(program, 5.0) > 0
    assert not finds and not guided
    for mode in ("threads", "tcp"):
        for workers in (2, 3):
            run_program(program, RunConfig(mode=mode, workers=workers, final_depth=26))
    assert finds == guided
    assert sum(guided.values()) >= 2 * sum(map(len, pairs))


def test_worker_offloads_above_threshold_at_forced_poll(monkeypatch):
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 2)
    h = WorkerHarness(FIND_MIDDLE, polls={(0, 2)})
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    h.send(ProvideWork())  # consumed by the scheduled poll at step 3
    off = h.recv()
    # dfs after two steps holds {0, 10, 11}: the shallowest goes
    assert off == Offload(T3, 1)
    fin = h.recv()
    assert sorted(fin.stats.paths) == ["100", "101", "11"]
    assert h.finish()["Offload"] == 1


def test_a_forced_poll_lands_in_the_region_its_index_names(monkeypatch):
    # the transport numbers regions by the Tasks it receives: a poll forced
    # at (1, 2) happens in the second Task's region, so the first region runs
    # without polling (a recv there would take Task 2 as a steal request)
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 2)
    h = WorkerHarness(FIND_MIDDLE, polls={(1, 2)})
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    h.send(ProvideWork())
    assert len(h.recv().stats.paths) == 6
    assert h.recv() == Offload(T3, 1)
    assert sorted(h.recv().stats.paths) == ["100", "101", "11"]
    assert h.finish()["Offload"] == 1


def test_worker_answers_no_work_at_or_below_threshold(monkeypatch):
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 4)
    h = WorkerHarness(FIND_MIDDLE, polls={(0, 0)})
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    h.send(ProvideWork())
    assert h.recv() == NoWork()
    fin = h.recv()
    assert len(fin.stats.paths) == 6
    assert h.finish()["Offload"] == 0


def test_offloaded_subtree_is_exactly_the_missing_part(monkeypatch):
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 2)
    h = WorkerHarness(FIND_MIDDLE, polls={(0, 2)})
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    h.send(ProvideWork())
    off = h.recv()
    victim_paths = set(h.recv().stats.paths)
    h.finish()

    thief = WorkerHarness(FIND_MIDDLE)
    thief.send(Task(Strategy("dfs"), off.test, off.depth, 3))
    thief_paths = set(thief.recv().stats.paths)
    thief.finish()

    assert victim_paths.isdisjoint(thief_paths)
    assert victim_paths | thief_paths == {"000", "001", "01", "100", "101", "11"}


def test_forced_polls_in_the_guided_phase_never_widen_the_region(monkeypatch):
    # even at threshold 0, the guided-phase states at steps 0 and 1 (depths
    # 0 and 1 < test depth 2) stay put: an Offload of one would name the
    # whole tree, or the "0" subtree, instead of the task's "01" region
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 0)
    h = WorkerHarness(FIND_MIDDLE, polls={(0, 0), (0, 1)})
    h.send(Task(Strategy("dfs"), T01, 2, 3))
    h.send(ProvideWork())
    h.send(ProvideWork())
    assert h.recv() == NoWork()
    assert h.recv() == NoWork()
    fin = h.recv()
    assert fin.stats.paths == ["01"]
    assert h.finish()["Offload"] == 0


class SelfServedPolls:
    """Worker transport, beneath a replaying ScheduleTransport, that answers
    the worker's own scheduled polls: a recv between a Task and its Finish
    can only be a scheduled poll, and it gets a ProvideWork at once, whatever
    the coordinator is doing. The answers (Offload or NoWork) still reach
    the coordinator, unasked."""

    def __init__(self, inner):
        self.inner = inner
        self.in_region = False

    def send(self, msg):
        if isinstance(msg, Finish):
            self.in_region = False
        self.inner.send(msg)

    def recv(self, timeout=None):
        if self.in_region:
            return ProvideWork()
        msg = self.inner.recv(timeout)
        self.in_region = isinstance(msg, Task)
        return msg

    def poll(self):
        return self.inner.poll()

    def close(self):
        self.inner.close()


def run_with_forced_polls(program, workers: int, final_depth: int, polls: frozenset):
    """A threads-style run whose workers poll exactly at `polls`
    ((region, step) pairs, as in a replayed schedule), offloading above
    worker.OFFLOAD_THRESHOLD. Returns (completed paths, frontier count,
    offloads)."""
    hub = QueueHub(workers)
    cfg = RunConfig(mode="threads", workers=workers, final_depth=final_depth)
    errors = []

    def body(wid: int) -> None:
        transport = ScheduleTransport(SelfServedPolls(hub.transport_for(wid)), polls, replay=True)
        try:
            run_worker(transport, program, cfg)
        except BaseException as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=body, args=(w,), daemon=True) for w in range(workers)]
    for t in threads:
        t.start()
    try:
        tallies, _, _ = run_coordinator(hub, program, cfg)
    finally:
        hub.close()
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert not errors, errors
    frontier = sum(t.frontier for t in tallies)
    paths = sorted(p for t in tallies for p in t.paths)
    return paths, frontier, sum(t.transfers_out for t in tallies)


def test_forced_polls_keep_the_path_multiset(monkeypatch):
    # polls at step 0 and through the guided phase of every region (and a
    # few steps past it, where offloads happen) over threads x2/x4: each
    # Offload must name a sub-pair of its task, so the completed paths and
    # the frontier equal single mode's
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 1)
    polls = frozenset((r, s) for r in range(2000) for s in range(6))
    programs = sorted(Path("programs/corpus").glob("*.tdp")) + sorted(
        Path("perfbench/programs").glob("*.tdp")
    )
    offloads = 0
    for path in programs:
        program = parse_program(path.read_text())
        single = run_program(program, RunConfig(final_depth=8))
        want = (sorted(single.paths), single.tallies[0].frontier)
        for workers in (2, 4):
            paths, frontier, n = run_with_forced_polls(program, workers, 8, polls)
            assert (paths, frontier) == want, (path.name, workers)
            offloads += n
    assert offloads > 0


def test_unexpected_message_mid_region_raises():
    h = WorkerHarness(FIND_MIDDLE, polls={(0, 0)})
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    h.send(Terminate())  # arrives at the scheduled poll instead of ProvideWork
    h.thread.join(timeout=20)
    assert isinstance(h.error, proto.ProtocolError)
    assert "unexpected Terminate" in str(h.error)


def test_unexpected_message_while_idle_raises():
    h = WorkerHarness(FIND_MIDDLE)
    h.send(Offload({"x": 0}, 1))
    h.thread.join(timeout=20)
    assert isinstance(h.error, proto.ProtocolError)
    assert "unexpected Offload" in str(h.error)


def _state(depth_bits: str, serial: int) -> ExecState:
    pc = PathCondition()
    for b in depth_bits:
        pc = pc.extend(Binary("<", Var("x"), Const(serial)), b == "1")
    return ExecState(block=0, instr=0, env={}, pc=pc, serial=serial)


def test_choose_offload_prefers_shallow_then_early():
    deep = _state("110", serial=7)
    shallow_late = _state("0", serial=9)
    shallow_early = _state("1", serial=3)
    assert choose_offload([deep, shallow_late, shallow_early]) is shallow_early
    assert choose_offload([deep, shallow_late]) is shallow_late
    assert choose_offload([deep]) is deep


def test_choose_offload_skips_guided_phase_states():
    guided = _state("0", serial=1)
    below = _state("011", serial=8)
    at_depth = _state("01", serial=9)
    assert choose_offload([guided, below, at_depth], test_depth=2) is at_depth
    assert choose_offload([guided, below], test_depth=2) is below
    assert choose_offload([guided], test_depth=2) is None


def test_worker_cache_persists_across_regions():
    h = WorkerHarness(FIND_MIDDLE)
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    first = h.recv()
    h.send(Task(Strategy("dfs"), {}, 0, 3))
    second = h.recv()
    h.finish()
    # an identical region replayed against a warm cache never re-solves
    assert second.stats.solver_queries == first.stats.solver_queries
    assert second.stats.cache_hits == second.stats.solver_queries
