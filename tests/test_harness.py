"""Run modes, reports, verification, corpus generation, and the CLI."""

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from pathlib import Path

import pytest

from oracles import enumerate_paths
from tdpart import coord, engine, harness, lang, proto, solve, worker
from tdpart.coord import WorkerTally
from tdpart.engine import Engine, EngineStats, Strategy
from tdpart.harness import (
    REPORT_HEADER,
    ReportData,
    RunConfig,
    RunOutput,
    Schedule,
    calibrate_depth,
    corpus_shape,
    gen_corpus,
    load_report,
    main,
    path_digest,
    program_digest,
    report_data,
    report_rows,
    report_text,
    run_program,
    verify_reports,
    write_report,
)
from tdpart.proto import TransportClosed

FM_PATH = Path("programs/find_middle.tdp")
FIND_MIDDLE = lang.parse_program(FM_PATH.read_text())
FM_PATHS = ["000", "001", "01", "100", "101", "11"]
LOOPS = lang.parse_program(Path("perfbench/programs/loops.tdp").read_text())
PROG_05 = lang.parse_program(Path("programs/corpus/prog_05.tdp").read_text())


def fm_run(**kw) -> RunOutput:
    kw.setdefault("final_depth", 3)
    return run_program(FIND_MIDDLE, RunConfig(**kw))


# -- run modes


def test_single_mode_completes_all_paths():
    out = fm_run()
    assert sorted(out.paths) == FM_PATHS
    assert out.mode == "single"
    assert out.num_workers == 1
    assert out.pool_size == 1
    assert out.undispatched == 0
    assert not out.truncated


def test_path_digest_is_order_free_and_multiset_sensitive():
    assert path_digest(["11", "01"]) == path_digest(["01", "11"])
    assert path_digest(["01"]) != path_digest(["01", "01"])
    expected = hashlib.sha256("\n".join(FM_PATHS).encode()).hexdigest()
    assert path_digest(["11", "000", "01", "100", "001", "101"]) == expected


def test_all_modes_agree_on_the_path_multiset():
    single = fm_run()
    want = path_digest(single.paths)
    threads2 = fm_run(mode="threads", workers=2)
    threads3 = fm_run(mode="threads", workers=3, strategy=Strategy("bfs"))
    tcp2 = fm_run(mode="tcp", workers=2, strategy=Strategy("random", 7))
    for out in (threads2, threads3, tcp2):
        assert path_digest(out.paths) == want
        assert not out.truncated
        assert out.undispatched == 0


def test_distributed_tallies_cover_the_pool():
    out = fm_run(mode="threads", workers=2)
    assert len(out.tallies) == 2
    assert sum(t.regions for t in out.tallies) == out.pool_size
    assert sorted(p for t in out.tallies for p in t.paths) == sorted(out.paths)


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_distributed_run_without_workers_fails_at_once(mode):
    # nothing could take the pool, so the coordinator would wait out its
    # 120 s recv timeout
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="workers"):
        fm_run(mode=mode, workers=0)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_a_raising_worker_fails_the_run_at_once(monkeypatch, mode):
    # the worker closes its transport, so the coordinator does not wait out
    # its 120 s recv timeout, and the run reports the worker's own error
    real = Engine.start_execution

    def start_execution(self, *args, **kw):
        if threading.current_thread().name.startswith("tdpart-worker"):
            raise RuntimeError("worker fault")
        return real(self, *args, **kw)

    monkeypatch.setattr(Engine, "start_execution", start_execution)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker fault") as info:
        fm_run(mode=mode, workers=2)
    assert time.perf_counter() - t0 < 5.0
    assert isinstance(info.value.__cause__, TransportClosed)


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_a_deadline_mid_run_stops_workers_cleanly(monkeypatch, mode):
    # past the deadline a worker that finishes is terminated while the other
    # is still busy; its closing transport is no failure
    single = set(run_program(LOOPS, RunConfig(final_depth=15)).paths)
    monkeypatch.setattr(engine, "SOLVER_DELAY", 0.0005)
    for _ in range(2):
        out = run_program(LOOPS, RunConfig(mode=mode, workers=2, final_depth=15,
                                           time_budget=0.02))
        assert len(set(out.paths)) == len(out.paths) and set(out.paths) <= single


def _deep(depth):
    """An assignment and a symbolic branch condition, each `depth` deep."""
    return (
        "program deep;\nsym x in [0, 1];\n"
        f"t = {'-' * (depth - 1)}x;\n"
        f"if (x{' + 1' * (depth - 2)} > {depth - 2}) {{ exit(1); }}\nexit(0);\n"
    )


def test_the_deepest_expression_validate_accepts_runs_in_every_mode():
    depth = sys.getrecursionlimit() - lang.EXPR_DEPTH_HEADROOM
    program = lang.parse_program(_deep(depth))
    assert lang.validate(program) == []
    for mode in ("single", "threads", "tcp"):
        out = run_program(program, RunConfig(mode=mode, workers=2, final_depth=4))
        assert sorted(out.paths) == ["0", "1"], mode
    deeper = lang.parse_program(_deep(depth + 1))
    too_deep = f"expression {depth + 1} deep, past the depth limit {depth} (block b0)"
    assert lang.validate(deeper) == [too_deep, too_deep]


# a loop that adds an input to a value once per iteration: 1,000 iterations
# build an expression 1,000 deep
DEEP_LOOP = (
    "program deep;\nsym x in [0, 3];\nacc = 0;\ni = 0;\n"
    "while (i < 1000) { acc = acc + x; i = i + 1; }\n"
    "if (acc > 5) { exit(1); }\nexit(0);\n"
)


@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
def test_a_value_a_loop_builds_too_deep_is_a_clear_error(mode, tmp_path, capsys):
    program = lang.parse_program(DEEP_LOOP)
    assert lang.validate(program) == []
    with pytest.raises(ValueError, match="nests past the recursion limit"):
        run_program(program, RunConfig(mode=mode, workers=2, final_depth=3))
    # the failed run stopped and joined its worker threads
    assert not [t for t in threading.enumerate() if t.name.startswith("tdpart-worker")]
    path = tmp_path / "deep.tdp"
    path.write_text(DEEP_LOOP)
    argv = ["run", "--program", str(path), "--max-depth", "3", "--mode", mode]
    assert main(argv + ([] if mode == "single" else ["--workers", "2"])) == 2
    assert capsys.readouterr().out.startswith("error: a symbolic expression nests past")


def test_calibrating_on_a_value_a_loop_builds_too_deep_is_a_clear_error(tmp_path, capsys):
    # 5,000 iterations add one to an input-derived value: calibration's
    # region builds it past the recursion limit before any branch
    path = tmp_path / "deep.tdp"
    path.write_text(
        "program deep;\nsym x in [0, 1];\ni = 0;\ny = x;\n"
        "while (i < 5000) { y = y + 1; i = i + 1; }\n"
        "if (y > 3) { exit(1); }\nexit(0);\n"
    )
    for depth in (["--max-depth", "3"], ["--calibrate-timeout", "1"]):
        assert main(["run", "--program", str(path), *depth]) == 2
        assert capsys.readouterr().out.startswith(
            "error: a symbolic expression nests past the recursion limit"), depth
    with pytest.raises(ValueError, match="nests past the recursion limit"):
        calibrate_depth(lang.parse_program(path.read_text()), 1.0)


def test_a_tcp_run_works_with_descriptors_past_fd_setsize():
    # select() refuses a descriptor past FD_SETSIZE (1,024); with 1,100
    # files open, the run's sockets all lie past it
    resource = pytest.importorskip("resource")
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("the soft limit on open files is below 1,200")
    held = []
    try:
        held += [open(os.devnull) for _ in range(1100)]
        out = fm_run(mode="tcp", workers=2)
    finally:
        for f in held:
            f.close()
    assert sorted(out.paths) == FM_PATHS


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_tcp_run_starts_one_thread_per_worker(monkeypatch, workers):
    # the coordinator reads the worker sockets itself, on its own thread, and
    # worker threads park between runs: a run starts at most one thread per
    # worker, and a second run with as many workers starts none
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert sorted(fm_run(mode="tcp", workers=workers).paths) == FM_PATHS
    assert len(started) <= workers
    assert all(name.startswith("tdpart-worker-") for name in started)
    started.clear()
    assert sorted(fm_run(mode="tcp", workers=workers).paths) == FM_PATHS
    assert started == []


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_each_tally_counts_the_regions_its_worker_thread_ran(monkeypatch, mode):
    # worker id k is thread tdpart-worker-k: in tcp mode the workers connect
    # in id order before the hub accepts
    ran = Counter()
    real = Engine.start_execution

    def start_execution(self, *args, **kw):
        ran[threading.current_thread().name] += 1
        return real(self, *args, **kw)

    monkeypatch.setattr(Engine, "start_execution", start_execution)
    # steals under a solver delay spread the regions unevenly
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 1)
    monkeypatch.setattr(engine, "SOLVER_DELAY", 0.0005)
    for _ in range(3):
        ran.clear()
        out = run_program(LOOPS, RunConfig(mode=mode, workers=4, final_depth=15))
        # seeding runs one bfs region on the coordinator's thread
        assert ran.pop(threading.current_thread().name) == 1
        names = [f"tdpart-worker-{k}" for k in range(4)]
        assert set(ran) <= set(names)
        assert [t.regions for t in out.tallies] == [ran[n] for n in names]


# -- the module constants a run reads at call time


@pytest.mark.parametrize("mode, workers", [("single", 1), ("threads", 2), ("tcp", 2)])
def test_each_uncached_query_waits_the_solver_delay(monkeypatch, mode, workers):
    # every miss waits engine.SOLVER_DELAY and no hit does; seeding's engine,
    # on the caller's thread, waits too, but its queries are in no tally
    want = path_digest(run_program(PROG_05, RunConfig(final_depth=26)).paths)
    delay, slept, real_sleep = 1e-6, [], time.sleep

    def sleep(secs):
        if secs == delay:
            slept.append(threading.current_thread().name)
        real_sleep(secs)

    monkeypatch.setattr(engine, "SOLVER_DELAY", delay)
    monkeypatch.setattr(time, "sleep", sleep)
    out = run_program(PROG_05, RunConfig(mode=mode, workers=workers, final_depth=26))
    assert path_digest(out.paths) == want
    assert sum(t.cache_hits for t in out.tallies) > 0
    in_regions = slept
    if mode != "single":
        in_regions = [name for name in slept if name.startswith("tdpart-worker-")]
        assert threading.current_thread().name in slept
    assert len(in_regions) == sum(t.solver_queries - t.cache_hits for t in out.tallies)


@pytest.mark.parametrize("mode", ["threads", "tcp"])
@pytest.mark.parametrize("threshold, moves", [(1, True), (10**6, False)])
def test_the_offload_threshold_decides_whether_work_moves(monkeypatch, mode, threshold, moves):
    # under a solver delay the worker that runs dry asks the busy one for
    # work many times: at 1 some ask is granted, and no active set of
    # prog_05 outgrows 10**6
    want = path_digest(run_program(PROG_05, RunConfig(final_depth=26)).paths)
    monkeypatch.setattr(engine, "SOLVER_DELAY", 0.0002)
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", threshold)
    out = run_program(PROG_05, RunConfig(mode=mode, workers=2, final_depth=26))
    assert path_digest(out.paths) == want
    assert (sum(t.transfers_in for t in out.tallies) > 0) == moves


@pytest.mark.parametrize(
    "raw", [{"coordinator": [[2, "Finish"]], "polls": {}}, {"coordinator": [], "polls": {"-1": []}}]
)
def test_replay_rejects_a_schedule_naming_a_worker_the_run_lacks(tmp_path, raw):
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps(raw))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="malformed schedule"):
        fm_run(mode="threads", workers=2, replay_schedule=str(sched))
    assert time.perf_counter() - t0 < 1.0


# a threads x2 run of find_middle at depth 3 recorded this; each poll hit
# gets one NoWork or Offload, which arrives before the worker's Finish for
# the hit's region
RECORDED = {"coordinator": [[0, "Finish"], [1, "NoWork"], [1, "Finish"]],
            "polls": {"0": [], "1": [[0, 0]]}}


@pytest.mark.parametrize(
    "polls,why",
    [
        ({"0": [[0, 1]], "1": [[0, 0]]}, "regions [0] but 0 NoWork or Offload and 1 Finish"),
        ({"0": [], "1": [[0, 0], [0, 1]]}, "regions [0, 0] but 1 NoWork or Offload and 1 Finish"),
        ({"0": [], "1": [[1, 0]]}, "regions [1] but 1 NoWork or Offload and 1 Finish"),
        ({"0": [], "1": [[-1, 0]]}, "regions [-1] but 1 NoWork or Offload and 1 Finish"),
    ],
    ids=["extra-hit", "second-hit", "late-region", "no-region"],
)
def test_cli_rejects_a_schedule_whose_poll_hits_no_answer_meets(tmp_path, capsys, polls, why):
    # replay would wait on a message that never comes: a worker blocks at a
    # hit no NoWork or Offload answers, for a ProvideWork the coordinator
    # never sends, while the coordinator waits for its Finish
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps({**RECORDED, "polls": polls}))
    t0 = time.perf_counter()
    rc = run_cli("run", "--program", str(FM_PATH), "--max-depth", "3", "--mode", "threads",
                 "--workers", "2", "--replay-schedule", str(sched))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("error: malformed schedule") and why in out


def test_a_recorded_schedule_passes_the_check():
    Schedule.from_json(json.dumps(RECORDED)).check(2)


@pytest.mark.parametrize("mode", ["threads", "tcp"])
@pytest.mark.parametrize("side", ["run_worker", "run_coordinator"])
def test_a_recv_timeout_dumps_every_threads_stack(monkeypatch, capfd, mode, side):
    # a stall that ends in the recv timeout says where each thread stood
    def stalled(*args, **kw):
        raise proto.RecvTimeout(f"{side} recv timed out")

    monkeypatch.setattr(harness, side, stalled)
    with pytest.raises(proto.RecvTimeout, match=side):
        fm_run(mode=mode, workers=2)
    err = capfd.readouterr().err
    assert "most recent call first" in err
    assert "harness.py" in err and "_run_distributed" in err


@pytest.fixture
def recv_waits(monkeypatch):
    """proto.RECV_TIMEOUT patched to 0.5 s; (thread name, timeout) of every
    hub and transport recv."""
    monkeypatch.setattr(proto, "RECV_TIMEOUT", 0.5)
    waits = []
    for cls in (proto.QueueHub, proto.SocketHub, proto.QueueTransport, proto.SocketTransport):
        def recv(self, timeout, real=cls.recv, side=cls.__name__.endswith("Hub")):
            waits.append(("hub" if side else threading.current_thread().name, timeout))
            return real(self, timeout)

        monkeypatch.setattr(cls, "recv", recv)
    return waits


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_every_recv_of_a_run_waits_the_recv_timeout(monkeypatch, capfd, recv_waits, mode):
    # no worker answers its Task: the coordinator times out after the
    # patched 0.5 s, not 120 s
    release = threading.Event()
    real = Engine.start_execution

    def start_execution(self, *args, **kw):
        if threading.current_thread().name.startswith("tdpart-worker"):
            release.wait(timeout=30)
        return real(self, *args, **kw)

    monkeypatch.setattr(Engine, "start_execution", start_execution)
    box = {}

    def run():
        try:
            fm_run(mode=mode, workers=2)
        except BaseException as e:  # checked below
            box["error"] = e

    runner = threading.Thread(target=run, daemon=True)
    t0 = time.perf_counter()
    runner.start()
    runner.join(timeout=10)
    elapsed = time.perf_counter() - t0
    release.set()
    for t in threading.enumerate():
        if t.name.startswith("tdpart-worker"):
            t.join(timeout=10)
    assert not runner.is_alive()
    assert isinstance(box.get("error"), proto.RecvTimeout)
    assert str(box["error"]) == "coordinator recv timed out"
    assert elapsed < 5.0
    assert "most recent call first" in capfd.readouterr().err
    waited = {who for who, _ in recv_waits}
    assert waited == {"hub", "tdpart-worker-0", "tdpart-worker-1"}
    assert {timeout for _, timeout in recv_waits} == {0.5}


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_a_failed_run_leaves_no_worker_thread_behind(monkeypatch, mode):
    # worker 0 is in a region when the coordinator fails, and every worker
    # takes 0.2 s to return after Terminate: the run joins them all first
    real_worker = harness.run_worker

    def slow_to_stop(transport, program, cfg):
        try:
            real_worker(transport, program, cfg)
        finally:
            time.sleep(0.2)

    def dispatch_then_fail(hub, program, cfg):
        hub.send(0, proto.Task(cfg.strategy, {"x": 0, "y": 0, "z": 0}, 0, cfg.final_depth))
        raise RuntimeError("coordinator failed")

    monkeypatch.setattr(harness, "run_worker", slow_to_stop)
    monkeypatch.setattr(harness, "run_coordinator", dispatch_then_fail)
    before = set(threading.enumerate())
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="coordinator failed"):
        fm_run(mode=mode, workers=2)
    elapsed = time.perf_counter() - t0
    left = [t.name for t in set(threading.enumerate()) - before if t.is_alive()]
    assert not [name for name in left if name.startswith("tdpart-worker")]
    assert 0.2 <= elapsed < 5.0


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_a_worker_thread_past_the_deadline_fails_a_run_the_coordinator_finished(
        monkeypatch, mode):
    # worker 0 returns from run_worker 1 s after its Terminate, past the
    # patched 0.3 s deadline of the run's wait for every job
    monkeypatch.setattr(proto, "RECV_TIMEOUT", 0.3)
    real_worker = harness.run_worker

    def slow_to_stop(transport, program, cfg):
        real_worker(transport, program, cfg)
        if threading.current_thread().name == "tdpart-worker-0":
            time.sleep(1.0)

    monkeypatch.setattr(harness, "run_worker", slow_to_stop)
    stop_parked_threads()  # so the run starts every thread it takes
    before = set(threading.enumerate())
    with pytest.raises(proto.ProtocolError, match="^worker thread tdpart-worker-0 failed to stop$"):
        fm_run(mode=mode, workers=2)
    for t in set(threading.enumerate()) - before:
        t.join(timeout=10)  # the late thread stops once its job ends
        assert not t.is_alive()


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_a_worker_error_after_the_coordinator_finished_fails_the_run(monkeypatch, mode):
    real_worker = harness.run_worker

    def fail_after_terminate(transport, program, cfg):
        real_worker(transport, program, cfg)
        if threading.current_thread().name == "tdpart-worker-1":
            raise RuntimeError("worker 1 failed after Terminate")

    monkeypatch.setattr(harness, "run_worker", fail_after_terminate)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="^worker 1 failed after Terminate$"):
        fm_run(mode=mode, workers=2)
    assert not live_worker_threads() - before  # the failed run joined its threads


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_a_worker_thread_that_cannot_start_exits_2(monkeypatch, capsys, mode):
    # thread 0 takes worker 0's job, and thread 1 fails to start as when the
    # system has no thread to give: an error line, not a traceback (exit 1)
    stop_parked_threads()  # so the run starts every thread it takes
    real, started = threading.Thread.start, []

    def start(self):
        if self.name.startswith("tdpart-worker-"):
            started.append(self.name)
            if len(started) == 2:
                raise RuntimeError("can't start new thread")
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    before = set(threading.enumerate())
    rc = run_cli("run", "--program", str(FM_PATH), "--max-depth", "3",
                 "--mode", mode, "--workers", "2")
    assert rc == 2
    out = capsys.readouterr().out
    assert out == "error: cannot start worker thread tdpart-worker-1: can't start new thread\n"
    assert started == ["tdpart-worker-0", "tdpart-worker-1"]
    assert not set(threading.enumerate()) - before  # worker 0's thread was joined
    assert not harness._parked


LONG_PREFIX = lang.parse_program("""
program long_prefix;
sym x in [0, 3];
i = 0;
while (i < 50) {
  i = i + 1;
}
if (x > 1) {
  exit(1);
}
exit(0);
""")


def test_a_truncated_seeding_region_seeds_the_root_pair(monkeypatch):
    # the concrete prefix alone passes the instruction budget: seeding
    # hands the root pair to one worker, which meets the budget as single does
    monkeypatch.setattr(engine, "MAX_STEPS", 40)
    single = run_program(LONG_PREFIX, RunConfig(final_depth=4))
    assert single.truncated and single.pool_size == 1
    for mode in ("threads", "tcp"):
        out = run_program(LONG_PREFIX, RunConfig(mode=mode, workers=2, final_depth=4))
        assert out.truncated and out.pool_size == 1 and out.undispatched == 0, mode
        assert path_digest(out.paths) == path_digest(single.paths), mode


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_a_worker_sent_nothing_times_out_at_the_recv_timeout(recv_waits, mode):
    if mode == "threads":
        hub = proto.QueueHub(1)
        transport = hub.transport_for(0)
    else:
        hub = proto.SocketHub(1)
        transport = proto.SocketTransport(socket.create_connection(hub.address, timeout=10))
        hub.accept_all()
    box = {}

    def body():
        try:
            harness.run_worker(transport, FIND_MIDDLE, RunConfig())
        except BaseException as e:  # checked below
            box["error"] = e
        finally:
            transport.close()

    worker = threading.Thread(target=body, name="worker", daemon=True)
    t0 = time.perf_counter()
    worker.start()
    worker.join(timeout=10)
    elapsed = time.perf_counter() - t0
    hub.close()
    assert not worker.is_alive()
    assert isinstance(box.get("error"), proto.RecvTimeout)
    assert 0.5 <= elapsed < 5.0
    assert recv_waits == [("worker", 0.5)]


def test_a_tcp_run_whose_connect_fails_partway_leaves_no_socket_open(monkeypatch):
    # the hub connects its workers' transports; the second connect fails
    real = socket.create_connection
    made = []

    def connect(*args, **kw):
        if made:
            raise ConnectionRefusedError("refused")
        made.append(real(*args, **kw))
        return made[-1]

    monkeypatch.setattr(socket, "create_connection", connect)
    with pytest.raises(ConnectionRefusedError):
        fm_run(mode="tcp", workers=3)
    assert len(made) == 1 and made[0].fileno() == -1



# -- worker threads that outlive a run

CORPUS = [lang.parse_program(p.read_text()) for p in sorted(Path("programs/corpus").glob("*.tdp"))]
RUN_KINDS = [
    (mode, workers, strategy)
    for mode in ("threads", "tcp")
    for workers in (1, 2, 4)
    for strategy in (Strategy("dfs"), Strategy("bfs"), Strategy("random", 7))
]


def stop_parked_threads() -> None:
    """Stop and join every parked worker thread: the next run starts fresh
    ones."""
    with harness._parked_lock:
        parked = harness._parked[:]
        harness._parked.clear()
    for w in parked:
        w.jobs.put(None)
        w.thread.join()


def live_worker_threads() -> set[threading.Thread]:
    """Live worker threads, parked or in a job."""
    return {
        t for t in threading.enumerate()
        if t.name == harness.PARKED or t.name.startswith("tdpart-worker-")
    }


def worker_thread_count() -> int:
    return len(live_worker_threads())


def steady_rows(out: RunOutput) -> list[list[str]]:
    """A report's rows minus wall_ms. Message timing in tcp mode moves the
    per-worker rows and the solver, cache and transfer sums, so a tcp run's
    rows are also without those."""
    rows = [r for r in report_rows(out) if r[0] == "path" or r[2] != "wall_ms"]
    if out.mode == "tcp":
        rows = [r for r in rows if r[0] != "worker"
                and not (r[0] == "summary" and r[2] in ("solver_queries", "cache_hits", "transfers"))]
    return rows


def test_interleaved_runs_on_parked_threads_report_as_on_fresh_ones(tmp_path):
    # every run kind, six per program, first each on freshly started threads
    # (a threads run recording its schedule) and then all in one sequence on
    # parked ones (a threads run replaying it), so thread k serves runs of
    # other modes, worker counts, strategies and programs in between
    programs = CORPUS + [FIND_MIDDLE]
    plan = [
        (i, *RUN_KINDS[(6 * i + j) % len(RUN_KINDS)])
        for i in range(len(programs)) for j in range(6)
    ]
    single = [path_digest(run_program(p, RunConfig(final_depth=10)).paths) for p in programs]

    def run(n, replay):
        i, mode, workers, strategy = plan[n]
        sched = str(tmp_path / f"{n}.json") if mode == "threads" else None
        return run_program(programs[i], RunConfig(
            mode=mode, workers=workers, strategy=strategy, final_depth=10,
            record_schedule=None if replay else sched, replay_schedule=sched if replay else None,
        ))

    fresh = []
    for n in range(len(plan)):
        stop_parked_threads()
        fresh.append(steady_rows(run(n, replay=False)))
    most = 0
    for n, (i, mode, workers, _) in enumerate(plan):
        out = run(n, replay=True)
        most = max(most, worker_thread_count())
        assert steady_rows(out) == fresh[n], plan[n]
        assert path_digest(out.paths) == single[i], plan[n]
    assert 0 < most <= 4


ACQUISITION_STEPS = [
    (mode, step)
    for mode, steps in (("threads", ()), ("tcp", ("connect", "accept")))
    for step in (*steps, "first thread", "last thread", "coordinator")
]


@pytest.mark.parametrize("mode,step", ACQUISITION_STEPS)
def test_a_failure_at_any_acquisition_step_leaves_no_socket_or_thread(monkeypatch, mode, step):
    # two threads are parked and the run takes four workers, so worker ids
    # 0 and 1 get parked threads and 2 and 3 new ones: "first thread" fails
    # the first new thread's start and "last thread" the last worker's. A
    # tcp run fails its third connect or its second accept
    stop_parked_threads()
    fm_run(mode="threads", workers=2)
    parked = {w.thread for w in harness._parked}
    strays = live_worker_threads() - parked  # left running by earlier tests
    hubs, sockets, accepts = [], [], []

    class Hub(proto.SocketHub):
        def __init__(self, *args):
            super().__init__(*args)
            hubs.append(self)

    def fail(at: str) -> None:
        if step == at:
            raise RuntimeError(f"{step} failed")

    def connect(*args, real=socket.create_connection, **kw):
        if len(sockets) == 2:
            fail("connect")
        sockets.append(real(*args, **kw))
        return sockets[-1]

    def accept(self, real=socket.socket.accept):
        accepts.append(None)
        if len(accepts) == 2:
            fail("accept")
        return real(self)

    def start(wid: int, real=harness._WorkerThread):
        fail({2: "first thread", 3: "last thread"}.get(wid))
        return real(wid)

    def coordinate(*_):
        fail("coordinator")

    with monkeypatch.context() as m:
        m.setattr(proto, "SocketHub", Hub)
        m.setattr(socket, "create_connection", connect)
        m.setattr(socket.socket, "accept", accept)
        m.setattr(harness, "_WorkerThread", start)
        m.setattr(harness, "run_coordinator", coordinate)
        with pytest.raises(RuntimeError, match=f"^{step} failed$"):
            fm_run(mode=mode, workers=4)
    assert len(hubs) == (mode == "tcp")
    for hub in hubs:
        sockets += [hub._listener, *hub._conns]
    assert sockets or mode == "threads"
    assert [s.fileno() for s in sockets] == [-1] * len(sockets)
    assert live_worker_threads() - strays == {w.thread for w in harness._parked}
    assert sorted(fm_run(mode=mode, workers=4).paths) == FM_PATHS


@pytest.mark.parametrize("mode", ["threads", "tcp"])
def test_concurrent_runs_never_share_a_worker_thread(monkeypatch, mode):
    # all four workers of two x2 runs must be in run_worker at once to pass
    # the barrier, which a thread serving both runs could never be
    real = harness.run_worker
    barrier = threading.Barrier(4, timeout=10)
    threads_of = {}  # id of the run's cfg -> thread idents

    def meet(transport, program, cfg):
        threads_of.setdefault(id(cfg), set()).add(threading.get_ident())
        barrier.wait()
        real(transport, program, cfg)

    fm_run(mode=mode, workers=2)  # at least two threads parked
    monkeypatch.setattr(harness, "run_worker", meet)
    for _ in range(3):
        threads_of.clear()
        outs = {}
        callers = [
            threading.Thread(target=lambda k=k: outs.setdefault(k, fm_run(mode=mode, workers=2)))
            for k in range(2)
        ]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30)
        assert sorted(outs) == [0, 1]
        assert all(sorted(out.paths) == FM_PATHS for out in outs.values())
        first, second = threads_of.values()
        assert len(first) == len(second) == 2 and not first & second


def test_a_patch_made_after_threads_park_reaches_them(monkeypatch):
    fm_run(mode="threads", workers=2)  # at least two threads parked
    started, ran = [], []
    real_start, real_worker = threading.Thread.start, harness.run_worker

    def start(self):
        started.append(self.name)
        real_start(self)

    def spy(transport, program, cfg):
        ran.append(threading.current_thread().name)
        real_worker(transport, program, cfg)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(harness, "run_worker", spy)
    assert sorted(fm_run(mode="threads", workers=2).paths) == FM_PATHS
    assert started == []
    assert sorted(ran) == ["tdpart-worker-0", "tdpart-worker-1"]


@pytest.mark.parametrize("mode", ["threads", "tcp"])
@pytest.mark.parametrize("fault", ["coordinator", "worker", "stall"])
def test_a_run_after_a_failed_run_succeeds(monkeypatch, mode, fault):
    # a stalled worker is still in its job when its run fails at the recv
    # timeout: the next run must not hand that thread a job
    monkeypatch.setattr(proto, "RECV_TIMEOUT", 0.5)
    release = threading.Event()

    def fail_coordinator(hub, program, cfg):
        raise RuntimeError("coordinator failed")

    def fail_worker(transport, program, cfg):
        raise RuntimeError("worker failed")

    def stall(transport, program, cfg):
        release.wait(timeout=30)
        transport.close()

    fm_run(mode=mode, workers=2)  # at least two threads parked
    before = worker_thread_count()
    with monkeypatch.context() as m:
        if fault == "coordinator":
            m.setattr(harness, "run_coordinator", fail_coordinator)
        else:
            m.setattr(harness, "run_worker", fail_worker if fault == "worker" else stall)
        with pytest.raises((RuntimeError, proto.RecvTimeout)):
            fm_run(mode=mode, workers=2)
    stalled = [t for t in threading.enumerate() if t.name.startswith("tdpart-worker-")]
    assert len(stalled) == (2 if fault == "stall" else 0)
    # the failed run's two threads were stopped, or are stalled in its jobs
    assert worker_thread_count() == before - 2 + len(stalled)
    for _ in range(2):
        assert sorted(fm_run(mode=mode, workers=2).paths) == FM_PATHS
    release.set()
    for t in stalled:
        t.join(timeout=10)
        assert not t.is_alive()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker_threads():
    # the parent's parked threads do not exist in the child
    fm_run(mode="threads", workers=2)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            proto.RECV_TIMEOUT = 5.0
            parked = len(harness._parked)
            code = 0 if not parked and sorted(fm_run(mode="threads", workers=2).paths) == FM_PATHS else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


# -- independent components

# the x-loop and the (y, z)-loop read disjoint inputs until the last branch
TWO_LOOPS = lang.parse_program("""
program two_loops;
sym x in [-6, 6];
sym y in [-6, 6];
sym z in [-6, 6];
while (x < 4) {
  x = x + 3;
}
while (y < z) {
  y = y + 2;
}
if (x + y > z) {
  exit(1);
}
exit(2);
""")


def spy_query_caches(monkeypatch) -> list:
    """Every QueryCache made from now on, in the order they are made."""
    made = []
    init = solve.QueryCache.__init__

    def spy(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(solve.QueryCache, "__init__", spy)
    return made


@pytest.mark.parametrize(
    "mode,workers,cache_enabled",
    [("single", 1, True), ("threads", 2, True), ("tcp", 2, True), ("single", 1, False)],
)
def test_independent_loops_explore_like_the_oracle(monkeypatch, mode, workers, cache_enabled):
    completed, frontier = enumerate_paths(TWO_LOOPS, 10)
    caches = spy_query_caches(monkeypatch)
    out = run_program(TWO_LOOPS, RunConfig(
        mode=mode, workers=workers, final_depth=10, cache_enabled=cache_enabled,
    ))
    assert path_digest(out.paths) == path_digest(list(completed))
    assert sum(t.frontier for t in out.tallies) == len(frontier) > 0
    if not cache_enabled:
        assert caches == []
    elif mode == "single":
        [cache] = caches
        assert cache.memo.hits > 0


def test_the_component_memo_lives_for_one_run(monkeypatch):
    caches = spy_query_caches(monkeypatch)
    counts = []
    for _ in range(2):  # one program object, run twice
        caches.clear()
        run_program(TWO_LOOPS, RunConfig(final_depth=10))
        [cache] = caches
        counts.append((cache.misses, cache.reused, cache.memo.hits))
    assert counts[0] == counts[1] and counts[0][2] > 0
    assert Engine(TWO_LOOPS).cache.memo is not Engine(TWO_LOOPS).cache.memo


# -- depth calibration


def test_calibrate_zero_timeout_gives_zero():
    assert calibrate_depth(FIND_MIDDLE, 0.0) == 0


def test_calibrate_exhausts_small_tree():
    # the whole tree fits in the budget, so the answer is its full depth
    assert calibrate_depth(FIND_MIDDLE, 5.0) == 3


def test_calibrate_is_monotone_in_the_timeout():
    lo = calibrate_depth(FIND_MIDDLE, 0.0)
    hi = calibrate_depth(FIND_MIDDLE, 5.0)
    assert lo <= hi


def test_calibrate_deadline_cuts_a_long_concrete_run():
    # ~9M instructions before the first symbolic branch, under
    # engine.MAX_STEPS: only the deadline check inside a state's advance can
    # stop it in time
    prog = lang.parse_program(
        "program spin;\nsym x in [0, 1];\ni = 0;\n"
        "while (i < 3000000) { i = i + 1; }\n"
        "if (x < 1) { exit(0); } else { exit(1); }\n"
    )
    t0 = time.perf_counter()
    assert calibrate_depth(prog, 0.05) == 0
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("timeout", [-1.0, float("nan")])
def test_calibrate_rejects_a_negative_or_nan_timeout(monkeypatch, timeout):
    # a NaN deadline never expires, so the region would run to its end
    def start_execution(*args, **kw):
        raise AssertionError("a region started")

    monkeypatch.setattr(Engine, "start_execution", start_execution)
    want = f"--calibrate-timeout must be at least 0, got {timeout}"
    with pytest.raises(ValueError) as info:
        calibrate_depth(FIND_MIDDLE, timeout)
    assert str(info.value) == want


# -- CSV report


def test_report_text_header_and_row_kinds():
    text = report_text(fm_run())
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(REPORT_HEADER)
    kinds = {line.split(",", 1)[0] for line in lines[1:]}
    assert kinds == {"meta", "worker", "summary", "path"}


def test_report_write_load_roundtrip(tmp_path):
    out = fm_run()
    p = tmp_path / "report.csv"
    write_report(out, p)
    assert load_report(p) == report_data(out)


def test_load_report_rejects_foreign_csv(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not a report CSV"):
        load_report(p)


def test_report_aggregates_duplicate_paths():
    tally = WorkerTally()
    tally.add(EngineStats(paths=["01", "01", "11"]))
    out = RunOutput(
        FIND_MIDDLE, RunConfig(final_depth=2), "single", [tally], 1, 0, time.perf_counter()
    )
    rows = report_rows(out)
    path_rows = [r for r in rows if r[0] == "path"]
    assert path_rows == [["path", "", "01", "2"], ["path", "", "11", "1"]]
    data = report_data(out)
    assert data.paths["01"] == 2
    assert data.summary["paths"] == "3"


def test_report_meta_fields():
    out = fm_run(mode="threads", workers=2, strategy=Strategy("random", 9))
    data = report_data(out)
    assert data.meta["program"] == "find_middle"
    assert data.meta["digest"] == program_digest(FIND_MIDDLE)
    assert data.meta["final_depth"] == "3"
    assert data.meta["mode"] == "threads"
    assert data.meta["workers"] == "2"
    assert data.meta["strategy"] == "random"
    assert data.meta["seed"] == "9"
    assert data.summary["path_digest"] == path_digest(out.paths)


# -- verification


def test_verify_passes_on_identical_runs():
    a = report_data(fm_run())
    b = report_data(fm_run(mode="threads", workers=2))
    res = verify_reports(a, b)
    assert res.ok
    assert res.lines() == ["verify: PASS"]


def test_verify_reports_missing_and_extra():
    oracle = report_data(fm_run())
    cand = report_data(fm_run())
    del cand.paths["01"]
    cand.paths["0000"] = 1
    res = verify_reports(oracle, cand)
    assert not res.ok
    assert res.missing == [("01", 1)]
    assert res.extra == [("0000", 1)]
    assert "verify: FAIL" in res.lines()


def test_verify_flags_duplicates():
    oracle = report_data(fm_run())
    cand = report_data(fm_run())
    cand.paths["11"] = 2
    res = verify_reports(oracle, cand)
    assert not res.ok
    assert res.duplicates == ["11"]
    assert res.extra == [("11", 1)]


def test_verify_rejects_different_setups():
    oracle = report_data(fm_run())
    other_depth = report_data(fm_run(final_depth=2))
    res = verify_reports(oracle, other_depth)
    assert res.error is not None and "final_depth" in res.error
    assert res.lines()[0].startswith("verify error:")

    tampered = report_data(fm_run())
    tampered.meta["digest"] = "0" * 64
    assert "digest" in verify_reports(oracle, tampered).error


# -- schedule record/replay


def test_schedule_json_roundtrip():
    s = Schedule(coordinator=[(0, "Finish"), (1, "NoWork")], polls={0: [(0, 2)], 1: []})
    text = s.to_json()
    assert " " not in text
    assert Schedule.from_json(text) == s


def test_record_then_replay_reproduces_the_report(tmp_path):
    sched = tmp_path / "sched.json"
    recorded = fm_run(
        mode="threads", workers=2, strategy=Strategy("random", 3),
        record_schedule=str(sched),
    )
    assert sched.exists()

    def stable(out: RunOutput) -> str:
        rows = [r for r in report_rows(out) if r[2] != "wall_ms"]
        return "\n".join(",".join(r) for r in rows)

    want = stable(recorded)
    for _ in range(3):
        replayed = fm_run(
            mode="threads", workers=2, strategy=Strategy("random", 3),
            replay_schedule=str(sched),
        )
        assert stable(replayed) == want


REPLAY_DIR = Path(__file__).parent / "replay"


def test_a_schedule_recorded_earlier_replays_byte_identically(monkeypatch, tmp_path, capsys):
    # recorded with an earlier build of this code: a threads x2 run of prog_05
    # whose workers found a steal request at four polls, one of them in a
    # later region, with the report minus its wall_ms rows; the run offloaded
    # above one active state
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", 1)
    sched = REPLAY_DIR / "prog_05_threads2.schedule.json"
    assert any(r > 0 for hits in Schedule.from_json(sched.read_text()).polls.values()
               for r, _ in hits)
    want = (REPLAY_DIR / "prog_05_threads2.report.csv").read_text()
    for i in range(2):
        report = tmp_path / f"r{i}.csv"
        rc = run_cli(
            "run", "--program", "programs/corpus/prog_05.tdp", "--max-depth", "26",
            "--mode", "threads", "--workers", "2",
            "--replay-schedule", str(sched), "--report", str(report),
        )
        assert rc == 0, capsys.readouterr().out
        lines = report.read_text().splitlines(keepends=True)
        assert "".join(l for l in lines if ",wall_ms," not in l) == want


def test_cli_refuses_at_once_a_replay_schedule_no_worker_can_meet(tmp_path, capsys):
    # each worker answers its one Task with Finish and is then idle: after
    # worker 0's Finish the coordinator asks worker 1 for work, and nothing
    # ever asks worker 0 again, so its scheduled NoWork can never come
    sched = tmp_path / "s.json"
    sched.write_text('{"coordinator": [[0,"Finish"],[0,"NoWork"],[1,"Finish"],[1,"NoWork"]],'
                     ' "polls": {}}')
    box = {}
    argv = ["run", "--program", str(FM_PATH), "--max-depth", "3", "--mode", "threads",
            "--workers", "2", "--replay-schedule", str(sched)]
    th = threading.Thread(target=lambda: box.setdefault("rc", run_cli(*argv)), daemon=True)
    th.start()
    th.join(timeout=1.0)  # a run that waits on the message would take 120 s
    assert not th.is_alive()
    assert box["rc"] == 2
    assert "owes no answer" in capsys.readouterr().out


def test_replay_rejects_a_schedule_with_entries_left_after_the_run(tmp_path):
    sched = tmp_path / "s.json"
    fm_run(mode="threads", workers=2, record_schedule=str(sched))
    recorded = Schedule.from_json(sched.read_text())
    recorded.coordinator.append((0, "Finish"))
    sched.write_text(recorded.to_json())
    with pytest.raises(proto.ProtocolError, match="1 unused entries"):
        fm_run(mode="threads", workers=2, replay_schedule=str(sched))


def test_schedule_flags_require_threads_mode(tmp_path):
    with pytest.raises(ValueError, match="threads"):
        fm_run(record_schedule=str(tmp_path / "s.json"))


# -- corpus generator


def test_gen_corpus_is_deterministic(tmp_path):
    a = gen_corpus(7, 6, tmp_path / "a")
    b = gen_corpus(7, 6, tmp_path / "b")
    assert [p.name for p in a] == [f"prog_{i:02d}.tdp" for i in range(6)]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    c = gen_corpus(8, 6, tmp_path / "c")
    assert any(x.read_bytes() != y.read_bytes() for x, y in zip(a, c))


def test_corpus_shape_cycle():
    assert [corpus_shape(i) for i in range(6)] == [
        "narrow", "wide", "loop", "mixed", "narrow", "big",
    ]
    assert corpus_shape(15) == "big"


def test_shipped_corpus_matches_seed_one(tmp_path):
    """programs/corpus is exactly `tdpart gen --seed 1 --count 20`."""
    regen = gen_corpus(1, 20, tmp_path)
    shipped = sorted(Path("programs/corpus").glob("*.tdp"))
    assert [p.name for p in shipped] == [p.name for p in regen]
    for s, r in zip(shipped, regen):
        assert s.read_bytes() == r.read_bytes()


def test_generated_programs_validate_and_run(tmp_path):
    for p in gen_corpus(99, 5, tmp_path):
        prog = lang.parse_program(p.read_text())
        assert lang.validate(prog) == []
        out = run_program(prog, RunConfig(final_depth=4))
        assert not out.truncated
        assert len(out.paths) == len(set(out.paths))


# -- CLI


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_cli_run_single(capsys):
    rc = run_cli("run", "--program", str(FM_PATH), "--max-depth", "3")
    out = capsys.readouterr().out
    assert rc == 0
    assert "paths=6" in out
    assert f"path_digest={path_digest(FM_PATHS)}" in out


def test_cli_run_requires_a_depth_source(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--program", str(FM_PATH))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tdpart run")
    assert "one of the arguments --max-depth --calibrate-timeout is required" in err


def test_cli_run_takes_one_depth_source(capsys):
    # the calibrated depth (3) would silently replace --max-depth 1
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--program", str(FM_PATH), "--max-depth", "1", "--calibrate-timeout", "5")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tdpart run")
    assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--max-depth", "3", "--time-budget", "-1"), "--time-budget"),
        (("--max-depth", "3", "--time-budget", "nan"), "--time-budget"),
        (("--calibrate-timeout", "-1"), "--calibrate-timeout"),
        (("--calibrate-timeout", "nan"), "--calibrate-timeout"),
    ],
)
def test_cli_rejects_a_negative_or_nan_time(capsys, argv, flag):
    # a NaN deadline never expires; a negative one dispatches nothing
    rc = run_cli("run", "--program", str(FM_PATH), "--mode", "threads", *argv)
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("error:") and flag in out


# exit 1 means the path multisets differ: a report --verify cannot read is 2
@pytest.mark.parametrize(
    "row, error",
    [
        (b"worker,0,paths", ", line 6: a row has 3 fields, not 4"),
        (b"path,,000,1,1", ", line 6: a row has 5 fields, not 4"),
        (b"worker,w,paths,6", ", line 6: invalid literal for int() with base 10: 'w'"),
        (b"path,,000,one", ", line 6: invalid literal for int() with base 10: 'one'"),
        (b"path,," + b"0" * 131_073 + b",1", ", line 6: field larger than field limit (131072)"),
        (b"path,,caf\xe9,1", ": 'utf-8' codec can't decode byte 0xe9 in position "),
    ],
    ids=["3-fields", "5-fields", "worker-id", "path-count", "field-limit", "not-utf8"],
)
def test_cli_verify_exits_2_on_a_malformed_report(tmp_path, capsys, row, error):
    oracle = tmp_path / "oracle.csv"
    run = ("run", "--program", str(FM_PATH), "--max-depth", "3")
    assert run_cli(*run, "--report", str(oracle)) == 0
    lines = oracle.read_bytes().splitlines()
    oracle.write_bytes(b"\n".join(lines[:5] + [row] + lines[5:]) + b"\n")
    capsys.readouterr()
    assert run_cli(*run, "--verify", str(oracle)) == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"error: {oracle}{error}")


@pytest.mark.parametrize("mode, pool", [("single", 1), ("threads", 2), ("tcp", 2)])
def test_zero_time_budget_is_valid(monkeypatch, mode, pool):
    # a deadline the clock has reached has passed, so no run dispatches; a
    # stopped clock reads the same at the deadline and at every check
    for clock in ("running", "stopped"):
        if clock == "stopped":
            stopped = types.SimpleNamespace(monotonic=lambda: 1000.0, perf_counter=time.perf_counter)
            monkeypatch.setattr(coord, "time", stopped)
            monkeypatch.setattr(harness, "time", stopped)
        for _ in range(20):
            out = fm_run(mode=mode, workers=2, time_budget=0.0)
            assert out.paths == [] and out.undispatched == out.pool_size == pool, clock
            assert [t.regions for t in out.tallies] == [0] * out.num_workers


def test_cli_run_calibrates(capsys):
    rc = run_cli("run", "--program", str(FM_PATH), "--calibrate-timeout", "5")
    assert rc == 0
    assert "calibrated final depth: 3" in capsys.readouterr().out


def test_cli_reports_missing_file(capsys):
    rc = run_cli("run", "--program", "no/such/file.tdp", "--max-depth", "1")
    assert rc == 2
    assert "error:" in capsys.readouterr().out


def test_cli_reports_an_unwritable_report_path(tmp_path, capsys):
    report = tmp_path / "no" / "such" / "dir" / "r.csv"
    rc = run_cli("run", "--program", str(FM_PATH), "--max-depth", "3", "--report", str(report))
    assert rc == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith("error: ")
    assert not report.exists()


def test_cli_reports_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.tdp"
    p.write_text("program bad;\nsym x in [5, 1];\nexit(0);\n")
    rc = run_cli("run", "--program", str(p), "--max-depth", "1")
    assert rc == 2
    assert "error:" in capsys.readouterr().out


def test_cli_reports_a_program_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.tdp"
    p.write_bytes("program p; # caf\u00e9\nsym x in [0, 1];\nexit(0);\n".encode("latin-1"))
    rc = run_cli("run", "--program", str(p), "--max-depth", "1")
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: {p}: 'utf-8' codec can't decode byte 0xe9")


def test_cli_reads_a_utf8_program_under_an_ascii_locale(tmp_path):
    p = tmp_path / "utf8.tdp"
    p.write_text("program p; # caf\u00e9\nsym x in [0, 1];\nexit(0);\n", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path("src").resolve())}
    done = subprocess.run(
        [sys.executable, "-m", "tdpart", "run", "--program", str(p), "--max-depth", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "paths=1 " in done.stdout


def test_cli_reports_validation_diagnostics(tmp_path, capsys):
    p = tmp_path / "bad.tdp"
    p.write_text("program bad;\nsym x in [0, 1];\nif (x < y) { exit(0); }\nexit(1);\n")
    rc = run_cli("run", "--program", str(p), "--max-depth", "1")
    assert rc == 2
    assert "error:" in capsys.readouterr().out


def test_cli_rejects_bad_worker_count(capsys):
    rc = run_cli(
        "run", "--program", str(FM_PATH), "--max-depth", "1",
        "--mode", "threads", "--workers", "0",
    )
    assert rc == 2
    assert "--workers" in capsys.readouterr().out


# a Task carries the seed in 8 unsigned bytes and each depth in 4
@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--search", "rand", "--seed", "-1"), "--seed"),
        (("--search", "rand", "--seed", str(2**64)), "--seed"),
        (("--max-depth", str(2**32)), "--max-depth"),
    ],
)
def test_cli_rejects_values_the_wire_cannot_carry(capsys, mode, argv, flag):
    rc = run_cli("run", "--program", str(FM_PATH), "--max-depth", "3", "--mode", mode, *argv)
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("error:") and flag in out


def no_run_starts(monkeypatch) -> None:
    def start(*_):
        raise AssertionError("a run started")

    for run in ("run_single", "_run_distributed"):
        monkeypatch.setattr(harness, run, start)


@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
@pytest.mark.parametrize(
    "strategy", [Strategy("random", 2**64), Strategy("random", -1), Strategy("random")]
)
def test_run_program_rejects_a_seed_the_wire_cannot_carry(monkeypatch, mode, strategy):
    no_run_starts(monkeypatch)
    with pytest.raises(ValueError, match="seed"):
        fm_run(mode=mode, workers=2, strategy=strategy)


# a Task carries at most 65,535 inputs, each named in at most 65,535 UTF-8 bytes
@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
@pytest.mark.parametrize(
    "names,field",
    [
        ([f"x{i}" for i in range(2**16)], "test count"),
        (["x" * 2**16], "test name length"),
        (["é" * 2**15], "test name length"),  # 32,768 characters, 65,536 bytes
    ],
    ids=["inputs", "name", "utf8-name"],
)
def test_run_program_rejects_inputs_a_task_cannot_carry(monkeypatch, mode, names, field):
    no_run_starts(monkeypatch)
    program = lang.Program("wide", tuple(lang.SymDecl(n, 0, 1) for n in names), FIND_MIDDLE.blocks)
    with pytest.raises(ValueError, match=f"cannot carry this program's inputs: {field}"):
        run_program(program, RunConfig(mode=mode, workers=2, final_depth=3))


def branch_on(name: str, inputs: int = 1) -> str:
    """A program of `inputs` inputs in [0, 1], the first named `name`,
    and one branch on it."""
    decls = "".join(f"sym {name if i == 0 else f'x{i}'} in [0, 1];\n" for i in range(inputs))
    return f"program wide;\n{decls}if ({name} < 1) {{ exit(0); }}\nexit(1);\n"


@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
def test_cli_rejects_an_input_name_the_wire_cannot_carry(tmp_path, capsys, mode):
    prog = tmp_path / "long.tdp"
    prog.write_text(branch_on("a" * 70_000), encoding="utf-8")
    rc = run_cli("run", "--program", str(prog), "--max-depth", "2", "--mode", mode)
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("error:") and "test name length 70000" in out


@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
def test_an_input_name_of_65535_bytes_runs_in_every_mode(mode):
    program = lang.parse_program(branch_on("x" * 65_535))
    out = run_program(program, RunConfig(mode=mode, workers=2, final_depth=2))
    assert sorted(out.paths) == ["0", "1"]


WIDE = lang.parse_program(branch_on("x0", 1200))


@pytest.mark.parametrize("mode", ["single", "threads", "tcp"])
def test_a_program_of_1200_inputs_runs_in_every_mode(mode):
    # with no model above it, the root's children are each solved as one
    # component of all 1,200 inputs, which backtracking pins in turn
    out = run_program(WIDE, RunConfig(mode=mode, workers=2, final_depth=2))
    assert sorted(out.paths) == ["0", "1"]


def test_the_witnesses_of_a_program_of_1200_inputs_are_lex_min():
    eng = Engine(WIDE)
    res = eng.start_execution({}, 0, 2, Strategy("dfs"))
    zeros = {f"x{i}": 0 for i in range(1200)}
    assert {c.path: c.test for c in res.completed} == {"1": zeros, "0": {**zeros, "x0": 1}}


def test_cli_rejects_schedule_without_threads(tmp_path, capsys):
    rc = run_cli(
        "run", "--program", str(FM_PATH), "--max-depth", "1",
        "--record-schedule", str(tmp_path / "s.json"),
    )
    assert rc == 2
    assert "threads" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text", ["{}", "[]", '{"coordinator": [[0]]}', '{"coordinator": [], "polls": null}', "{"]
)
def test_cli_rejects_a_malformed_replay_schedule(tmp_path, capsys, text):
    sched = tmp_path / "s.json"
    sched.write_text(text)
    rc = run_cli(
        "run", "--program", str(FM_PATH), "--max-depth", "3",
        "--mode", "threads", "--replay-schedule", str(sched),
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().out


def test_cli_rejects_a_replay_schedule_that_does_not_fit_the_run(tmp_path, capsys):
    # worker 7 never sends, so the coordinator would wait out its recv timeout
    sched = tmp_path / "s.json"
    sched.write_text('{"coordinator": [[7, "Finish"]], "polls": {}}')
    t0 = time.perf_counter()
    rc = run_cli(
        "run", "--program", str(FM_PATH), "--max-depth", "3",
        "--mode", "threads", "--replay-schedule", str(sched),
    )
    assert rc == 2
    assert "error: malformed schedule" in capsys.readouterr().out
    assert time.perf_counter() - t0 < 1.0


def test_cli_report_verify_cycle(tmp_path, capsys):
    report = tmp_path / "oracle.csv"
    assert run_cli(
        "run", "--program", str(FM_PATH), "--max-depth", "3",
        "--report", str(report),
    ) == 0
    capsys.readouterr()

    rc = run_cli(
        "run", "--program", str(FM_PATH), "--max-depth", "3",
        "--mode", "threads", "--workers", "2", "--verify", str(report),
    )
    assert rc == 0
    assert "verify: PASS" in capsys.readouterr().out


def test_cli_verify_fails_on_tampered_paths(tmp_path, capsys):
    report = tmp_path / "oracle.csv"
    run_cli("run", "--program", str(FM_PATH), "--max-depth", "3",
            "--report", str(report))
    capsys.readouterr()
    # claim a second copy of path 11 that no honest run produces
    report.write_text(report.read_text().replace("path,,11,1", "path,,11,2"))

    rc = run_cli("run", "--program", str(FM_PATH), "--max-depth", "3",
                 "--verify", str(report))
    out = capsys.readouterr().out
    assert rc == 1
    assert "missing path 11 x1" in out
    assert "verify: FAIL" in out


def test_cli_verify_errors_on_depth_mismatch(tmp_path, capsys):
    report = tmp_path / "oracle.csv"
    run_cli("run", "--program", str(FM_PATH), "--max-depth", "2",
            "--report", str(report))
    capsys.readouterr()
    rc = run_cli("run", "--program", str(FM_PATH), "--max-depth", "3",
                 "--verify", str(report))
    out = capsys.readouterr().out
    assert rc == 2
    assert "verify error: final_depth mismatch" in out


def test_cli_gen(tmp_path, capsys):
    rc = run_cli("gen", "--seed", "4", "--count", "3", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert rc == 0
    assert "generated 3 programs" in out
    assert sorted(p.name for p in tmp_path.glob("*.tdp")) == [
        "prog_00.tdp", "prog_01.tdp", "prog_02.tdp",
    ]
    assert run_cli("gen", "--seed", "4", "--count", "0", "--out", str(tmp_path)) == 2


def test_cli_rejects_a_replay_schedule_out_of_a_workers_order(tmp_path, capsys):
    # worker 0 answers its Task with Finish, never with NoWork first; each
    # worker's messages arrive in order, so replay fails on the first one
    sched = tmp_path / "s.json"
    sched.write_text('{"coordinator": [[0, "NoWork"], [0, "Finish"], [1, "Finish"]], "polls": {}}')
    t0 = time.perf_counter()
    rc = run_cli(
        "run", "--program", str(FM_PATH), "--max-depth", "3",
        "--mode", "threads", "--replay-schedule", str(sched),
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().out
    assert time.perf_counter() - t0 < 1.0


def test_importing_tdpart_leaves_argparse_to_the_cli():
    code = "import sys, tdpart; print('argparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path("src").resolve())})
    assert done.stdout.strip() == "False", done.stderr


def test_importing_tdpart_imports_no_module_only_some_calls_need():
    # dataclasses pulls in inspect; json is for schedules, csv for reports
    heavy = ("dataclasses", "inspect", "json", "csv")
    code = f"import sys, tdpart; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path("src").resolve())})
    assert done.stdout.strip() == "[]", done.stdout + done.stderr
