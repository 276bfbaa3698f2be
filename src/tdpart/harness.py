"""Run modes, reporting, verification, calibration, corpus generation, CLI.

The harness owns process and thread lifecycle; everything crossing a
worker boundary goes through proto frames. Three modes share one report
shape: `single` runs the whole tree as one in-process region (the oracle
the distributed modes are checked against); `threads` and `tcp` run one
worker lifecycle over a proto hub, which makes its workers' transports:
a QueueHub's in-process queues (replayable via a recorded message
schedule) or a SocketHub's loopback sockets (best-effort nondeterministic).

Worker threads outlive a run. A threads or tcp run takes idle threads
from a module-level list (starting new ones only when it runs short) and
hands thread k the job of worker id k, under which it is named
tdpart-worker-k. A run that succeeds parks its threads again; a run that
fails stops and joins them. Hubs, transports, engines and caches belong
to one run, so a run's report does not depend on which threads served it.
"""

from __future__ import annotations

import faulthandler
import hashlib
import io
import os
import queue
import random
import sys
import threading
import time
from collections import Counter, defaultdict, deque
from collections.abc import Iterable
from operator import attrgetter
from pathlib import Path

from . import lang, proto
from .coord import WorkerTally, run_coordinator
from .engine import Engine, ExecState, Strategy
from .lang import Program
from .record import Record
from .worker import run_worker

# ---------------------------------------------------------------------------
# Run configuration and output
# ---------------------------------------------------------------------------


class RunConfig:
    """The run's settings, one object the harness, the coordinator and every
    worker read; what no run varies is a module constant read at call time."""

    __slots__ = (
        "mode", "workers", "strategy", "final_depth", "cache_enabled", "time_budget",
        "record_schedule", "replay_schedule",
    )

    def __init__(
        self, mode: str = "single", workers: int = 1, strategy: Strategy = Strategy("dfs"),
        final_depth: int = 0, cache_enabled: bool = True, time_budget: float | None = None,
        record_schedule: str | None = None, replay_schedule: str | None = None,
    ):
        self.mode = mode  # 'single' | 'threads' | 'tcp'
        self.workers, self.strategy, self.final_depth = workers, strategy, final_depth
        self.cache_enabled = cache_enabled
        self.time_budget = time_budget  # soft deadline, seconds
        self.record_schedule, self.replay_schedule = record_schedule, replay_schedule


class RunOutput:
    """A run's report: its workers' tallies and what follows from them."""

    __slots__ = (
        "program_name", "program_digest", "mode", "num_workers", "strategy", "final_depth",
        "tallies", "paths", "pool_size", "undispatched", "truncated", "wall_ms",
    )

    def __init__(
        self, program: Program, cfg: RunConfig, mode: str, tallies: list[WorkerTally],
        pool_size: int, undispatched: int, t0: float,
    ):
        self.program_name, self.program_digest = program.name, program_digest(program)
        self.mode, self.num_workers = mode, len(tallies)
        self.strategy, self.final_depth = cfg.strategy, cfg.final_depth
        self.tallies = tallies
        self.paths = [p for t in tallies for p in t.paths]  # worker by worker
        self.pool_size = pool_size  # seeded pairs
        self.undispatched = undispatched  # pairs abandoned at the soft deadline
        self.truncated = any(t.truncated for t in tallies)
        self.wall_ms = int((time.perf_counter() - t0) * 1000)


def program_digest(program: Program) -> str:
    """sha256 of the canonical print, made once per program object."""
    try:
        return program._harness_digest
    except AttributeError:
        text = lang.print_program(program).encode("utf-8")
        program._harness_digest = hashlib.sha256(text).hexdigest()
        return program._harness_digest


def path_digest(paths: list[str]) -> str:
    """Digest of the completed path multiset (order-independent)."""
    return hashlib.sha256("\n".join(sorted(paths)).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Message-schedule recording (threads-mode determinism)
# ---------------------------------------------------------------------------


class Schedule(Record):
    """Recorded in place during a run: the coordinator appends from its own
    thread and each worker only to its own poll list, created before any
    thread starts, so no locking is needed."""

    __slots__ = ("coordinator", "polls")

    def __init__(self, coordinator: list[tuple[int, str]], polls: dict[int, list[tuple[int, int]]]):
        self.coordinator = coordinator  # message arrival order at the coordinator
        self.polls = polls  # worker -> (region, step) poll hits

    def to_json(self) -> str:
        import json  # only schedule record/replay reads or writes JSON

        return json.dumps(
            {
                "coordinator": [[w, t] for w, t in self.coordinator],
                "polls": {str(w): [[r, s] for r, s in v] for w, v in self.polls.items()},
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Raises ValueError for anything but a schedule written by to_json."""
        import json

        try:
            raw = json.loads(text)
            return cls(
                coordinator=[(int(w), str(t)) for w, t in raw["coordinator"]],
                polls={
                    int(w): [(int(r), int(s)) for r, s in v]
                    for w, v in raw.get("polls", {}).items()
                },
            )
        except (KeyError, TypeError, AttributeError, ValueError) as e:
            raise ValueError(f"malformed schedule: {e!r}") from None

    def check(self, workers: int) -> None:
        """Raises ValueError for a schedule no run of `workers` workers
        records, where replay would wait on a message that never comes: one
        from a worker the run lacks, or a poll hit with no NoWork or Offload
        to answer it, or in a region after the worker's last Finish."""
        for wid in [w for w, _ in self.coordinator] + list(self.polls):
            if not 0 <= wid < workers:
                raise ValueError(f"malformed schedule: worker {wid} in a run of {workers} workers")
        for wid, polls in self.polls.items():
            tags = Counter(t for w, t in self.coordinator if w == wid)
            answers = tags["NoWork"] + tags["Offload"]
            regions = sorted(r for r, _ in set(polls))
            if len(regions) > answers or not all(0 <= r < tags["Finish"] for r in regions):
                raise ValueError(
                    f"malformed schedule: worker {wid} has poll hits in regions {regions}"
                    f" but {answers} NoWork or Offload and {tags['Finish']} Finish entries"
                )


def _tag(msg: proto.Message) -> str:
    return type(msg).__name__


class ScheduleHub:
    """The coordinator's side of record/replay, wrapped around a hub.
    Recording appends each arriving message's (worker, tag) to `arrivals`;
    replay hands messages over in the order `arrivals` names. Each worker's
    messages arrive in the order it sent them, so replay takes them per
    worker, oldest first, and buffers the rest. It fails at once, instead of
    waiting out the recv timeout, when a worker's oldest message is not the
    tag due next from it, or when it waits on a worker owing no answer (each
    Task gets one Finish, each ProvideWork one NoWork or Offload)."""

    def __init__(self, hub, arrivals: list[tuple[int, str]], replay: bool):
        self.hub = hub
        self.arrivals = arrivals
        self.due = deque(arrivals) if replay else None
        self.pending: dict[int, deque[proto.Message]] = defaultdict(deque)
        self.expect: dict[int, deque[str]] = defaultdict(deque)  # tags due, per worker
        self.owed: Counter = Counter()  # answers due, per worker
        for wid, tag in self.due or ():
            self.expect[wid].append(tag)

    def send(self, wid: int, msg: proto.Message) -> None:
        if isinstance(msg, (proto.Task, proto.ProvideWork)):
            self.owed[wid] += 1
        self.hub.send(wid, msg)

    def _check(self, wid: int, msg: proto.Message) -> None:
        due = self.expect[wid]
        if due and _tag(msg) != due[0]:
            raise proto.ProtocolError(
                f"replay schedule expects {due[0]} from worker {wid}, "
                f"but its next message is {_tag(msg)}"
            )

    def recv(self, timeout: float | None) -> tuple[int, proto.Message]:
        if self.due is None:
            wid, msg = self.hub.recv(timeout)
            self.arrivals.append((wid, _tag(msg)))
            return wid, msg
        if not self.due:
            raise proto.ProtocolError("replay schedule exhausted mid-run")
        want, _ = self.due.popleft()
        queue = self.pending[want]
        while not queue:
            if not self.owed[want]:
                raise proto.ProtocolError(
                    f"replay schedule expects {self.expect[want][0]} from worker "
                    f"{want}, which owes no answer"
                )
            wid, msg = self.hub.recv(timeout)
            self.owed[wid] -= 1
            if not self.pending[wid]:
                self._check(wid, msg)
            self.pending[wid].append(msg)
        msg = queue.popleft()
        self._check(want, msg)
        self.expect[want].popleft()
        return want, msg


class ScheduleTransport:
    """A worker's side of record/replay, wrapped around its transport. It
    numbers the worker's polls (region, step) itself: the region counts the
    Tasks received, the step the polls since the last one. Recording appends
    each poll that found a message to `polls`; replay does a blocking recv
    exactly at the points in `polls` and finds nothing anywhere else."""

    def __init__(self, inner, polls, replay: bool):
        self.inner = inner
        self.send, self.close = inner.send, inner.close
        self.polls = polls  # a list to record into, or a set to replay
        self.replay = replay
        self.region, self.step = -1, 0

    def recv(self, timeout: float | None) -> proto.Message:
        msg = self.inner.recv(timeout)
        if isinstance(msg, proto.Task):
            self.region, self.step = self.region + 1, 0
        return msg

    def poll(self) -> proto.Message | None:
        point = (self.region, self.step)
        self.step += 1
        if self.replay:
            return self.inner.recv(proto.RECV_TIMEOUT) if point in self.polls else None
        msg = self.inner.poll()
        if msg is not None:
            self.polls.append(point)
        return msg


# ---------------------------------------------------------------------------
# Run modes
# ---------------------------------------------------------------------------


def run_single(program: Program, cfg: RunConfig) -> RunOutput:
    """The whole tree as one region, the pair (any test, depth 0) explored
    from the initial state: the pool a one-worker coordinator would seed.
    As there, nothing is dispatched once the soft deadline has passed, so a
    zero budget leaves the pair undispatched."""
    t0 = time.perf_counter()
    tally = WorkerTally()
    deadline = None if cfg.time_budget is None else time.monotonic() + cfg.time_budget
    if deadline is not None and time.monotonic() >= deadline:
        return RunOutput(program, cfg, "single", [tally], 1, 1, t0)
    eng = Engine(program, cfg)
    res = eng.start_execution({}, 0, cfg.final_depth, cfg.strategy)
    tally.add(res.stats)
    return RunOutput(program, cfg, "single", [tally], 1, 0, t0)


PARKED = "tdpart-parked"  # a worker thread's name between runs


class _WorkerThread:
    """One worker thread. A job is (body, wid): the thread is named
    tdpart-worker-<wid> while it runs body(wid), then parks again and
    signals `done`. None on `jobs` stops the thread."""

    __slots__ = ("jobs", "done", "thread")

    def __init__(self, wid: int):
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._serve, name=f"tdpart-worker-{wid}", daemon=True
        )
        try:
            self.thread.start()
        except RuntimeError as e:  # "can't start new thread"
            raise OSError(f"cannot start worker thread tdpart-worker-{wid}: {e}") from e

    def _serve(self) -> None:
        me = threading.current_thread()
        while (job := self.jobs.get()) is not None:
            body, wid = job
            me.name = f"tdpart-worker-{wid}"
            try:
                body(wid)
            finally:
                body = job = None  # a parked thread holds nothing of its last run
                me.name = PARKED
                self.done.put(None)

    def wait(self, deadline: float) -> bool:
        """Whether the job ended by the deadline (time.monotonic)."""
        try:
            self.done.get(timeout=max(deadline - time.monotonic(), 0.0))
        except queue.Empty:
            return False
        return True


_parked: list[_WorkerThread] = []
_parked_lock = threading.Lock()


def _take_worker(wid: int) -> _WorkerThread:
    """A parked thread, or a new one; OSError when none can start."""
    with _parked_lock:
        if _parked:
            return _parked.pop()
    return _WorkerThread(wid)


def _forget_workers() -> None:
    """A forked child has none of its parent's threads."""
    global _parked_lock
    _parked.clear()
    _parked_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_workers)


def _run_distributed(program: Program, cfg: RunConfig) -> RunOutput:
    """The worker lifecycle shared by threads and tcp, which differ only in
    the hub cfg.mode picks. The run owns its hub, transports and threads:
    inside one try the hub makes a transport per worker id, and thread k (a
    parked one, or a new one) is taken and handed worker id k's job before
    thread k+1 is taken. On a coordinator failure every worker is told to
    terminate. Either way, once each running worker has been sent
    Terminate, the finally awaits every job against one deadline of
    proto.RECV_TIMEOUT and only then closes the hub, and with it every
    socket it made. A run that succeeds parks its threads again; one that
    fails stops and joins them, so it leaves no worker thread behind. A
    worker that raises closes its transport, so the coordinator fails at
    once, and the run raises the worker's error."""
    t0 = time.perf_counter()
    # run_program allows schedules only in threads mode
    replay = bool(cfg.replay_schedule)
    schedule = None
    if replay:
        schedule = Schedule.from_json(Path(cfg.replay_schedule).read_text(encoding="utf-8"))
        schedule.check(cfg.workers)
    elif cfg.record_schedule:
        schedule = Schedule([], {w: [] for w in range(cfg.workers)})
    hub = (proto.QueueHub if cfg.mode == "threads" else proto.SocketHub)(cfg.workers)
    coord_hub = hub if schedule is None else ScheduleHub(hub, schedule.coordinator, replay)
    workers: list[_WorkerThread] = []
    errors: list[BaseException] = []

    def body(wid: int) -> None:
        transport = transports[wid]
        try:
            if schedule is not None:
                polls = schedule.polls.get(wid, [])
                transport = ScheduleTransport(transport, set(polls) if replay else polls, replay)
            run_worker(transport, program, cfg)
        except BaseException as e:  # surfaced once every job has ended
            if isinstance(e, proto.RecvTimeout):  # a stall: show where each thread is
                faulthandler.dump_traceback(all_threads=True)
            errors.append(e)
            transport.close()  # the coordinator's recv fails now

    failed = True
    try:
        transports = hub.transports()
        for wid in range(cfg.workers):
            workers.append(_take_worker(wid))
            workers[-1].jobs.put((body, wid))
        tallies, pool_size, undispatched = run_coordinator(coord_hub, program, cfg)
        if replay and coord_hub.due:
            raise proto.ProtocolError(f"replay schedule has {len(coord_hub.due)} unused entries")
        failed = False
    except BaseException as e:
        if isinstance(e, proto.RecvTimeout):
            faulthandler.dump_traceback(all_threads=True)
        hub.broadcast(proto.Terminate())  # let worker threads drain
        if errors:  # a worker failed first, which failed the coordinator
            raise errors[0] from e
        raise
    finally:
        deadline = time.monotonic() + proto.RECV_TIMEOUT
        ended = [w.wait(deadline) for w in workers]
        hub.close()
        if failed or errors or not all(ended):
            for w, done in zip(workers, ended):
                w.jobs.put(None)  # a thread still in its job stops after it
                if done:
                    w.thread.join()
        else:
            with _parked_lock:
                _parked.extend(workers)
    for wid, done in enumerate(ended):
        if not done:
            raise proto.ProtocolError(f"worker thread tdpart-worker-{wid} failed to stop")
    if errors:
        raise errors[0]
    if cfg.record_schedule:
        Path(cfg.record_schedule).write_text(schedule.to_json(), encoding="utf-8")
    return RunOutput(program, cfg, cfg.mode, tallies, pool_size, undispatched, t0)


def run_program(program: Program, cfg: RunConfig) -> RunOutput:
    """Explore `program` as cfg says. The program must be one lang.validate
    accepts, as the CLI checks before it runs one: a run of a program that
    reads a name it never binds fails with a bare KeyError. ValueError when
    cfg asks for a run that cannot be made, before any run starts."""
    if cfg.mode != "threads" and (cfg.record_schedule or cfg.replay_schedule):
        raise ValueError("schedule record/replay is a threads-mode feature")
    # in every mode, what a Task carries must fit its wire fields
    kind, seed = cfg.strategy.kind, cfg.strategy.seed
    if kind not in ("dfs", "bfs", "random"):
        raise ValueError(f"unknown strategy {kind}")
    if kind == "random" and (seed is None or not 0 <= seed < proto.SEED.hi):
        raise ValueError(f"--seed must fit a {proto.SEED.width} for random search, got {seed}")
    if not 0 <= cfg.final_depth < proto.FINAL_DEPTH.hi:
        raise ValueError(f"--max-depth must fit a {proto.FINAL_DEPTH.width}, got {cfg.final_depth}")
    try:
        proto.encode_test(dict.fromkeys([d.name for d in program.inputs], 0))
    except proto.ProtocolError as e:
        raise ValueError(f"a Task cannot carry this program's inputs: {e}") from None
    # NaN compares false to everything: a NaN budget would never expire
    if cfg.time_budget is not None and not cfg.time_budget >= 0:
        raise ValueError(f"--time-budget must be at least 0, got {cfg.time_budget}")
    if cfg.mode not in ("single", "threads", "tcp"):
        raise ValueError(f"unknown mode {cfg.mode}")
    # with no worker to take the pool, the coordinator would wait out its recv timeout
    if cfg.mode != "single" and cfg.workers < 1:
        raise ValueError(f"--workers must be at least 1 in {cfg.mode} mode, got {cfg.workers}")
    try:
        if cfg.mode == "single":
            return run_single(program, cfg)
        return _run_distributed(program, cfg)
    except RecursionError:
        # a failed run has stopped and joined its worker threads by now
        raise _too_deep() from None


def _too_deep() -> ValueError:
    """The error for an expression that nests past the recursion limit."""
    return ValueError(
        f"a symbolic expression nests past the recursion limit ({sys.getrecursionlimit()}),"
        " as one a loop builds up from an input over many iterations can"
    )


# ---------------------------------------------------------------------------
# Depth calibration
# ---------------------------------------------------------------------------


def calibrate_depth(program: Program, timeout_s: float) -> int:
    """Deepest fully completed BFS layer within the soft timeout: the root
    pair's region explored breadth-first (final depth -1 censors nothing)
    under the deadline, with a poll noting the front's depth. When the
    deadline cuts the front layer, the one above it is the deepest
    completed. Monotone nondecreasing in the timeout; ~0 yields 0.
    ValueError when the timeout is negative or NaN, or when an expression
    nests past the recursion limit."""
    # NaN compares false to everything: a NaN timeout would never expire
    if not timeout_s >= 0:
        raise ValueError(f"--calibrate-timeout must be at least 0, got {timeout_s}")
    eng = Engine(program)
    front = 0

    def poll(active: deque[ExecState]) -> None:
        nonlocal front
        front = active[0].depth

    try:
        res = eng.start_execution(
            {}, 0, -1, Strategy("bfs"), poll=poll, deadline=time.monotonic() + timeout_s
        )
    except RecursionError:
        raise _too_deep() from None
    return max(front - 1, 0) if res.stats.truncated else front


# ---------------------------------------------------------------------------
# CSV report
# ---------------------------------------------------------------------------

REPORT_HEADER = ["kind", "worker", "field", "value"]

# a worker's report rows, in report order: (field, its value from a tally)
WORKER_ROWS = (
    ("regions", attrgetter("regions")),
    ("paths", lambda t: len(t.paths)),
    ("frontier", attrgetter("frontier")),
    ("states_created", attrgetter("states_created")),
    ("states_suspended", attrgetter("states_suspended")),
    ("solver_queries", attrgetter("solver_queries")),
    ("cache_hits", attrgetter("cache_hits")),
    ("instructions", attrgetter("instructions")),
    ("transfers_in", attrgetter("transfers_in")),
    ("transfers_out", attrgetter("transfers_out")),
    ("truncated", lambda t: int(t.truncated)),
    ("wall_ms", lambda t: t.wall_us // 1000),
)


def report_rows(out: RunOutput) -> list[list[str]]:
    rows: list[list[str]] = []

    def row(kind: str, k: str, v, wid: str = "") -> None:
        rows.append([kind, wid, k, str(v)])

    row("meta", "program", out.program_name)
    row("meta", "digest", out.program_digest)
    row("meta", "final_depth", out.final_depth)
    row("meta", "mode", out.mode)
    row("meta", "workers", out.num_workers)
    row("meta", "strategy", out.strategy.kind)
    row("meta", "seed", "" if out.strategy.seed is None else out.strategy.seed)
    row("meta", "pool", out.pool_size)
    row("meta", "undispatched", out.undispatched)
    for wid, t in enumerate(out.tallies):
        for k, value in WORKER_ROWS:
            row("worker", k, value(t), str(wid))
    row("summary", "paths", len(out.paths))
    row("summary", "frontier", sum(t.frontier for t in out.tallies))
    row("summary", "solver_queries", sum(t.solver_queries for t in out.tallies))
    row("summary", "cache_hits", sum(t.cache_hits for t in out.tallies))
    row("summary", "transfers", sum(t.transfers_in for t in out.tallies))
    row("summary", "truncated", int(out.truncated))
    row("summary", "path_digest", path_digest(out.paths))
    row("summary", "wall_ms", out.wall_ms)
    for p, c in sorted(Counter(out.paths).items()):
        row("path", p, c)
    return rows


def report_text(out: RunOutput) -> str:
    import csv  # only reports are CSV

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(REPORT_HEADER)
    w.writerows(report_rows(out))
    return buf.getvalue()


def write_report(out: RunOutput, path: str | Path) -> None:
    Path(path).write_text(report_text(out), encoding="utf-8")


class ReportData(Record):
    __slots__ = ("meta", "workers", "summary", "paths")

    def __init__(self) -> None:
        self.meta: dict[str, str] = {}
        self.workers: dict[int, dict[str, str]] = {}
        self.summary: dict[str, str] = {}
        self.paths: Counter = Counter()


def _data_from_rows(rows: Iterable[list[str]]) -> ReportData:
    """ValueError on a row of the wrong width, kind or integer field."""
    data = ReportData()
    for row in rows:
        if len(row) != len(REPORT_HEADER):
            raise ValueError(f"a row has {len(row)} fields, not {len(REPORT_HEADER)}")
        kind, wid, fieldname, value = row
        if kind == "meta":
            data.meta[fieldname] = value
        elif kind == "worker":
            data.workers.setdefault(int(wid), {})[fieldname] = value
        elif kind == "summary":
            data.summary[fieldname] = value
        elif kind == "path":
            data.paths[fieldname] += int(value)
        else:
            raise ValueError(f"unknown report row kind {kind!r}")
    return data


def report_data(out: RunOutput) -> ReportData:
    return _data_from_rows(report_rows(out))


def load_report(path: str | Path) -> ReportData:
    """ValueError, naming the file and the line, when it is no report."""
    import csv

    with open(path, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        try:
            if next(rows, None) == REPORT_HEADER:
                return _data_from_rows(rows)
        except UnicodeDecodeError as e:  # in a chunk past the rows read so far
            raise ValueError(f"{path}: {e}") from None
        except (csv.Error, ValueError) as e:  # a malformed row, or past csv's field limit
            raise ValueError(f"{path}, line {rows.line_num}: {e}") from None
    raise ValueError(f"{path}: not a report CSV")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class VerifyResult:
    __slots__ = ("ok", "error", "missing", "extra", "duplicates")

    def __init__(
        self, ok: bool, error: str | None = None, missing: list[tuple[str, int]] | None = None,
        extra: list[tuple[str, int]] | None = None, duplicates: list[str] | None = None,
    ):
        self.ok = ok
        self.error = error  # setup mismatch (different program/depth)
        self.missing, self.extra = missing or [], extra or []
        self.duplicates = duplicates or []

    def lines(self) -> list[str]:
        if self.error:
            return [f"verify error: {self.error}"]
        out = []
        for p, n in self.missing:
            out.append(f"missing path {p or '(empty)'} x{n}")
        for p, n in self.extra:
            out.append(f"extra path {p or '(empty)'} x{n}")
        for p in self.duplicates:
            out.append(f"duplicated path {p or '(empty)'} in candidate")
        out.append("verify: PASS" if self.ok else "verify: FAIL")
        return out


def verify_reports(oracle: ReportData, candidate: ReportData) -> VerifyResult:
    """Path multiset equality plus a no-duplicates check on the candidate."""
    for key in ("digest", "final_depth"):
        if oracle.meta.get(key) != candidate.meta.get(key):
            return VerifyResult(
                ok=False,
                error=f"{key} mismatch: oracle {oracle.meta.get(key)!r} "
                f"vs candidate {candidate.meta.get(key)!r}",
            )
    missing = sorted((oracle.paths - candidate.paths).items())
    extra = sorted((candidate.paths - oracle.paths).items())
    duplicates = sorted(p for p, c in candidate.paths.items() if c > 1)
    ok = not missing and not extra and not duplicates
    return VerifyResult(ok=ok, missing=missing, extra=extra, duplicates=duplicates)


# ---------------------------------------------------------------------------
# Corpus generator
# ---------------------------------------------------------------------------

_ERROR_LABELS = ["overflow", "underflow", "bounds", "guard", "assert_fail"]


def _gen_syms(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    names = ["x", "y", "z"][:n]
    decls = []
    for nm in names:
        lo = rng.randint(-6, -1)
        hi = rng.randint(1, 6)
        decls.append(f"sym {nm} in [{lo}, {hi}];")
    return names, decls


def _gen_cmp(rng: random.Random, names: list[str]) -> str:
    a = rng.choice(names)
    op = rng.choice(["<", "<=", ">", ">=", "<", "<=", "=="])
    if rng.random() < 0.5 and len(names) > 1:
        b = rng.choice([nm for nm in names if nm != a])
    else:
        b = str(rng.randint(-4, 4))
    return f"{a} {op} {b}"


def _gen_cond(rng: random.Random, names: list[str]) -> str:
    c = _gen_cmp(rng, names)
    if rng.random() < 0.2:
        c = f"({c}) {rng.choice(['and', 'or'])} ({_gen_cmp(rng, names)})"
    if rng.random() < 0.15:
        c = f"!({c})"
    return c


def _gen_assign(rng: random.Random, names: list[str], locals_: list[str]) -> str:
    tgt = rng.choice(locals_)
    srcs = names + locals_
    a = rng.choice(srcs)
    b = rng.choice(srcs + [str(rng.randint(-3, 3))])
    op = rng.choice(["+", "-", "*", "+", "-"])
    return f"{tgt} = {a} {op} {b};"


def _gen_terminal(rng: random.Random, indent: str) -> str:
    if rng.random() < 0.2:
        return f'{indent}error("{rng.choice(_ERROR_LABELS)}");'
    return f"{indent}exit({rng.randint(0, 9)});"


def _gen_narrow(rng: random.Random, name: str) -> str:
    names, decls = _gen_syms(rng, rng.choice([2, 3]))
    locals_ = ["t", "u"]
    lines = [f"program {name};"] + decls
    for v in locals_:
        lines.append(f"{v} = {rng.randint(-2, 2)};")

    def nest(depth: int, indent: str) -> list[str]:
        if depth == 0:
            return [_gen_terminal(rng, indent)]
        out = [f"{indent}if ({_gen_cond(rng, names)}) {{"]
        if rng.random() < 0.6:
            out.append(f"{indent}  {_gen_assign(rng, names, locals_)}")
        out += nest(depth - 1, indent + "  ")
        out.append(f"{indent}}} else {{")
        out += nest(depth - 1, indent + "  ")
        out.append(f"{indent}}}")
        return out

    lines += nest(rng.randint(3, 5), "")
    return "\n".join(lines) + "\n"


def _gen_wide(rng: random.Random, name: str) -> str:
    names, decls = _gen_syms(rng, 3)
    locals_ = ["t", "u"]
    lines = [f"program {name};"] + decls
    for v in locals_:
        lines.append(f"{v} = {rng.randint(-2, 2)};")
    for _ in range(rng.randint(4, 6)):
        lines.append(f"if ({_gen_cond(rng, names)}) {{")
        lines.append(f"  {_gen_assign(rng, names, locals_)}")
        lines.append("} else {")
        lines.append(f"  {_gen_assign(rng, names, locals_)}")
        lines.append("}")
    lines.append("if (t < u) {")
    lines.append("  exit(1);")
    lines.append("} else {")
    lines.append(f"  exit({rng.randint(2, 9)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _gen_loop(rng: random.Random, name: str) -> str:
    names, decls = _gen_syms(rng, 2)
    lv, other = names[0], names[1]
    target = rng.randint(4, 6)
    step = rng.choice([1, 1, 2])
    lines = [f"program {name};"] + decls
    lines.append("t = 0;")
    lines.append(f"while ({lv} < {target}) {{")
    lines.append(f"  {lv} = {lv} + {step};")
    lines.append("  t = t + 1;")
    lines.append("}")
    lines.append(f"if ({other} < {rng.randint(-1, 2)}) {{")
    lines.append(f"  exit({rng.randint(0, 4)});")
    lines.append("} else {")
    lines.append(_gen_terminal(rng, "  "))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _gen_mixed(rng: random.Random, name: str) -> str:
    names, decls = _gen_syms(rng, rng.choice([2, 3]))
    lines = [f"program {name};"] + decls
    c0 = rng.randint(-3, 3)
    lines.append(f"c = {c0};")
    lines.append("t = 0;")
    # concrete branch: condition only mentions c, which holds a constant
    lines.append(f"if (c < {rng.randint(-1, 2)}) {{")
    lines.append("  t = t + 1;")
    lines.append("} else {")
    lines.append("  t = t - 1;")
    lines.append("}")
    lines.append(f"if ({_gen_cond(rng, names)}) {{")
    lines.append(f'  error("{rng.choice(_ERROR_LABELS)}");')
    lines.append("} else {")
    lines.append("  t = t + 2;")
    lines.append("}")
    lv = names[-1]
    lines.append(f"while ({lv} < {rng.randint(3, 5)}) {{")
    lines.append(f"  {lv} = {lv} + 1;")
    lines.append("}")
    lines.append(f"exit({rng.randint(0, 9)});")
    return "\n".join(lines) + "\n"


def _gen_big(rng: random.Random, name: str) -> str:
    """Two independent input-driven loops: (span+1)^2 full paths, so a
    20-program corpus always contains programs with well over 100 paths."""
    lines = [f"program {name};"]
    lines.append("sym x in [-5, 5];")
    lines.append("sym y in [-5, 5];")
    lines.append("t = 0;")
    lines.append("while (x < 6) {")
    lines.append("  x = x + 1;")
    lines.append("  t = t + 1;")
    lines.append("}")
    lines.append("while (y < 6) {")
    lines.append("  y = y + 1;")
    lines.append("}")
    lines.append(f"exit({rng.randint(0, 3)});")
    return "\n".join(lines) + "\n"


def generate_program(rng: random.Random, name: str, shape: str) -> str:
    builder = {
        "narrow": _gen_narrow,
        "wide": _gen_wide,
        "loop": _gen_loop,
        "mixed": _gen_mixed,
        "big": _gen_big,
    }[shape]
    return builder(rng, name)


def corpus_shape(i: int) -> str:
    if i % 10 == 5:
        return "big"
    return ["narrow", "wide", "loop", "mixed"][i % 4]


def gen_corpus(seed: int, count: int, out_dir: str | Path) -> list[Path]:
    """Deterministic: the same seed and count produce byte-identical files.
    Every program parses and validates cleanly; loop conditions always
    mention a symbolic input, so the depth bound terminates everything."""
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for i in range(count):
        name = f"prog_{i:02d}"
        src = generate_program(rng, name, corpus_shape(i))
        prog = lang.parse_program(src)
        diags = lang.validate(prog)
        if diags:
            raise RuntimeError(f"generator produced an invalid program {name}: {diags}")
        p = out / f"{name}.tdp"
        p.write_text(src, encoding="utf-8")
        written.append(p)
    return written


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _build_parser():
    import argparse  # only the CLI parses arguments; importing tdpart does not

    ap = argparse.ArgumentParser(prog="tdpart")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="execute a program's symbolic exploration")
    run.add_argument("--program", required=True)
    run.add_argument("--mode", choices=["single", "threads", "tcp"], default="single")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--search", choices=["dfs", "bfs", "rand"], default="dfs")
    run.add_argument("--seed", type=int, default=0)
    depth = run.add_mutually_exclusive_group(required=True)
    depth.add_argument("--max-depth", type=int)
    depth.add_argument("--calibrate-timeout", type=float)
    run.add_argument("--report", default=None)
    run.add_argument("--verify", default=None)
    run.add_argument("--time-budget", type=float, default=None)
    run.add_argument("--no-cache", action="store_true")
    run.add_argument("--record-schedule", default=None)
    run.add_argument("--replay-schedule", default=None)

    gen = sub.add_parser("gen", help="generate a seeded program corpus")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--out", required=True)
    return ap


def _cmd_run(args) -> int:
    try:
        text = Path(args.program).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: {e}")
        return 2
    except UnicodeDecodeError as e:
        print(f"error: {args.program}: {e}")
        return 2
    try:
        program = lang.parse_program(text)
    except lang.ParseError as e:
        print(f"error: {args.program}: {e}")
        return 2
    diags = lang.validate(program)
    if diags:
        for d in diags:
            print(f"error: {args.program}: {d}")
        return 2

    final_depth = args.max_depth
    if args.calibrate_timeout is not None:
        try:
            final_depth = calibrate_depth(program, args.calibrate_timeout)
        except ValueError as e:
            print(f"error: {e}")
            return 2
        print(f"calibrated final depth: {final_depth}")

    workers = args.workers
    if args.mode == "single":
        workers = 1
    elif workers is None:
        workers = 2

    strategy = Strategy("random", args.seed) if args.search == "rand" else Strategy(args.search)
    cfg = RunConfig(
        mode=args.mode,
        workers=workers,
        strategy=strategy,
        final_depth=final_depth,
        cache_enabled=not args.no_cache,
        time_budget=args.time_budget,
        record_schedule=args.record_schedule,
        replay_schedule=args.replay_schedule,
    )
    try:
        out = run_program(program, cfg)
    except (proto.ProtocolError, ValueError, OSError) as e:
        print(f"error: {e}")
        return 2

    print(
        f"{out.program_name}: mode={out.mode} workers={out.num_workers} "
        f"strategy={out.strategy.kind} final_depth={out.final_depth}"
    )
    print(
        f"paths={len(out.paths)} frontier={sum(t.frontier for t in out.tallies)} "
        f"truncated={'yes' if out.truncated else 'no'} "
        f"undispatched={out.undispatched} wall_ms={out.wall_ms}"
    )
    print(f"path_digest={path_digest(out.paths)}")
    for wid, t in enumerate(out.tallies):
        print(
            f"worker {wid}: regions={t.regions} paths={len(t.paths)} "
            f"queries={t.solver_queries} hits={t.cache_hits} "
            f"in={t.transfers_in} out={t.transfers_out}"
        )
    if args.report:
        try:
            write_report(out, args.report)
        except OSError as e:
            print(f"error: {e}")
            return 2
        print(f"report written to {args.report}")
    if args.verify:
        try:
            oracle = load_report(args.verify)
        except (OSError, ValueError) as e:
            print(f"error: {e}")
            return 2
        result = verify_reports(oracle, report_data(out))
        for line in result.lines():
            print(line)
        if result.error:
            return 2
        return 0 if result.ok else 1
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        print("error: --count must be at least 1")
        return 2
    try:
        written = gen_corpus(args.seed, args.count, args.out)
    except (OSError, RuntimeError) as e:
        print(f"error: {e}")
        return 2
    for p in written:
        print(p)
    print(f"generated {len(written)} programs in {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cmd == "run":
        return _cmd_run(args)
    return _cmd_gen(args)
