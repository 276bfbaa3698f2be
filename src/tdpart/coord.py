"""Coordinator: seed a pool of test-depth pairs, dispatch, steal, terminate.

The pool is seeded by shallow breadth-first expansion (one pair per finished
or frontier state). While any worker is idle and the pool is dry, the
coordinator asks one busy worker at a time for work (ProvideWork); an
Offload answer is forwarded to an idle worker as a fresh Task, a NoWork
answer moves on to the next busy worker, and once every busy worker has
declined the coordinator waits for the next Finish before asking again.
The run ends when all workers are idle and the pool is empty; under a time
budget, nothing new is dispatched after the soft deadline and each worker
is terminated as its in-flight region finishes.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from . import proto
from .engine import Engine, EngineStats, Strategy, TestDepthPair
from .lang import Program


@dataclass
class WorkerTally:
    regions: int = 0
    paths: list[str] = field(default_factory=list)
    frontier: int = 0
    states_created: int = 0
    states_suspended: int = 0
    solver_queries: int = 0
    cache_hits: int = 0
    instructions: int = 0
    transfers_in: int = 0
    transfers_out: int = 0
    wall_us: int = 0
    truncated: bool = False

    def add(self, st: EngineStats) -> None:
        """Fold one finished region's stats into this worker's tally."""
        self.regions += 1
        self.paths.extend(st.paths)
        self.frontier += st.frontier
        self.states_created += st.states_created
        self.states_suspended += st.states_suspended
        self.solver_queries += st.solver_queries
        self.cache_hits += st.cache_hits
        self.instructions += st.instructions
        self.wall_us += st.wall_us
        self.truncated = self.truncated or st.truncated


@dataclass
class CoordConfig:
    num_workers: int
    final_depth: int
    strategy: Strategy
    time_budget: float | None = None
    recv_timeout: float = proto.DEFAULT_RECV_TIMEOUT
    # threads-mode determinism hooks
    recv_recorder: object | None = None  # callable (worker_id, tag_name)
    recv_schedule: list | None = None  # [(worker_id, tag_name), ...]


@dataclass
class CoordResult:
    tallies: list[WorkerTally]
    paths: list[str]  # all completed paths, in arrival order
    pool_size: int  # seeded pairs
    undispatched: int  # pairs abandoned at the soft deadline
    truncated: bool


def seed_pool(program: Program, num_workers: int, final_depth: int) -> list[TestDepthPair]:
    """One test-depth pair per state of a shallow BFS expansion. Each pair
    carries the lexicographically smallest model of the state's pc, so the
    pool is a pure function of (program, num_workers, final_depth)."""
    eng = Engine(program)
    states = eng.bfs_seed(num_workers, final_depth)
    return [TestDepthPair(eng.model_of(s.pc, s.model), s.depth) for s in states]


def _tag(msg: proto.Message) -> str:
    return type(msg).__name__


class _Receiver:
    """Wraps hub.recv with optional record/replay of the delivery order."""

    def __init__(self, hub, cfg: CoordConfig):
        self.hub = hub
        self.cfg = cfg
        self.buffer: list[tuple[int, proto.Message]] = []
        self.schedule = deque(cfg.recv_schedule) if cfg.recv_schedule is not None else None

    def recv(self) -> tuple[int, proto.Message]:
        if self.schedule is None:
            wid, msg = self.hub.recv(self.cfg.recv_timeout)
            if self.cfg.recv_recorder is not None:
                self.cfg.recv_recorder(wid, _tag(msg))
            return wid, msg
        if not self.schedule:
            raise proto.ProtocolError("replay schedule exhausted mid-run")
        want_wid, want_tag = self.schedule.popleft()
        for i, (wid, msg) in enumerate(self.buffer):
            if wid == want_wid and _tag(msg) == want_tag:
                return self.buffer.pop(i)
        while True:
            wid, msg = self.hub.recv(self.cfg.recv_timeout)
            if wid == want_wid and _tag(msg) == want_tag:
                return wid, msg
            self.buffer.append((wid, msg))


def run_coordinator(hub, program: Program, cfg: CoordConfig) -> CoordResult:
    pool: deque[TestDepthPair] = deque(seed_pool(program, cfg.num_workers, cfg.final_depth))
    pool_size = len(pool)
    n = cfg.num_workers
    tallies = [WorkerTally() for _ in range(n)]
    paths: list[str] = []

    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None

    def past_deadline() -> bool:
        return deadline is not None and time.monotonic() > deadline

    free: deque[int] = deque(range(n))
    busy: list[int] = []
    exited: set[int] = set()
    outstanding: int | None = None  # worker owing a ProvideWork answer
    declined: set[int] = set()  # busy workers already asked this idle episode

    def dispatch(pair: TestDepthPair, wid: int) -> None:
        hub.send(wid, proto.Task(cfg.strategy, pair.test, pair.depth, cfg.final_depth))
        busy.append(wid)

    while free and pool and not past_deadline():
        dispatch(pool.popleft(), free.popleft())

    rx = _Receiver(hub, cfg)
    while True:
        if not busy and (not pool or past_deadline()):
            break
        if outstanding is None and free and busy and not pool and not past_deadline():
            for victim in busy:
                if victim not in declined:
                    hub.send(victim, proto.ProvideWork())
                    outstanding = victim
                    declined.add(victim)
                    break
        wid, msg = rx.recv()
        if isinstance(msg, proto.Finish):
            tallies[wid].add(msg.stats)
            paths.extend(msg.stats.paths)
            busy.remove(wid)
            if outstanding == wid:
                outstanding = None  # the steal target finished instead
            declined.clear()  # busy set changed: new idle episode may re-poll
            if past_deadline():
                hub.send(wid, proto.Terminate())
                exited.add(wid)
            elif pool:
                dispatch(pool.popleft(), wid)
            else:
                free.append(wid)
        elif isinstance(msg, proto.NoWork):
            if outstanding == wid:
                outstanding = None
            # otherwise: stale answer from a worker already finished; ignore
        elif isinstance(msg, proto.Offload):
            tallies[wid].transfers_out += 1
            if outstanding == wid:
                outstanding = None
            pair = TestDepthPair(msg.test, msg.depth)
            if free and not past_deadline():
                thief = free.popleft()
                tallies[thief].transfers_in += 1
                dispatch(pair, thief)
                declined.clear()
            else:
                pool.append(pair)
        else:
            raise proto.ProtocolError(f"unexpected {_tag(msg)} at coordinator")

    if rx.schedule:
        raise proto.ProtocolError(
            f"replay schedule has {len(rx.schedule)} unused entries"
        )
    for w in range(n):
        if w not in exited:
            hub.send(w, proto.Terminate())
    return CoordResult(
        tallies=tallies,
        paths=paths,
        pool_size=pool_size,
        undispatched=len(pool),
        truncated=any(t.truncated for t in tallies),
    )
