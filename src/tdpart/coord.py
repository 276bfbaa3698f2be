"""Coordinator: seed a pool of test-depth pairs, dispatch, steal, terminate.

The pool is seeded from the root pair's region explored breadth-first and
cut at a layer boundary (one pair per finished, frontier or layer state).
While any worker is idle and the pool is dry, the
coordinator asks one busy worker at a time for work (ProvideWork); an
Offload answer is forwarded to an idle worker as a fresh Task, a NoWork
answer moves on to the next busy worker, and once every busy worker has
declined the coordinator waits for the next Finish before asking again.
The run ends when all workers are idle and the pool is empty; under a time
budget, nothing new is dispatched once the soft deadline has passed (a
zero budget dispatches nothing) and each worker is terminated as its
in-flight region finishes.

The coordinator reads the run's RunConfig (workers, final_depth, strategy,
time_budget), the same object the harness was given; each recv waits at
most proto.RECV_TIMEOUT.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING

from . import proto
from .engine import COUNTERS, Engine, EngineStats, ExecState, Strategy, TestDepthPair
from .lang import Program

if TYPE_CHECKING:
    from .harness import RunConfig


class WorkerTally(EngineStats):
    """One worker's finished regions folded together, and its transfers."""

    __slots__ = ("regions", "transfers_in", "transfers_out")
    _fields = EngineStats._fields + __slots__

    def __init__(self) -> None:
        super().__init__()
        self.regions = self.transfers_in = self.transfers_out = 0

    def add(self, st: EngineStats) -> None:
        """Fold one finished region's stats into this worker's tally."""
        self.regions += 1
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(st, name))
        self.paths.extend(st.paths)
        self.truncated = self.truncated or st.truncated


def seed_pool(program: Program, num_workers: int, final_depth: int) -> list[TestDepthPair]:
    """The root pair's region explored breadth-first and cut at the first
    layer boundary (the front state deeper than any front before, so all of
    active is one layer) where the layer plus the finished states reach
    num_workers: a pair per finished, frontier or layer state, in (depth,
    path) order, with the lex-min model of its pc, so the pool is a pure
    function of the arguments. A truncated region gives single's pool, the
    root pair, so one worker meets the instruction budget as single does."""
    eng = Engine(program)
    layer: list[ExecState] = []
    front = -1

    def poll(active: deque[ExecState]) -> None:
        nonlocal front
        depth = active[0].depth
        if depth > front:
            front = depth
            if len(active) + len(eng.stats.paths) + eng.stats.frontier >= num_workers:
                layer.extend(active)
                active.clear()

    res = eng.start_execution({}, 0, final_depth, Strategy("bfs"), poll=poll)
    if res.stats.truncated:
        return [TestDepthPair({}, 0)]
    pool = [(len(c.path), c.path, c.test) for c in res.completed]
    pool += [(s.depth, s.path, eng.model_of(s.pc)) for s in res.frontier + layer]
    pool.sort(key=lambda p: p[:2])
    return [TestDepthPair(test, depth) for depth, _, test in pool]


def run_coordinator(
    hub, program: Program, cfg: RunConfig
) -> tuple[list[WorkerTally], int, int]:
    """Run the pool to the end: one tally per worker, the number of seeded
    pairs, and the number left undispatched at the soft deadline."""
    n = cfg.workers
    pool: deque[TestDepthPair] = deque(seed_pool(program, n, cfg.final_depth))
    pool_size = len(pool)
    tallies = [WorkerTally() for _ in range(n)]

    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None

    def past_deadline() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    free: deque[int] = deque(range(n))
    busy: list[int] = []
    outstanding: int | None = None  # worker owing a ProvideWork answer
    declined: set[int] = set()  # busy workers already asked this idle episode

    def dispatch(pair: TestDepthPair, wid: int) -> None:
        hub.send(wid, proto.Task(cfg.strategy, pair.test, pair.depth, cfg.final_depth))
        busy.append(wid)

    while free and pool and not past_deadline():
        dispatch(pool.popleft(), free.popleft())

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
        wid, msg = hub.recv(proto.RECV_TIMEOUT)
        if isinstance(msg, proto.Finish):
            tallies[wid].add(msg.stats)
            busy.remove(wid)
            if outstanding == wid:
                outstanding = None  # the steal target finished instead
            declined.clear()  # busy set changed: new idle episode may re-poll
            if past_deadline():
                hub.send(wid, proto.Terminate())
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
            raise proto.ProtocolError(f"unexpected {type(msg).__name__} at coordinator")

    # busy is empty: every worker not terminated at the deadline is free
    for w in sorted(free):
        hub.send(w, proto.Terminate())
    return tallies, pool_size, len(pool)
