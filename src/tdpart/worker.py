"""Worker loop: execute dispatched regions, answer work-stealing requests.

A worker keeps its engine (query cache, serial counter) and its suspended
states across tasks. On a new task it first tries to resume a suspended
state the test satisfies; otherwise it replays from the program root.
Between select steps it polls for ProvideWork and either hands off its
shallowest active state below the guided phase or answers NoWork.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import proto
from .engine import Engine, ExecState
from .lang import Program

DEFAULT_OFFLOAD_THRESHOLD = 4


@dataclass
class WorkerConfig:
    offload_threshold: int = DEFAULT_OFFLOAD_THRESHOLD
    cache_enabled: bool = True
    solver_delay: float = 0.0
    recv_timeout: float = proto.DEFAULT_RECV_TIMEOUT


@dataclass
class WorkerSummary:
    regions: int = 0
    suspended_left: int = 0
    offloads: int = 0


def choose_offload(active: list[ExecState], test_depth: int = 0) -> ExecState | None:
    """Shallowest active state at or below the region's test depth,
    earliest-created on ties: cheapest for the thief to re-replay and the
    largest subtree to hand over. A guided-phase state (depth < test_depth)
    is never chosen: its pair would name a wider region than the task's,
    taking in sibling subtrees other regions own. None if all are guided."""
    below = [s for s in active if s.depth >= test_depth]
    return min(below, key=lambda s: (s.depth, s.serial)) if below else None


def _make_poll(
    transport, eng: Engine, cfg: WorkerConfig, test_depth: int, summary: WorkerSummary
):
    def poll(active: list[ExecState]) -> None:
        msg = transport.poll()
        if msg is None:
            return
        if not isinstance(msg, proto.ProvideWork):
            raise proto.ProtocolError(
                f"unexpected {type(msg).__name__} during a region"
            )
        victim = None
        if len(active) > cfg.offload_threshold:
            victim = choose_offload(active, test_depth)
        if victim is not None:
            active.remove(victim)
            transport.send(proto.Offload(eng.model_of(victim.pc, victim.model), victim.depth))
            summary.offloads += 1
        else:
            transport.send(proto.NoWork())

    return poll


def run_worker(transport, program: Program, cfg: WorkerConfig | None = None) -> WorkerSummary:
    """Serve tasks until Terminate. Returns a local summary (the coordinator
    only ever sees the Finish messages)."""
    cfg = cfg or WorkerConfig()
    eng = Engine(program, cache_enabled=cfg.cache_enabled, solver_delay=cfg.solver_delay)
    suspended: list[ExecState] = []
    summary = WorkerSummary()
    while True:
        msg = transport.recv(cfg.recv_timeout)
        if isinstance(msg, proto.Terminate):
            break
        if isinstance(msg, proto.ProvideWork):
            # idle: nothing to offload
            transport.send(proto.NoWork())
            continue
        if not isinstance(msg, proto.Task):
            raise proto.ProtocolError(f"unexpected {type(msg).__name__} while idle")

        root = eng.find_resumable(suspended, msg.test)
        if root is not None:
            suspended.remove(root)
        else:
            root = eng.initial_state()
        poll = _make_poll(transport, eng, cfg, msg.test_depth, summary)
        result = eng.start_execution(
            root, msg.test, msg.test_depth, msg.final_depth, msg.strategy, poll=poll
        )
        suspended.extend(result.suspended_new)
        summary.regions += 1
        transport.send(proto.Finish(result.stats))
    summary.suspended_left = len(suspended)
    transport.close()
    return summary
