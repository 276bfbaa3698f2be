"""Worker loop: execute dispatched regions, answer work-stealing requests.

A worker keeps its engine (query cache, serial counter) and its suspended
states across tasks. On a new task it first tries to resume a suspended
state the test satisfies; otherwise it replays from the program root.
Between select steps it polls for ProvideWork and either hands off its
shallowest active state below the guided phase or answers NoWork.

The worker reads the run's RunConfig (offload_threshold, cache_enabled,
solver_delay), the same object the coordinator reads; each recv waits at
most proto.RECV_TIMEOUT.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from . import proto
from .engine import Engine, ExecState
from .lang import Program

if TYPE_CHECKING:
    from .harness import RunConfig


def choose_offload(active: deque[ExecState], test_depth: int = 0) -> ExecState | None:
    """Shallowest active state at or below the region's test depth,
    earliest-created on ties: cheapest for the thief to re-replay and the
    largest subtree to hand over. A guided-phase state (depth < test_depth)
    is never chosen: its pair would name a wider region than the task's,
    taking in sibling subtrees other regions own. None if all are guided."""
    below = [s for s in active if s.depth >= test_depth]
    return min(below, key=lambda s: (s.depth, s.serial)) if below else None


def _make_poll(transport, eng: Engine, threshold: int, test_depth: int):
    def poll(active: deque[ExecState]) -> None:
        msg = transport.poll()
        if msg is None:
            return
        if not isinstance(msg, proto.ProvideWork):
            raise proto.ProtocolError(
                f"unexpected {type(msg).__name__} during a region"
            )
        victim = None
        if len(active) > threshold:
            victim = choose_offload(active, test_depth)
        if victim is not None:
            active.remove(victim)
            transport.send(proto.Offload(eng.model_of(victim.pc), victim.depth))
        else:
            transport.send(proto.NoWork())

    return poll


def run_worker(transport, program: Program, cfg: RunConfig) -> None:
    """Serve tasks until Terminate, then close the transport."""
    eng = Engine(program, cfg)
    suspended: list[ExecState] = []
    while True:
        msg = transport.recv(proto.RECV_TIMEOUT)
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
        poll = _make_poll(transport, eng, cfg.offload_threshold, msg.test_depth)
        result = eng.start_execution(
            root, msg.test, msg.test_depth, msg.final_depth, msg.strategy, poll=poll
        )
        suspended.extend(result.suspended_new)
        transport.send(proto.Finish(result.stats))
    transport.close()
