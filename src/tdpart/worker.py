"""Worker loop: execute dispatched regions, answer work-stealing requests.

A worker keeps one engine across tasks and hands it each task's
test-depth pair; the engine resumes a state an earlier region suspended
where the test allows. Between select steps the worker polls for
ProvideWork and either hands off its shallowest active state below the
guided phase, while it holds more than OFFLOAD_THRESHOLD active states,
or answers NoWork.

Its engine reads the run's RunConfig, the same object the coordinator
reads; each recv waits at most proto.RECV_TIMEOUT.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from . import proto
from .engine import Engine, ExecState
from .lang import Program

if TYPE_CHECKING:
    from .harness import RunConfig

# offload only while holding more active states than this, read at each
# poll; at 0 a lone region root could be handed off whole, and back again
OFFLOAD_THRESHOLD = 4


def choose_offload(active: deque[ExecState], test_depth: int = 0) -> ExecState | None:
    """Shallowest active state at or below the region's test depth,
    earliest-created on ties: cheapest for the thief to re-replay and the
    largest subtree to hand over. A guided-phase state (depth < test_depth)
    is never chosen: its pair would name a wider region than the task's,
    taking in sibling subtrees other regions own. None if all are guided."""
    below = [s for s in active if s.depth >= test_depth]
    return min(below, key=lambda s: (s.depth, s.serial)) if below else None


def _make_poll(transport, eng: Engine, test_depth: int):
    def poll(active: deque[ExecState]) -> None:
        msg = transport.poll()
        if msg is None:
            return
        if not isinstance(msg, proto.ProvideWork):
            raise proto.ProtocolError(
                f"unexpected {type(msg).__name__} during a region"
            )
        victim = None
        if len(active) > OFFLOAD_THRESHOLD:
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
        poll = _make_poll(transport, eng, msg.test_depth)
        result = eng.start_execution(
            msg.test, msg.test_depth, msg.final_depth, msg.strategy, poll=poll
        )
        transport.send(proto.Finish(result.stats))
    transport.close()
