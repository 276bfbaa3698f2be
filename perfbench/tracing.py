"""Per-layer tracing from outside the tdpart package.

`Tracer.install()` replaces public functions and methods of tdpart's
modules with wrappers that record one span per call: name, start, end,
parent span, exploration id, thread name and a small info value. Nothing
in src/ is edited; `uninstall()` puts every original back. Spans stay in
memory and are written out when the benchmark ends.

Worker-side spans are visible only while workers are threads of this
process. Metrics built from them are marked absent (None here) when a
distributed run shows no worker spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

ROOT_SPAN = "harness.run_program"

# (module, attribute path, span name, pre, post). `pre(args)` runs before
# the call; `post(args, result, pre_value)` gives the span's info.
TARGETS = [
    ("tdpart.harness", "run_program", ROOT_SPAN, None, None),
    ("tdpart.harness", "program_digest", "harness.program_digest", None, None),
    ("tdpart.lang", "parse_program", "lang.parse_program", None, None),
    ("tdpart.lang", "validate", "lang.validate", None, None),
    (
        "tdpart.solve", "QueryCache.query", "solve.query",
        lambda a: a[0].misses,
        lambda a, r, before: (a[0].misses != before, id(a[0]), len(a[0])),
    ),
    ("tdpart.solve", "PathCondition.key", "solve.key", None, None),
    ("tdpart.solve", "solve_path", "solve.solve_path", None, None),
    ("tdpart.engine", "Engine.start_execution", "engine.region", None, None),
    (
        "tdpart.engine", "Engine.find_resumable", "engine.find_resumable",
        None, lambda a, r, _: r is not None,
    ),
    ("tdpart.coord", "seed_pool", "coord.seed_pool", None, None),
    ("tdpart.coord", "run_coordinator", "coord.run", None, None),
    ("tdpart.worker", "run_worker", "worker.run", None, None),
    ("tdpart.proto", "encode", "proto.encode", None, lambda a, r, _: len(r)),
    ("tdpart.proto", "decode", "proto.decode", None, None),
]
for _hub in ("QueueHub", "SocketHub"):
    TARGETS += [
        ("tdpart.proto", f"{_hub}.send", "hub.send", None,
         lambda a, r, _: (a[1], type(a[2]).__name__)),
        ("tdpart.proto", f"{_hub}.recv", "hub.recv", None,
         lambda a, r, _: (r[0], type(r[1]).__name__)),
    ]
TARGETS.append(("tdpart.proto", "SocketHub.accept_all", "hub.accept_all", None, None))
for _tr in ("QueueTransport", "SocketTransport"):
    TARGETS += [
        ("tdpart.proto", f"{_tr}.{m}", f"transport.{m}", None, None)
        for m in ("send", "recv", "poll")
    ]

# span fields
ID, NAME, START, END, PARENT, OP, THREAD, INFO = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current_op: int | None = None
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping

    def _wrap(self, name, fn, pre, post):
        tracer = self
        is_root = name == ROOT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if is_root and not stack:
                tracer.current_op = next(tracer._ops)
            span = [
                next(tracer._ids), name, 0, 0,
                stack[-1][ID] if stack else None,
                tracer.current_op, threading.current_thread().name, None,
            ]
            before = pre(args) if pre is not None else None
            stack.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
                if is_root and not stack:
                    tracer.current_op = None
            if post is not None:
                span[INFO] = post(args, result, before)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, pre, post in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, pre, post))
                continue
            fn = getattr(mod, attr)
            traced = self._wrap(name, fn, pre, post)
            # Modules that imported the function by name hold their own
            # binding (harness uses coord's seed_pool, tdpart re-exports
            # run_program); replace every binding of the same object.
            for other_name, other in list(sys.modules.items()):
                if other_name != "tdpart" and not other_name.startswith("tdpart."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._saved.append((other, key, fn))
                        setattr(other, key, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, fn = self._saved.pop()
            setattr(owner, key, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "op", "thread", "info")
        with open(path, "w") as f:
            for span in sorted(self.spans, key=lambda s: s[START]):
                f.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Built from spans on worker threads; absent when workers are not threads
# of this process, because the spans would then show only part of the work.
WORKER_SIDE = {
    "solve.query_s", "solve.queries", "solve.misses", "solve.miss_ms",
    "solve.hit_ratio", "solve.key_s", "solve.cache_entries",
    "solve.replay_decisions", "solve.share",
    "engine.region_s", "engine.self_s", "engine.self_share", "engine.resumed_ratio",
    "proto.frames", "proto.bytes", "proto.codec_s", "proto.send_s",
    "worker.busy_s", "worker.util", "worker.imbalance",
}
# Layers a single-mode run does not have.
DISTRIBUTED_ONLY = {
    "coord.wait_s", "coord.steal_asks", "coord.steal_grant_ratio",
    "coord.steal_latency_ms", "coord.share",
    "proto.frames", "proto.bytes", "proto.codec_s", "proto.send_s",
    "worker.busy_s", "worker.util", "worker.imbalance", "worker.transfers_in",
    "harness.start_s", "harness.teardown_s",
}


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(spans: list[list], outputs: list, mode: str) -> dict[str, float | None]:
    """Per-layer metrics of the traced explorations. Times and counts are
    per exploration; None marks a metric that is absent on this run."""
    ns = 1e-9
    by_id = {s[ID]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]

    def dur(s) -> int:
        return s[END] - s[START]

    def self_ns(s) -> int:
        return dur(s) - child_ns[s[ID]]

    traced = [s for s in spans if s[OP] is not None]
    roots = [s for s in traced if s[NAME] == ROOT_SPAN and s[PARENT] is None]
    n = len(roots)
    if n == 0:
        raise ValueError("no traced explorations")
    coord_thread = roots[0][THREAD]
    explore_ns = sum(dur(r) for r in roots)
    named: dict[str, list] = defaultdict(list)
    for s in traced:
        named[s[NAME]].append(s)

    def total(name, thread=None, f=dur) -> int:
        return sum(f(s) for s in named[name] if thread is None or s[THREAD] == thread)

    m: dict[str, float | None] = {}
    parse = [s for s in spans if s[OP] is None and s[NAME] in ("lang.parse_program", "lang.validate")
             and s[PARENT] is None]
    m["lang.parse_s"] = sum(dur(s) for s in parse) * ns if parse else None

    queries = named["solve.query"]
    misses = [s for s in queries if s[INFO][0]]
    m["solve.query_s"] = total("solve.query") * ns / n
    m["solve.queries"] = len(queries) / n
    m["solve.misses"] = len(misses) / n
    m["solve.miss_ms"] = _ratio(sum(dur(s) for s in misses) * 1e-6, len(misses))
    m["solve.hit_ratio"] = _ratio(len(queries) - len(misses), len(queries))
    m["solve.key_s"] = total("solve.key") * ns / n
    entries: dict[tuple[int, int], int] = {}
    for s in queries:
        k = (s[OP], s[INFO][1])
        entries[k] = max(entries.get(k, 0), s[INFO][2])
    m["solve.cache_entries"] = sum(entries.values()) / n
    m["solve.replay_decisions"] = len(named["solve.solve_path"]) / n
    m["solve.share"] = total("solve.query") / explore_ns

    region_ns = total("engine.region")
    m["engine.region_s"] = region_ns * ns / n
    m["engine.self_s"] = total("engine.region", f=self_ns) * ns / n
    m["engine.self_share"] = _ratio(total("engine.region", f=self_ns), region_ns)
    m["engine.instructions"] = sum(t.instructions for o in outputs for t in o.tallies) / n
    m["engine.regions"] = sum(t.regions for o in outputs for t in o.tallies) / n
    finds = named["engine.find_resumable"]
    m["engine.resumed_ratio"] = _ratio(sum(1 for s in finds if s[INFO]), len(finds))
    m["engine.states_suspended"] = (
        sum(t.states_suspended for o in outputs for t in o.tallies) / n
    )

    m["coord.seed_s"] = total("coord.seed_pool") * ns / n
    m["coord.pool"] = sum(o.pool_size for o in outputs) / n
    wait_ns = total("hub.recv", coord_thread, self_ns)
    m["coord.wait_s"] = wait_ns * ns / n
    sends = sorted(named["hub.send"], key=lambda s: s[START])
    recvs = sorted(named["hub.recv"], key=lambda s: s[END])
    asks = [s for s in sends if s[INFO][1] == "ProvideWork"]
    answers = [s for s in recvs if s[INFO][1] in ("NoWork", "Offload")]
    m["coord.steal_asks"] = len(asks) / n
    m["coord.steal_grant_ratio"] = _ratio(
        sum(1 for s in answers if s[INFO][1] == "Offload"), len(asks)
    )
    latencies = []
    for ask in asks:
        # An ask the coordinator stops waiting for (the run ended first)
        # has no reply in its exploration and no latency.
        reply = next(
            (r for r in answers
             if r[OP] == ask[OP] and r[INFO][0] == ask[INFO][0] and r[END] > ask[START]),
            None,
        )
        if reply is not None:
            answers.remove(reply)
            latencies.append((reply[END] - ask[START]) * 1e-6)
    m["coord.steal_latency_ms"] = statistics.mean(latencies) if latencies else None
    codec_coord = total("proto.encode", coord_thread) + total("proto.decode", coord_thread)
    m["coord.share"] = (wait_ns + total("coord.seed_pool") + codec_coord) / explore_ns

    m["proto.frames"] = len(named["proto.encode"]) / n
    m["proto.bytes"] = sum(s[INFO] for s in named["proto.encode"]) / n
    m["proto.codec_s"] = (total("proto.encode") + total("proto.decode")) * ns / n
    m["proto.send_s"] = (total("hub.send", f=self_ns) + total("transport.send", f=self_ns)) * ns / n

    runs = named["worker.run"]
    busy_by_worker: dict[str, int] = defaultdict(int)
    wall_by_worker: dict[str, int] = defaultdict(int)
    busy_by_op: dict[int, dict[str, int]] = defaultdict(dict)
    for s in runs:
        wall_by_worker[s[THREAD]] += dur(s)
        busy_by_op[s[OP]].setdefault(s[THREAD], 0)
    for s in named["engine.region"]:
        if s[THREAD] != coord_thread:
            busy_by_worker[s[THREAD]] += dur(s)
            busy_by_op[s[OP]][s[THREAD]] = busy_by_op[s[OP]].get(s[THREAD], 0) + dur(s)
    m["worker.busy_s"] = sum(busy_by_worker.values()) * ns / n
    m["worker.util"] = (
        statistics.mean(busy_by_worker[w] / wall_by_worker[w] for w in wall_by_worker)
        if wall_by_worker else None
    )
    imbalances = [
        max(b.values()) / statistics.mean(b.values())
        for b in busy_by_op.values() if b and sum(b.values())
    ]
    m["worker.imbalance"] = statistics.mean(imbalances) if imbalances else None
    m["worker.transfers_in"] = sum(t.transfers_in for o in outputs for t in o.tallies) / n

    start_ns = teardown_ns = 0
    covered_ns = 0
    kids: dict[int, list] = defaultdict(list)
    for s in traced:
        if s[PARENT] is not None and by_id[s[PARENT]][NAME] == ROOT_SPAN:
            kids[s[PARENT]].append(s)
    for r in roots:
        covered_ns += sum(dur(c) for c in kids[r[ID]])
        coord_runs = [c for c in kids[r[ID]] if c[NAME] == "coord.run"]
        if coord_runs:
            start_ns += coord_runs[0][START] - r[START]
            teardown_ns += r[END] - coord_runs[-1][END]
    m["harness.start_s"] = start_ns * ns / n
    m["harness.teardown_s"] = teardown_ns * ns / n
    m["trace.coverage"] = covered_ns / explore_ns

    distributed = mode != "single"
    workers_visible = bool(runs)
    for name in list(m):
        if not distributed and name in DISTRIBUTED_ONLY:
            m[name] = None
        elif distributed and not workers_visible and name in WORKER_SIDE:
            m[name] = None
    return m
