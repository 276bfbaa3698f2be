"""Workloads, pinned expected results and the measured closed loop.

One operation is one `tdpart.run_program` call (an exploration). Every
exploration is checked against expected values that come from
`tests/oracles.enumerate_paths`, never from tdpart itself: path count,
frontier count, `truncated`, `undispatched` and the path digest.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED_FILE = BENCH_DIR / "expected.json"
SETUP_PROBE = BENCH_DIR / "setup_probe.py"

# An exploration slower than this counts as failed. It is checked after the
# call returns; the coordinator's own recv timeout bounds a hung run.
OP_TIME_LIMIT_S = 30.0
# Set-up is timed in this many fresh child processes; the median is reported.
SETUP_REPEATS = 7
# Reference time of one calibration pass. Times are reported in reference
# seconds: each measured time scaled by CALIBRATION_S over the calibration
# passes around it, so a run on a host that is slower for a while (shared
# cores) reports the same numbers for the same work.
CALIBRATION_S = 0.015
CALIBRATION_EVERY_S = 0.25
# With 20 programs the seed alone moved the median work per exploration by
# ~20% between seeds; with 120 by ~2%.
CORPUS_COUNT = 120
CORPUS_DEPTHS = (6, 12)


def use_repo_sources() -> None:
    """Make `tdpart` (from src/) and the test oracles importable."""
    for p in (ROOT / "src", ROOT / "tests"):
        if str(p) not in sys.path:
            sys.path.insert(0, str(p))


def path_digest(paths) -> str:
    """sha256 over the sorted completed-path multiset, one path per line.
    Written out here so the check does not trust tdpart's own digest."""
    return hashlib.sha256("\n".join(sorted(paths)).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Expected:
    paths: int
    frontier: int
    digest: str


@dataclass(frozen=True)
class Exploration:
    label: str  # program name, for messages
    program: object  # tdpart.lang.Program
    depth: int
    expected: Expected


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    workers: int
    heavy: str | None  # key in expected.json, or None for the generated corpus
    # Run on one CPU. Threads-mode workers share the interpreter lock and
    # cannot compute in parallel; spread over two vCPUs, every hand-off of
    # the lock needs a cross-CPU wake-up, whose latency the host sets.
    one_cpu: bool = False


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("loops-single", "single", 1, "loops"),
        Workload("nonlinear-single", "single", 1, "nonlinear"),
        Workload("interp-tcp2", "tcp", 2, "interp"),
        Workload("corpus-threads2", "threads", 2, None, one_cpu=True),
    )
}


def expected_of(completed: dict, frontier: set) -> Expected:
    """Expected values from `oracles.enumerate_paths` output."""
    return Expected(len(completed), len(frontier), path_digest(completed))


def load_pins() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def program_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def heavy_explorations(key: str) -> list[Exploration]:
    """The pinned program; refuses a program whose text no longer matches
    the text its expected values were computed from."""
    from tdpart import lang

    pin = load_pins()[key]
    text = (BENCH_DIR / pin["file"]).read_text()
    if program_sha(text) != pin["source_sha256"]:
        raise RuntimeError(
            f"{pin['file']} changed since its expected values were pinned; "
            "rerun perfbench/pin.py"
        )
    program = parse_checked(text, pin["file"], lang)
    exp = Expected(pin["paths"], pin["frontier"], pin["digest"])
    return [Exploration(program.name, program, pin["depth"], exp)]


def parse_checked(text: str, where: str, lang):
    program = lang.parse_program(text)
    diags = lang.validate(program)
    if diags:
        raise RuntimeError(f"{where}: {diags}")
    return program


def corpus_files(seed: int) -> list[Path]:
    """`gen_corpus(seed, CORPUS_COUNT)` plus find_middle. The first 20
    programs of seed 1 are the shipped programs/corpus/."""
    import tdpart

    out = OUT_DIR / f"corpus-seed{seed}"
    files = tdpart.gen_corpus(seed, CORPUS_COUNT, out)
    return files + [ROOT / "programs" / "find_middle.tdp"]


def corpus_explorations(files: list[Path]) -> list[Exploration]:
    """Each program at each corpus depth, with expected values computed by
    exhaustive enumeration now (well under a second for this corpus)."""
    from tdpart import lang

    import oracles

    ops = []
    for f in files:
        program = parse_checked(f.read_text(), str(f), lang)
        for depth in CORPUS_DEPTHS:
            exp = expected_of(*oracles.enumerate_paths(program, depth))
            ops.append(Exploration(program.name, program, depth, exp))
    return ops


def workload_files(w: Workload, seed: int) -> list[Path]:
    if w.heavy is None:
        return corpus_files(seed)
    return [BENCH_DIR / load_pins()[w.heavy]["file"]]


def workload_explorations(w: Workload, files: list[Path]) -> list[Exploration]:
    if w.heavy is None:
        return corpus_explorations(files)
    return heavy_explorations(w.heavy)


# ---------------------------------------------------------------------------
# Checking and the closed loop
# ---------------------------------------------------------------------------


def mismatch(w: Workload, op: Exploration, out) -> str | None:
    """Describes how an exploration's output differs from the expected
    values, or None when it matches."""
    got = Expected(len(out.paths), sum(t.frontier for t in out.tallies), path_digest(out.paths))
    problems = []
    if got.paths != op.expected.paths:
        problems.append(f"paths {got.paths} != {op.expected.paths}")
    if got.frontier != op.expected.frontier:
        problems.append(f"frontier {got.frontier} != {op.expected.frontier}")
    if out.truncated:
        problems.append("truncated")
    if out.undispatched:
        problems.append(f"undispatched {out.undispatched}")
    if got.digest != op.expected.digest:
        problems.append(f"digest {got.digest} != expected {op.expected.digest}")
    if not problems:
        return None
    return f"{w.name} {op.label} depth={op.depth}: " + "; ".join(problems)


def calibration_pass() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not touch
    tdpart, so it measures only the speed the host gives this process now."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(60000):
        d[i & 1023] = d.get(i & 1023, 0) + i * 3
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def scaled(times: list[float], calibrations: list[float], before: list[int]) -> list[float]:
    """Reference seconds: each time scaled by CALIBRATION_S over the mean of
    the calibration pass just before it and the next one after it."""
    c = calibrations
    return [t * 2 * CALIBRATION_S / (c[j] + c[j + 1]) for t, j in zip(times, before)]


@dataclass
class LoopResult:
    walls: list[float] = field(default_factory=list)  # measured s per exploration
    cpus: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    before: list[int] = field(default_factory=list)  # last calibration before each
    outputs: list = field(default_factory=list)
    paths: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ref_walls(self) -> list[float]:
        return scaled(self.walls, self.calibrations, self.before)

    def ref_cpus(self) -> list[float]:
        return scaled(self.cpus, self.calibrations, self.before)


def run_loop(w: Workload, ops: list[Exploration], seconds: float, keep_outputs=False) -> LoopResult:
    """Closed loop from one thread: whole rounds over `ops`, each exploration
    starting when the previous one returned, until `seconds` have passed.
    Calibration passes run between explorations, at most every
    CALIBRATION_EVERY_S, and once more at the end."""
    import tdpart

    res = LoopResult()
    start = time.perf_counter()
    last_calibration = -CALIBRATION_EVERY_S
    while True:
        for op in ops:
            if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                res.calibrations.append(calibration_pass())
                last_calibration = time.perf_counter()
            cfg = tdpart.RunConfig(mode=w.mode, workers=w.workers, final_depth=op.depth)
            res.attempted += 1
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                # looked up per call so that trace wrappers are seen
                out = tdpart.run_program(op.program, cfg)
            except Exception as e:  # a raising exploration is a failed one
                wall = time.perf_counter() - t0
                problem = f"{w.name} {op.label} depth={op.depth}: raised {e!r}"
                out = None
            else:
                wall = time.perf_counter() - t0
                problem = mismatch(w, op, out)
                res.paths += len(out.paths)
            if problem is None and wall > OP_TIME_LIMIT_S:
                problem = f"{w.name} {op.label} depth={op.depth}: took {wall:.1f}s"
            res.cpus.append(cpu_seconds() - cpu0)
            res.walls.append(wall)
            res.before.append(len(res.calibrations) - 1)
            if keep_outputs and out is not None:
                res.outputs.append(out)
            if problem is not None:
                res.failed += 1
                res.problems.append(problem)
        if time.perf_counter() - start >= seconds:
            res.calibrations.append(calibration_pass())
            return res


def measure_setup(w: Workload, files: list[Path]) -> float:
    """Median set-up time, in reference seconds, over fresh child processes:
    import tdpart, parse and validate the workload's programs, then start
    and connect the workers through a depth-0 run in the workload's mode."""
    cmd = [sys.executable, str(SETUP_PROBE), w.mode, str(w.workers)] + [str(f) for f in files]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(loop: LoopResult, setup_s: float) -> dict[str, float]:
    """End-to-end metrics, times in reference seconds (see CALIBRATION_S)."""
    walls = loop.ref_walls()
    return {
        "paths_per_s": loop.paths / sum(walls),
        "explore_s": statistics.median(walls),
        "setup_s": setup_s,
        "cpu_s": sum(loop.ref_cpus()) / loop.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
