"""Acceptance gate. Each test checks one release criterion end to end and
prints a single verdict line (these bypass capture so they always show)."""

import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from oracles import brute_force_model, decision_sequence, enumerate_paths
from test_proto import GOLDEN_PAIRS, GOLDEN_TERMINATE, random_message
from test_solve import random_system

from tdpart import engine, lang, worker
from tdpart.engine import Engine, Strategy
from tdpart.harness import (
    RunConfig,
    ScheduleTransport,
    generate_program,
    path_digest,
    report_text,
    report_data,
    run_program,
    verify_reports,
)
from tdpart.lang import Binary, Var, parse_program
from tdpart.proto import (
    Finish,
    NoWork,
    Offload,
    ProvideWork,
    QueueHub,
    Task,
    Terminate,
    decode,
    encode,
)
from tdpart.solve import solve_model
from tdpart.worker import run_worker

FIND_MIDDLE = parse_program(Path("programs/find_middle.tdp").read_text())
FM_PATHS = {"01", "11", "000", "001", "100", "101"}
FM_CONSTRAINTS = {
    "01": ["!(x<y)", "(x<z)"],
    "11": ["(x<y)", "(y<z)"],
    "000": ["!(x<y)", "!(x<z)", "!(y<z)"],
    "001": ["!(x<y)", "!(x<z)", "(y<z)"],
    "100": ["(x<y)", "!(y<z)", "!(x<z)"],
    "101": ["(x<y)", "!(y<z)", "(x<z)"],
}

CORPUS_DIR = Path("programs/corpus")
CORPUS_DEPTH = 26  # every shipped corpus program completes fully at this depth


@contextmanager
def verdict(capsys, n: int, desc: str):
    """Print `criterion N PASS/FAIL desc` past pytest's capture, then let
    any assertion propagate. Yields a list for extra note fragments."""
    notes: list[str] = []
    try:
        yield notes
    except BaseException:
        with capsys.disabled():
            print(f"criterion {n:2d} FAIL  {desc}")
        raise
    tail = ("  " + " ".join(notes)) if notes else ""
    with capsys.disabled():
        print(f"criterion {n:2d} PASS  {desc}{tail}")


@pytest.fixture(scope="module")
def corpus_programs():
    progs = []
    for p in sorted(CORPUS_DIR.glob("*.tdp")):
        prog = lang.parse_program(p.read_text())
        assert lang.validate(prog) == []
        progs.append(prog)
    assert len(progs) == 20
    return progs


@pytest.fixture(scope="module")
def corpus_oracles(corpus_programs):
    """Single-worker dfs reference run per corpus program, fully explored."""
    outs = {}
    for prog in corpus_programs:
        out = run_program(prog, RunConfig(final_depth=CORPUS_DEPTH))
        assert not out.truncated
        assert sum(t.frontier for t in out.tallies) == 0
        assert len(out.paths) == len(set(out.paths))
        outs[prog.name] = out
    return outs


def test_criterion_01_ground_truth_paths_constraints_and_witnesses(capsys):
    with verdict(capsys, 1, "find_middle: six paths, exact constraint rows, "
                            "every emitted test replays its path"):
        t0 = time.perf_counter()
        eng = Engine(FIND_MIDDLE)
        res = eng.start_execution({}, 0, 3, Strategy("dfs"))
        assert {c.path for c in res.completed} == FM_PATHS
        for c in res.completed:
            assert list(c.constraints) == FM_CONSTRAINTS[c.path]
            bits, outcome = decision_sequence(FIND_MIDDLE, c.test)
            assert bits == c.path
            assert outcome == str(c.outcome)
        assert res.stats.frontier == 0
        assert not res.stats.truncated
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_depth_two_regions_complete_their_claimed_pairs(capsys):
    with verdict(capsys, 2, "depth-2 regions around the two deep-prefix "
                            "models complete exactly {000,001} and {100,101}"):
        t0 = time.perf_counter()
        x_lt_y = Binary("<", Var("x"), Var("y"))
        x_lt_z = Binary("<", Var("x"), Var("z"))
        y_lt_z = Binary("<", Var("y"), Var("z"))
        t3 = brute_force_model([(x_lt_y, False), (x_lt_z, False)], FIND_MIDDLE.inputs)
        t5 = brute_force_model([(x_lt_y, True), (y_lt_z, False)], FIND_MIDDLE.inputs)
        assert t3 == {"x": -8, "y": -8, "z": -8}
        assert t5 == {"x": -8, "y": -7, "z": -8}
        for test, want in ((t3, {"000", "001"}), (t5, {"100", "101"})):
            eng = Engine(FIND_MIDDLE)
            res = eng.start_execution(test, 2, 3, Strategy("dfs"))
            assert {c.path for c in res.completed} == want
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_distributed_runs_match_the_single_oracle(
    capsys, corpus_programs, corpus_oracles
):
    with verdict(capsys, 3, "corpus x {2,4} workers x {dfs,bfs,random} x "
                            "{threads,tcp} equals the single-worker path "
                            "multiset with zero duplicates") as notes:
        t0 = time.perf_counter()
        seed = 1000
        runs = 0
        for prog in corpus_programs:
            oracle = report_data(corpus_oracles[prog.name])
            for workers in (2, 4):
                for kind in ("dfs", "bfs", "random"):
                    seed += 1
                    strat = Strategy(kind, seed) if kind == "random" else Strategy(kind)
                    for mode in ("threads", "tcp"):
                        out = run_program(prog, RunConfig(
                            mode=mode, workers=workers, strategy=strat,
                            final_depth=CORPUS_DEPTH,
                        ))
                        res = verify_reports(oracle, report_data(out))
                        assert res.ok, (prog.name, workers, kind, mode, res.lines())
                        runs += 1
        elapsed = time.perf_counter() - t0
        assert runs == 20 * 2 * 3 * 2
        assert elapsed < 300.0
        notes.append(f"({runs} runs in {elapsed:.1f}s)")


def test_criterion_04_single_worker_strategy_invariance(
    capsys, corpus_programs, corpus_oracles
):
    with verdict(capsys, 4, "single-worker completed path set is identical "
                            "across dfs, bfs, and random"):
        for prog in corpus_programs:
            want = set(corpus_oracles[prog.name].paths)
            for strat in (Strategy("bfs"), Strategy("random", 77)):
                out = run_program(prog, RunConfig(
                    strategy=strat, final_depth=CORPUS_DEPTH,
                ))
                assert set(out.paths) == want, (prog.name, strat.kind)


def test_criterion_05_solver_agrees_with_exhaustive_enumeration(capsys):
    with verdict(capsys, 5, "1000 seeded constraint systems: sat verdicts and "
                            "lex-min models match exhaustive enumeration") as notes:
        t0 = time.perf_counter()
        rng = random.Random(424242)
        sats = 0
        for _ in range(1000):
            decls, pc, pairs = random_system(rng)
            expect = brute_force_model(pairs, decls)
            model = solve_model(pc, decls)
            assert (model is not None) == (expect is not None)
            if expect is not None:
                sats += 1
                assert model == expect
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        assert 0 < sats < 1000  # both verdicts must actually be exercised
        notes.append(f"({sats} sat / {1000 - sats} unsat in {elapsed:.1f}s)")


def run_forced_steal(monkeypatch, program, final_depth: int, step: int, threshold: int):
    """One worker, one full region, one steal request scheduled mid-region.
    Returns (victim paths, Offload or None if the worker declined)."""
    monkeypatch.setattr(worker, "OFFLOAD_THRESHOLD", threshold)
    hub = QueueHub(1)
    box: dict = {}

    def body():
        try:
            transport = ScheduleTransport(hub.transport_for(0), {(0, step)}, replay=True)
            run_worker(transport, program, RunConfig())
        except BaseException as e:  # surfaced by the caller
            box["error"] = e

    th = threading.Thread(target=body, daemon=True)
    th.start()
    hub.send(0, Task(Strategy("dfs"), {}, 0, final_depth))
    hub.send(0, ProvideWork())
    _, first = hub.recv(timeout=30)
    offload = None
    if isinstance(first, Finish):
        # region ended before the scheduled poll step; the queued request
        # gets its NoWork from the idle loop afterwards
        fin = first
        _, answer = hub.recv(timeout=30)
        assert answer == NoWork()
    else:
        if isinstance(first, Offload):
            offload = first
        else:
            assert first == NoWork()
        _, fin = hub.recv(timeout=30)
        assert isinstance(fin, Finish)
    hub.send(0, Terminate())
    th.join(timeout=30)
    assert "error" not in box, box.get("error")
    return fin.stats.paths, offload


def test_criterion_06_offloads_partition_the_region(monkeypatch, capsys, corpus_programs):
    with verdict(capsys, 6, "50 forced steals: victim plus oracle-expanded "
                            "offload exactly partition the region") as notes:
        rng = random.Random(606)
        pool = [(FIND_MIDDLE, 3)] + [(p, CORPUS_DEPTH) for p in corpus_programs]
        oracle_cache: dict[str, dict[str, str]] = {}
        steals = 0
        attempts = 0
        while steals < 50:
            attempts += 1
            assert attempts <= 250, f"only {steals} steals after {attempts} tries"
            program, fd = rng.choice(pool)
            victim_paths, off = run_forced_steal(
                monkeypatch, program, fd, step=rng.randrange(6), threshold=rng.randint(1, 2)
            )
            if program.name not in oracle_cache:
                completed, frontier = enumerate_paths(program, fd)
                assert not frontier
                oracle_cache[program.name] = completed
            region = set(oracle_cache[program.name])
            victim = set(victim_paths)
            assert len(victim) == len(victim_paths)  # no duplicates
            if off is None:
                # declined: the victim must still finish the whole region
                assert victim == region
                continue
            prefix = decision_sequence(program, off.test)[0][: off.depth]
            assert len(prefix) == off.depth
            thief = {p for p in region if p.startswith(prefix)}
            assert thief
            assert victim.isdisjoint(thief)
            assert victim | thief == region
            steals += 1
        notes.append(f"({steals} steals in {attempts} scenarios)")


def test_criterion_07_protocol_roundtrip_and_golden_frames(capsys):
    with verdict(capsys, 7, "1000 random messages survive decode(encode(m)) "
                            "and the five golden frames are bit-exact"):
        rng = random.Random(7070)
        for _ in range(1000):
            msg = random_message(rng)
            assert decode(encode(msg)) == msg
        assert GOLDEN_TERMINATE == bytes.fromhex("0000000106")
        assert len(GOLDEN_PAIRS) >= 5
        for msg, frame in GOLDEN_PAIRS:
            assert encode(msg) == frame
            assert decode(frame) == msg


def test_criterion_08_cache_is_transparent_and_actually_hits(
    capsys, corpus_programs, corpus_oracles
):
    with verdict(capsys, 8, "cache on/off path digests are identical; a "
                            "100+ path program records cache hits") as notes:
        wide_hits = []
        for prog in corpus_programs:
            cached = corpus_oracles[prog.name]  # default config caches
            uncached = run_program(prog, RunConfig(
                final_depth=CORPUS_DEPTH, cache_enabled=False,
            ))
            assert path_digest(uncached.paths) == path_digest(cached.paths)
            assert uncached.tallies[0].cache_hits == 0
            if len(cached.paths) >= 100:
                wide_hits.append((prog.name, cached.tallies[0].cache_hits))
        assert wide_hits, "corpus lacks a 100+ path program"
        assert all(hits > 0 for _, hits in wide_hits), wide_hits
        notes.append(f"({', '.join(f'{n}: {h} hits' for n, h in wide_hits)})")


def test_criterion_09_replayed_runs_produce_identical_reports(capsys, tmp_path):
    with verdict(capsys, 9, "threads runs replayed against a recorded message "
                            "schedule give byte-identical reports minus wall "
                            "times"):
        big = lang.parse_program((CORPUS_DIR / "prog_05.tdp").read_text())
        for name, prog, fd in (("fm", FIND_MIDDLE, 3), ("big", big, CORPUS_DEPTH)):
            sched = tmp_path / f"{name}.json"
            base = dict(
                mode="threads", workers=3, strategy=Strategy("random", 5),
                final_depth=fd,
            )
            recorded = run_program(prog, RunConfig(**base, record_schedule=str(sched)))

            def stable(out) -> str:
                lines = report_text(out).splitlines()
                return "\n".join(l for l in lines if ",wall_ms," not in l)

            want = stable(recorded)
            for _ in range(2):
                replayed = run_program(
                    prog, RunConfig(**base, replay_schedule=str(sched))
                )
                assert stable(replayed) == want, name


def test_criterion_10_smoke_scaling_with_solver_delay(monkeypatch, capsys):
    with verdict(capsys, 10, "wide-tree smoke scaling under per-query solver "
                             "delay (reported, non-gating)") as notes:
        prog = lang.parse_program(
            generate_program(random.Random(2024), "wide_smoke", "wide")
        )
        assert lang.validate(prog) == []
        single = run_program(prog, RunConfig(final_depth=CORPUS_DEPTH))
        want = path_digest(single.paths)
        timed = {}
        monkeypatch.setattr(engine, "SOLVER_DELAY", 0.001)
        for workers in (1, 4):
            out = run_program(prog, RunConfig(
                mode="threads", workers=workers, final_depth=CORPUS_DEPTH,
            ))
            assert path_digest(out.paths) == want
            assert not out.truncated
            timed[workers] = out.wall_ms
        rel = "<=" if timed[4] <= timed[1] else ">"
        notes.append(f"x1={timed[1]}ms x4={timed[4]}ms (x4 {rel} x1)")
