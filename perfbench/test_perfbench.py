"""Tests of the benchmark itself, run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import pin
import run as runner
import tracing

bench.use_repo_sources()

import oracles  # noqa: E402
import tdpart  # noqa: E402
from tdpart import lang  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def find_middle_op(depth: int = 3, expected: bench.Expected | None = None) -> bench.Exploration:
    program = lang.parse_program((bench.ROOT / "programs" / "find_middle.tdp").read_text())
    if expected is None:
        expected = bench.expected_of(*oracles.enumerate_paths(program, depth))
    return bench.Exploration(program.name, program, depth, expected)


def tdpart_bindings() -> dict:
    """Every module-level binding and traced-class attribute in tdpart."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "tdpart" or name.startswith("tdpart."):
            seen.update({(name, k): v for k, v in vars(mod).items()})
    for modname, attr, *_ in tracing.TARGETS:
        if "." in attr:
            cls = getattr(sys.modules[modname], attr.split(".")[0])
            seen.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return seen


def test_wrappers_are_removed_after_a_traced_run():
    before = tdpart_bindings()
    w = bench.WORKLOADS["corpus-threads2"]
    tracer = tracing.Tracer()
    with tracer:
        during = tdpart_bindings()
        loop = bench.run_loop(w, [find_middle_op()], 0)
    after = tdpart_bindings()
    assert loop.failed == 0
    replaced = [k for k in before if during[k] is not before[k]]
    assert len(replaced) >= len(tracing.TARGETS)
    assert all(after[k] is before[k] for k in before)
    assert tdpart.run_program is tdpart.harness.run_program
    assert tracer.spans


def test_traced_and_untraced_runs_give_identical_digests():
    w = bench.WORKLOADS["interp-tcp2"]
    ops = bench.workload_explorations(w, bench.workload_files(w, 1))
    plain = bench.run_loop(w, ops, 0, keep_outputs=True)
    with tracing.Tracer():
        traced = bench.run_loop(w, ops, 0, keep_outputs=True)
    assert plain.failed == traced.failed == 0
    digests = {bench.path_digest(o.paths) for o in plain.outputs + traced.outputs}
    assert digests == {ops[0].expected.digest}


def test_same_seed_gives_byte_identical_corpus():
    first = [f.read_bytes() for f in bench.corpus_files(7)]
    again = [f.read_bytes() for f in bench.corpus_files(7)]
    assert first == again
    assert first != [f.read_bytes() for f in bench.corpus_files(8)]
    shipped = sorted((bench.ROOT / "programs" / "corpus").glob("*.tdp"))
    seed1 = bench.corpus_files(1)
    assert len(shipped) == 20
    assert [f.read_bytes() for f in shipped] == [f.read_bytes() for f in seed1[:20]]
    assert seed1[-1].name == "find_middle.tdp"


def test_wrong_pinned_digest_counts_as_failed(monkeypatch, capsys):
    good = find_middle_op()
    wrong = bench.Expected(good.expected.paths, good.expected.frontier, "0" * 64)
    op = find_middle_op(expected=wrong)
    w = bench.WORKLOADS["loops-single"]
    loop = bench.run_loop(w, [op], 0)
    assert (loop.attempted, loop.failed) == (1, 1)
    (problem,) = loop.problems
    for part in (w.name, "find_middle", "depth=3", "0" * 64, good.expected.digest):
        assert part in problem

    monkeypatch.setattr(bench, "workload_files", lambda w, seed: [])
    monkeypatch.setattr(bench, "measure_setup", lambda w, files: 0.5)
    monkeypatch.setattr(bench, "workload_explorations", lambda w, files: [op])
    code = runner.main(["--workload", w.name, "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1 == result["attempted"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_coordinator_spans_cover_the_exploration(name):
    w = bench.WORKLOADS[name]
    ops = bench.workload_explorations(w, bench.workload_files(w, 1))
    cpus = os.sched_getaffinity(0)
    if w.one_cpu:  # as run.py runs it
        os.sched_setaffinity(0, {min(cpus)})
    tracer = tracing.Tracer()
    try:
        with tracer:
            loop = bench.run_loop(w, ops, 0, keep_outputs=True)
    finally:
        os.sched_setaffinity(0, cpus)
    assert loop.failed == 0
    values = tracing.layer_metrics(tracer.spans, loop.outputs, w.mode)
    values["trace_slowdown"] = 1.0
    entries, absent = runner._entries(values, SPEC["per_layer"])
    assert values["trace.coverage"] >= 0.9
    assert all(set(e) == {"value", "unit"} and e["value"] >= 0 for e in entries.values())
    if w.mode == "single":
        assert "proto.frames" in absent
        assert entries["proto.frames"] == {"value": 0.0, "unit": "count"}
    else:
        assert values["proto.frames"] > 0
        assert values["worker.busy_s"] > 0


def test_cheap_pinned_results_rederive():
    assert pin.pin("nonlinear") == bench.load_pins()["nonlinear"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loops-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
