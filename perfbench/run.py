"""tdpart benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it runs the same
closed loop for half the time untraced and half traced, and reports the
per-layer metrics. The last line of stdout is the JSON result; mismatches
go to stderr. The exit code is non-zero when any exploration failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import bench
import tracing


def _entries(values: dict, specs: list[dict]) -> tuple[dict, list[str]]:
    """Metric values in BENCHMARK.json's order and units, and the names of
    the absent ones (a layer this run cannot see). The result line holds
    only a value and a unit per metric, so an absent metric reads 0 there;
    its name is listed on stderr and in the run's layer file instead."""
    missing = {s["name"] for s in specs} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    out = {}
    absent = []
    for s in specs:
        v = values[s["name"]]
        if v is None:
            absent.append(s["name"])
            v = 0.0
        out[s["name"]] = {"value": v, "unit": s["unit"]}
    return out, absent


def plain_run(w: bench.Workload, seed: int, seconds: float, spec: dict) -> tuple[dict, list]:
    files = bench.workload_files(w, seed)
    setup_s = bench.measure_setup(w, files)
    ops = bench.workload_explorations(w, files)
    loop = bench.run_loop(w, ops, seconds)
    print(
        f"measured (not reference) seconds: explore_s={statistics.median(loop.walls):.6f} "
        f"calibration_s={statistics.median(loop.calibrations):.6f}",
        file=sys.stderr,
    )
    metrics, absent = _entries(bench.end_to_end_metrics(loop, setup_s), spec["end_to_end"])
    if absent:
        raise RuntimeError(f"end-to-end metrics not measured: {absent}")
    return metrics, [loop]


def traced_run(w: bench.Workload, seed: int, seconds: float, spec: dict) -> tuple[dict, list]:
    files = bench.workload_files(w, seed)
    tracer = tracing.Tracer()
    with tracer:  # parse and validate are traced as set-up
        ops = bench.workload_explorations(w, files)
    plain = bench.run_loop(w, ops, seconds / 2)
    with tracer:
        traced = bench.run_loop(w, ops, seconds / 2, keep_outputs=True)
    values = tracing.layer_metrics(tracer.spans, traced.outputs, w.mode)
    f = bench.CALIBRATION_S / statistics.median(traced.calibrations)
    for s in spec["per_layer"]:
        if s["unit"] in ("s", "ms") and values[s["name"]] is not None:
            values[s["name"]] *= f
    values["trace_slowdown"] = (
        statistics.median(traced.ref_walls()) / statistics.median(plain.ref_walls())
    )
    metrics, absent = _entries(values, spec["per_layer"])
    bench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(bench.OUT_DIR / f"trace-{w.name}-seed{seed}.jsonl")
    (bench.OUT_DIR / f"layers-{w.name}-seed{seed}.json").write_text(
        json.dumps({"values": values, "absent": absent}, indent=1) + "\n"
    )
    if absent:
        print(f"absent (0 on the result line): {' '.join(absent)}", file=sys.stderr)
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    bench.use_repo_sources()
    import tdpart  # noqa: F401  (fails here, before any output, without the sources)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    w = bench.WORKLOADS[args.workload]
    if w.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = traced_run if args.trace else plain_run
    metrics, loops = run(w, args.seed, args.seconds, spec)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        for problem in lp.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
