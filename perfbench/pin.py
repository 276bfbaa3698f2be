"""Recomputes the pinned expected results of the heavy benchmark programs.

    python3 perfbench/pin.py [KEY...]

Runs `tests/oracles.enumerate_paths` (exhaustive concrete execution over
the whole input domain, independent of tdpart's engine and solver) and
rewrites perfbench/expected.json. This takes about a minute per program,
which is why the results are pinned instead of recomputed on every run.
"""

from __future__ import annotations

import json
import sys
import time

import bench

bench.use_repo_sources()

PROGRAMS = {
    "loops": ("programs/loops.tdp", 15),
    "nonlinear": ("programs/nonlinear.tdp", 8),
    "interp": ("programs/interp.tdp", 12),
}


def pin(key: str) -> dict:
    import oracles
    from tdpart import lang

    file, depth = PROGRAMS[key]
    text = (bench.BENCH_DIR / file).read_text()
    program = bench.parse_checked(text, file, lang)
    exp = bench.expected_of(*oracles.enumerate_paths(program, depth))
    return {
        "file": file,
        "source_sha256": bench.program_sha(text),
        "depth": depth,
        "paths": exp.paths,
        "frontier": exp.frontier,
        "digest": exp.digest,
    }


def main(keys: list[str]) -> None:
    pins = bench.load_pins() if bench.EXPECTED_FILE.exists() else {}
    for key in keys or list(PROGRAMS):
        t0 = time.perf_counter()
        pins[key] = pin(key)
        print(f"{key}: {pins[key]} ({time.perf_counter() - t0:.1f}s)")
    bench.EXPECTED_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
