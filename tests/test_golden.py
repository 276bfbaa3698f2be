"""Golden regression: exact single-mode engine output, pinned by sha256.

The digests in golden_engine.json were produced by this module's
`engine_digest` at commit 6bfc1bf, when every block still ran through the
recursive evaluator (`python tests/test_golden.py > tests/golden_engine.json`,
run from the repository root). Any interpreter change that alters a
completed path, outcome, witness, constraint text, frontier path,
instruction count, query count or cache hit count fails here, with each
loop generated on its first entry, as the engine runs it, and with no
block generated, so that the evaluator runs every block.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tdpart import engine
from tdpart.engine import Engine, Strategy
from tdpart.lang import parse_program

PROGRAMS = (
    [Path("programs/find_middle.tdp")]
    + sorted(Path("programs/corpus").glob("*.tdp"))
    + sorted(Path("perfbench/programs").glob("*.tdp"))
)
DEPTHS = (2, 6)
STRATEGIES = ("dfs", "bfs")
GOLDEN = Path(__file__).with_name("golden_engine.json")


def engine_digest(path: Path, depth: int, strategy: str) -> str:
    eng = Engine(parse_program(path.read_text()))
    res = eng.start_execution({}, 0, depth, Strategy(strategy))
    lines = []
    for c in res.completed:
        witness = ",".join(f"{k}={v}" for k, v in sorted(c.test.items()))
        lines.append(f"path {c.path} {c.outcome} [{witness}] " + " ".join(c.constraints))
    lines += [f"frontier {s.path}" for s in res.frontier]
    st = res.stats
    lines.append(f"stats {st.instructions} {st.solver_queries} {st.cache_hits}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _key(path: Path, depth: int, strategy: str) -> str:
    return f"{path.as_posix()}@{depth}/{strategy}"


CASES = [(p, d, s) for p in PROGRAMS for d in DEPTHS for s in STRATEGIES]


@pytest.mark.parametrize("path,depth,strategy", CASES, ids=[_key(*c) for c in CASES])
def test_engine_output_matches_golden(path, depth, strategy):
    golden = json.loads(GOLDEN.read_text())
    assert engine_digest(path, depth, strategy) == golden[_key(path, depth, strategy)]


@pytest.mark.parametrize("path,depth,strategy", CASES, ids=[_key(*c) for c in CASES])
def test_engine_output_matches_golden_with_no_block_generated(
    monkeypatch, path, depth, strategy
):
    monkeypatch.setattr(engine, "generate_block", lambda members, assigned: None)
    golden = json.loads(GOLDEN.read_text())
    assert engine_digest(path, depth, strategy) == golden[_key(path, depth, strategy)]


if __name__ == "__main__":
    print(json.dumps({_key(*c): engine_digest(*c) for c in CASES}, indent=1, sort_keys=True))
