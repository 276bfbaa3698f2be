"""Golden regression for the front end: the canonical print and
`program_digest` of every shipped program and of two generated corpora.

golden_lang.json was written by this module before the tokenizer and the
parser were rewritten for speed (`python tests/test_lang_golden.py >
tests/golden_lang.json`, run from the repository root). Any parser,
lowering or printer change that alters a Program value fails here.
"""

import json
from pathlib import Path

import pytest

from tdpart.harness import gen_corpus, program_digest
from tdpart.lang import parse_program, print_program, validate

FILES = sorted(Path("programs").glob("**/*.tdp")) + sorted(
    Path("perfbench/programs").glob("*.tdp")
)
CORPUS_SEEDS = (1, 7)
CORPUS_COUNT = 200
GOLDEN = Path(__file__).with_name("golden_lang.json")


def pin(text: str) -> dict:
    program = parse_program(text)
    assert validate(program) == []
    return {"digest": program_digest(program), "print": print_program(program)}


def corpus(seed: int, out: Path) -> dict[str, str]:
    return {
        f"corpus-seed{seed}/{p.name}": p.read_text()
        for p in gen_corpus(seed, CORPUS_COUNT, out / f"seed{seed}")
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_shipped_program(golden):
    shipped = {k for k in golden if not k.startswith("corpus-seed")}
    assert shipped == {f.as_posix() for f in FILES}


@pytest.mark.parametrize("path", FILES, ids=[f.as_posix() for f in FILES])
def test_shipped_program_matches_golden(golden, path):
    assert pin(path.read_text()) == golden[path.as_posix()]


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_generated_corpus_matches_golden(golden, tmp_path, seed):
    texts = corpus(seed, tmp_path)
    assert len(texts) == CORPUS_COUNT
    for key, text in texts.items():
        assert pin(text) == golden[key], key


if __name__ == "__main__":
    import tempfile

    out = {f.as_posix(): pin(f.read_text()) for f in FILES}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in CORPUS_SEEDS:
            out.update({k: pin(t) for k, t in corpus(seed, Path(tmp)).items()})
    print(json.dumps(out, indent=0, sort_keys=True))
