import os

# One BLAS thread, the benchmark's policy (perfbench/run.py): on a two-core
# host two threads made the CNN about 4x slower. Set before numpy loads; a
# value the caller already exported wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from presup.extraction import parse_corpus  # noqa: E402

TESTS_DIR = Path(__file__).parent


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return TESTS_DIR / "data"


@pytest.fixture(scope="session")
def corpus_path(data_dir) -> Path:
    return data_dir / "fixture_corpus.txt"


@pytest.fixture(scope="session")
def corpus_docs(corpus_path):
    with open(corpus_path, encoding="utf-8") as f:
        return parse_corpus(f)
