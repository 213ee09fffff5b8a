from pathlib import Path

import pytest

from presup.extraction import parse_corpus

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
