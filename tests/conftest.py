import json
from pathlib import Path

import pytest

from tamagawa import localorders, tate
from tamagawa.lmfdb import OracleRecord, fetch_curve

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_labels() -> list[str]:
    return json.loads((FIXTURES / "corpus.json").read_text())["labels"]


@pytest.fixture(scope="session")
def corpus(corpus_labels) -> list[OracleRecord]:
    return [fetch_curve(label, fixtures_dir=FIXTURES) for label in corpus_labels]


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts with no memoized psi_p and no memoized Tate data, so
    none depends on what an earlier test left there."""
    localorders._build_psi.cache_clear()
    tate._run_tate.cache_clear()
