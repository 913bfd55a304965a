import json
from pathlib import Path

import pytest

from tamagawa import localorders
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
def empty_psi_memo():
    """Each test starts with no memoized psi_p, so none depends on what an
    earlier test left there."""
    localorders._build.cache_clear()
