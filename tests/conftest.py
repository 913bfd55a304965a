import json
from pathlib import Path

import pytest

from tamagawa.lmfdb import OracleRecord, fetch_curve
from tamagawa.localorders import certified_psi
from tamagawa.tate import tate_local

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
    none depends on what an earlier test left there.  The memos are the
    functions imported here, so a test that monkeypatches either name in its
    module still has the real memo cleared."""
    certified_psi.cache_clear()
    tate_local.cache_clear()
