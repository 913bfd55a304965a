"""Oracle records: reading the committed fixtures, refusing what is not one,
crosschecking against the computed reduction data (the crosscheck is the
test oracle in ``oracles.py``)."""

import dataclasses
import shutil
import socket
from pathlib import Path

import pytest

from tamagawa.curves import WeierstrassCurve
from tamagawa.lmfdb import (
    FIXTURE_DIR_ENV,
    LocalRow,
    OracleNotFoundError,
    OracleRecord,
    OracleSchemaError,
    fetch_curve,
)

from oracles import crosscheck


def test_committed_fixtures_not_mutated(fixtures_dir):
    path = fixtures_dir / "11a1.json"
    before = path.read_bytes()
    fetch_curve("11a1", fixtures_dir=fixtures_dir)
    assert path.read_bytes() == before


@pytest.mark.parametrize("label", ["../outside/11a1", "cache/../../outside/11a1", "ABSOLUTE", "", "..", "11a1/", "11a1\\x", "11a1 ", ".11a1"])
def test_bad_label_touches_no_file(tmp_path, fixtures_dir, monkeypatch, label):
    """A label outside [0-9A-Za-z]+([.-][0-9A-Za-z]+)* is refused before
    any path is built: no file read, no file written."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "11a1.json").write_bytes((fixtures_dir / "11a1.json").read_bytes())
    cache = tmp_path / "cache"
    cache.mkdir()
    label = str(outside / "11a1") if label == "ABSOLUTE" else label
    reads = []
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self))

    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(OracleNotFoundError, match="not a curve label"):
        fetch_curve(label, fixtures_dir=cache)
    assert reads == []
    assert sorted(tmp_path.rglob("*")) == before


def test_record_validates_conductor_coverage():
    with pytest.raises(ValueError, match="conductor"):
        OracleRecord(
            label="bogus",
            ainvs=(0, -1, 1, -10, -20),
            conductor=22,  # prime 2 missing from local data
            local_data=(LocalRow(11, "In:5", 1, 5, None),),
            torsion_structure=(5,),
        )


def test_crosscheck_self_is_empty(corpus):
    for rec in corpus[:6]:
        mismatches = crosscheck(rec.curve(), rec)
        assert mismatches == [], f"{rec.label}: {mismatches}"


def test_crosscheck_flags_perturbed_c(corpus):
    rec = corpus[0]
    row = rec.local_data[0]
    bad_row = dataclasses.replace(row, c=row.c + 1)
    perturbed = dataclasses.replace(rec, local_data=(bad_row,) + rec.local_data[1:])
    mismatches = crosscheck(rec.curve(), perturbed)
    assert mismatches != []
    assert len(mismatches) == 1
    prime, field_name, _, _ = mismatches[0]
    assert prime == row.prime and field_name == "c"


def test_crosscheck_rejects_mismatched_curve(corpus):
    rec = corpus[0]
    other = WeierstrassCurve(0, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="record/curve mismatch"):
        crosscheck(other, rec)


def test_missing_fixture_opens_no_connection_and_writes_nothing(tmp_path, monkeypatch):
    """A label with no fixture is refused, naming the label and the
    directory; nothing connects, and no fixture directory appears."""
    connects = []

    def no_connect(self, address):
        connects.append(address)
        raise OSError("network disabled")

    monkeypatch.setattr(socket.socket, "connect", no_connect)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(FIXTURE_DIR_ENV, raising=False)
    (tmp_path / "cache").mkdir()
    with pytest.raises(OracleNotFoundError, match="no fixture for 11a1 in cache"):
        fetch_curve("11a1", fixtures_dir="cache")
    with pytest.raises(OracleNotFoundError, match="no fixture for 11a1 in fixtures"):
        fetch_curve("11a1")
    assert connects == []
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "cache"]


def test_fixture_under_another_label_is_refused(tmp_path, fixtures_dir):
    """A record is served only under its own label, not under whatever
    name its file has."""
    shutil.copy(fixtures_dir / "11a1.json", tmp_path / "14a1.json")
    with pytest.raises(OracleSchemaError, match="holds the record of 11a1") as exc:
        fetch_curve("14a1", fixtures_dir=tmp_path)
    assert exc.value.payload["label"] == "11a1"
