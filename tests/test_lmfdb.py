"""Oracle client: payload normalization, cache behaviour, crosschecking."""

import dataclasses
from pathlib import Path

import pytest

from tamagawa.curves import WeierstrassCurve
from tamagawa.lmfdb import (
    LocalRow,
    OracleNotFoundError,
    OracleRecord,
    OracleSchemaError,
    crosscheck,
    decode_kodaira_code,
    encode_kodaira_code,
    fetch_curve,
)

API_PAYLOADS = {
    "ec_curvedata": {
        "data": [
            {
                "ainvs": [0, -1, 1, -10, -20],
                "conductor": 11,
                "torsion_structure": [5],
            }
        ]
    },
    "ec_localdata": {
        "data": [
            {"prime": 11, "kodaira_symbol": 9, "conductor_valuation": 1, "tamagawa_number": 5}
        ]
    },
}


def fake_http_get(url: str):
    for key, payload in API_PAYLOADS.items():
        if key in url:
            return payload
    raise AssertionError(f"unexpected url {url}")


def test_kodaira_code_roundtrip():
    cases = {1: "I0", 2: "II", 3: "III", 4: "IV", 9: "In:5", -1: "I0*",
             -2: "II*", -3: "III*", -4: "IV*", -7: "In*:3"}
    for code, name in cases.items():
        assert decode_kodaira_code(code) == name
        assert encode_kodaira_code(name) == code
    with pytest.raises(ValueError):
        decode_kodaira_code(0)


def test_fetch_live_then_cached(tmp_path):
    rec = fetch_curve("11.a2", fixtures_dir=tmp_path, http_get=fake_http_get)
    assert rec.ainvs == (0, -1, 1, -10, -20)
    assert rec.conductor == 11
    assert rec.local_data == (LocalRow(11, "In:5", 1, 5, None),)
    assert (tmp_path / "11.a2.json").exists()

    def no_network(url):
        raise AssertionError("network must not be touched on a cache hit")

    again = fetch_curve("11.a2", fixtures_dir=tmp_path, http_get=no_network)
    assert again == rec


def test_refresh_flag_rewrites_cache(tmp_path):
    fetch_curve("11.a2", fixtures_dir=tmp_path, http_get=fake_http_get)
    before = (tmp_path / "11.a2.json").read_text()
    fetch_curve("11.a2", fixtures_dir=tmp_path, http_get=fake_http_get, refresh=True)
    assert (tmp_path / "11.a2.json").read_text() == before  # deterministic payload


def test_committed_fixtures_not_mutated(fixtures_dir):
    path = fixtures_dir / "11a1.json"
    before = path.read_bytes()
    fetch_curve("11a1", fixtures_dir=fixtures_dir)
    assert path.read_bytes() == before


def test_not_found(tmp_path):
    def empty(url):
        return {"data": []}

    with pytest.raises(OracleNotFoundError, match="not found"):
        fetch_curve("999999.zz9", fixtures_dir=tmp_path, http_get=empty)


@pytest.mark.parametrize("label", ["../outside/11a1", "cache/../../outside/11a1", "ABSOLUTE", "", "..", "11a1/", "11a1\\x", "11a1 ", ".11a1"])
def test_bad_label_touches_no_file(tmp_path, fixtures_dir, monkeypatch, label):
    """A label outside [0-9A-Za-z]+([.-][0-9A-Za-z]+)* is refused before
    any path is built: no file read, no fetch, no cache file written."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "11a1.json").write_bytes((fixtures_dir / "11a1.json").read_bytes())
    cache = tmp_path / "cache"
    cache.mkdir()
    label = str(outside / "11a1") if label == "ABSOLUTE" else label
    reads = []
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self))

    def no_fetch(url):
        raise AssertionError(f"fetched {url}")

    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(OracleNotFoundError, match="not a curve label"):
        fetch_curve(label, fixtures_dir=cache, http_get=no_fetch)
    assert reads == []
    assert sorted(tmp_path.rglob("*")) == before


def test_schema_drift_keeps_payload(tmp_path):
    def drift(url):
        return {"rows": []}

    with pytest.raises(OracleSchemaError, match="schema drift") as exc:
        fetch_curve("11.a2", fixtures_dir=tmp_path, http_get=drift)
    assert exc.value.payload is not None


def test_record_roundtrip(corpus):
    for rec in corpus[:8]:
        assert OracleRecord.deserialize(rec.serialize()) == rec


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
        report = crosscheck(rec.curve(), rec)
        assert report.ok, f"{rec.label}: {report}"


def test_crosscheck_flags_perturbed_c(corpus):
    rec = corpus[0]
    row = rec.local_data[0]
    bad_row = dataclasses.replace(row, c=row.c + 1)
    perturbed = dataclasses.replace(rec, local_data=(bad_row,) + rec.local_data[1:])
    report = crosscheck(rec.curve(), perturbed)
    assert not report.ok
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.prime == row.prime and entry.field_name == "c"


def test_crosscheck_rejects_mismatched_curve(corpus):
    rec = corpus[0]
    other = WeierstrassCurve(0, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="record/curve mismatch"):
        crosscheck(other, rec)


def test_rate_limit_pacing(monkeypatch):
    import urllib.request

    import tamagawa.lmfdb as mod

    sleeps = []
    clock = [100.0]

    def fake_monotonic():
        return clock[0]

    def fake_sleep(dt):
        sleeps.append(dt)
        clock[0] += dt

    monkeypatch.setattr(mod.time, "monotonic", fake_monotonic)
    monkeypatch.setattr(mod.time, "sleep", fake_sleep)
    monkeypatch.setattr(urllib.request, "urlopen", _FakeResponseFactory())
    mod._last_request[0] = 0.0
    mod._default_http_get("http://x/one")
    mod._default_http_get("http://x/two")
    assert sleeps and sleeps[-1] >= 0
    assert any(dt > 0 for dt in sleeps) or clock[0] >= 100.5


class _FakeResponseFactory:
    def __call__(self, url, timeout=None):
        class R:
            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

            def read(self):
                return b"{}"

        return R()
