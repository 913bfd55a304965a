"""Oracle client: fetch curve and local reduction data from the LMFDB HTTP
API, normalize to internal types, and cache one JSON document per label so
the whole test suite runs offline.

The committed fixtures are the source of truth for tests; the network path
exists for fixture (re)generation only and is rate limited.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path

from .curves import WeierstrassCurve
from .euler import global_torsion_order
from .padic import prime_divisors
from .tate import tate_local

__all__ = [
    "OracleRecord",
    "OracleNotFoundError",
    "OracleSchemaError",
    "fetch_curve",
    "crosscheck",
    "DiffEntry",
    "DiffReport",
    "decode_kodaira_code",
    "encode_kodaira_code",
]

DEFAULT_BASE_URL = "https://www.lmfdb.org"
FIXTURE_DIR_ENV = "TAMAGAWA_FIXTURE_DIR"
BASE_URL_ENV = "TAMAGAWA_LMFDB_URL"
MIN_REQUEST_INTERVAL = 0.5  # seconds between live requests
# Cremona labels (11a1), LMFDB labels (11.a2) and the synthetic fixtures
# (syn-5-i1n); no path separator, so a label names a file in the cache only
_LABEL = re.compile(r"[0-9A-Za-z]+([.-][0-9A-Za-z]+)*")

_request_lock = threading.Lock()
_last_request = [0.0]


class OracleNotFoundError(LookupError):
    """No such label upstream and no cached fixture."""


class OracleSchemaError(RuntimeError):
    """Upstream payload did not match the expected shape; the raw payload is
    retained on the exception for inspection."""

    def __init__(self, message: str, payload: object) -> None:
        super().__init__(f"oracle schema drift: {message}")
        self.payload = payload


@dataclass(frozen=True)
class LocalRow:
    prime: int
    kodaira: str  # serialized form, e.g. "In:5", "IV*"
    f: int
    c: int
    split: bool | None = None

    def serialize(self) -> dict:
        return {"prime": self.prime, "kodaira": self.kodaira, "f": self.f, "c": self.c, "split": self.split}


@dataclass(frozen=True)
class OracleRecord:
    label: str
    ainvs: tuple[int, int, int, int, int]
    conductor: int
    local_data: tuple[LocalRow, ...]
    torsion_structure: tuple[int, ...]
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        WeierstrassCurve(*self.ainvs)  # raises on a singular record
        got = sorted(row.prime for row in self.local_data)
        want = prime_divisors(self.conductor)
        if got != want:
            raise ValueError(f"local data primes {got} do not cover the conductor {self.conductor}")

    def curve(self) -> WeierstrassCurve:
        return WeierstrassCurve(*self.ainvs)

    def serialize(self) -> dict:
        out = {
            "label": self.label,
            "ainvs": list(self.ainvs),
            "conductor": self.conductor,
            "local_data": [row.serialize() for row in self.local_data],
            "torsion_structure": list(self.torsion_structure),
        }
        if self.extras:
            out["extras"] = dict(self.extras)
        return out

    @classmethod
    def deserialize(cls, doc: dict) -> "OracleRecord":
        try:
            rows = tuple(
                LocalRow(int(r["prime"]), str(r["kodaira"]), int(r["f"]), int(r["c"]), r.get("split"))
                for r in doc["local_data"]
            )
            return cls(
                label=str(doc["label"]),
                ainvs=tuple(int(a) for a in doc["ainvs"]),
                conductor=int(doc["conductor"]),
                local_data=rows,
                torsion_structure=tuple(int(d) for d in doc["torsion_structure"]),
                extras=dict(doc.get("extras", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise OracleSchemaError(str(exc), doc) from exc


# PARI/LMFDB integer codes of the Kodaira types without an index; In is
# n + 4 and In* is -(n + 4)
_KODAIRA_CODES = {"I0": 1, "II": 2, "III": 3, "IV": 4, "I0*": -1, "II*": -2, "III*": -3, "IV*": -4}


def decode_kodaira_code(code: int) -> str:
    """PARI/LMFDB integer encoding -> serialized Kodaira string."""
    if code >= 5:
        return f"In:{code - 4}"
    if code <= -5:
        return f"In*:{-code - 4}"
    for name, c in _KODAIRA_CODES.items():
        if c == code:
            return name
    raise ValueError(f"unknown Kodaira code {code}")


def encode_kodaira_code(kodaira: str) -> int:
    if kodaira.startswith("In:"):
        return int(kodaira[3:]) + 4
    if kodaira.startswith("In*:"):
        return -(int(kodaira[4:]) + 4)
    return _KODAIRA_CODES[kodaira]


def _default_http_get(url: str) -> object:
    import urllib.request  # here, not at module level: only a live fetch needs it

    with _request_lock:  # single-flight, polite pacing
        wait = MIN_REQUEST_INTERVAL - (time.monotonic() - _last_request[0])
        if wait > 0:
            time.sleep(wait)
        _last_request[0] = time.monotonic()
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read().decode("utf-8"))


def _fixture_path(label: str, fixtures_dir: str | Path | None) -> Path:
    if not _LABEL.fullmatch(label):
        raise OracleNotFoundError(f"not a curve label: {label!r}")
    base = fixtures_dir or os.environ.get(FIXTURE_DIR_ENV) or "fixtures"
    return Path(base) / f"{label}.json"


def fetch_curve(
    label: str,
    *,
    fixtures_dir: str | Path | None = None,
    base_url: str | None = None,
    refresh: bool = False,
    http_get=None,
) -> OracleRecord:
    """Load the record for ``label``: cache hit short-circuits the network;
    otherwise fetch, normalize, and write the cache file."""
    path = _fixture_path(label, fixtures_dir)
    if path.exists() and not refresh:
        raw = path.read_bytes()
        try:
            doc = json.loads(raw)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise OracleSchemaError(f"{path} is not JSON ({exc})", raw) from exc
        return OracleRecord.deserialize(doc)

    base = (base_url or os.environ.get(BASE_URL_ENV) or DEFAULT_BASE_URL).rstrip("/")
    get = http_get or _default_http_get
    quoted = urllib.parse.quote(label)
    curve_doc = get(f"{base}/api/ec_curvedata/?lmfdb_label={quoted}&_format=json")
    local_doc = get(f"{base}/api/ec_localdata/?lmfdb_label={quoted}&_format=json")
    record = _normalize_api_payload(label, curve_doc, local_doc)

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record.serialize(), indent=2, sort_keys=False) + "\n")
    return record


def _normalize_api_payload(label: str, curve_doc: object, local_doc: object) -> OracleRecord:
    try:
        curve_rows = curve_doc["data"]  # type: ignore[index]
        local_rows = local_doc["data"]  # type: ignore[index]
    except (TypeError, KeyError) as exc:
        raise OracleSchemaError("missing 'data' array", {"curve": curve_doc, "local": local_doc}) from exc
    if not curve_rows:
        raise OracleNotFoundError(f"not found: {label}")
    row = curve_rows[0]
    try:
        ainvs = tuple(int(a) for a in row["ainvs"])
        conductor = int(row["conductor"])
        torsion = tuple(int(d) for d in row.get("torsion_structure", []))
        rows = tuple(
            LocalRow(
                prime=int(r["prime"]),
                kodaira=decode_kodaira_code(int(r["kodaira_symbol"])),
                f=int(r["conductor_valuation"]),
                c=int(r["tamagawa_number"]),
                split=None,
            )
            for r in local_rows
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise OracleSchemaError(str(exc), {"curve": curve_doc, "local": local_doc}) from exc
    return OracleRecord(label, ainvs, conductor, rows, torsion, {})


# ---------------------------------------------------------------------------
# Crosscheck


@dataclass(frozen=True)
class DiffEntry:
    prime: int | None  # None for curve-level fields
    field_name: str
    computed: object
    expected: object

    def __str__(self) -> str:
        at = "curve" if self.prime is None else f"prime {self.prime}"
        return f"{at}: {self.field_name} computed={self.computed} expected={self.expected}"


@dataclass
class DiffReport:
    entries: list[DiffEntry]

    @property
    def ok(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        return "no differences" if self.ok else "\n".join(str(e) for e in self.entries)


def crosscheck(curve: WeierstrassCurve, record: OracleRecord) -> DiffReport:
    """Field-by-field comparison of the reduction data (kodaira, f, c) at
    every bad prime of the record, plus the odd torsion p-parts."""
    if curve.integer_ainvs() != record.ainvs:
        raise ValueError("record/curve mismatch: a-invariants differ")
    entries: list[DiffEntry] = []
    for row in record.local_data:
        data = tate_local(curve, row.prime)
        if data.kodaira.serialize() != row.kodaira:
            entries.append(DiffEntry(row.prime, "kodaira", data.kodaira.serialize(), row.kodaira))
        if data.f != row.f:
            entries.append(DiffEntry(row.prime, "f", data.f, row.f))
        if data.c != row.c:
            entries.append(DiffEntry(row.prime, "c", data.c, row.c))
        if row.split is not None and data.split != row.split:
            entries.append(DiffEntry(row.prime, "split", data.split, row.split))
    for p in (3, 5, 7):
        expected = math.prod(math.gcd(d, p) for d in record.torsion_structure)
        computed = global_torsion_order(curve, p)
        if computed != expected:
            entries.append(DiffEntry(None, f"torsion_{p}_part", computed, expected))
    return DiffReport(entries)
