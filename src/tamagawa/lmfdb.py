"""Oracle records: the committed reduction data for a curve label.

``fetch_curve`` reads one JSON document per label from the fixture
directory and nothing else: it opens no network connection and writes no
file. Every fixture is written by ``scripts/make_fixtures.py`` from
derivations independent of ``tate_local``, and this module imports none of
the code the fixtures check (Tate's algorithm, the local orders, the
ledger), only the curve model and ``prime_divisors``.  The comparison of a
record with what the package computes is a test oracle, ``crosscheck`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .curves import WeierstrassCurve
from .padic import prime_divisors

__all__ = [
    "OracleRecord",
    "OracleNotFoundError",
    "OracleSchemaError",
    "fetch_curve",
]

FIXTURE_DIR_ENV = "TAMAGAWA_FIXTURE_DIR"
# Cremona labels (11a1), LMFDB labels (11.a2) and the synthetic fixtures
# (syn-5-i1n); no path separator, so a label names a file in the fixture
# directory only
_LABEL = re.compile(r"[0-9A-Za-z]+([.-][0-9A-Za-z]+)*")


class OracleNotFoundError(LookupError):
    """Not a curve label, or no fixture for the label."""


class OracleSchemaError(RuntimeError):
    """A fixture is not a record of the label it is filed under; the raw
    document is retained on the exception for inspection."""

    def __init__(self, message: str, payload: object) -> None:
        super().__init__(f"bad oracle record: {message}")
        self.payload = payload


@dataclass(frozen=True)
class LocalRow:
    prime: int
    kodaira: str  # serialized form, e.g. "In:5", "IV*"
    f: int
    c: int
    split: bool | None = None


@dataclass(frozen=True)
class OracleRecord:
    label: str
    ainvs: tuple[int, int, int, int, int]
    conductor: int
    local_data: tuple[LocalRow, ...]
    torsion_structure: tuple[int, ...]

    def __post_init__(self) -> None:
        WeierstrassCurve(*self.ainvs)  # raises on a singular record
        got = sorted(row.prime for row in self.local_data)
        want = prime_divisors(self.conductor)
        if got != want:
            raise ValueError(f"local data primes {got} do not cover the conductor {self.conductor}")

    def curve(self) -> WeierstrassCurve:
        return WeierstrassCurve(*self.ainvs)

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
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise OracleSchemaError(str(exc), doc) from exc


def fetch_curve(label: str, *, fixtures_dir: str | Path | None = None) -> OracleRecord:
    """Read the record for ``label`` from ``<fixtures_dir>/<label>.json``;
    the directory defaults to $TAMAGAWA_FIXTURE_DIR, then ``fixtures``."""
    if not _LABEL.fullmatch(label):
        raise OracleNotFoundError(f"not a curve label: {label!r}")
    base = Path(fixtures_dir or os.environ.get(FIXTURE_DIR_ENV) or "fixtures")
    path = base / f"{label}.json"
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise OracleNotFoundError(f"no fixture for {label} in {base}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise OracleSchemaError(f"{path} is not JSON ({exc})", raw) from exc
    record = OracleRecord.deserialize(doc)
    if record.label != label:
        raise OracleSchemaError(f"{path} holds the record of {record.label}", doc)
    return record

