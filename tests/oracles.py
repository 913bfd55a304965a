"""Test oracles: checks of the pipeline's output that the pipeline itself
never runs.

``crosscheck`` compares what the package computes with a committed fixture
record, which ``scripts/make_fixtures.py`` derives independently of
``tate_local``; at 2 and 3 it is the only oracle for Tate's algorithm.
``on_curve`` tests a point of a reduction against its Weierstrass equation.
"""

from __future__ import annotations

import math

from tamagawa.curves import FiniteFieldCurve, FiniteFieldPoint, WeierstrassCurve
from tamagawa.euler import global_torsion_order
from tamagawa.lmfdb import OracleRecord
from tamagawa.tate import tate_local


def crosscheck(curve: WeierstrassCurve, record: OracleRecord) -> list[tuple]:
    """Field-by-field comparison of the reduction data (kodaira, f, c and the
    split flag) at every bad prime of the record, plus the odd torsion
    p-parts.  Each mismatch is (prime, field, computed, expected), with prime
    None for a curve-level field; an empty list means agreement."""
    if curve.integer_ainvs() != record.ainvs:
        raise ValueError("record/curve mismatch: a-invariants differ")
    mismatches = []
    for row in record.local_data:
        data = tate_local(curve, row.prime)
        fields = [("kodaira", data.kodaira.serialize(), row.kodaira), ("f", data.f, row.f), ("c", data.c, row.c)]
        if row.split is not None:
            fields.append(("split", data.split, row.split))
        mismatches += [(row.prime, name, got, want) for name, got, want in fields if got != want]
    for p in (3, 5, 7):
        got, want = global_torsion_order(curve, p), math.prod(math.gcd(d, p) for d in record.torsion_structure)
        if got != want:
            mismatches.append((None, f"torsion_{p}_part", got, want))
    return mismatches


def on_curve(red: FiniteFieldCurve, pt: FiniteFieldPoint) -> bool:
    """Whether ``pt`` satisfies the equation of the reduction ``red``."""
    if pt.is_infinity:
        return True
    a1, a2, a3, a4, a6 = red.a
    x, y = pt
    return (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % red.ell == 0
