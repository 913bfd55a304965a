#!/usr/bin/env python3
"""Time the two ways ``padic._roots_mod`` finds roots mod l.

For psi_3, psi_5 and psi_7 of the first 8 corpus curves and each l in a
fixed list, time the residue scan (Horner's rule at every residue) and the
Frobenius path (gcd(f, x^l - x), then the split), each as the minimum of 7
repeats of one pass over the 8 polynomials.  Prints the scan/Frobenius time
ratio: above 1 the Frobenius path is faster.  ``_RESIDUE_SCAN_LIMIT`` sits
where the ratios cross 1.  Both paths must return the same roots for every
polynomial, or the script exits with code 1.

Then, for psi_3, psi_5 and psi_7 of every corpus curve at each bad prime l,
take psi_p moved into the frame of Tate's l-minimal model, as
``localorders.local_torsion_order`` counts it, and split off the largest
power of x dividing it mod l.  Where the cofactor has degree 1 or 2,
``_roots_mod`` answers in closed form; its roots must equal those of the
Frobenius path on that cofactor and, for l below ``SCAN_CHECK_LIMIT``
(2^20; the corpus has bad primes up to about 1.6e9), those of the scan, or
the script exits with code 1.  Prints how many cofactors of each degree
were checked against each path.  Tate's machine runs on each of those
places first: a ``TateInvariantError`` there (a wrong quadratic root in
``padic._small_roots_mod`` is one cause) is printed as a disagreement, the
place is skipped, the remaining checks still run, and the exit code is 1.

No frame cofactor of degree 2 at the corpus's bad places has a
discriminant 0 mod l, so last the script checks the double-root branch of
the closed form, which also gives Tate's algorithm its double roots, on
lead (x - a)^2 for every a in [1, l) and leads 1 and -1, at each l in
``DOUBLE_ROOT_ELLS`` (2, 3 and the primes either side of
``_RESIDUE_SCAN_LIMIT``): its one root must equal that of the scan and of
the Frobenius path, or the script exits with code 1.

Usage: PYTHONPATH=src python3 scripts/residue_crossover.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tamagawa import padic
from tamagawa.lmfdb import fetch_curve
from tamagawa.localorders import certified_psi, division_polynomial
from tamagawa.tate import TateInvariantError, tate_local

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
CURVES = 8
REPEATS = 7
SCAN_CHECK_LIMIT = 1 << 20  # a scan of every residue above it takes too long
ELLS = (31, 61, 89, 101, 113, 127, 137, 149, 173, 199, 229, 251, 281, 307, 401)
DOUBLE_ROOT_ELLS = (2, 3, 131, 137)


def _reduced(psi: padic.IntegerPolynomial, ell: int) -> list[int]:
    cs = [c % ell for c in psi.coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _frobenius_roots(cs: list[int], ell: int) -> list[int]:
    return padic._linear_roots_mod(padic._gcd_with_frobenius(cs, ell), ell)


def _best(fn, polys: list[list[int]], ell: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for cs in polys:
            fn(cs, ell)
        best = min(best, time.perf_counter() - t0)
    return best


def _check_frame_cofactors(curves: list) -> bool:
    """Closed-form residue roots against both paths on the frame cofactors
    of degree <= 2 at the bad places of ``curves``."""
    checked = {(d, name): 0 for d in (1, 2) for name in ("scan", "Frobenius")}
    ok = True
    for E in curves:
        for ell in padic.prime_divisors(E.discriminant):
            try:
                tr = tate_local(E, ell).transformation
            except TateInvariantError as exc:
                print(f"Tate's algorithm failed on {E.ainvs} at {ell}: {exc}")
                ok = False
                continue
            for p in (3, 5, 7):
                psi = certified_psi(E, p).moved(tr.u, tr.r)
                cs = _reduced(psi, ell)
                k = next(i for i, c in enumerate(cs) if c)
                cofactor = cs[k:]
                if not 2 <= len(cofactor) <= 3:
                    continue
                closed = padic._roots_mod(psi.coeffs, ell)
                paths = [("Frobenius", _frobenius_roots)]
                if ell < SCAN_CHECK_LIMIT:
                    paths.append(("scan", padic._scan_roots))
                for name, path in paths:
                    checked[len(cofactor) - 1, name] += 1
                    roots = path(cofactor, ell)
                    if closed != [0] * (k > 0) + roots:
                        print(f"closed form and {name} path disagree: psi_{p} of {E.ainvs} at {ell}: {closed} != {roots}")
                        ok = False
    for name in ("Frobenius", "scan"):
        print(f"closed-form residue roots against the {name} path: {checked[1, name]} frame cofactors "
              f"of degree 1 and {checked[2, name]} of degree 2 at the corpus's bad places")
    return ok


def _check_double_roots() -> bool:
    """Closed-form residue roots of lead (x - a)^2, unreduced, against both
    paths on its reduction."""
    ok = True
    checked = 0
    for ell in DOUBLE_ROOT_ELLS:
        for lead in sorted({1, ell - 1}):
            for a in range(1, ell):
                h = [lead * a * a, -2 * lead * a, lead]
                closed = padic._roots_mod(h, ell)
                for name, path in (("scan", padic._scan_roots), ("Frobenius", _frobenius_roots)):
                    roots = path([c % ell for c in h], ell)
                    if closed != roots or roots != [a]:
                        print(f"closed form and {name} path disagree on {lead} (x - {a})^2 at {ell}: {closed} != {roots}")
                        ok = False
                checked += 1
    print(f"closed-form double roots against both paths: {checked} squares lead (x - a)^2 at l in {DOUBLE_ROOT_ELLS}")
    return ok


def main() -> int:
    corpus = [fetch_curve(label, fixtures_dir=FIXTURES).curve()
              for label in json.loads((FIXTURES / "corpus.json").read_text())["labels"]]
    curves = corpus[:CURVES]
    print(f"scan/Frobenius time ratio, {CURVES} corpus curves, min of {REPEATS}; "
          f"_RESIDUE_SCAN_LIMIT = {padic._RESIDUE_SCAN_LIMIT}")
    print("l     " + "".join(f"  psi_{p}" for p in (3, 5, 7)))
    ok = True
    for ell in ELLS:
        row = []
        for p in (3, 5, 7):
            # constants mod l never reach either path
            polys = [cs for cs in (_reduced(division_polynomial(E, p), ell) for E in curves) if len(cs) > 1]
            for cs in polys:
                if padic._scan_roots(cs, ell) != _frobenius_roots(cs, ell):
                    print(f"paths disagree: psi_{p} mod {ell} = {cs}")
                    ok = False
            row.append(_best(padic._scan_roots, polys, ell) / _best(_frobenius_roots, polys, ell))
        print(f"{ell:<6}" + "".join(f"{r:7.2f}" for r in row))
    ok = _check_frame_cofactors(corpus) and ok
    ok = _check_double_roots() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
