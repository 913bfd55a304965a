"""Test oracles: checks of the pipeline's output that the pipeline itself
never runs.

``crosscheck`` compares what the package computes with a committed fixture
record, which ``scripts/make_fixtures.py`` derives independently of
``tate_local``; at 2 and 3 it is the only oracle for Tate's algorithm.
``on_curve`` tests a point of a reduction against its Weierstrass equation,
and ``negate`` gives the inverse of a point there.  ``count_points_mod``
counts the points of a model mod l, singular or not, by brute force.
``expand`` turns a sympy polynomial in ``X`` into an ``IntegerPolynomial``,
so that products and sums in the tests do not run the package's own
kernels, and ``is_square_local`` decides squares in Q_l from a table of
unit squares.  ``lift_and_split_certs`` is lift-and-split on whole
polynomials: g' built at each node and g(r), g'(r) evaluated in big
integers, optionally without the rules that prove a class empty.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import Poly, Symbol

from tamagawa.curves import FiniteFieldCurve, FiniteFieldPoint, WeierstrassCurve
from tamagawa.euler import global_torsion_order
from tamagawa.lmfdb import OracleRecord
from tamagawa import padic
from tamagawa.padic import IntegerPolynomial, PrecisionExhausted
from tamagawa.tate import tate_local

X = Poly(Symbol("x"))


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


def negate(red: FiniteFieldCurve, pt: FiniteFieldPoint) -> FiniteFieldPoint:
    """-P = (x, -y - a1 x - a3) on the reduction ``red``; -O = O."""
    if pt.is_infinity:
        return pt
    a1, _, a3, _, _ = red.a
    x, y = pt
    return FiniteFieldPoint(x, (-y - a1 * x - a3) % red.ell)


def count_points_mod(ainvs: tuple[int, ...], ell: int) -> int:
    """#E(F_l) of the reduction of the model ``ainvs`` mod l, the point at
    infinity and any singular point included: every (x, y) in F_l^2 on the
    Weierstrass equation, plus one."""
    a1, a2, a3, a4, a6 = ainvs
    affine = sum(
        (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % ell == 0
        for x in range(ell)
        for y in range(ell)
    )
    return affine + 1


def as_poly(f: IntegerPolynomial) -> Poly:
    """f as a sympy polynomial in ``X``."""
    return Poly(list(reversed(f.coeffs)) or [0], X.gen)


def expand(f: Poly | int) -> IntegerPolynomial:
    """The ``IntegerPolynomial`` of a sympy polynomial in ``X`` (or an int):
    products, sums and powers for the tests, computed by sympy."""
    return IntegerPolynomial(int(c) for c in reversed(Poly(f, X.gen).all_coeffs()))


def is_square_local(x: int | Fraction, ell: int) -> bool:
    """Whether the nonzero rational x is a square in Q_l, for a prime l.

    x = l^v a / b with a, b prime to l has the square class of l^v a b.  It
    is a square iff v is even and a b is in the table of squares of the
    units mod l (mod 8 at l = 2)."""
    x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    while num % ell == 0:
        num, v = num // ell, v + 1
    while den % ell == 0:
        den, v = den // ell, v - 1
    modulus = 8 if ell == 2 else ell
    squares = {u * u % modulus for u in range(modulus) if u % ell}
    return v % 2 == 0 and num * den % modulus in squares


def lift_and_split_certs(
    f: IntegerPolynomial, ell: int, v1_rule: bool = False, zero_rule: bool = False, contents: list[int] | None = None
) -> list[tuple]:
    """The certificates (witness, t0, scale, offset) of
    ``padic._integral_root_certs``, computed on whole polynomials: each node
    builds g' and evaluates g(r) and g'(r) on the full coefficients, and a
    child g(r + l t) is divided by the largest power of l dividing it, not
    by its content.  With neither rule every singular residue gets a child.
    ``v1_rule`` gives none to a singular residue with v_l(g(r)) = 1, and
    ``zero_rule`` none to the residue 0 when ``padic._unit_at_zero`` proves
    its class empty; with both, it is the walk ``padic`` runs.  The content
    of each child, before that division, is appended to ``contents`` when
    it is given."""
    cap = padic.PRECISION_HARD_CAP
    certs = []
    stack = [(f, None, 1, 0, 0)]
    while stack:
        g, t0, scale, offset, depth = stack.pop()
        if t0 is not None:
            certs.append((g, t0, scale, offset))
            continue
        if depth >= cap:
            raise PrecisionExhausted(cap)
        gp = g.derivative()
        children = []
        for r in padic._roots_mod(g.coeffs, ell):
            if gp(r) % ell != 0:
                children.append((g, r, scale, offset, depth))
            elif v1_rule and g(r) % (ell * ell) != 0:
                continue
            elif not (zero_rule and r == 0 and padic._unit_at_zero(g.coeffs, ell)):
                h = g.compose_affine(ell, r).coeffs
                content = math.gcd(*h)
                if contents is not None:
                    contents.append(content)
                q = 1
                while content % (q * ell) == 0:
                    q *= ell
                h = IntegerPolynomial([c // q for c in h])
                children.append((h, None, scale * ell, offset + scale * r, depth + 1))
        stack.extend(reversed(children))
    return certs
