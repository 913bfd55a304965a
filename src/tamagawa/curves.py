"""Weierstrass models over Q: invariants, coordinate changes, and reduction
mod l with exhaustive point counting over small prime fields: #E~(F_l) for
the global torsion screen, and the group law behind
:func:`count_p_torsion_mod`, the brute-force oracle for residue-field torsion.

One model type serves the whole package, and every model is integral: its
coefficients are ``int``, so the CLI, the fixtures and Tate's algorithm run
on plain integer arithmetic.  :meth:`WeierstrassCurve.from_input` is the
one way in for rational coefficients; it rescales them to an integral
model.  The b-invariants and the discriminant are computed once, when the
model is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .padic import IntegerPolynomial, _exact_rational, _is_prime, _poly

__all__ = [
    "SingularCurveError",
    "WeierstrassCurve",
    "Transformation",
    "transform",
    "FiniteFieldPoint",
    "FiniteFieldCurve",
    "count_p_torsion_mod",
    "parse_ainvs",
]

ENUMERATION_CAP = 10**5


class SingularCurveError(ValueError):
    """Discriminant zero: not an elliptic curve."""


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with integer a_i.

    A coefficient may be given as any exact rational with denominator 1
    (``Fraction(4, 2)`` is stored as ``2``); any other rational raises
    ``ValueError`` pointing to :meth:`from_input`, and a float or any other
    type raises too.  b2, b4, b6, b8 and the discriminant are computed once
    in the constructor.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self) -> None:
        a1, a2, a3, a4, a6 = self.ainvs
        if not type(a1) is type(a2) is type(a3) is type(a4) is type(a6) is int:
            for name in ("a1", "a2", "a3", "a4", "a6"):
                a = getattr(self, name)
                if type(a) is not int:
                    a = _exact_rational(a)
                    if a.denominator != 1:
                        raise ValueError(f"{name} = {a} is not an integer; WeierstrassCurve.from_input takes rational coefficients")
                    object.__setattr__(self, name, int(a))
            a1, a2, a3, a4, a6 = self.ainvs
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise SingularCurveError("singular curve: discriminant is zero")
        object.__setattr__(self, "_b", (b2, b4, b6, b8))
        object.__setattr__(self, "_disc", disc)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_input(cls, a1, a2, a3, a4, a6) -> "WeierstrassCurve":
        """The way in for rational coefficients: accepts int or Fraction
        (anything else raises ValueError) and rescales (u = lcm of
        denominators, a_i -> u^i a_i) to an integral model."""
        from math import lcm

        ai = [Fraction(_exact_rational(a)) for a in (a1, a2, a3, a4, a6)]
        u = lcm(*(a.denominator for a in ai))
        return cls(*(a * u**w for a, w in zip(ai, (1, 2, 3, 4, 6))))

    @property
    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def integer_ainvs(self) -> tuple[int, int, int, int, int]:
        """The same as :attr:`ainvs`: every model is integral."""
        return self.ainvs

    # -- invariants ----------------------------------------------------------

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        return self._b

    @property
    def c4(self) -> int:
        b2, b4, _, _ = self._b
        return b2 * b2 - 24 * b4

    @property
    def c6(self) -> int:
        b2, b4, b6, _ = self._b
        return -(b2**3) + 36 * b2 * b4 - 216 * b6

    @property
    def discriminant(self) -> int:
        return self._disc

    @property
    def j_invariant(self) -> Fraction:
        return Fraction(self.c4**3, self._disc)

    def __str__(self) -> str:
        return "E(" + ",".join(str(a) for a in self.ainvs) + ")"


class Transformation(NamedTuple):
    """Coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t, with
    exact rational entries (``int`` or ``Fraction``)."""

    u: int | Fraction
    r: int | Fraction
    s: int | Fraction
    t: int | Fraction

    @classmethod
    def identity(cls) -> "Transformation":
        return cls(1, 0, 0, 0)

    def compose(self, other: "Transformation") -> "Transformation":
        """self followed by other (other acts on the primed coordinates)."""
        u1, r1, s1, t1 = self
        u2, r2, s2, t2 = other
        return Transformation(
            u1 * u2,
            r1 + u1 * u1 * r2,
            s1 + u1 * s2,
            t1 + u1 * u1 * s1 * r2 + u1**3 * t2,
        )


def transform(curve: WeierstrassCurve, tr: Transformation | tuple) -> WeierstrassCurve:
    """The same curve in new coordinates; disc scales by u^-12, j is unchanged.

    The result must be integral: a change that takes ``curve`` to a model
    with a non-integral coefficient raises ``ValueError``, and so does an
    entry that is not an exact rational.  The shift by integer (r, s, t) is
    plain integer arithmetic, and its result needs no integrality check;
    only a rescaling (u != 1) divides, through ``Fraction``.  The identity
    returns ``curve`` itself."""
    u, r, s, t = tr
    shift = type(u) is type(r) is type(s) is type(t) is int and u == 1
    if not shift:
        u, r, s, t = map(_exact_rational, tr)
    if u == 0:
        raise ValueError("degenerate transformation: u = 0")
    if u == 1 and r == s == t == 0:
        return curve
    a1, a2, a3, a4, a6 = curve.ainvs
    ai = (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )
    if shift:
        return WeierstrassCurve(*ai)
    if u != 1:
        ai = tuple(Fraction(a) / u**w for a, w in zip(ai, (1, 2, 3, 4, 6)))
    if any(type(a) is not int and a.denominator != 1 for a in ai):
        raise ValueError(f"{tuple(tr)} takes {curve} to a model that is not integral")
    return WeierstrassCurve(*ai)


def _two_torsion_cubic(curve: WeierstrassCurve) -> IntegerPolynomial:
    """4x^3 + b2 x^2 + 2 b4 x + b6, the right side of (2y + a1 x + a3)^2 =
    4x^3 + b2 x^2 + 2 b4 x + b6: over a field of characteristic != 2, an x
    carries a point of the curve iff the cubic's value there is a square."""
    b2, b4, b6, _ = curve.b_invariants
    return _poly([b6, 2 * b4, b2, 4])


def parse_ainvs(text: str) -> WeierstrassCurve:
    """Parse the shared curve input format: five comma-separated integers."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ValueError(f"expected 5 comma-separated integers, got {len(parts)}")
    try:
        ai = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"invalid curve coefficients {text!r}") from exc
    return WeierstrassCurve(*ai)


# ---------------------------------------------------------------------------
# Reduction mod l and the finite-field oracle


class FiniteFieldPoint(NamedTuple):
    """Point on the reduction mod l; x is None for the point at infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = FiniteFieldPoint(None, None)


class FiniteFieldCurve:
    """Reduction mod an odd prime of good reduction: its points, their
    number (the global torsion screen's ``order()``), and the affine group
    law (complete case analysis, no projective formulas): ``add`` and
    ``multiply`` by n >= 0, which :func:`count_p_torsion_mod` runs on."""

    def __init__(self, curve: WeierstrassCurve, ell: int):
        if not _is_prime(ell) or ell == 2:
            raise ValueError("odd prime required")
        if curve.discriminant % ell == 0:
            raise SingularCurveError(f"reduction is singular at {ell}")
        if ell > ENUMERATION_CAP:
            raise ValueError("prime too large for enumeration")
        self.ell = ell
        self.a = tuple(a % ell for a in curve.ainvs)
        self.cubic = tuple(c % ell for c in _two_torsion_cubic(curve).coeffs)

    def add(self, p: FiniteFieldPoint, q: FiniteFieldPoint) -> FiniteFieldPoint:
        ell = self.ell
        a1, a2, a3, a4, _ = self.a
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        x1, y1 = p
        x2, y2 = q
        if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % ell == 0:
            return INFINITY
        if x1 == x2:
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(2 * y1 + a1 * x1 + a3, -1, ell) % ell
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
        x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % ell
        y3 = (lam * (x1 - x3) - y1 - a1 * x3 - a3) % ell
        return FiniteFieldPoint(x3, y3)

    def multiply(self, n: int, pt: FiniteFieldPoint) -> FiniteFieldPoint:
        """[n]P for n >= 0, by double-and-add."""
        acc = INFINITY
        while n > 0:
            if n & 1:
                acc = self.add(acc, pt)
            pt = self.add(pt, pt)
            n >>= 1
        return acc

    def points(self) -> Iterator[FiniteFieldPoint]:
        """All points, infinity first.  Uses a square table: for odd l the
        y-quadratic is solved by completing the square."""
        ell = self.ell
        a1, _, a3, _, _ = self.a
        d, c, b, a = self.cubic
        yield INFINITY
        sqrt_table: dict[int, list[int]] = {}
        for y in range(ell):
            sqrt_table.setdefault(y * y % ell, []).append(y)
        inv2 = pow(2, -1, ell)
        for x in range(ell):
            # (2y + a1 x + a3)^2 = the two-torsion cubic at x
            for w in sqrt_table.get((((a * x + b) * x + c) * x + d) % ell, ()):
                y = (w - a1 * x - a3) * inv2 % ell
                yield FiniteFieldPoint(x, y)

    def order(self) -> int:
        """#E~(F_l), after checking |n - (l + 1)| <= 2 sqrt(l) (Hasse).

        Counted from a table, with no point built: by completing the square
        as in :meth:`points`, the x-coordinate x carries as many points as
        w^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 has solutions w mod l, and
        ``roots[v]`` holds that number for each v, from one pass over w."""
        ell = self.ell
        d, c, b, a = self.cubic
        roots = [0] * ell
        for w in range(ell):
            roots[w * w % ell] += 1
        n = 1 + sum(roots[(((a * x + b) * x + c) * x + d) % ell] for x in range(ell))
        if (n - (ell + 1)) ** 2 > 4 * ell:
            raise ArithmeticError(f"Hasse bound violated: {n} points mod {ell}")
        return n


# The brute-force oracle for residue-field torsion lives here, with the group
# law above, only because perfbench/workloads.py imports it; moving it to the
# tests is a benchmark change.
def count_p_torsion_mod(curve: WeierstrassCurve, ell: int, p: int) -> int:
    """#{P in E~(F_l) : [p]P = O} by scalar multiplication over the full list."""
    red = FiniteFieldCurve(curve, ell)
    count = 0
    for pt in red.points():
        if red.multiply(p, pt).is_infinity:
            count += 1
    if count not in (1, p, p * p):
        raise ArithmeticError(f"p-torsion count {count} outside {{1,p,p^2}}")
    return count
