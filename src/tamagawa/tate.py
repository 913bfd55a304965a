"""Tate's algorithm at a prime l: minimal model, Kodaira type, conductor
exponent, Tamagawa number, and component-group structure.

:class:`LocalData` stores what the algorithm decides (the minimal model and
the transformation to it, v(Delta), the Kodaira type, c and the split flag)
and derives the component count m, the conductor exponent f (Ogg's formula)
and the component groups from them, each group as the tuple of its invariant
factors, read with m from one table of the special fibre, ``_FIBRES``.

The algorithm runs as an explicit step machine (steps 1-11 with the
non-minimal restart), recording every coordinate change so the composite
transformation from the input model to the returned l-minimal model is
auditable.  The steps ask the residue field F_l whether a quadratic splits,
where its double root is, and where the multiple root of a cubic is.  The
quadratic questions are read off the roots ``padic._small_roots_mod`` finds
at every l: one root exactly when the quadratic is inseparable, two when it
splits.  The cubic's multiple root has a closed form at l >= 5; at l = 2
and 3 it is found by trying every residue.  Only the closed form of the
singular point keeps rules of its own for l = 2.

:func:`tate_local` is a memo on (model, l) with typed keys, checked on a
miss, so every reader of Tate's data at a place shares one run of the
machine and its audit, and l is proved prime once per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .curves import Transformation, WeierstrassCurve, _two_torsion_cubic, transform
from .padic import _int_valuation, _require_prime, _roots_mod, _small_roots_mod, check_p

__all__ = [
    "KodairaType",
    "LocalData",
    "TateInvariantError",
    "tate_local",
    "phi_p_part_order",
]


class TateInvariantError(RuntimeError):
    """Internal case fall-through; must be unreachable on valid input."""


def _require(holds: bool, what: str) -> None:
    """Raise (also under ``python -O``) when an algorithm invariant fails."""
    if not holds:
        raise TateInvariantError(f"algorithm invariant violated: {what}")


# Per Kodaira family, as a function of the index n (0 where the family has
# none): the number m of components of the special fibre, which enters Ogg's
# formula, and the invariant factors d1 | d2 | ... of the geometric component
# group (Silverman, *Advanced Topics*, IV.9, Table 4.1).
_FIBRES = {
    "I0": lambda n: (1, ()),
    "In": lambda n: (n, (n,) if n > 1 else ()),
    "II": lambda n: (1, ()),
    "III": lambda n: (2, (2,)),
    "IV": lambda n: (3, (3,)),
    "I0*": lambda n: (5, (2, 2)),
    "In*": lambda n: (5 + n, (4,) if n % 2 else (2, 2)),
    "IV*": lambda n: (7, (3,)),
    "III*": lambda n: (8, (2,)),
    "II*": lambda n: (9, ()),
}


@dataclass(frozen=True)
class KodairaType:
    """Reduction type: one of I0, In (n>=1), II, III, IV, I0*, In* (n>=1),
    IV*, III*, II*."""

    family: str
    n: int = 0

    def __post_init__(self) -> None:
        if self.family not in _FIBRES:
            raise ValueError(f"unknown Kodaira family {self.family!r}")
        if self.family in ("In", "In*"):
            if self.n < 1:
                raise ValueError(f"{self.family} requires n >= 1")
        elif self.n != 0:
            raise ValueError(f"{self.family} carries no index")

    def serialize(self) -> str:
        # n >= 1 exactly for In and In*, the families that print their index
        return f"{self.family}:{self.n}" if self.n else self.family

    def __str__(self) -> str:
        return f"I{self.n}{self.family[2:]}" if self.n else self.family


@dataclass(frozen=True)
class LocalData:
    """What Tate's algorithm decides about E at the prime l.  The component
    count m, the conductor exponent f and the component groups follow from
    the Kodaira type, v(Delta) and c, and are derived where they are read."""

    prime: int
    minimal_model: WeierstrassCurve
    transformation: Transformation  # input model -> minimal model
    vdelta: int
    kodaira: KodairaType
    c: int  # Tamagawa number = #Phi(k_v)
    split: bool | None  # whether the node's tangents are rational; None off multiplicative types

    @property
    def m(self) -> int:
        """Number of irreducible components of the special fibre."""
        return _FIBRES[self.kodaira.family](self.kodaira.n)[0]

    @property
    def f(self) -> int:
        """Conductor exponent, by Ogg's formula v(Delta) = f + m - 1."""
        return self.vdelta - self.m + 1

    @property
    def phi_geometric(self) -> tuple[int, ...]:
        return _FIBRES[self.kodaira.family](self.kodaira.n)[1]

    @property
    def phi_arithmetic(self) -> tuple[int, ...]:
        """The Frobenius-fixed subgroup Phi(k_v), of order c: all of the
        geometric group, or else its cyclic subgroup of order c."""
        geom = self.phi_geometric
        if self.c == math.prod(geom):
            return geom
        return (self.c,) if self.c > 1 else ()

    def serialize(self) -> dict:
        return {
            "prime": self.prime,
            "kodaira": self.kodaira.serialize(),
            "vdelta": self.vdelta,
            "f": self.f,
            "c": self.c,
            "phi_geom": list(self.phi_geometric),
            "phi_arith": list(self.phi_arithmetic),
            "split": self.split,
            "m": self.m,
        }


def phi_p_part_order(local: LocalData, p: int) -> int:
    """#Phi(k_v)[p] for p as :func:`check_p` allows.  The odd part of
    Phi(k_v) is cyclic for elliptic curves, so this is p exactly when p | c."""
    check_p(p)
    return p if local.c % p == 0 else 1


# ---------------------------------------------------------------------------
# The step machine


class _Machine:
    """Tate's steps on one integral model, every coordinate change applied
    through :func:`transform` and composed into ``trans``."""

    def __init__(self, model: WeierstrassCurve, ell: int):
        self.model = model
        self.ell = ell
        self.trans = Transformation.identity()

    def _change(self, tr: Transformation) -> None:
        self.model = transform(self.model, tr)
        self.trans = self.trans.compose(tr)

    def shift(self, r: int = 0, s: int = 0, t: int = 0) -> None:
        if r or s or t:
            self._change(Transformation(1, r, s, t))

    def rescale(self) -> None:
        ell = self.ell
        _require(all(a % ell**w == 0 for a, w in zip(self.model.ainvs, (1, 2, 3, 4, 6))), "rescale requires divisible coefficients")
        self._change(Transformation(ell, 0, 0, 0))

    def v(self, n: int) -> int:
        return _int_valuation(n, self.ell)

    # -- residue-field helpers --

    def _splits(self, *quadratic: int) -> bool:
        """Whether the separable quadratic q0 + q1 Y + q2 Y^2 (q2 a unit)
        splits over F_l."""
        roots = _small_roots_mod(quadratic, self.ell)
        _require(len(roots) != 1, "inseparable quadratic")
        return bool(roots)

    def _double_root(self, *quadratic: int) -> int:
        """The root r of the inseparable quadratic q0 + q1 Y + q2 Y^2 = q2 (Y - r)^2."""
        roots = _small_roots_mod(quadratic, self.ell)
        _require(len(roots) == 1, "separable quadratic has no double root")
        return roots[0]

    def _multiple_root(self, cubic: Sequence[int]) -> int | None:
        """The multiple root alpha over F_l of a cubic a T^3 + b T^2 + c T + d
        with a unit lead (coefficients from the constant up), or None.

        At l >= 5, in closed form: None when the discriminant
        18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2 is a unit; else
        a (T - alpha)^2 (T - beta) gives b^2 - 3ac = a^2 (alpha - beta)^2
        and 9ad - bc = 2a^2 alpha (alpha - beta)^2, so alpha is
        -b / (3a) when b^2 - 3ac = 0 (a triple root) and
        (9ad - bc) / (2 (b^2 - 3ac)) otherwise.  At l = 2 and 3 as the
        residue where the cubic and its derivative both vanish: a cubic has
        at most one multiple root, so Frobenius fixes it and it lies in F_l."""
        ell = self.ell
        if ell >= 5:
            d, c, b, a = (x % ell for x in cubic)
            if (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d) % ell:
                return None
            delta0 = (b * b - 3 * a * c) % ell
            if delta0 == 0:
                return -b * pow(3 * a, -1, ell) % ell
            return (9 * a * d - b * c) * pow(2 * delta0, -1, ell) % ell
        d, c, b, a = cubic
        for r in range(ell):
            if (((a * r + b) * r + c) * r + d) % ell == 0 and ((3 * a * r + 2 * b) * r + c) % ell == 0:
                return r
        return None

    def _singular_point(self) -> tuple[int, int]:
        """The singular point of the reduction, which is F_l-rational."""
        ell = self.ell
        a1, a2, a3, a4, a6 = self.model.ainvs
        if ell == 2:
            # mod 2 the partial derivatives are a1 x + a3 and a1 y + x + a4
            # (x^2 = x); with a1 even the curve itself gives y
            x0 = (a3 if a1 % 2 else a4) % 2
            y0 = (x0 + a4 if a1 % 2 else x0 * (1 + a2 + a4) + a6) % 2
        else:
            # the double root of the two-torsion cubic, the right side of
            # (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
            x0 = self._multiple_root(_two_torsion_cubic(self.model).coeffs)
            _require(x0 is not None, "reduction not singular")
            y0 = -(a1 * x0 + a3) * pow(2, -1, ell) % ell
        fx = (a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 - a4) % ell
        fy = (2 * y0 + a1 * x0 + a3) % ell
        on = (y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0 - a6) % ell
        _require(fx == 0 and fy == 0 and on == 0, "singular point misidentified")
        return x0, y0

    # -- the algorithm --

    def run(self) -> tuple:
        max_restarts = self.v(self.model.discriminant) // 12 + 2
        for _ in range(max_restarts):  # each restart drops v(delta) by 12
            result = self._pass()
            if result is not None:
                return result
        raise TateInvariantError("algorithm invariant violated: restart loop did not terminate")

    def _pass(self):
        ell = self.ell
        n = self.v(self.model.discriminant)

        # Step 1: good reduction
        if n == 0:
            return KodairaType("I0"), n, 1, None

        # Step 2: move the singular point to the origin
        x0, y0 = self._singular_point()
        self.shift(r=x0, t=y0)
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(a3 % ell == 0 and a4 % ell == 0 and a6 % ell == 0, "singular point not at the origin")

        b2, b4, b6, b8 = self.model.b_invariants
        if b2 % ell != 0:
            # multiplicative: the slopes of the node are the roots of
            # T^2 + a1 T - a2, whose discriminant is b2
            split = self._splits(-a2, a1, 1)
            c = n if split else (2 if n % 2 == 0 else 1)
            return KodairaType("In", n), n, c, split

        # Step 3
        if self.v(a6) < 2:
            return KodairaType("II"), n, 1, None
        # Step 4
        if self.v(b8) < 3:
            return KodairaType("III"), n, 2, None
        # Step 5: Y^2 + a3/l Y - a6/l^2 has discriminant b6/l^2
        if self.v(b6) < 3:
            c = 3 if self._splits(-(a6 // ell**2), a3 // ell, 1) else 1
            return KodairaType("IV"), n, c, None

        # Normalize for step 6: v(a1)>=1, v(a2)>=1, v(a3)>=2, v(a4)>=2, v(a6)>=3, by the
        # double roots of S^2 + a1 S - a2 and T^2 + a3/l T - a6/l^2 (discriminants b2, b6/l^2)
        s = self._double_root(-a2, a1, 1)
        t = self._double_root(-(a6 // ell**2), a3 // ell, 1)
        self.shift(s=s, t=ell * t)
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(
            self.v(a1) >= 1 and self.v(a2) >= 1 and self.v(a3) >= 2 and self.v(a4) >= 2 and self.v(a6) >= 3,
            "step 6 normalization failed",
        )

        # Step 6: the cubic P(T) = T^3 + a2/l T^2 + a4/l^2 T + a6/l^3
        P = [a6 // ell**3, a4 // ell**2, a2 // ell, 1]
        alpha = self._multiple_root(P)
        if alpha is None:
            return KodairaType("I0*"), n, 1 + len(_roots_mod(P, ell)), None
        triple = [c % ell for c in P] == [-alpha**3 % ell, 3 * alpha**2 % ell, -3 * alpha % ell, 1]
        return self._step8(alpha, n) if triple else self._step7_loop(alpha, n)

    def _step7_loop(self, alpha: int, n_delta: int):
        """Type In* (n >= 1): translate the double root to T = 0, then probe
        quadratics in Y (odd n) and X (even n) until one is separable."""
        ell = self.ell
        self.shift(r=ell * alpha)
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(self.v(a2) == 1 and self.v(a3) >= 2 and self.v(a4) >= 3 and self.v(a6) >= 4, "step 7 translation")
        for n in range(1, n_delta + 1):
            q = (n + 3) // 2
            a1, a2, a3, a4, a6 = self.model.ainvs
            if n % 2:
                # Y^2 + (a3/l^q) Y - a6/l^(2q), for n = 2q-3
                _require(self.v(a3) >= q and self.v(a6) >= 2 * q, "In* Y-stage valuations")
                quadratic = (-(a6 // ell ** (2 * q)), a3 // ell**q, 1)
            else:
                # (a2/l) X^2 + (a4/l^(q+1)) X + a6/l^(2q+1), for n = 2q-2
                _require(self.v(a3) >= q + 1 and self.v(a4) >= q + 1 and self.v(a6) >= 2 * q + 1, "In* X-stage valuations")
                quadratic = (a6 // ell ** (2 * q + 1), a4 // ell ** (q + 1), a2 // ell)
            roots = _small_roots_mod(quadratic, ell)
            if len(roots) != 1:  # separable: c = 4 if it splits, else 2
                return KodairaType("In*", n), n_delta, 4 if roots else 2, None
            root = ell**q * roots[0]
            if n % 2:
                self.shift(t=root)
            else:
                self.shift(r=root)
        raise TateInvariantError("algorithm invariant violated: In* loop exceeded v(delta)")

    def _step8(self, alpha: int, n_delta: int):
        ell = self.ell
        self.shift(r=ell * alpha)
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(self.v(a2) >= 2 and self.v(a3) >= 2 and self.v(a4) >= 3 and self.v(a6) >= 4, "step 8 translation")
        roots = _small_roots_mod((-(a6 // ell**4), a3 // ell**2, 1), ell)
        if len(roots) != 1:  # separable: c = 3 if it splits, else 1
            return KodairaType("IV*"), n_delta, 3 if roots else 1, None
        self.shift(t=ell**2 * roots[0])
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(self.v(a3) >= 3 and self.v(a6) >= 5, "step 8 completion")
        # Step 9
        if self.v(a4) < 4:
            return KodairaType("III*"), n_delta, 2, None
        # Step 10
        if self.v(a6) < 6:
            return KodairaType("II*"), n_delta, 1, None
        # Step 11: not minimal, rescale and restart
        _require(self.v(a1) >= 1 and self.v(a2) >= 2, "step 11 valuations")
        self.rescale()
        return None


# A verify asks for Tate's data at each finite place three times (for S, phi_p
# and the torsion count), and no corpus curve has more than 7 finite places.
_MEMO_SIZE = 16


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def tate_local(curve: WeierstrassCurve, ell: int) -> LocalData:
    """Tate's algorithm for ``curve`` at the prime ``ell``, memoized on typed
    keys, checked on a miss: 5.0, "5" or True never finds the entry of 5 and
    raises, and a raise caches nothing."""
    _require_prime(ell)
    machine = _Machine(curve, ell)
    kod, vdelta, c, split = machine.run()
    data = LocalData(ell, machine.model, machine.trans, vdelta, kod, c, split)
    if kod.family not in ("I0", "In"):
        _require(data.f >= 2, f"additive type with f = {data.f}")
        _require(ell < 5 or data.f == 2, f"tame additive reduction must have f = 2, got {data.f}")
    _require(math.prod(data.phi_geometric) % c == 0, f"c = {c} does not divide the component group order of {kod}")
    # the recorded transformation must reproduce the minimal model exactly
    _require(transform(curve, machine.trans) == machine.model, "recorded transformation does not reach the minimal model")
    return data
