"""Tate's algorithm at a prime l: minimal model, Kodaira type, conductor
exponent, Tamagawa number, and component-group structure.

:class:`LocalData` stores what the algorithm decides (the minimal model and
the transformation to it, v(Delta), the Kodaira type, c and the split flag)
and derives the component count m, the conductor exponent f (Ogg's formula)
and the component groups from them.

The algorithm runs as an explicit step machine (steps 1-11 with the
non-minimal restart), recording every coordinate change so the composite
transformation from the input model to the returned l-minimal model is
auditable.  The steps ask the residue field F_l four questions, each answered
by one helper at every l: is a quadratic separable, does it split, what is its
double root, and what is the multiple root of a cubic.  The rules for l = 2
live only in those helpers and in the closed form of the singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import Transformation, WeierstrassCurve, transform
from .padic import IntegerPolynomial, _int_valuation, _poly_gcd_mod_ell, _require_prime, _residue_roots, check_p, legendre_symbol

__all__ = [
    "KodairaType",
    "FiniteAbelianGroup",
    "LocalData",
    "TateInvariantError",
    "tate_local",
    "is_split_multiplicative",
    "phi_p_part_order",
]


class TateInvariantError(RuntimeError):
    """Internal case fall-through; must be unreachable on valid input."""


def _require(holds: bool, what: str) -> None:
    """Raise (also under ``python -O``) when an algorithm invariant fails."""
    if not holds:
        raise TateInvariantError(f"algorithm invariant violated: {what}")


@dataclass(frozen=True)
class KodairaType:
    """Reduction type: one of I0, In (n>=1), II, III, IV, I0*, In* (n>=1),
    IV*, III*, II*."""

    family: str
    n: int = 0

    _FAMILIES = ("I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown Kodaira family {self.family!r}")
        if self.family in ("In", "In*"):
            if self.n < 1:
                raise ValueError(f"{self.family} requires n >= 1")
        elif self.n != 0:
            raise ValueError(f"{self.family} carries no index")

    @property
    def is_multiplicative(self) -> bool:
        return self.family == "In"

    def serialize(self) -> str:
        # n >= 1 exactly for In and In*, the families that print their index
        return f"{self.family}:{self.n}" if self.n else self.family

    @classmethod
    def deserialize(cls, text: str) -> "KodairaType":
        family, _, n = text.partition(":")
        return cls(family, int(n) if n else 0)

    def __str__(self) -> str:
        return f"I{self.n}{self.family[2:]}" if self.n else self.family


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group as an invariant-factor list d1 | d2 | ... | dk."""

    factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        fs = tuple(int(d) for d in self.factors)
        object.__setattr__(self, "factors", fs)
        for d in fs:
            if d <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {fs}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    def p_torsion_order(self, p: int) -> int:
        return math.prod(math.gcd(d, p) for d in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "trivial"
        return "Z/" + " x Z/".join(str(d) for d in self.factors)


# Per Kodaira family, as a function of the index n (0 where the family has
# none): the number m of components of the special fibre, which enters Ogg's
# formula, and the invariant factors of the geometric component group.
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
    split: bool | None  # meaningful only for multiplicative types

    @property
    def m(self) -> int:
        """Number of irreducible components of the special fibre."""
        return _FIBRES[self.kodaira.family](self.kodaira.n)[0]

    @property
    def f(self) -> int:
        """Conductor exponent, by Ogg's formula v(Delta) = f + m - 1."""
        return self.vdelta - self.m + 1

    @property
    def phi_geometric(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(_FIBRES[self.kodaira.family](self.kodaira.n)[1])

    @property
    def phi_arithmetic(self) -> FiniteAbelianGroup:
        """The Frobenius-fixed subgroup Phi(k_v), of order c: all of the
        geometric group, or else its cyclic subgroup of order c."""
        geom = self.phi_geometric
        if self.c == geom.order:
            return geom
        return FiniteAbelianGroup((self.c,) if self.c > 1 else ())

    def serialize(self) -> dict:
        return {
            "prime": self.prime,
            "kodaira": self.kodaira.serialize(),
            "vdelta": self.vdelta,
            "f": self.f,
            "c": self.c,
            "phi_geom": list(self.phi_geometric.factors),
            "phi_arith": list(self.phi_arithmetic.factors),
            "split": self.split,
            "m": self.m,
        }


def is_split_multiplicative(local: LocalData) -> bool:
    """Split flag of a multiplicative place; error on other types."""
    if not local.kodaira.is_multiplicative:
        raise ValueError("not multiplicative")
    _require(local.split is not None, "multiplicative place without a split flag")
    return local.split


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
        self._change(Transformation(self.ell, 0, 0, 0))
        _require(self.model.is_integral, "rescale requires divisible coefficients")

    def v(self, n: int) -> int:
        return _int_valuation(n, self.ell)

    # -- residue-field helpers: every question a step asks of F_l --

    def _separable(self, A: int, B: int, C: int) -> bool:
        """Whether A Y^2 + B Y + C (A a unit) has distinct roots over the
        algebraic closure of F_l; at l = 2 the discriminant is B mod 2."""
        return (B * B - 4 * A * C) % self.ell != 0

    def _quadratic_is_rational(self, A: int, B: int, C: int) -> bool:
        """Whether the separable quadratic A Y^2 + B Y + C splits over F_l."""
        _require(self._separable(A, B, C), "inseparable quadratic")
        if self.ell == 2:
            # A and B are odd, so Y = 0 and Y = 1 both give C mod 2
            return C % 2 == 0
        return legendre_symbol(B * B - 4 * A * C, self.ell) == 1

    def _double_root(self, A: int, B: int, C: int) -> int:
        """The root of the inseparable quadratic A Y^2 + B Y + C = A (Y - r)^2."""
        _require(not self._separable(A, B, C), "separable quadratic has no double root")
        if self.ell == 2:
            return C % 2  # A Y^2 + C with A odd, and r^2 = r over F_2
        return -B * pow(2 * A, -1, self.ell) % self.ell

    def _multiple_root(self, cubic: list[int]) -> int | None:
        """The multiple root alpha over F_l of a cubic with a unit lead
        (coefficients from the constant up), or None.  gcd(P, P') = (T - alpha)^k
        has T^(k-1) coefficient -k alpha; for a cubic l | k only when k = l, and
        then the gcd is T^l - alpha^l = T^l - alpha."""
        ell = self.ell
        g = _poly_gcd_mod_ell(cubic, [i * c for i, c in enumerate(cubic)][1:], ell)
        k = len(g) - 1
        if k == 0:
            return None
        if k % ell:
            return -g[k - 1] * pow(k, -1, ell) % ell
        return -g[0] % ell

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
            # the double root of 4x^3 + b2 x^2 + 2 b4 x + b6, the right side
            # of (2y + a1 x + a3)^2 = ...
            b2, b4, b6, _ = self.model.b_invariants
            x0 = self._multiple_root([b6, 2 * b4, b2, 4])
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
            split = self._quadratic_is_rational(1, a1, -a2)
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
            c = 3 if self._quadratic_is_rational(1, a3 // ell, -(a6 // ell**2)) else 1
            return KodairaType("IV"), n, c, None

        # Normalize for step 6: v(a1)>=1, v(a2)>=1, v(a3)>=2, v(a4)>=2, v(a6)>=3, by the
        # double roots of S^2 + a1 S - a2 and T^2 + a3/l T - a6/l^2 (discriminants b2, b6/l^2)
        s = self._double_root(1, a1, -a2)
        t = self._double_root(1, a3 // ell, -(a6 // ell**2))
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
            return KodairaType("I0*"), n, 1 + len(_residue_roots(IntegerPolynomial(P), ell)), None
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
                quadratic = (1, a3 // ell**q, -(a6 // ell ** (2 * q)))
            else:
                # (a2/l) X^2 + (a4/l^(q+1)) X + a6/l^(2q+1), for n = 2q-2
                _require(self.v(a3) >= q + 1 and self.v(a4) >= q + 1 and self.v(a6) >= 2 * q + 1, "In* X-stage valuations")
                quadratic = (a2 // ell, a4 // ell ** (q + 1), a6 // ell ** (2 * q + 1))
            if self._separable(*quadratic):
                c = 4 if self._quadratic_is_rational(*quadratic) else 2
                return KodairaType("In*", n), n_delta, c, None
            root = ell**q * self._double_root(*quadratic)
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
        quadratic = (1, a3 // ell**2, -(a6 // ell**4))
        if self._separable(*quadratic):
            c = 3 if self._quadratic_is_rational(*quadratic) else 1
            return KodairaType("IV*"), n_delta, c, None
        self.shift(t=ell**2 * self._double_root(*quadratic))
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


def tate_local(curve: WeierstrassCurve, ell: int) -> LocalData:
    """Run Tate's algorithm for ``curve`` at the prime ``ell``."""
    _require_prime(ell)
    if not curve.is_integral:
        raise ValueError("integral model required")

    machine = _Machine(curve, ell)
    kod, vdelta, c, split = machine.run()
    data = LocalData(ell, machine.model, machine.trans, vdelta, kod, c, split)
    if kod.family not in ("I0", "In"):
        _require(data.f >= 2, f"additive type with f = {data.f}")
        _require(ell < 5 or data.f == 2, f"tame additive reduction must have f = 2, got {data.f}")
    _require(data.phi_geometric.order % c == 0, f"c = {c} does not divide the component group order of {kod}")
    # the recorded transformation must reproduce the minimal model exactly
    _require(transform(curve, machine.trans) == machine.model, "recorded transformation does not reach the minimal model")
    return data
