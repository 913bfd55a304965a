"""Tate's algorithm at a prime l: minimal model, Kodaira type, conductor
exponent, Tamagawa number, and component-group structure.

The algorithm runs as an explicit step machine (steps 1-11 with the
non-minimal restart), recording every coordinate change so the composite
transformation from the input model to the returned l-minimal model is
auditable.  The small primes 2 and 3 go through the full branches; no
valuation-table shortcuts are taken there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import Transformation, WeierstrassCurve, transform
from .padic import IntegerPolynomial, _int_valuation, _poly_gcd_mod_ell, _require_prime, _residue_roots, legendre_symbol

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

    @property
    def component_count(self) -> int:
        """Number m of irreducible components of the special fiber
        (multiplicity-free count entering Ogg's formula)."""
        return {
            "I0": 1, "In": self.n, "II": 1, "III": 2, "IV": 3,
            "I0*": 5, "In*": 5 + self.n, "IV*": 7, "III*": 8, "II*": 9,
        }[self.family]

    def serialize(self) -> str:
        if self.family == "In":
            return f"In:{self.n}"
        if self.family == "In*":
            return f"In*:{self.n}"
        return self.family

    @classmethod
    def deserialize(cls, text: str) -> "KodairaType":
        if text.startswith("In:"):
            return cls("In", int(text[3:]))
        if text.startswith("In*:"):
            return cls("In*", int(text[4:]))
        return cls(text)

    def __str__(self) -> str:
        if self.family == "In":
            return f"I{self.n}"
        if self.family == "In*":
            return f"I{self.n}*"
        return self.family


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

    def mod_p_quotient_order(self, p: int) -> int:
        # equal to the p-torsion order for finite abelian groups
        return self.p_torsion_order(p)

    def embeds_in(self, other: "FiniteAbelianGroup") -> bool:
        """Order divides and exponent divides (the check used for
        arithmetic-inside-geometric component groups)."""
        return other.order % self.order == 0 and other.exponent % self.exponent == 0

    def __str__(self) -> str:
        if not self.factors:
            return "trivial"
        return "Z/" + " x Z/".join(str(d) for d in self.factors)


@dataclass(frozen=True)
class LocalData:
    """Everything Tate's algorithm knows about E at the prime l."""

    prime: int
    minimal_model: WeierstrassCurve
    transformation: Transformation  # input model -> minimal model
    vdelta: int
    kodaira: KodairaType
    f: int  # conductor exponent
    c: int  # Tamagawa number = #Phi(k_v)
    phi_geometric: FiniteAbelianGroup
    phi_arithmetic: FiniteAbelianGroup
    split: bool | None  # meaningful only for multiplicative types
    m: int  # special-fiber component count (enters Ogg's formula)

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
    """#Phi(k_v)[p] for odd p, via the invariant factors of the arithmetic
    component group.  The odd part of Phi(k_v) is cyclic for elliptic curves,
    so this equals p exactly when p | c (checked)."""
    if p == 2:
        raise ValueError("odd p required")
    out = local.phi_arithmetic.p_torsion_order(p)
    _require(out == (p if local.c % p == 0 else 1), "odd part of the arithmetic component group must be cyclic")
    return out


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
        self._change(Transformation(1, r, s, t))

    def rescale(self) -> None:
        self._change(Transformation(self.ell, 0, 0, 0))
        _require(self.model.is_integral, "rescale requires divisible coefficients")

    def v(self, n: int) -> int:
        return _int_valuation(n, self.ell)

    # -- residue-field helpers --

    def _singular_point(self) -> tuple[int, int]:
        ell = self.ell
        a1, a2, a3, a4, a6 = self.model.ainvs
        if ell == 2:
            for x0 in (0, 1):
                for y0 in (0, 1):
                    on = (y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0 - a6) % 2 == 0
                    fx = (a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 - a4) % 2 == 0
                    fy = (2 * y0 + a1 * x0 + a3) % 2 == 0
                    if on and fx and fy:
                        return x0, y0
            raise TateInvariantError("algorithm invariant violated: no singular point mod 2")
        b2, b4, b6, _ = self.model.b_invariants
        g = [b6 % ell, (2 * b4) % ell, b2 % ell, 4 % ell]
        gp = [(2 * b4) % ell, (2 * b2) % ell, 12 % ell]
        gcd = _poly_gcd_mod_ell(g, gp, ell)
        deg = len(gcd) - 1
        if deg == 1:
            x0 = (-gcd[0]) % ell
        elif deg == 2:
            # (x - x0)^2: the doubled root
            x0 = (-gcd[1] * pow(2, -1, ell)) % ell
        elif deg == 3:
            # only at l = 3 with g' == 0: g = x^3 + const is a perfect cube
            _require(ell == 3, "cubic singular locus away from l = 3")
            x0 = (-gcd[0]) % 3
        else:
            raise TateInvariantError("algorithm invariant violated: reduction not singular")
        y0 = (-(a1 * x0 + a3) * pow(2, -1, ell)) % ell
        fx = (a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 - a4) % ell
        fy = (2 * y0 + a1 * x0 + a3) % ell
        on = (y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0 - a6) % ell
        _require(fx == 0 and fy == 0 and on == 0, "singular point misidentified")
        return x0, y0

    def _quadratic_is_rational(self, A: int, B: int, C: int) -> bool:
        """Whether the separable quadratic A Y^2 + B Y + C splits over F_l."""
        ell = self.ell
        if ell == 2:
            # separable means B odd; A Y^2 + B Y + C ~ Y^2 + Y + C/A has
            # roots iff C is even
            _require(B % 2 == 1, "inseparable quadratic at l = 2")
            return C % 2 == 0
        disc = (B * B - 4 * A * C) % ell
        _require(disc != 0, "inseparable quadratic")
        return legendre_symbol(disc, ell) == 1

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
        if (x0, y0) != (0, 0):
            self.shift(r=x0, t=y0)
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(a3 % ell == 0 and a4 % ell == 0 and a6 % ell == 0, "singular point not at the origin")

        b2, b4, b6, b8 = self.model.b_invariants
        if b2 % ell != 0:
            # multiplicative: slopes of the node satisfy T^2 + a1 T - a2
            if ell == 2:
                _require(a1 % 2 == 1, "node at l = 2 needs odd a1")
                split = a2 % 2 == 0
            else:
                split = legendre_symbol(b2 % ell, ell) == 1
            c = n if split else (2 if n % 2 == 0 else 1)
            return KodairaType("In", n), n, c, split

        # Step 3
        if self.v(a6) < 2:
            return KodairaType("II"), n, 1, None
        # Step 4
        if self.v(b8) < 3:
            return KodairaType("III"), n, 2, None
        # Step 5
        if self.v(b6) < 3:
            a31, a62 = a3 // ell, a6 // ell**2
            if ell == 2:
                _require(a31 % 2 == 1, "type IV at l = 2 needs odd a3/2")
            c = 3 if self._quadratic_is_rational(1, a31, -a62) else 1
            return KodairaType("IV"), n, c, None

        # Normalize for step 6: v(a1)>=1, v(a2)>=1, v(a3)>=2, v(a4)>=2, v(a6)>=3
        if ell == 2:
            _require(a1 % 2 == 0, "a1 odd although 2 | b2")
            self.shift(s=a2 % 2)
            _require(self.v(self.model.a3) >= 2, "v(a3) < 2 although v(b6) >= 3 at l = 2")
            tau = (self.model.a6 // 4) % 2
            if tau:
                self.shift(t=2 * tau)
        else:
            self.shift(s=(-a1 * pow(2, -1, ell)) % ell)
            a31 = (self.model.a3 // ell) % ell
            self.shift(t=ell * ((-a31 * pow(2, -1, ell)) % ell))
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(
            self.v(a1) >= 1 and self.v(a2) >= 1 and self.v(a3) >= 2 and self.v(a4) >= 2 and self.v(a6) >= 3,
            "step 6 normalization failed",
        )

        # Step 6: the cubic P(T) = T^3 + a2/l T^2 + a4/l^2 T + a6/l^3
        a21, a42, a63 = a2 // ell, a4 // ell**2, a6 // ell**3
        P = [a63 % ell, a42 % ell, a21 % ell, 1]
        Pp = [a42 % ell, (2 * a21) % ell, 3 % ell]
        g = _poly_gcd_mod_ell(P, Pp, ell)
        gdeg = len(g) - 1 if g else -1
        if gdeg <= 0:
            roots = _residue_roots(IntegerPolynomial(P), ell)
            return KodairaType("I0*"), n, 1 + len(roots), None
        if ell == 2:
            # P' = (T + a42)^2 mod 2, so the gcd is (T + a42)^2 for a double
            # root and for a triple one alike: P = (T + alpha)^3 tells them apart
            alpha = a42 % 2
            triple = P == [alpha, alpha, alpha, 1]
        elif gdeg == 1:
            alpha, triple = (-g[0]) % ell, False
        else:
            # triple root: P = (T - alpha)^3, so 3 alpha = -a21; at l = 3 the cube
            # collapses to T^3 + a63 whose root is -a63 (cubing fixes F_3)
            alpha, triple = ((-a63) % 3) if ell == 3 else ((-a21 * pow(3, -1, ell)) % ell), True
        return self._step8(alpha, n) if triple else self._step7_loop(alpha, n)

    def _step7_loop(self, alpha: int, n_delta: int):
        """Type In* (n >= 1): translate the double root to T = 0, then probe
        alternating quadratics in Y and X until one is separable."""
        ell = self.ell
        self.shift(r=ell * alpha)
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(self.v(a2) == 1 and self.v(a3) >= 2 and self.v(a4) >= 3 and self.v(a6) >= 4, "step 7 translation")
        q = 2
        while True:
            a1, a2, a3, a4, a6 = self.model.ainvs
            # Y-stage: quadratic Y^2 + (a3/l^q) Y - a6/l^(2q); subtype n = 2q-3
            _require(self.v(a3) >= q and self.v(a6) >= 2 * q, "In* Y-stage valuations")
            a3q, a62q = a3 // ell**q, a6 // ell ** (2 * q)
            separable = (a3q % 2 == 1) if ell == 2 else ((a3q * a3q + 4 * a62q) % ell != 0)
            if separable:
                n = 2 * q - 3
                c = 4 if self._quadratic_is_rational(1, a3q, -a62q) else 2
                return KodairaType("In*", n), n_delta, c, None
            y0 = (a62q % 2) if ell == 2 else ((-a3q * pow(2, -1, ell)) % ell)
            self.shift(t=ell**q * y0)
            a1, a2, a3, a4, a6 = self.model.ainvs
            # X-stage: quadratic (a2/l) X^2 + (a4/l^(q+1)) X + a6/l^(2q+1); n = 2q-2
            _require(self.v(a3) >= q + 1 and self.v(a4) >= q + 1 and self.v(a6) >= 2 * q + 1, "In* X-stage valuations")
            a21 = a2 // ell
            a4q1, a62q1 = a4 // ell ** (q + 1), a6 // ell ** (2 * q + 1)
            separable = (a4q1 % 2 == 1) if ell == 2 else ((a4q1 * a4q1 - 4 * a21 * a62q1) % ell != 0)
            if separable:
                n = 2 * q - 2
                c = 4 if self._quadratic_is_rational(a21, a4q1, a62q1) else 2
                return KodairaType("In*", n), n_delta, c, None
            if ell == 2:
                x0 = a62q1 % 2
            else:
                x0 = (-a4q1 * pow(2 * a21, -1, ell)) % ell
            self.shift(r=ell**q * x0)
            q += 1
            if 2 * q - 3 > n_delta:
                raise TateInvariantError("algorithm invariant violated: In* loop exceeded v(delta)")

    def _step8(self, alpha: int, n_delta: int):
        ell = self.ell
        self.shift(r=ell * alpha)
        a1, a2, a3, a4, a6 = self.model.ainvs
        _require(self.v(a2) >= 2 and self.v(a3) >= 2 and self.v(a4) >= 3 and self.v(a6) >= 4, "step 8 translation")
        a32, a64 = a3 // ell**2, a6 // ell**4
        separable = (a32 % 2 == 1) if ell == 2 else ((a32 * a32 + 4 * a64) % ell != 0)
        if separable:
            c = 3 if self._quadratic_is_rational(1, a32, -a64) else 1
            return KodairaType("IV*"), n_delta, c, None
        y0 = (a64 % 2) if ell == 2 else ((-a32 * pow(2, -1, ell)) % ell)
        self.shift(t=ell**2 * y0)
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


def _component_groups(kod: KodairaType, c: int, split: bool | None) -> tuple[FiniteAbelianGroup, FiniteAbelianGroup]:
    fam, n = kod.family, kod.n
    if fam in ("I0", "II", "II*"):
        geom: tuple[int, ...] = ()
    elif fam == "In":
        geom = (n,) if n >= 2 else ()
    elif fam in ("III", "III*"):
        geom = (2,)
    elif fam in ("IV", "IV*"):
        geom = (3,)
    elif fam == "I0*":
        geom = (2, 2)
    elif fam == "In*":
        geom = (2, 2) if n % 2 == 0 else (4,)
    else:  # pragma: no cover
        raise TateInvariantError(f"no component group for {fam}")

    if fam == "In":
        if split:
            arith = geom
        else:
            arith = (2,) if n % 2 == 0 else ()
    elif fam in ("I0*", "In*"):
        # c = 4 means the Frobenius-fixed subgroup is everything
        arith = {1: (), 2: (2,), 4: geom}[c]
    elif fam in ("IV", "IV*"):
        arith = (3,) if c == 3 else ()
    elif fam in ("III", "III*"):
        arith = (2,)
    else:
        arith = ()
    g_geom, g_arith = FiniteAbelianGroup(geom), FiniteAbelianGroup(arith)
    _require(g_arith.order == c, f"arithmetic component group order {g_arith.order} != c = {c}")
    _require(g_arith.embeds_in(g_geom), "arithmetic component group does not embed")
    return g_geom, g_arith


def tate_local(curve: WeierstrassCurve, ell: int) -> LocalData:
    """Run Tate's algorithm for ``curve`` at the prime ``ell``."""
    _require_prime(ell)
    if not curve.is_integral:
        raise ValueError("integral model required")

    machine = _Machine(curve, ell)
    kod, vdelta, c, split = machine.run()
    m = kod.component_count
    f = vdelta - m + 1
    # conductor-exponent sanity
    if kod.family == "I0":
        _require(f == 0, f"good reduction with f = {f}")
    elif kod.is_multiplicative:
        _require(f == 1, f"multiplicative reduction with f = {f}")
    else:
        _require(f >= 2, f"additive type with f = {f}")
        _require(ell < 5 or f == 2, f"tame additive reduction must have f = 2, got {f}")
    geom, arith = _component_groups(kod, c, split)
    # the recorded transformation must reproduce the minimal model exactly
    _require(transform(curve, machine.trans) == machine.model, "recorded transformation does not reach the minimal model")
    return LocalData(
        prime=ell,
        minimal_model=machine.model,
        transformation=machine.trans,
        vdelta=vdelta,
        kodaira=kod,
        f=f,
        c=c,
        phi_geometric=geom,
        phi_arithmetic=arith,
        split=split,
        m=m,
    )
