"""Per-place orders of the local objects attached to E[p]: the p-torsion
subgroup of E(K_v), the image of the local Kummer map, the component-group
p-part, and the relaxed/restricted local condition subgroups, for K = Q and
v ranging over the real place and the finite primes.

Division polynomials locate the p-torsion x-coordinates; l-adic root
counting plus the local square test decide which of them carry points over
Q_l.  The count runs on the input model where Tate's transformation at l
is a translation (u = 1) and on the l-minimal model otherwise; both give
the same count, since #E(Q_l)[p] belongs to E over Q_l, not to a model (see
:func:`local_torsion_order`), and a small memo on (model, p) shares psi_p
across the places of one curve.  The remaining orders follow from the exact
sequences tying the local conditions to the component group; the
divisibility they force is checked and a violation reported as inconsistent
data rather than papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import WeierstrassCurve
from .padic import (
    P_MAX,
    IntegerPolynomial,
    SquarefreePolynomial,
    _mul,
    _poly,
    _sub,
    check_p,
    find_roots_padic,
    value_is_square_at_root,
)
from .tate import LocalData, phi_p_part_order, tate_local

__all__ = [
    "P_MAX",
    "check_p",
    "Place",
    "LocalSelmerOrders",
    "InconsistentLocalData",
    "TorsionPolynomials",
    "division_polynomial",
    "local_torsion_order",
    "local_kummer_order",
    "assemble_local_orders",
]

# Entries of the psi_p memo: the places of one curve use its input model and
# a few minimal models in turn.  An entry at p = 31 holds about 64 kB for 11a1.
_MEMO_SIZE = 8


class InconsistentLocalData(RuntimeError):
    """Computed local orders violate a forced divisibility; indicates a bug
    in the torsion count or the reduction data, never valid output."""


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: the real archimedean place or a finite prime."""

    sort_key: int  # -1 for the real place, else the prime
    prime: int | None

    @classmethod
    def real(cls) -> "Place":
        return cls(-1, None)

    @classmethod
    def finite(cls, ell: int) -> "Place":
        return cls(ell, ell)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def serialize(self) -> str | int:
        return "real" if self.is_real else self.prime

    def __str__(self) -> str:
        return "oo" if self.is_real else str(self.prime)


@dataclass(frozen=True)
class LocalSelmerOrders:
    """The six local orders at one place: three stored, three derived from them.

    The component-group p-part feeds the torsor group by duality (tt = phi_p
    for an elliptic curve, which is self-dual), the relaxed order is the
    Kummer order times tt, and the restricted order divides the Kummer order
    by the mod-p component image; that division must be exact.
    """

    place: Place
    torsion_order: int  # #E(K_v)[p]
    kummer_order: int  # #E(K_v)/pE(K_v) = local Selmer order
    phi_p: int  # #Phi(k_v)[p]

    def __post_init__(self) -> None:
        if self.kummer_order % self.phi_p != 0:
            raise InconsistentLocalData(
                f"inconsistent local data at {self.place}: phi_p = {self.phi_p} does not divide "
                f"the Kummer order {self.kummer_order}"
            )

    @property
    def tt_p(self) -> int:
        """p-torsion of the Tamagawa torsor group."""
        return self.phi_p

    @property
    def relaxed_order(self) -> int:
        """Unramified-in-the-torsor-sense condition."""
        return self.kummer_order * self.tt_p

    @property
    def restricted_order(self) -> int:
        """Kernel-of-component-map condition."""
        return self.kummer_order // self.phi_p

    def serialize(self) -> dict:
        return {
            "place": self.place.serialize(),
            "torsion": self.torsion_order,
            "kummer": self.kummer_order,
            "phi_p": self.phi_p,
            "relaxed": self.relaxed_order,
            "restricted": self.restricted_order,
            "tt_p": self.tt_p,
        }


def division_polynomial(curve: WeierstrassCurve, p: int) -> IntegerPolynomial:
    """The p-division polynomial psi_p in x; its roots are exactly the
    x-coordinates of the nonzero p-torsion points.

    Built by the recurrence of Washington, *Elliptic Curves*, Sec. 3.2, on the
    polynomials f_n = psi_n (n odd), psi_n / psi_2 (n even), where psi_2^2 = F:
    f_{2m+1} = F^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3 for even m and
    f_{m+2} f_m^3 - F^2 f_{m-1} f_{m+1}^3 for odd m, f_{2m} = f_m (f_{m+2}
    f_{m-1}^2 - f_{m-2} f_{m+1}^2), from f_1 = f_2 = 1, f_3 = psi_3 and
    f_4 = psi_4 / psi_2.  Each power f_n^k is built once; products with
    f_1 = f_2 = 1 are skipped.
    """
    check_p(p)
    if not curve.is_integral:
        raise ValueError("integral model required")
    b2, b4, b6, b8 = curve.b_invariants
    one = [1]
    F = _y_squareness_poly(curve).coeffs
    F2 = _mul(F, F) if p > 3 else one  # F^2 enters from f_5 on
    powers = {(n, k): one for n in (1, 2) for k in (1, 2, 3)}  # (n, k) -> f_n^k
    powers[3, 1] = [b8, 3 * b6, 3 * b4, b2, 3]
    powers[4, 1] = [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]

    def times(a: list[int], b: list[int]) -> list[int]:
        return b if a is one else a if b is one else _mul(a, b)

    def f(n: int, k: int = 1) -> list[int]:
        if (n, k) not in powers:
            m = n // 2
            if k > 1:
                out = times(f(n, k - 1), f(n))
            elif n % 2 == 0:
                out = times(f(m), _sub(times(f(m + 2), f(m - 1, 2)), times(f(m - 2), f(m + 1, 2))))
            elif m % 2 == 0:
                out = _sub(times(F2, times(f(m + 2), f(m, 3))), times(f(m - 1), f(m + 1, 3)))
            else:
                out = _sub(times(f(m + 2), f(m, 3)), times(F2, times(f(m - 1), f(m + 1, 3))))
            powers[n, k] = out
        return powers[n, k]

    psi = _poly(f(p))
    del f  # f refers to itself; breaking that cycle frees the memo now, not at the next GC pass
    if psi.degree != (p * p - 1) // 2 or psi.coeffs[-1] != p:
        raise InconsistentLocalData(f"psi_{p} has degree {psi.degree} and leading coefficient {psi.coeffs[-1]}")
    return psi


def _y_squareness_poly(curve: WeierstrassCurve) -> IntegerPolynomial:
    """(2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6: a point with this
    x-coordinate is rational over Q_l iff the right side is a square there."""
    b2, b4, b6, _ = curve.b_invariants
    return _poly([b6, 2 * b4, b2, 4])


@dataclass(frozen=True)
class TorsionPolynomials:
    """psi_p of one integral model, made primitive and certified squarefree,
    with g = 4x^3 + b2 x^2 + 2 b4 x + b6 of the same model."""

    model: WeierstrassCurve
    p: int
    psi: SquarefreePolynomial
    g: IntegerPolynomial

    @classmethod
    def of(cls, model: WeierstrassCurve, p: int) -> "TorsionPolynomials":
        """Memoized; p is checked first, so 5.0 or "5" never finds the entry of 5."""
        check_p(p)
        return _build(model, p)


@lru_cache(maxsize=_MEMO_SIZE)
def _build(model: WeierstrassCurve, p: int) -> TorsionPolynomials:
    return TorsionPolynomials(model, p, division_polynomial(model, p).squarefree_part(), _y_squareness_poly(model))


def local_torsion_order(
    curve: WeierstrassCurve,
    place: Place,
    p: int,
    *,
    local_data: LocalData | None = None,
) -> int:
    """#E(K_v)[p] for odd p, always one of 1, p, p^2.

    Real place: the p-torsion of the circle group contributes p and the
    component group is 2-torsion, so the count is p.  Finite place l: count
    the roots x of the p-division polynomial in Q_l whose y-quadratic has a
    root in Q_l; each such x carries exactly two points (odd p rules out the
    self-symmetric y).

    The count runs on ``curve``'s psi_p when Tate's transformation at l has
    u = 1: the l-minimal model is then ``curve`` moved by an integer
    translation, an isometry of Q_l, so the root geometry is the same, and
    the places of one curve share one memoized psi_p
    (:meth:`TorsionPolynomials.of`).  Otherwise the count runs on the
    l-minimal model, since a heavily non-minimal model's psi_p needs much
    deeper Hensel recursion.  Both give the same count: a change of
    coordinates x = u^2 x' + r maps the roots of psi_p one to one and
    multiplies g by u^6, a square.
    """
    check_p(p)
    if place.is_real:
        return p
    ell = place.prime
    data = local_data or tate_local(curve, ell)
    polys = TorsionPolynomials.of(curve if data.transformation.u == 1 else data.minimal_model, p)
    count = 1 + 2 * sum(value_is_square_at_root(polys.g, root) for root in find_roots_padic(polys.psi, ell))
    if count not in (1, p, p * p):
        raise InconsistentLocalData(f"torsion count {count} outside {{1, p, p^2}}")
    return count


def local_kummer_order(curve: WeierstrassCurve, place: Place, p: int, torsion_order: int) -> int:
    """#E(K_v)/pE(K_v).  Real place: 1 (odd p divides nothing there).
    Finite l != p: equals the torsion order.  l = p: an extra factor p
    (the local Euler-characteristic factor |p|_v^{-1} over Q_p)."""
    check_p(p)
    if place.is_real:
        return 1
    if place.prime == p:
        return p * torsion_order
    return torsion_order


def assemble_local_orders(
    curve: WeierstrassCurve,
    place: Place,
    p: int,
    *,
    local_data: LocalData | None = None,
) -> LocalSelmerOrders:
    """All six local orders at one place (see :class:`LocalSelmerOrders`)."""
    if place.is_real:
        return LocalSelmerOrders(place, local_torsion_order(curve, place, p), 1, 1)
    data = local_data or tate_local(curve, place.prime)
    torsion = local_torsion_order(curve, place, p, local_data=data)
    kummer = local_kummer_order(curve, place, p, torsion)
    return LocalSelmerOrders(place, torsion, kummer, phi_p_part_order(data, p))
