"""Per-place orders of the local objects attached to E[p]: the p-torsion
subgroup of E(K_v), the image of the local Kummer map, the component-group
p-part, and the relaxed/restricted local condition subgroups, for K = Q and
v ranging over the real place and the finite primes.

Division polynomials locate the p-torsion x-coordinates; l-adic root
counting plus the local square test decide which of them carry points over
Q_l.  Every finite place counts in the frame of Tate's l-minimal model, on
the input model's psi_p moved there (see :func:`local_torsion_order`);
:func:`certified_psi`, a small memo on (model, p) with typed keys, checked
on a miss, builds psi_p once per input, for its places and global torsion.
Tate's data is asked of :func:`~tamagawa.tate.tate_local` with the curve,
never passed in, so it is always the curve's own.  At a bad place that
frame puts the singular point of the reduction at x = 0 mod l, where most
roots of psi_p mod l lie, so the residue-root search sees a cofactor of
small degree.

:class:`LocalSelmerOrders` stores what is computed at a place, the torsion
count and phi_p from Tate's c, and derives the other four orders where they
are read: the Kummer order from the local Euler characteristic, the rest
from the exact sequences tying the local conditions to the component group.
The divisibility those force is checked and a violation reported as
inconsistent data rather than papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import WeierstrassCurve, _two_torsion_cubic
from .padic import (
    P_MAX,
    IntegerPolynomial,
    SquarefreePolynomial,
    _certified,
    _mul,
    _poly,
    _sub,
    check_p,
    find_roots_padic,
    value_is_square_at_root,
)
from .tate import phi_p_part_order, tate_local

__all__ = [
    "P_MAX",
    "check_p",
    "Place",
    "LocalSelmerOrders",
    "InconsistentLocalData",
    "certified_psi",
    "division_polynomial",
    "local_torsion_order",
    "assemble_local_orders",
]

# Entries of the psi_p memo: one input model per verify, whatever Tate's
# frames at its places.  An entry at p = 31 holds about 64 kB for 11a1.
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
    """The six local orders at one place: two stored, four derived from them.

    The Kummer order is #E(K_v)/pE(K_v): 1 at the real place (odd p divides
    nothing there), the torsion order at l != p, and p times it at l = p
    (the local Euler-characteristic factor |p|_v^{-1} over Q_p).  The
    component-group p-part feeds the torsor group by duality (tt = phi_p for
    an elliptic curve, which is self-dual), the relaxed order is the Kummer
    order times tt, and the restricted order divides the Kummer order by the
    mod-p component image; that division must be exact.
    """

    place: Place
    p: int
    torsion_order: int  # #E(K_v)[p]
    phi_p: int  # #Phi(k_v)[p]

    def __post_init__(self) -> None:
        if self.kummer_order % self.phi_p != 0:
            raise InconsistentLocalData(
                f"inconsistent local data at {self.place}: phi_p = {self.phi_p} does not divide "
                f"the Kummer order {self.kummer_order}"
            )

    @property
    def kummer_order(self) -> int:
        """#E(K_v)/pE(K_v) = local Selmer order."""
        if self.place.is_real:
            return 1
        return self.p * self.torsion_order if self.place.prime == self.p else self.torsion_order

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
    x-coordinates of the nonzero p-torsion points.  It is squarefree by
    theorem: psi_p = p * prod (x - x(P)) over the (p^2 - 1)/2 pairs +-P of
    nonzero points of E[p], whose x(P) are distinct in characteristic 0
    (Washington, *Elliptic Curves*, Sec. 3.2; Silverman, *AEC* III.6.4).  The
    degree and leading coefficient of that product are checked here, against
    a fault in the recurrence.

    Built by the recurrence of Washington, *Elliptic Curves*, Sec. 3.2, on the
    polynomials f_n = psi_n (n odd), psi_n / psi_2 (n even), where psi_2^2 = F:
    f_{2m+1} = F^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3 for even m and
    f_{m+2} f_m^3 - F^2 f_{m-1} f_{m+1}^3 for odd m, f_{2m} = f_m (f_{m+2}
    f_{m-1}^2 - f_{m-2} f_{m+1}^2), from f_1 = f_2 = 1, f_3 = psi_3 and
    f_4 = psi_4 / psi_2.  Each power f_n^k is built once; products with
    f_1 = f_2 = 1 are skipped.
    """
    check_p(p)
    b2, b4, b6, b8 = curve.b_invariants
    one = [1]
    F = _two_torsion_cubic(curve).coeffs
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


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def certified_psi(model: WeierstrassCurve, p: int) -> SquarefreePolynomial:
    """The primitive psi_p of ``model``, certified squarefree by theorem (see
    :func:`division_polynomial`: its roots are distinct).  Memoized on typed
    keys, checked on a miss: 5.0, "5" or True never finds the entry of 5 and
    raises, and a raise caches nothing."""
    check_p(p)
    return _certified(division_polynomial(model, p).primitive_part())


def local_torsion_order(curve: WeierstrassCurve, place: Place, p: int) -> int:
    """#E(K_v)[p] for odd p, always one of 1, p, p^2.

    Real place: the p-torsion of the circle group contributes p and the
    component group is 2-torsion, so the count is p.  Finite place l: count
    the roots x of the p-division polynomial in Q_l whose y-quadratic has a
    root in Q_l; each such x carries exactly two points (odd p rules out the
    self-symmetric y).

    The count runs in the frame x = u^2 x' + r of the l-minimal model that
    :func:`~tamagawa.tate.tate_local` gives for ``curve``, on its memoized
    psi_p (:func:`certified_psi`) moved there and on g of the minimal model.
    The moved psi_p is the minimal model's, since
    psi_min(x') = u^-(p^2-1) psi(u^2 x' + r), so a non-minimal input costs no
    deep Hensel recursion; the move maps the roots one to one and g picks up
    u^6, a square, so the count is that of E.  At a bad place l != p the
    frame puts p(p - 1)/2 of the (p^2 - 1)/2 roots of psi_p mod l at the
    singular point x = 0 mod l, so the residue-root search sees a cofactor
    of degree (p - 1)/2 or less.

    Only the roots in Z_l are counted (:func:`~tamagawa.padic.find_roots_padic`).
    The minimal model is integral, so a point of it with v(x) < 0 lies in
    E_1(Q_l), and E_1(Q_l) has no p-torsion: it is pro-l for l != p, and for
    l = p >= 3 the formal group of E over Z_p is torsion-free (Silverman,
    *AEC*, VII.3.1 and IV.6.1).  A root of psi_p outside Z_l therefore
    carries no point of E(Q_l)[p].
    """
    check_p(p)
    if place.is_real:
        return p
    ell = place.prime
    data = tate_local(curve, ell)
    u, r = data.transformation.u, data.transformation.r
    psi, g = certified_psi(curve, p).moved(u, r), _two_torsion_cubic(data.minimal_model)
    count = 1 + 2 * sum(value_is_square_at_root(g, root) for root in find_roots_padic(psi, ell))
    if count not in (1, p, p * p):
        raise InconsistentLocalData(f"torsion count {count} outside {{1, p, p^2}}")
    return count


def assemble_local_orders(curve: WeierstrassCurve, place: Place, p: int) -> LocalSelmerOrders:
    """All six local orders at one place (see :class:`LocalSelmerOrders`),
    phi_p from Tate's c as :func:`~tamagawa.tate.tate_local` gives it."""
    torsion = local_torsion_order(curve, place, p)  # checks p before Tate runs
    phi_p = 1 if place.is_real else phi_p_part_order(tate_local(curve, place.prime), p)
    return LocalSelmerOrders(place, p, torsion, phi_p)
