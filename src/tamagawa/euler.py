"""Global bookkeeping: the set S, Euler-characteristic products over S, and
the two-sided verification of the order identities.

The left side of the headline identity is assembled from torsion and Kummer
orders (with the component-group structure entering through the torsor
duality); the right side is the product of the p-parts of the Tamagawa
numbers.  Both sides read ``tate.phi_p_part_order`` of the same
``tate_local`` data (the left side through each place's phi_p and tt_p), so
the identity holds by construction: its agreement tests nothing until the
right side comes from an independent computation of c (ROADMAP item 3).

:class:`EulerLedger` is a frozen record of what :func:`verify_main_theorem`
gathered; S, both Euler characteristics, both sides of the identity, every
verdict and the status are derived from it when read.  S is
:attr:`EulerLedger.S`: the real place, then every prime whose Tate data the
ledger holds (the bad primes and p).  The Euler factor at a place is
kummer/torsion of its :func:`~tamagawa.localorders.assemble_local_orders`
tuple; it is 1 at good places away from p, which is why the products may
stop at S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .curves import FiniteFieldCurve, WeierstrassCurve, _two_torsion_cubic
from .localorders import (
    InconsistentLocalData,
    LocalSelmerOrders,
    Place,
    assemble_local_orders,
    certified_psi,
    check_p,
)
from .padic import PrecisionExhausted, _exact_int, _is_prime, prime_divisors, rational_roots
from .tate import LocalData, phi_p_part_order, tate_local

__all__ = [
    "EulerLedger",
    "global_torsion_order",
    "verify_main_theorem",
]


def local_data_for_bad_primes(curve: WeierstrassCurve) -> dict[int, LocalData]:
    """Tate data at every prime of bad reduction (of the minimal model)."""
    out: dict[int, LocalData] = {}
    for ell in prime_divisors(curve.discriminant):
        data = tate_local(curve, ell)
        if data.vdelta > 0:
            out[ell] = data
    return out


def _is_rational_square(x: Fraction) -> bool:
    if x <= 0:
        return False
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    return rn * rn == n and rd * rd == d


def global_torsion_order(curve: WeierstrassCurve, p: int) -> int:
    """#E(Q)[p] for an odd prime p <= P_MAX; always 1 or p (p^2 would force the p-th
    roots of unity into Q, impossible for odd p).

    Fast path: reduction mod a good odd prime q != p is injective on
    p-torsion, so p not dividing some #E~(F_q) settles the answer.  Otherwise
    search the rational roots of the division polynomial and test whether the
    y-quadratic has a rational solution, on the memoized psi_p of ``curve``
    that its finite places count on (:func:`certified_psi`).
    """
    check_p(p)
    disc = curve.discriminant
    screened = 0
    q = 3
    while screened < 3 and q < 200:
        if _is_prime(q) and q != p and disc % q != 0:
            if FiniteFieldCurve(curve, q).order() % p != 0:
                return 1
            screened += 1
        q += 2
    g = _two_torsion_cubic(curve)
    count = 1 + 2 * sum(_is_rational_square(Fraction(g(x0))) for x0 in rational_roots(certified_psi(curve, p)))
    if count not in (1, p):
        raise InconsistentLocalData(f"global p-torsion {count} impossible over Q")
    return count


IDENTITY_VERDICTS = ("euler_characteristic_is_one", "main_identity", "square_chain_identity", "local_identities")
EXTERNAL_ORDERS = ("selmer_order", "restricted_order")


@dataclass(frozen=True)
class EulerLedger:
    """Everything the global verification computed for one (curve, p).

    ``local_data`` holds Tate's data at every place of S but the real one,
    sorted by prime; ``orders`` has one entry per place of S unless a place
    is undecided; ``external`` holds the checked global orders, if any.
    """

    curve: WeierstrassCurve
    p: int
    local_data: dict[int, LocalData]
    orders: list[LocalSelmerOrders]
    global_torsion: int
    undecided: list[str]
    external: dict[str, int] | None = None
    label: str | None = None

    @property
    def S(self) -> list[Place]:
        return [Place.real()] + [Place.finite(ell) for ell in self.local_data]

    def _ratio(self, num: str, den: str) -> Fraction | None:
        """prod over S of order ``num`` / order ``den``; None when a place is undecided."""
        if self.undecided:
            return None
        return Fraction(math.prod(getattr(o, num) for o in self.orders), math.prod(getattr(o, den) for o in self.orders))

    # The factor #H^0(Q, E[p]) / #H^0(Q, E^v[p]) is 1, as E is self-dual, and
    # truncation to S is exact because good-reduction factors away from p equal 1.
    chi_selmer = property(lambda self: self._ratio("kummer_order", "torsion_order"),
                          doc="The Euler characteristic with the classical local conditions.")
    chi_relaxed = property(lambda self: self._ratio("relaxed_order", "torsion_order"),
                           doc="The same with the relaxed local conditions (relaxed = kummer * tt_p).")
    mt_lhs = property(lambda self: self._ratio("relaxed_order", "kummer_order"),
                      doc="Left side of the main identity: chi_relaxed / chi_selmer = prod over S of relaxed/kummer.")

    @property
    def mt_rhs(self) -> int:
        """Right side, the product of ``phi_p_part_order`` over the places of
        S: the same rule, on the same ``tate_local`` data, as the phi_p that
        ``mt_lhs`` reads, so the main identity holds by construction."""
        return math.prod(phi_p_part_order(data, self.p) for data in self.local_data.values())

    @property
    def all_phi_trivial(self) -> bool:
        return self.mt_rhs == 1

    @cached_property
    def verdicts(self) -> dict[str, bool | str]:
        """The IDENTITY_VERDICTS, each "undecided" when a place is, then
        global_inequality ("not evaluated" without both external orders)."""
        mt_rhs = self.mt_rhs
        if self.undecided:
            identities: dict[str, bool | str] = dict.fromkeys(IDENTITY_VERDICTS, "undecided")
        else:
            identities = {
                "euler_characteristic_is_one": self.chi_selmer == 1,
                "main_identity": self.mt_lhs == mt_rhs,
                "square_chain_identity": self._ratio("relaxed_order", "restricted_order") == mt_rhs**2,
                "local_identities": all(
                    o.relaxed_order == o.kummer_order * o.phi_p
                    and o.kummer_order == o.restricted_order * o.phi_p
                    and o.relaxed_order * o.restricted_order == o.kummer_order**2
                    and o.restricted_order <= o.kummer_order <= o.relaxed_order
                    for o in self.orders
                ),
            }
        external = self.external or {}
        if all(key in external for key in EXTERNAL_ORDERS):
            # non-strict on purpose: when every Phi[p] is trivial the three
            # global groups can coincide, so strictness cannot hold universally
            inequality: bool | str = external["selmer_order"] <= external["restricted_order"] * mt_rhs
        else:
            inequality = "not evaluated"
        return {**identities, "global_inequality": inequality}

    @property
    def passed(self) -> bool:
        return not self.undecided and all(v is True for v in self.verdicts.values() if isinstance(v, bool))

    @property
    def status(self) -> str:
        return "undecided" if self.undecided else "passed" if self.passed else "failed"

    def to_record(self) -> dict:
        return {
            "curve": list(self.curve.ainvs),
            "label": self.label,
            "p": self.p,
            "S": [pl.serialize() for pl in self.S],
            "global_torsion": self.global_torsion,
            "local_data": [data.serialize() for data in self.local_data.values()],
            "places": [o.serialize() for o in self.orders],
            "chi_selmer": None if self.undecided else str(self.chi_selmer),
            "chi_relaxed": None if self.undecided else str(self.chi_relaxed),
            "mt_lhs": None if self.undecided else str(self.mt_lhs),
            "mt_rhs": self.mt_rhs,
            "verdicts": dict(self.verdicts),
            "undecided": list(self.undecided),
            "all_phi_trivial": self.all_phi_trivial,
        }


def _checked_order(external: dict, key: str) -> int:
    try:
        order = _exact_int(external[key])
    except ValueError:
        order = 0
    if order < 1:
        raise ValueError(f"external {key} must be an integer >= 1, got {external[key]!r}")
    return order


def verify_main_theorem(
    curve: WeierstrassCurve,
    p: int,
    *,
    external: dict | None = None,
    label: str | None = None,
) -> EulerLedger:
    """Gather the ledger for (curve, p): Tate's data over S, the per-place
    orders, the undecided places and global torsion.  The ledger derives the
    rest, every verdict included.

    ``external`` may supply globally computed orders (keys ``selmer_order``
    and ``restricted_order``, each an exact integer >= 1, else ValueError)
    to evaluate the global inequality; without both it is "not evaluated".
    """
    check_p(p)  # before factoring the discriminant, which may take long
    if external is not None:
        external = {key: _checked_order(external, key) for key in EXTERNAL_ORDERS if key in external}
    # tate_local's memo answers at p when p is already a bad prime
    local_data = dict(sorted({**local_data_for_bad_primes(curve), p: tate_local(curve, p)}.items()))

    orders = [assemble_local_orders(curve, Place.real(), p)]
    undecided: list[str] = []
    for ell in local_data:
        place = Place.finite(ell)
        try:
            orders.append(assemble_local_orders(curve, place, p))
        except PrecisionExhausted as exc:
            undecided.append(f"place {place}: {exc}")
    return EulerLedger(curve, p, local_data, orders, global_torsion_order(curve, p), undecided, external, label)
