"""Global bookkeeping: the set S, Euler-characteristic products over S, and
the two-sided verification of the order identities.

The left side of the headline identity is assembled from torsion and Kummer
orders (with the component-group structure entering through the torsor
duality); the right side is recomputed purely from the Tamagawa numbers
returned by the reduction-type machine.  Agreement is a test, not a
definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .curves import FiniteFieldCurve, WeierstrassCurve
from .localorders import (
    InconsistentLocalData,
    LocalSelmerOrders,
    Place,
    TorsionPolynomials,
    assemble_local_orders,
    check_p,
)
from .padic import PrecisionExhausted, _is_prime, prime_divisors, rational_roots
from .tate import LocalData, tate_local

__all__ = [
    "EulerLedger",
    "build_S",
    "global_torsion_order",
    "chi_selmer",
    "euler_factor",
    "verify_main_theorem",
]


def local_data_for_bad_primes(curve: WeierstrassCurve) -> dict[int, LocalData]:
    """Tate data at every prime of bad reduction (of the minimal model)."""
    out: dict[int, LocalData] = {}
    for ell in prime_divisors(curve.discriminant.numerator):
        data = tate_local(curve, ell)
        if data.vdelta > 0:
            out[ell] = data
    return out


def build_S(curve: WeierstrassCurve, p: int, *, bad_data: dict[int, LocalData] | None = None) -> list[Place]:
    """The real place, the prime p, and every prime of bad reduction,
    deduplicated and sorted."""
    check_p(p)
    bad = bad_data if bad_data is not None else local_data_for_bad_primes(curve)
    primes = sorted(set(bad) | {p})
    return [Place.real()] + [Place.finite(ell) for ell in primes]


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
    y-quadratic has a rational solution, on the memoized polynomials of
    ``curve`` (:meth:`TorsionPolynomials.of`).
    """
    check_p(p)
    disc_num = int(abs(curve.discriminant.numerator))
    screened = 0
    q = 3
    while screened < 3 and q < 200:
        if _is_prime(q) and q != p and disc_num % q != 0:
            if FiniteFieldCurve(curve, q).order() % p != 0:
                return 1
            screened += 1
        q += 2
    polys = TorsionPolynomials.of(curve, p)
    count = 1 + 2 * sum(_is_rational_square(Fraction(polys.g(x0))) for x0 in rational_roots(polys.psi))
    if count not in (1, p):
        raise InconsistentLocalData(f"global p-torsion {count} impossible over Q")
    return count


def chi_selmer(orders: list[LocalSelmerOrders], global_torsion: int) -> Fraction:
    """The Euler-characteristic product with the classical local conditions:
    (#H^0(Q)/#H^0(Q)) * prod over S of kummer/torsion.  Truncation to S is
    exact because good-reduction factors away from p equal 1."""
    chi = Fraction(global_torsion, global_torsion)
    for o in orders:
        chi *= Fraction(o.kummer_order, o.torsion_order)
    return chi


def chi_relaxed(orders: list[LocalSelmerOrders], global_torsion: int) -> Fraction:
    """Same product with the relaxed local conditions (relaxed = kummer * tt_p)."""
    return chi_selmer(orders, global_torsion) * math.prod(o.tt_p for o in orders)


def euler_factor(curve: WeierstrassCurve, ell: int, p: int) -> Fraction:
    """kummer/torsion at a finite place; equals 1 at good places away from p
    (the truncation-soundness check samples this)."""
    place = Place.finite(ell)
    o = assemble_local_orders(curve, place, p)
    return Fraction(o.kummer_order, o.torsion_order)


@dataclass
class EulerLedger:
    """Everything the global verification produced for one (curve, p)."""

    curve: WeierstrassCurve
    p: int
    S: list[Place]
    orders: list[LocalSelmerOrders]
    local_data: dict[int, LocalData]
    global_torsion: int
    chi_selmer: Fraction | None
    chi_relaxed: Fraction | None
    mt_lhs: Fraction | None
    mt_rhs: int
    verdicts: dict[str, object]
    undecided: list[str] = field(default_factory=list)
    all_phi_trivial: bool = False
    label: str | None = None

    @property
    def passed(self) -> bool:
        if self.undecided:
            return False
        return all(v is True for k, v in self.verdicts.items() if isinstance(v, bool))

    def to_record(self) -> dict:
        return {
            "curve": list(self.curve.integer_ainvs()),
            "label": self.label,
            "p": self.p,
            "S": [pl.serialize() for pl in self.S],
            "global_torsion": self.global_torsion,
            "local_data": [self.local_data[ell].serialize() for ell in sorted(self.local_data)],
            "places": [o.serialize() for o in self.orders],
            "chi_selmer": None if self.chi_selmer is None else str(self.chi_selmer),
            "chi_relaxed": None if self.chi_relaxed is None else str(self.chi_relaxed),
            "mt_lhs": None if self.mt_lhs is None else str(self.mt_lhs),
            "mt_rhs": self.mt_rhs,
            "verdicts": dict(self.verdicts),
            "undecided": list(self.undecided),
            "all_phi_trivial": self.all_phi_trivial,
        }


def verify_main_theorem(
    curve: WeierstrassCurve,
    p: int,
    *,
    external: dict | None = None,
    label: str | None = None,
) -> EulerLedger:
    """Build the full ledger for (curve, p): S, per-place orders, both Euler
    characteristics, and the two-sided product identity.

    ``external`` may supply globally computed orders (keys ``selmer_order``
    and ``restricted_order``) to evaluate the global inequality; without
    them that verdict is reported as "not evaluated".
    """
    check_p(p)  # before factoring the discriminant, which may take long
    bad = local_data_for_bad_primes(curve)
    S = build_S(curve, p, bad_data=bad)
    ldmap = dict(bad)
    if p not in ldmap:
        ldmap[p] = tate_local(curve, p)

    orders: list[LocalSelmerOrders] = []
    undecided: list[str] = []
    for place in S:
        if place.is_real:
            orders.append(assemble_local_orders(curve, place, p))
            continue
        try:
            orders.append(assemble_local_orders(curve, place, p, local_data=ldmap[place.prime]))
        except PrecisionExhausted as exc:
            undecided.append(f"place {place}: {exc}")

    g = global_torsion_order(curve, p)

    # right side: only the Tamagawa numbers from the reduction-type machine
    mt_rhs = math.prod(p if data.c % p == 0 else 1 for data in ldmap.values())

    verdicts: dict[str, object] = {}
    if undecided:
        chi_s = chi_r = lhs = None
        for key in ("euler_characteristic_is_one", "main_identity", "square_chain_identity", "local_identities"):
            verdicts[key] = "undecided"
    else:
        chi_s = chi_selmer(orders, g)
        chi_r = chi_relaxed(orders, g)
        lhs = chi_r / chi_s
        verdicts["euler_characteristic_is_one"] = chi_s == 1
        verdicts["main_identity"] = lhs == mt_rhs
        relaxed_total = math.prod(o.relaxed_order for o in orders)
        restricted_total = math.prod(o.restricted_order for o in orders)
        verdicts["square_chain_identity"] = relaxed_total == restricted_total * mt_rhs**2
        verdicts["local_identities"] = all(
            o.relaxed_order == o.kummer_order * o.phi_p
            and o.kummer_order == o.restricted_order * o.phi_p
            and o.relaxed_order * o.restricted_order == o.kummer_order**2
            and o.restricted_order <= o.kummer_order <= o.relaxed_order
            for o in orders
        )

    if external and "selmer_order" in external and "restricted_order" in external:
        sel = int(external["selmer_order"])
        res = int(external["restricted_order"])
        # non-strict on purpose: when every Phi[p] is trivial the three
        # global groups can coincide, so strictness cannot hold universally
        verdicts["global_inequality"] = sel <= res * mt_rhs
    else:
        verdicts["global_inequality"] = "not evaluated"

    return EulerLedger(
        curve=curve,
        p=p,
        S=S,
        orders=orders,
        local_data=dict(sorted(ldmap.items())),
        global_torsion=g,
        chi_selmer=chi_s,
        chi_relaxed=chi_r,
        mt_lhs=lhs,
        mt_rhs=mt_rhs,
        verdicts=verdicts,
        undecided=undecided,
        all_phi_trivial=mt_rhs == 1,
        label=label,
    )
