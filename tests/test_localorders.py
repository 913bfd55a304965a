"""Per-place order computations: division polynomials, local torsion, the
six-order assembly and its forced identities."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa import localorders
from tamagawa.curves import (
    FiniteFieldCurve,
    FiniteFieldPoint,
    SingularCurveError,
    WeierstrassCurve,
    count_p_torsion_mod,
)
from tamagawa.localorders import (
    InconsistentLocalData,
    LocalSelmerOrders,
    Place,
    TorsionPolynomials,
    _y_squareness_poly,
    assemble_local_orders,
    division_polynomial,
    local_kummer_order,
    local_torsion_order,
)
from tamagawa.padic import IntegerPolynomial, _is_prime, find_roots_padic, value_is_square_at_root
from tamagawa.tate import KodairaType, LocalData, tate_local


def test_division_polynomial_short_model():
    # y^2 = x^3 + ax + b: psi_3 = 3x^4 + 6ax^2 + 12bx - a^2
    for a, b in [(2, 3), (-1, 0), (0, 1), (5, -7)]:
        try:
            E = WeierstrassCurve(0, 0, 0, a, b)
        except Exception:
            continue
        assert division_polynomial(E, 3) == IntegerPolynomial([-a * a, 12 * b, 6 * a, 0, 3])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_division_polynomial_degree_and_lead(p):
    E = WeierstrassCurve(1, 0, 1, 4, -6)
    psi = division_polynomial(E, p)
    assert psi.degree == (p * p - 1) // 2
    assert psi.coeffs[-1] == p


def test_division_polynomial_cap():
    """2, odd composites and primes above P_MAX = 31 raise; the odd primes
    up to the cap are built (see the degree-and-lead test)."""
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    for p in (2, 9, 33, 37):
        with pytest.raises(ValueError, match="odd prime <= 31"):
            division_polynomial(E, p)


def _good_primes_below(curve: WeierstrassCurve, bound: int, p: int) -> list[int]:
    return [q for q in range(3, bound, 2) if q != p and _is_prime(q) and curve.discriminant % q]


@pytest.mark.parametrize("p", [11, 13])
def test_division_polynomial_vanishes_at_points_of_order_p(p):
    """Independent of the recurrence: at good l < 200 where p | #E~(F_l),
    brute-force the points of exact order p on the reduction and check that
    psi_p mod l vanishes at each of their x-coordinates."""
    checked = 0
    for E in (WeierstrassCurve(0, -1, 1, -10, -20), WeierstrassCurve(0, 0, 1, -1, 0)):
        psi = division_polynomial(E, p)
        for ell in _good_primes_below(E, 200, p):
            red = FiniteFieldCurve(E, ell)
            if red.order() % p:
                continue
            xs = {pt.x for pt in red.points() if not pt.is_infinity and red.multiply(p, pt).is_infinity}
            assert xs, (p, ell)
            assert all(psi(x) % ell == 0 for x in xs), (p, ell)
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("p, extra", [(11, ("0,-1,1,-7,10", 353)), (13, ("0,0,1,-38,90", 859))])
def test_local_torsion_matches_reduction_oracle_at_larger_p(p, extra):
    """At good l != p, E(Q_l)[p] is the p-torsion of the reduction, counted
    by brute force.  11a1 at every good l < 200 meets the counts 1 and p; the
    CM curve in ``extra`` (121b1 at p = 11, 361a1 at p = 13) has full
    p-torsion mod a prime l = 1 mod p, the count p^2."""
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    counts = []
    for ell in _good_primes_below(E, 200, p):
        count = local_torsion_order(E, Place.finite(ell), p)
        assert count == count_p_torsion_mod(E, ell, p), (p, ell)
        counts.append(count)
    assert {1, p} <= set(counts)
    curve, ell = extra
    cm = WeierstrassCurve(*map(int, curve.split(",")))
    assert local_torsion_order(cm, Place.finite(ell), p) == count_p_torsion_mod(cm, ell, p) == p * p


def test_three_torsion_root_matches_group_law_oracle():
    # (0, 0) has order 3 on y^2 + y = x^3; x = 0 must be a division-poly root
    E = WeierstrassCurve(0, 0, 1, 0, 0)
    psi = division_polynomial(E, 3)
    assert psi(0) == 0
    red = FiniteFieldCurve(E, 7)
    pt = FiniteFieldPoint(0, 0)
    assert red.on_curve(pt)
    assert red.multiply(3, pt).is_infinity
    assert not red.multiply(2, pt).is_infinity


def test_local_torsion_real_place():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    for p in (3, 5, 7):
        assert local_torsion_order(E, Place.real(), p) == p


def test_local_torsion_finite_examples():
    E1 = WeierstrassCurve(0, 0, 0, 1, 0)
    assert local_torsion_order(E1, Place.finite(7), 3) == 1
    assert local_torsion_order(E1, Place.finite(7), 3) == count_p_torsion_mod(E1, 7, 3)
    E2 = WeierstrassCurve(0, 0, 1, 0, 0)
    assert local_torsion_order(E2, Place.finite(5), 3) == 3
    assert local_torsion_order(E2, Place.finite(5), 3) == count_p_torsion_mod(E2, 5, 3)
    # full p-torsion over Q_11 on the Tate curve side
    E3 = WeierstrassCurve(0, -1, 1, -10, -20)
    assert local_torsion_order(E3, Place.finite(11), 5) == 25


def test_local_kummer_rules():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    assert local_kummer_order(E, Place.real(), 3, 3) == 1
    assert local_kummer_order(E, Place.finite(7), 3, 1) == 1
    assert local_kummer_order(E, Place.finite(3), 3, 1) == 3
    assert local_kummer_order(E, Place.finite(5), 5, 5) == 25


def test_assemble_good_reduction_away_from_p():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    o = assemble_local_orders(E, Place.finite(7), 3)
    t = o.torsion_order
    assert (o.torsion_order, o.kummer_order, o.phi_p, o.relaxed_order, o.restricted_order, o.tt_p) == (t, t, 1, t, t, 1)


def test_assemble_real_place():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    o = assemble_local_orders(E, Place.real(), 3)
    assert (o.torsion_order, o.kummer_order, o.phi_p, o.relaxed_order, o.restricted_order, o.tt_p) == (3, 1, 1, 1, 1, 1)


def test_assemble_split_multiplicative_11a1():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    o = assemble_local_orders(E, Place.finite(11), 5)
    assert o.kummer_order == 25
    assert o.phi_p == 5
    assert o.relaxed_order == 125
    assert o.restricted_order == 5
    assert o.tt_p == 5


def test_assemble_at_p_gains_kummer_factor():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    o = assemble_local_orders(E, Place.finite(3), 3)
    assert o.kummer_order == 3 * o.torsion_order


def test_local_identity_chain(corpus):
    from tamagawa.euler import build_S, local_data_for_bad_primes

    for rec in corpus[:12]:
        E = rec.curve()
        bad = local_data_for_bad_primes(E)
        for p in (3, 5):
            for place in build_S(E, p, bad_data=bad):
                o = assemble_local_orders(
                    E, place, p,
                    local_data=None if place.is_real else bad.get(place.prime),
                )
                assert o.relaxed_order == o.kummer_order * o.phi_p
                assert o.kummer_order == o.restricted_order * o.phi_p
                assert o.relaxed_order * o.restricted_order == o.kummer_order**2
                assert o.restricted_order <= o.kummer_order <= o.relaxed_order


def test_phi_p_via_independent_route(corpus):
    """Eq-style identity with phi_p recomputed from the raw Tamagawa number
    rather than the invariant factors."""
    for rec in corpus[:15]:
        E = rec.curve()
        for row in rec.local_data:
            data = tate_local(E, row.prime)
            for p in (3, 5, 7):
                o = assemble_local_orders(E, Place.finite(row.prime), p, local_data=data)
                c_route = p if data.c % p == 0 else 1
                assert o.relaxed_order // o.kummer_order == c_route


def test_good_primes_of_one_curve_build_psi_once(monkeypatch):
    """Four good primes of one curve (Tate's u = 1 at each) share the
    memoized psi_p of the input model, and count as on the minimal model."""
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    built = []
    real_division = localorders.division_polynomial
    monkeypatch.setattr(localorders, "division_polynomial", lambda model, p: built.append((model, p)) or real_division(model, p))
    for ell in (3, 7, 13, 31):
        data = tate_local(E, ell)
        assert data.transformation.u == 1
        expected = 1 + 2 * sum(
            value_is_square_at_root(_y_squareness_poly(data.minimal_model), root)
            for root in find_roots_padic(real_division(data.minimal_model, 5), ell)
        )
        assert local_torsion_order(E, Place.finite(ell), 5) == expected
    assert built == [(E, 5)]


def test_memo_checks_p_before_the_lookup():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    assert TorsionPolynomials.of(E, 5) is TorsionPolynomials.of(E, 5)
    for p in (5.0, "5", True):
        with pytest.raises(ValueError, match="odd prime <= 31"):
            TorsionPolynomials.of(E, p)


def test_memo_holds_at_most_its_bound():
    for a6 in range(1, 21):
        E = WeierstrassCurve(0, 0, 1, -1, a6)
        TorsionPolynomials.of(E, 3)
        assert localorders._build.cache_info().currsize <= localorders._MEMO_SIZE
    assert localorders._build.cache_info().currsize == localorders._MEMO_SIZE


def test_inconsistent_local_data_detected():
    # torsion at a good prime is 1, so a fabricated nontrivial Phi[p] cannot
    # divide the Kummer order and must be flagged
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    honest = tate_local(E, 7)
    fake = LocalData(
        prime=7,
        minimal_model=honest.minimal_model,
        transformation=honest.transformation,
        vdelta=4,
        kodaira=KodairaType("IV"),
        c=3,
        split=None,
    )
    with pytest.raises(InconsistentLocalData, match="inconsistent local data"):
        assemble_local_orders(E, Place.finite(7), 3, local_data=fake)


def test_local_orders_violating_identities_rejected():
    # relaxed, restricted and tt_p are derived, so only phi_p | kummer can fail
    o = LocalSelmerOrders(Place.finite(5), 25, 125, 5)
    assert (o.relaxed_order, o.restricted_order, o.tt_p) == (625, 25, 5)
    assert list(o.serialize()) == ["place", "torsion", "kummer", "phi_p", "relaxed", "restricted", "tt_p"]
    assert list(o.serialize().values()) == [5, 25, 125, 5, 625, 25, 5]
    with pytest.raises(InconsistentLocalData, match="phi_p = 5 does not divide the Kummer order 3"):
        LocalSelmerOrders(Place.finite(7), 3, 3, 5)


def test_torsion_count_outside_allowed_orders_rejected(monkeypatch):
    # two valid roots give 1 + 2*2 = 5 points, not one of 1, 3, 9 for p = 3
    monkeypatch.setattr(localorders, "find_roots_padic", lambda f, ell: [None, None])
    monkeypatch.setattr(localorders, "value_is_square_at_root", lambda h, root: True)
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    with pytest.raises(InconsistentLocalData, match="torsion count 5"):
        local_torsion_order(E, Place.finite(7), 3)


def test_place_ordering_and_serialization():
    places = [Place.finite(11), Place.real(), Place.finite(3)]
    assert sorted(places) == [Place.real(), Place.finite(3), Place.finite(11)]
    assert Place.real().serialize() == "real"
    assert Place.finite(3).serialize() == 3
    assert str(Place.real()) == "oo"


def _division_polynomial_reference(curve: WeierstrassCurve, p: int) -> IntegerPolynomial:
    """Reference: psi_p built with IntegerPolynomial operators and powers of x."""
    b2, b4, b6, b8 = curve.b_invariants
    x = IntegerPolynomial([0, 1])
    one = IntegerPolynomial([1])
    psi3 = 3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8 * one
    if p == 3:
        return psi3
    F = 4 * x**3 + b2 * x**2 + 2 * b4 * x + b6 * one
    omega4 = (
        2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3 + 10 * b8 * x**2
        + (b2 * b8 - b4 * b6) * x + (b4 * b8 - b6 * b6) * one
    )
    psi5 = omega4 * F**2 - psi3**3
    if p == 5:
        return psi5
    return psi5 * psi3**3 - F**2 * omega4**3


@settings(max_examples=60, deadline=None)
@given(
    ainvs=st.tuples(*[st.integers(-10**4, 10**4)] * 5),
    p=st.sampled_from([3, 5, 7]),
)
def test_division_polynomial_matches_operator_reference(ainvs, p):
    try:
        E = WeierstrassCurve(*ainvs)
    except SingularCurveError:
        assume(False)
    assert division_polynomial(E, p) == _division_polynomial_reference(E, p)


def _nonsingular_p_torsion(data: LocalData, p: int) -> int:
    """#E~_ns(F_l)[p] from the reduction type: l - 1 points for split and
    l + 1 for non-split multiplicative reduction (both cyclic), l for
    additive (the additive group), and a point count at good reduction."""
    ell = data.prime
    if data.kodaira.family == "I0":
        return count_p_torsion_mod(data.minimal_model, ell, p)
    if data.kodaira.is_multiplicative:
        n = ell - 1 if data.split else ell + 1
    else:
        n = ell
    return p if n % p == 0 else 1


def test_local_torsion_bounded_by_reduction_oracle(corpus):
    """0 -> E_0 -> E -> Phi -> 0 with E_1 free of p-torsion: E_0[p] embeds
    in E~_ns(F_l)[p], onto it when l != p (E_1 is then p-divisible), and
    E[p]/E_0[p] embeds in Phi[p].  So #E~_ns[p] | torsion | #E~_ns[p] * #Phi[p]
    for l != p, and only the upper divisibility at l = p."""
    from tamagawa.euler import build_S, local_data_for_bad_primes

    checked = 0
    for rec in corpus:
        E = rec.curve()
        bad = local_data_for_bad_primes(E)
        for p in (3, 5, 7):
            for place in build_S(E, p, bad_data=bad):
                if place.is_real:
                    continue
                ell = place.prime
                data = bad.get(ell) or tate_local(E, ell)
                torsion = local_torsion_order(E, place, p, local_data=data)
                e0 = _nonsingular_p_torsion(data, p)
                bound = e0 * data.phi_arithmetic.p_torsion_order(p)
                assert bound % torsion == 0, (rec.label, p, ell, torsion, e0, bound)
                if ell != p:
                    assert torsion % e0 == 0, (rec.label, p, ell, torsion, e0)
                checked += 1
    assert checked == 606
