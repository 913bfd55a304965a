"""Per-place order computations: division polynomials, local torsion, the
six-order assembly and its forced identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamagawa import localorders
from tamagawa.curves import (
    FiniteFieldCurve,
    FiniteFieldPoint,
    SingularCurveError,
    WeierstrassCurve,
    _two_torsion_cubic,
    count_p_torsion_mod,
    transform,
)
from tamagawa.localorders import (
    InconsistentLocalData,
    LocalSelmerOrders,
    Place,
    assemble_local_orders,
    certified_psi,
    division_polynomial,
    local_torsion_order,
)
from tamagawa.padic import (
    IntegerPolynomial,
    SquarefreePolynomial,
    _is_prime,
    find_roots_padic,
    value_is_square_at_root,
)
from tamagawa.tate import KodairaType, LocalData, tate_local

from oracles import X, as_poly, expand, on_curve


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
    assert on_curve(red, pt)
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
    # LocalSelmerOrders(place, p, torsion, phi_p) derives the Kummer order
    assert LocalSelmerOrders(Place.real(), 3, 3, 1).kummer_order == 1
    assert LocalSelmerOrders(Place.finite(7), 3, 1, 1).kummer_order == 1
    assert LocalSelmerOrders(Place.finite(7), 3, 3, 1).kummer_order == 3
    assert LocalSelmerOrders(Place.finite(3), 3, 1, 1).kummer_order == 3
    assert LocalSelmerOrders(Place.finite(5), 5, 5, 1).kummer_order == 25


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
    from tamagawa.euler import verify_main_theorem

    for rec in corpus[:12]:
        E = rec.curve()
        for p in (3, 5):
            ledger = verify_main_theorem(E, p)
            for place in ledger.S:
                o = assemble_local_orders(E, place, p)
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
                o = assemble_local_orders(E, Place.finite(row.prime), p)
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
            value_is_square_at_root(_two_torsion_cubic(data.minimal_model), root)
            for root in find_roots_padic(real_division(data.minimal_model, 5), ell)
        )
        assert local_torsion_order(E, Place.finite(ell), 5) == expected
    assert built == [(E, 5)]


def test_memo_checks_p_before_the_lookup():
    """The memo keys on the type of p, so 5.0, "5" and True miss the entry
    of 5, reach check_p and raise; a raise caches nothing."""
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    psi = certified_psi(E, 5)
    for p in (5.0, "5", True):
        with pytest.raises(ValueError, match="odd prime <= 31"):
            certified_psi(E, p)
    assert certified_psi.cache_info().hits == 0 and certified_psi.cache_info().currsize == 1
    assert certified_psi(E, 5) is psi


def test_memo_holds_at_most_its_bound():
    for a6 in range(1, 21):
        E = WeierstrassCurve(0, 0, 1, -1, a6)
        certified_psi(E, 3)
        assert certified_psi.cache_info().currsize <= localorders._MEMO_SIZE
    assert certified_psi.cache_info().currsize == localorders._MEMO_SIZE


def test_inconsistent_local_data_detected(monkeypatch):
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
    monkeypatch.setattr(localorders, "tate_local", lambda curve, ell: fake)
    with pytest.raises(InconsistentLocalData, match="inconsistent local data"):
        assemble_local_orders(E, Place.finite(7), 3)


def test_orders_at_a_place_read_tate_at_that_prime():
    # 14a1 at p = 3: Tate's data at 7 read at the place 2 would give phi_p 3,
    # relaxed 9 and restricted 1; at 2 they are 1, 3 and 3
    E = WeierstrassCurve(1, 0, 1, 4, -6)
    o = assemble_local_orders(E, Place.finite(2), 3)
    assert (o.phi_p, o.relaxed_order, o.restricted_order) == (1, 3, 3)


def test_torsion_reads_tate_of_its_own_model():
    # 11a1 counts 25 at 11 for p = 5; 11a3, and 11a3 scaled by u = 11, count
    # 5 there, so Tate's data of either model read for 11a1 would show
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    assert local_torsion_order(E, Place.finite(11), 5) == 25
    a3 = WeierstrassCurve(0, -1, 1, 0, 0)
    for other in (transform(a3, (Fraction(1, 11), 0, 0, 0)), a3):
        assert local_torsion_order(other, Place.finite(11), 5) == 5


def test_local_orders_violating_identities_rejected():
    # relaxed, restricted and tt_p are derived, so only phi_p | kummer can fail
    o = LocalSelmerOrders(Place.finite(5), 5, 25, 5)  # Kummer order 5 * 25 at l = p
    assert (o.relaxed_order, o.restricted_order, o.tt_p) == (625, 25, 5)
    assert list(o.serialize()) == ["place", "torsion", "kummer", "phi_p", "relaxed", "restricted", "tt_p"]
    assert list(o.serialize().values()) == [5, 25, 125, 5, 625, 25, 5]
    with pytest.raises(InconsistentLocalData, match="phi_p = 5 does not divide the Kummer order 3"):
        LocalSelmerOrders(Place.finite(7), 5, 3, 5)


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
    """Reference: psi_p from its closed forms in sympy's polynomial
    arithmetic, which shares nothing with the list kernels of
    ``division_polynomial``."""
    b2, b4, b6, b8 = curve.b_invariants
    x = X
    psi3 = 3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8
    if p == 3:
        return expand(psi3)
    F = 4 * x**3 + b2 * x**2 + 2 * b4 * x + b6
    omega4 = (
        2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3 + 10 * b8 * x**2
        + (b2 * b8 - b4 * b6) * x + (b4 * b8 - b6 * b6)
    )
    psi5 = omega4 * F**2 - psi3**3
    if p == 5:
        return expand(psi5)
    return expand(psi5 * psi3**3 - F**2 * omega4**3)


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
    if data.kodaira.family == "In":
        n = ell - 1 if data.split else ell + 1
    else:
        n = ell
    return p if n % p == 0 else 1


def test_local_torsion_bounded_by_reduction_oracle(corpus):
    """0 -> E_0 -> E -> Phi -> 0 with E_1 free of p-torsion: E_0[p] embeds
    in E~_ns(F_l)[p], onto it when l != p (E_1 is then p-divisible), and
    E[p]/E_0[p] embeds in Phi[p].  So #E~_ns[p] | torsion | #E~_ns[p] * #Phi[p]
    for l != p, and only the upper divisibility at l = p."""
    from tamagawa.euler import verify_main_theorem

    checked = 0
    for rec in corpus:
        E = rec.curve()
        for p in (3, 5, 7):
            ledger = verify_main_theorem(E, p)
            for place in ledger.S:
                if place.is_real:
                    continue
                ell = place.prime
                data = ledger.local_data[ell]
                torsion = local_torsion_order(E, place, p)
                e0 = _nonsingular_p_torsion(data, p)
                bound = e0 * math.prod(math.gcd(d, p) for d in data.phi_arithmetic)
                assert bound % torsion == 0, (rec.label, p, ell, torsion, e0, bound)
                if ell != p:
                    assert torsion % e0 == 0, (rec.label, p, ell, torsion, e0)
                checked += 1
    assert checked == 606


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@settings(max_examples=40, deadline=None)
@given(
    ainvs=st.tuples(*[st.integers(-30, 30)] * 5),
    ell=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(0, 2),
    rst=st.tuples(*[st.integers(-9, 9)] * 3),
)
def test_translated_psi_is_the_psi_of_the_translated_model(p, ainvs, ell, k, rst):
    """On a model M of a random curve, shifted by (r, s, t) and scaled by
    u = 1/l^k, the memoized psi_p of M moved into the frame of Tate's
    l-minimal model is that model's own certified psi_p, and g picks up u^6."""
    try:
        E = WeierstrassCurve(*ainvs)
    except SingularCurveError:
        assume(False)
    M = transform(E, (Fraction(1, ell**k), *rst))
    data = tate_local(M, ell)
    u, r = data.transformation.u, data.transformation.r
    moved = certified_psi(M, p).moved(u, r)
    assert isinstance(moved, SquarefreePolynomial)
    assert moved == certified_psi(data.minimal_model, p), (ainvs, ell, k, rst, p)
    assert _two_torsion_cubic(M).compose_affine(u * u, r) == expand(u**6 * as_poly(_two_torsion_cubic(data.minimal_model)))
    assert certified_psi(M, p).moved(1, 0) is certified_psi(M, p)


@settings(max_examples=200, deadline=None)
@example(ainvs=(0, -1, 1, -10, -20), p=3, ell=None, k=0, rst=(0, 0, 0))  # 11a1: one such root
@given(
    ainvs=st.tuples(*[st.integers(-30, 30)] * 5),
    p=st.sampled_from([3, 5, 7]),
    ell=st.sampled_from([2, 3, 5, 7, None]),  # None: l = p
    k=st.integers(0, 2),
    rst=st.tuples(*[st.integers(-9, 9)] * 3),
)
def test_no_root_of_psi_outside_z_ell_carries_a_point(ainvs, p, ell, k, rst):
    """Why counting on Z_l is enough: in the frame of Tate's l-minimal model
    a root x of psi_p with v(x) < 0 would give a point of E_1(Q_l)[p], which
    is trivial.  Such an x is 1/y for a root y = 0 mod l of the reversed
    psi_p, y^n psi_p(1/y), and g(x) is a square iff y^4 g(1/y) is; at none
    of those roots is it one.  At l != p the lead of psi_p is a unit, so
    such roots occur at l = p only.  The model is a random curve shifted by
    (r, s, t) and scaled by u = 1/l^k, as in the frame test above."""
    ell = p if ell is None else ell
    try:
        E = WeierstrassCurve(*ainvs)
    except SingularCurveError:
        assume(False)
    M = transform(E, (Fraction(1, ell**k), *rst))
    data = tate_local(M, ell)
    psi = certified_psi(M, p).moved(data.transformation.u, data.transformation.r)
    g = _two_torsion_cubic(data.minimal_model)
    reversed_psi = IntegerPolynomial(psi.coeffs[::-1])
    reversed_g = IntegerPolynomial([0, *g.coeffs[::-1]])  # y^4 g(1/y)
    for root in find_roots_padic(reversed_psi, ell):
        if root.approx(1) % ell == 0:
            assert not value_is_square_at_root(reversed_g, root), (ainvs, p, ell, k, rst)


def test_count_in_the_singular_frame_matches_the_untranslated_psi(corpus, monkeypatch):
    """At every bad place of every corpus curve, for p in {3, 5, 7, 11}, the
    count in the frame of Tate's minimal model, on the input's psi_p moved
    there, equals the count on the minimal model's psi_p built directly, and
    in that frame x^(p(p-1)/2) divides psi_p mod l when l != p."""
    from tamagawa.euler import local_data_for_bad_primes

    counted = []
    monkeypatch.setattr(localorders, "find_roots_padic", lambda f, ell: counted.append(f) or find_roots_padic(f, ell))
    moved = 0
    for rec in corpus:
        E = rec.curve()
        for ell, data in sorted(local_data_for_bad_primes(E).items()):
            moved += data.transformation.r % ell != 0
            g = _two_torsion_cubic(data.minimal_model)
            for p in (3, 5, 7, 11):
                roots = find_roots_padic(division_polynomial(data.minimal_model, p).squarefree_part(), ell)
                direct = 1 + 2 * sum(value_is_square_at_root(g, root) for root in roots)
                counted.clear()
                count = local_torsion_order(E, Place.finite(ell), p)
                assert count == direct, (rec.label, ell, p)
                if ell != p:
                    (psi,) = counted
                    assert all(c % ell == 0 for c in psi.coeffs[: p * (p - 1) // 2]), (rec.label, ell, p)
    assert moved > 0
