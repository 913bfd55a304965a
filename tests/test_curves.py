"""Weierstrass models: invariants, transformations, finite-field oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa.curves import (
    INFINITY,
    FiniteFieldCurve,
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    count_p_torsion_mod,
    parse_ainvs,
    transform,
)
from tamagawa.tate import tate_local

from oracles import negate, on_curve


def test_invariants_examples():
    E = WeierstrassCurve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
    # short-model formula as an independent evaluation
    assert E.discriminant == -16 * (4 * 0**3 + 27 * 1**2) == -432
    assert E.j_invariant == 0
    E2 = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x
    assert E2.discriminant == -16 * (4 * (-1) ** 3) == 64
    assert E2.j_invariant == 1728
    E3 = WeierstrassCurve(0, -1, 1, -10, -20)
    assert E3.discriminant == -(11**5)


def test_standard_identities_hold():
    rng = random.Random(10)
    for _ in range(100):
        try:
            E = WeierstrassCurve(*(rng.randint(-9, 9) for _ in range(5)))
        except SingularCurveError:
            continue
        b2, b4, b6, b8 = E.b_invariants
        assert 4 * b8 == b2 * b6 - b4 * b4
        assert 1728 * E.discriminant == E.c4**3 - E.c6**2


@settings(max_examples=100, deadline=None)
@given(ai=st.tuples(*[st.integers(-50, 50)] * 5), rst=st.tuples(*[st.integers(-9, 9)] * 3))
def test_integral_models_are_int_and_j_is_fraction(ai, rst):
    try:
        E = WeierstrassCurve(*ai)
    except SingularCurveError:
        assume(False)
    shifted = transform(E, (1, *rst))
    for model in (E, shifted):
        assert all(type(a) is int for a in model.ainvs + model.b_invariants + (model.discriminant,))
        assert model.integer_ainvs() == model.ainvs
    assert type(E.j_invariant) is Fraction and type(shifted.j_invariant) is Fraction
    assert shifted.j_invariant == E.j_invariant
    # a rescaling divides through Fraction, never through float, and lands on ints
    blown = transform(E, (Fraction(1, 2), *rst))
    assert all(type(a) is int for a in blown.ainvs)
    assert blown.discriminant == E.discriminant * 2**12


def test_singular_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)


def test_transform_identity_and_scaling():
    E = WeierstrassCurve(0, 0, 0, 0, 1)
    same = transform(E, Transformation.identity())
    assert same.ainvs == E.ainvs
    doubled = transform(E, (Fraction(1, 2), 0, 0, 0))
    assert doubled.ainvs == (0, 0, 0, 0, 64)
    assert doubled.discriminant == -432 * 4096
    assert doubled.j_invariant == E.j_invariant
    assert transform(doubled, (2, 0, 0, 0)) == E
    with pytest.raises(ValueError, match="degenerate"):
        transform(E, (0, 0, 0, 0))


@pytest.mark.parametrize("tr", [(2, 0, 0, 0), (1, Fraction(1, 2), 0, 0), (1, 0, 0, Fraction(1, 3))])
def test_transform_to_a_non_integral_model_raises(tr):
    E = WeierstrassCurve(0, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="not integral"):
        transform(E, tr)


def test_identity_transform_returns_its_input():
    """So tate_local's check that the recorded transformation reaches the
    minimal model is a comparison at a good prime, not a rebuild."""
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    assert transform(E, Transformation.identity()) is E
    assert transform(E, (Fraction(2, 2), 0, Fraction(0), 0)) is E
    assert transform(E, (1, 0, 0, 1)) is not E
    with pytest.raises(ValueError):
        transform(E, (1.0, 0, 0, 0))
    data = tate_local(E, 7)
    assert data.transformation == Transformation.identity() and data.minimal_model is E


def test_j_invariance_under_random_transformations():
    """u = 1/k with integer (r, s, t): the family that always gives an
    integral model, and whose inverse (k, -r k^2, -s k, (r s - t) k^3) does too."""
    rng = random.Random(11)
    for _ in range(100):
        try:
            E = WeierstrassCurve(*(rng.randint(-5, 5) for _ in range(5)))
        except SingularCurveError:
            continue
        k = rng.randint(1, 6)
        r, s, t = (rng.randint(-4, 4) for _ in range(3))
        E2 = transform(E, (Fraction(1, k), r, s, t))
        assert E2.j_invariant == E.j_invariant
        assert E2.discriminant == E.discriminant * k**12
        assert transform(E2, (k, -r * k * k, -s * k, (r * s - t) * k**3)) == E


def test_transformation_composition():
    E = WeierstrassCurve(1, 0, 1, 4, -6)
    t1 = Transformation(Fraction(1), Fraction(2), Fraction(1), Fraction(-3))
    t2 = Transformation(Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(5))
    assert transform(transform(E, t1), t2).ainvs == transform(E, t1.compose(t2)).ainvs


def test_from_input_clears_denominators():
    E = WeierstrassCurve.from_input(Fraction(1, 2), 0, 0, Fraction(3, 4), 1)
    assert E.ainvs == (2, 0, 0, 192, 4096)  # u = 4
    assert all(type(a) is int for a in E.ainvs)
    # same curve up to the rescaling: j must agree with j of the rational model
    a1, a4, a6 = Fraction(1, 2), Fraction(3, 4), Fraction(1)
    b2, b4, b6, b8 = a1 * a1, 2 * a4, 4 * a6, a1 * a1 * a6 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assert E.j_invariant == c4**3 / disc
    raw = WeierstrassCurve.from_input(1, 0, 0, 3, 1)  # sanity: integral passthrough
    assert raw.ainvs == (1, 0, 0, 3, 1)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1", None])
def test_constructor_rejects_inexact_coefficients(bad):
    # Fraction(0.1) has a 2^55 denominator; a float must not be rounded into a curve
    with pytest.raises(ValueError, match="not an exact rational"):
        WeierstrassCurve(bad, 0, 0, 1, 0)


def test_constructor_accepts_integral_fractions():
    E = WeierstrassCurve(Fraction(4, 2), 0, 0, 1, 0)
    assert E.ainvs == (2, 0, 0, 1, 0) and type(E.a1) is int
    assert E == WeierstrassCurve(2, 0, 0, 1, 0)


def test_constructor_points_rational_coefficients_to_from_input():
    with pytest.raises(ValueError, match="from_input"):
        WeierstrassCurve(Fraction(1, 2), 0, 0, 1, 0)


@pytest.mark.parametrize("bad", [0.1, 2.0, "3/4"])
def test_from_input_rejects_inexact_coefficients(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        WeierstrassCurve.from_input(0, 0, 0, bad, 1)


def test_parse_ainvs():
    E = parse_ainvs("0,-1,1,-10,-20")
    assert E.integer_ainvs() == (0, -1, 1, -10, -20)
    with pytest.raises(ValueError):
        parse_ainvs("1,2,3")
    with pytest.raises(ValueError):
        parse_ainvs("a,b,c,d,e")
    with pytest.raises(SingularCurveError):
        parse_ainvs("0,0,0,0,0")


def test_enumeration_counts():
    E = WeierstrassCurve(0, 0, 0, 1, 0)  # y^2 = x^3 + x
    assert FiniteFieldCurve(E, 5).order() == 4
    assert FiniteFieldCurve(E, 7).order() == 8


def test_enumeration_rejects_bad_input():
    E = WeierstrassCurve(0, -1, 1, -10, -20)  # disc = -11^5
    with pytest.raises(SingularCurveError, match="singular"):
        list(FiniteFieldCurve(E, 11).points())
    with pytest.raises(ValueError, match="odd prime"):
        list(FiniteFieldCurve(E, 2).points())
    with pytest.raises(ValueError, match="odd prime"):
        list(FiniteFieldCurve(E, 4).points())
    with pytest.raises(ValueError, match="too large"):
        list(FiniteFieldCurve(E, 100003).points())


def test_hasse_bound_on_samples():
    rng = random.Random(12)
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    for _ in range(60):
        try:
            E = WeierstrassCurve(*(rng.randint(-6, 6) for _ in range(5)))
        except SingularCurveError:
            continue
        ell = rng.choice(primes)
        if int(E.discriminant) % ell == 0:
            continue
        n = len(list(FiniteFieldCurve(E, ell).points()))
        assert (n - (ell + 1)) ** 2 <= 4 * ell


@settings(max_examples=60, deadline=None)
@given(ainvs=st.tuples(*[st.integers(-10**6, 10**6)] * 5))
def test_order_from_square_counts_matches_the_points(ainvs):
    """order() counts from a table of square counts; at every good odd
    q < 200 it equals the number of points that points() lists."""
    try:
        E = WeierstrassCurve(*ainvs)
    except SingularCurveError:
        assume(False)
    for q in range(3, 200, 2):
        if all(q % d for d in range(3, q, 2)) and E.discriminant % q:
            red = FiniteFieldCurve(E, q)
            assert red.order() == len(list(red.points())), (ainvs, q)


def test_group_law_axioms_spot_checks():
    rng = random.Random(13)
    for ell in (5, 13, 41, 97):
        E = WeierstrassCurve(1, 0, 1, 4, -6)
        if int(E.discriminant) % ell == 0:
            continue
        red = FiniteFieldCurve(E, ell)
        pts = list(red.points())
        for _ in range(25):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert red.add(red.add(P, Q), R) == red.add(P, red.add(Q, R))
            assert red.add(P, INFINITY) == P
            assert red.add(P, negate(red, P)).is_infinity
            assert on_curve(red, red.add(P, Q))


def test_count_p_torsion_examples():
    E1 = WeierstrassCurve(0, 0, 0, 1, 0)
    assert count_p_torsion_mod(E1, 7, 3) == 1
    E2 = WeierstrassCurve(0, 0, 1, 0, 0)  # y^2 + y = x^3, full 3-torsion at 7
    assert count_p_torsion_mod(E2, 7, 3) == 9
    assert count_p_torsion_mod(E2, 5, 3) == 3  # 5 != 1 (mod 3) excludes p^2


def test_p_torsion_divides_group_order_and_weil_constraint():
    rng = random.Random(14)
    primes = [5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(60):
        try:
            E = WeierstrassCurve(*(rng.randint(-5, 5) for _ in range(5)))
        except SingularCurveError:
            continue
        ell = rng.choice(primes)
        p = rng.choice([3, 5, 7])
        if int(E.discriminant) % ell == 0:
            continue
        n = FiniteFieldCurve(E, ell).order()
        t = count_p_torsion_mod(E, ell, p)
        assert t in (1, p, p * p)
        assert n % t == 0
        if t == p * p:
            assert (ell - 1) % p == 0  # Weil pairing forces mu_p into F_l
