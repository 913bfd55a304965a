"""Reduction-type machine: Kodaira types, conductor exponents, Tamagawa
numbers, component groups, minimality."""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint

from tamagawa.curves import SingularCurveError, Transformation, WeierstrassCurve, transform
from tamagawa.padic import _poly_gcd_mod_ell, _small_roots_mod, prime_divisors
from tamagawa.tate import (
    _FIBRES,
    KodairaType,
    LocalData,
    TateInvariantError,
    _Machine,
    phi_p_part_order,
    tate_local,
)

from oracles import count_points_mod


def _load_fixture_builder():
    """scripts/make_fixtures.py: the valuation-table oracle the fixtures come from."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


classify_ge5 = _load_fixture_builder().classify_ge5


def _curve_or_reject(ai) -> WeierstrassCurve:
    try:
        return WeierstrassCurve(*ai)
    except SingularCurveError:
        assume(False)


def _reduction_data(data):
    return (data.kodaira, data.vdelta, data.f, data.c, data.split)


def test_good_reduction():
    E = WeierstrassCurve(0, 0, 0, 0, 1)
    data = tate_local(E, 5)
    assert data.kodaira == KodairaType("I0")
    assert (data.f, data.c, data.m) == (0, 1, 1)
    assert math.prod(data.phi_geometric) == 1 and math.prod(data.phi_arithmetic) == 1


def test_split_multiplicative_11a1():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    data = tate_local(E, 11)
    assert data.kodaira == KodairaType("In", 5)
    assert (data.f, data.c, data.m) == (1, 5, 5)
    assert data.split is True
    assert data.phi_arithmetic == (5,)


def test_additive_small_prime_cases():
    # conductor-27 curve y^2 + y = x^3
    data = tate_local(WeierstrassCurve(0, 0, 1, 0, 0), 3)
    assert data.kodaira == KodairaType("II")
    assert (data.f, data.c) == (3, 1)
    # y^2 = x^3 + 1 at 2 and 3
    E = WeierstrassCurve(0, 0, 0, 0, 1)
    d2, d3 = tate_local(E, 2), tate_local(E, 3)
    assert d2.kodaira == KodairaType("IV") and (d2.f, d2.c) == (2, 3)
    assert d3.kodaira == KodairaType("III") and (d3.f, d3.c) == (2, 2)
    assert d2.phi_arithmetic == (3,)


def test_nonsplit_multiplicative():
    # y^2 + xy = x^3 - 36x + 10 has nonsplit I2 at 5 (from the corpus search)
    E = WeierstrassCurve(1, 0, 0, -36, 10)
    data = tate_local(E, 5)
    assert data.kodaira == KodairaType("In", 2)
    assert data.split is False
    assert data.c == 2 and data.phi_arithmetic == (2,)
    assert data.phi_geometric == (2,)


def test_split_flag_is_none_off_multiplicative_places():
    E = WeierstrassCurve(0, 0, 1, 0, 0)
    additive, good = tate_local(E, 3), tate_local(E, 5)
    assert additive.kodaira == KodairaType("II") and additive.split is None
    assert good.kodaira == KodairaType("I0") and good.split is None


def _split_flags_by_point_count(curve: WeierstrassCurve) -> list[tuple[int, bool]]:
    """(l, split) at each multiplicative place l <= 50 of ``curve``, after
    checking the flag against a count of the reduction of the minimal model:
    l - 1 (split) or l + 1 (non-split) nonsingular points, the node and O
    make l or l + 2 points."""
    flags = []
    for ell in prime_divisors(curve.discriminant):
        if ell > 50:
            break
        data = tate_local(curve, ell)
        if data.kodaira.family != "In":
            continue
        count = count_points_mod(data.minimal_model.integer_ainvs(), ell)
        assert count == (ell if data.split else ell + 2), (curve, ell, data.split, count)
        flags.append((ell, data.split))
    return flags


def test_split_flag_matches_the_point_count(corpus):
    """Brute force decides split at 2 and 3 too, where the valuation
    classifier of the fixtures stops (``classify_ge5``); the corpus has both
    outcomes at each."""
    flags = {flag for rec in corpus for flag in _split_flags_by_point_count(rec.curve())}
    assert {(2, True), (2, False), (3, True), (3, False)} <= flags


@settings(max_examples=100, deadline=None)
@given(ai=st.tuples(*[st.integers(-30, 30)] * 5))
def test_split_flag_matches_the_point_count_on_random_curves(ai):
    _split_flags_by_point_count(_curve_or_reject(ai))


def test_ogg_formula_everywhere(corpus):
    for rec in corpus:
        E = rec.curve()
        for row in rec.local_data:
            data = tate_local(E, row.prime)
            # data.f is derived from v(Delta) and m, so the fixture's conductor
            # exponent is what catches a wrong v(Delta) or m
            assert data.vdelta == row.f + data.m - 1, (rec.label, row.prime)


def test_minimality_idempotence(corpus):
    for rec in corpus[:20]:
        E = rec.curve()
        for row in rec.local_data:
            data = tate_local(E, row.prime)
            again = tate_local(data.minimal_model, row.prime)
            assert again.kodaira == data.kodaira
            assert (again.vdelta, again.f, again.c, again.m) == (data.vdelta, data.f, data.c, data.m)
            assert again.transformation == Transformation.identity() or again.minimal_model.ainvs == data.minimal_model.ainvs


def test_type_valuation_consistency(corpus):
    from tamagawa.padic import valuation

    for rec in corpus:
        E = rec.curve()
        for row in rec.local_data:
            data = tate_local(E, row.prime)
            vc4 = valuation(data.minimal_model.c4, row.prime) if data.minimal_model.c4 != 0 else 10**9
            if data.kodaira.family == "In":
                assert vc4 == 0 and data.vdelta == data.kodaira.n
            else:
                assert vc4 >= 1


def test_component_group_consistency(corpus):
    for rec in corpus:
        E = rec.curve()
        for row in rec.local_data:
            data = tate_local(E, row.prime)
            geom, arith = data.phi_geometric, data.phi_arithmetic
            assert math.prod(arith) == row.c and math.prod(geom) % row.c == 0, (rec.label, row.prime)
            assert _exponent(geom) % _exponent(arith) == 0
            for p in (3, 5, 7):
                assert phi_p_part_order(data, p) == math.prod(math.gcd(d, p) for d in arith)


def test_nonminimal_input_is_restarted():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    blown = transform(E, (Fraction(1, 11), 0, 0, 0))  # valuations shifted up by 12
    assert blown.ainvs == (0, -(11**2), 11**3, -10 * 11**4, -20 * 11**6)
    data = tate_local(blown, 11)
    assert data.kodaira == KodairaType("In", 5)
    assert data.vdelta == 5 and data.c == 5
    # recorded transformation carries the input model to the minimal one
    assert transform(blown, data.transformation).ainvs == data.minimal_model.ainvs
    assert data.transformation.u == 11


def test_phi_p_part_order():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    data = tate_local(E, 11)
    assert phi_p_part_order(data, 5) == 5
    assert phi_p_part_order(data, 3) == 1
    good = tate_local(E, 7)
    assert phi_p_part_order(good, 3) == 1
    iv = tate_local(WeierstrassCurve(0, 0, 0, 0, 1), 2)  # IV with c = 3
    assert phi_p_part_order(iv, 3) == 3
    with pytest.raises(ValueError, match="odd p"):
        phi_p_part_order(data, 2)


def test_kodaira_serialization_roundtrip():
    for kod, text in [(KodairaType("I0"), "I0"), (KodairaType("In", 5), "In:5"), (KodairaType("II*"), "II*"),
                      (KodairaType("In*", 3), "In*:3"), (KodairaType("IV"), "IV")]:
        assert kod.serialize() == text
    assert str(KodairaType("In", 5)) == "I5"
    assert str(KodairaType("In*", 3)) == "I3*"
    with pytest.raises(ValueError):
        KodairaType("In")  # needs n >= 1
    with pytest.raises(ValueError):
        KodairaType("V")


def test_localdata_serialization():
    data = tate_local(WeierstrassCurve(0, -1, 1, -10, -20), 11)
    rec = data.serialize()
    assert rec == {
        "prime": 11, "kodaira": "In:5", "vdelta": 5, "f": 1, "c": 5,
        "phi_geom": [5], "phi_arith": [5], "split": True, "m": 5,
    }


def _is_invariant_chain(factors) -> bool:
    """Whether factors are invariant factors d1 | d2 | ... with every d > 1."""
    return all(d > 1 for d in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))


def _exponent(factors) -> int:
    return factors[-1] if factors else 1


# Every c that _Machine returns for a family of index n: In is split (c = n) or
# not (2 or 1 by the parity of n); I0* has 1 plus the 0, 1 or 3 roots in F_l of
# a separable cubic; IV and IV* have 3 or 1; In* has 4 or 2.
_MACHINE_C = {
    "I0": lambda n: {1},
    "In": lambda n: {n, 2 if n % 2 == 0 else 1},
    "II": lambda n: {1},
    "III": lambda n: {2},
    "IV": lambda n: {3, 1},
    "I0*": lambda n: {1, 2, 4},
    "In*": lambda n: {4, 2},
    "IV*": lambda n: {3, 1},
    "III*": lambda n: {2},
    "II*": lambda n: {1},
}


def test_fibre_table_component_groups():
    assert set(_MACHINE_C) == set(_FIBRES)
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    for family in _FIBRES:
        for n in range(1, 21) if family in ("In", "In*") else (0,):
            kod = KodairaType(family, n)
            for c in _MACHINE_C[family](n):
                data = LocalData(11, E, Transformation.identity(), 0, kod, c, None)
                geom, arith = data.phi_geometric, data.phi_arithmetic
                assert type(geom) is tuple and _is_invariant_chain(geom), (kod, geom)
                assert type(arith) is tuple and _is_invariant_chain(arith), (kod, c, arith)
                assert math.prod(arith) == c and math.prod(geom) % c == 0, (kod, c)


@pytest.mark.parametrize("kodaira, c", [
    (KodairaType("IV"), 2), (KodairaType("III*"), 3), (KodairaType("In", 5), 2),
    (KodairaType("I0*"), 3), (KodairaType("In*", 3), 3), (KodairaType("II"), 2),
])
def test_tamagawa_number_must_divide_the_group_order(monkeypatch, kodaira, c):
    # a Tamagawa number that is no subgroup order of Phi(k_v-bar) is a
    # fall-through; at l = 3 the conductor checks ask only f >= 2 of it
    monkeypatch.setattr(_Machine, "run", lambda self: (kodaira, 12, c, None))
    with pytest.raises(TateInvariantError, match=f"c = {c} does not divide"):
        tate_local(WeierstrassCurve(0, 0, 0, 0, 1), 3)


def test_tate_rejects_bad_input():
    E = WeierstrassCurve(0, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="prime"):
        tate_local(E, 6)


def test_rescale_requires_divisible_coefficients():
    machine = _Machine(WeierstrassCurve(1, 0, 0, 0, 11**6), 11)  # 11 does not divide a1
    with pytest.raises(TateInvariantError, match="algorithm invariant violated: rescale"):
        machine.rescale()


def _check_survives_rescaling(curve, ell, k, r, s, t):
    model = transform(curve, (Fraction(1, ell**k), r, s, t))  # forces the rescale restart
    blown = tate_local(model, ell)
    assert _reduction_data(blown) == _reduction_data(tate_local(curve, ell))
    assert transform(model, blown.transformation) == blown.minimal_model


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reduction_data_survives_non_minimal_models(data):
    if data.draw(st.booleans(), label="ladder"):
        # a_i = m_i l^e_i, with e_i from d w / 6 to w + 1 for the weight w and
        # a depth d, reaches every Kodaira family at 2 and 3; draws from
        # [-30, 30] rarely get past step 6 there
        ell = data.draw(st.sampled_from([2, 3]), label="ell")
        d = data.draw(st.integers(0, 6), label="depth")
        m = data.draw(st.tuples(*[st.integers(-9, 9)] * 5), label="m")
        e = data.draw(st.tuples(*[st.integers(w * d // 6, w + 1) for w in (1, 2, 3, 4, 6)]), label="e")
        curve = _curve_or_reject(tuple(mi * ell**ei for mi, ei in zip(m, e)))
    else:
        curve = _curve_or_reject(data.draw(st.tuples(*[st.integers(-30, 30)] * 5), label="ai"))
        ell = data.draw(st.sampled_from(sorted(set(factorint(abs(curve.discriminant))) | {2, 3, 5})), label="ell")
    k = data.draw(st.integers(1, 2), label="k")
    r, s, t = data.draw(st.tuples(*[st.integers(-9, 9)] * 3), label="rst")
    _check_survives_rescaling(curve, ell, k, r, s, t)


# One small curve per Kodaira family at 2 and at 3, so that every run reaches
# each family there; the family is the one tate_local gives, not an outside oracle
_FAMILY_CURVES = [
    (2, "I0", (0, 0, 1, 0, 0)), (2, "In", (1, 0, 1, 0, 0)), (2, "II", (0, 0, 0, 0, -1)),
    (2, "III", (0, 0, 0, -1, 0)), (2, "IV", (0, 0, 0, 0, 1)), (2, "I0*", (0, 0, 0, 1, -2)),
    (2, "In*", (0, 0, 0, 1, 2)), (2, "IV*", (0, 0, 0, 0, 4)), (2, "III*", (0, -1, 0, 0, -4)),
    (2, "II*", (0, -2, 0, -4, -8)),
    (3, "I0", (0, 0, 0, 1, 0)), (3, "In", (0, 1, 0, 1, 0)), (3, "II", (0, 0, 1, 0, 0)),
    (3, "III", (0, 0, 0, 0, 1)), (3, "IV", (0, 0, 1, 0, 2)), (3, "I0*", (0, 0, 1, 6, 0)),
    (3, "In*", (1, -1, 0, 9, 0)), (3, "IV*", (0, 0, 3, 0, -9)), (3, "III*", (0, 0, 6, 0, 18)),
    (3, "II*", (0, 0, 0, 0, 243)),
]


@pytest.mark.parametrize("ell, family, ainvs", _FAMILY_CURVES, ids=[f"{e}-{f}" for e, f, _ in _FAMILY_CURVES])
def test_every_family_at_2_and_3_survives_non_minimal_models(ell, family, ainvs):
    curve = WeierstrassCurve(*ainvs)
    assert tate_local(curve, ell).kodaira.family == family
    for k, (r, s, t) in ((1, (0, 0, 0)), (1, (1, -1, 1)), (2, (-2, 1, 3))):
        _check_survives_rescaling(curve, ell, k, r, s, t)


@settings(max_examples=80, deadline=None)
@given(
    ell=st.sampled_from([5, 7, 11, 13]),
    head=st.tuples(*[st.integers(-9, 9)] * 3),
    i=st.integers(0, 4),
    j=st.integers(0, 7),
    A=st.integers(-20, 20),
    B=st.integers(-20, 20),
)
def test_tate_agrees_with_valuation_classifier(ell, head, i, j, A, B):
    # a4 = A l^i and a6 = B l^j reach every additive type at l >= 5
    curve = _curve_or_reject((*head, A * ell**i, B * ell**j))
    got = tate_local(curve, ell)
    assert (got.kodaira.serialize(), got.f, got.c, got.split) == classify_ge5(curve.integer_ainvs(), ell)


# The residue-field helpers of the machine, against brute force over F_l.


def _residue_machine(ell: int) -> _Machine:
    """A machine at l for the helpers that read only l, not the model."""
    return _Machine(WeierstrassCurve(0, 0, 0, 0, 1), ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_quadratic_helpers_match_brute_force(ell):
    # C + B Y + A Y^2 is inseparable exactly when it is A (Y - r)^2 for some
    # r, and splits exactly when it has a root; A runs over unreduced units.
    # padic._small_roots_mod answers both questions for the machine's readers
    machine = _residue_machine(ell)
    units = [A for A in range(1, 2 * ell) if A % ell]
    for A, B, C in itertools.product(units, range(ell * ell), range(ell * ell)):
        double = [r for r in range(ell) if (B + 2 * A * r) % ell == 0 and (C - A * r * r) % ell == 0]
        assert len(double) <= 1
        roots = _small_roots_mod((C, B, A), ell)
        assert (len(roots) == 1) == bool(double)
        if double:
            assert roots == double
            assert machine._double_root(C, B, A) == double[0]
            with pytest.raises(TateInvariantError, match="inseparable quadratic"):
                machine._splits(C, B, A)
        else:
            rational = any((A * y * y + B * y + C) % ell == 0 for y in range(ell))
            assert len(roots) == 2 * rational
            assert machine._splits(C, B, A) == rational
            with pytest.raises(TateInvariantError, match="no double root"):
                machine._double_root(C, B, A)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_multiple_root_matches_brute_force(ell):
    # every cubic with a unit lead mod l: monic ones, and lead 4 as in step 2
    machine = _residue_machine(ell)
    for *low, lead in itertools.product(range(ell), range(ell), range(ell), range(1, ell)):
        cubic = [*low, lead]
        value = [sum(c * r**i for i, c in enumerate(cubic)) % ell for r in range(ell)]
        slope = [sum(i * c * r ** (i - 1) for i, c in enumerate(cubic) if i) % ell for r in range(ell)]
        multiple = [r for r in range(ell) if value[r] == slope[r] == 0]
        assert len(multiple) <= 1  # a multiple root of a cubic is rational
        assert machine._multiple_root(cubic) == (multiple[0] if multiple else None), cubic


def _multiple_root_by_gcd(cubic: list[int], ell: int) -> int | None:
    """Reference: the multiple root from gcd(P, P'), the route every l took
    before the closed form at l >= 5 and the residue scan at l = 2 and 3."""
    g = _poly_gcd_mod_ell([c % ell for c in cubic], [i * c % ell for i, c in enumerate(cubic)][1:], ell)
    k = len(g) - 1
    if k == 0:
        return None
    return -g[k - 1] * pow(k, -1, ell) % ell if k % ell else -g[0] % ell


@settings(max_examples=400, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 101, 1009]),
    shape=st.sampled_from(["random", "simple", "double", "triple"]),
    data=st.data(),
)
def test_multiple_root_closed_form_matches_the_gcd_route(ell, shape, data):
    # a (T - alpha)^2 (T - beta) and a (T - alpha)^3 with a non-monic lead,
    # three distinct roots, and random cubics; every coefficient is lifted
    # by a multiple of l.  At l = 2 and 3 the scan meets the gcd route
    residue = st.integers(0, ell - 1)
    a = data.draw(st.integers(1, ell - 1))
    alpha, beta, gamma = (data.draw(residue) for _ in range(3))
    if shape == "random":
        low = [data.draw(residue) for _ in range(3)]
    else:
        if shape == "simple":
            assume(len({alpha, beta, gamma}) == 3)
        elif shape == "double":
            assume(alpha != beta)
            gamma = alpha
        else:
            beta = gamma = alpha
        e1, e2, e3 = alpha + beta + gamma, alpha * beta + beta * gamma + gamma * alpha, alpha * beta * gamma
        low = [-a * e3, a * e2, -a * e1]
    lift = data.draw(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    cubic = [c + ell * k for c, k in zip([*low, a], lift)]
    expected = _multiple_root_by_gcd(cubic, ell)
    assert _residue_machine(ell)._multiple_root(cubic) == expected
    if shape != "random":
        assert expected == (None if shape == "simple" else alpha % ell)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_singular_point_matches_brute_force(ell):
    # every residue model with singular reduction, lifted to Delta != 0
    seen = 0
    for a1, a2, a3, a4, a6 in itertools.product(range(ell), repeat=5):
        for k in itertools.count():
            try:
                curve = WeierstrassCurve(a1, a2, a3, a4, a6 + k * ell)
                break
            except SingularCurveError:
                continue
        if curve.discriminant % ell:
            continue
        singular = [
            (x, y)
            for x, y in itertools.product(range(ell), repeat=2)
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % ell == 0
            and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % ell == 0
            and (2 * y + a1 * x + a3) % ell == 0
        ]
        assert [_Machine(curve, ell)._singular_point()] == singular, (a1, a2, a3, a4, a6)
        seen += 1
    assert seen == ell**4  # over F_q, q^4 of the q^5 Weierstrass equations are singular
