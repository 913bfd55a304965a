"""Reduction-type machine: Kodaira types, conductor exponents, Tamagawa
numbers, component groups, minimality."""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import factorint

from tamagawa.curves import SingularCurveError, Transformation, WeierstrassCurve, transform
from tamagawa.tate import (
    FiniteAbelianGroup,
    KodairaType,
    TateInvariantError,
    _Machine,
    is_split_multiplicative,
    phi_p_part_order,
    tate_local,
)


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
    assert data.phi_geometric.order == 1 and data.phi_arithmetic.order == 1


def test_split_multiplicative_11a1():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    data = tate_local(E, 11)
    assert data.kodaira == KodairaType("In", 5)
    assert (data.f, data.c, data.m) == (1, 5, 5)
    assert data.split is True
    assert data.phi_arithmetic.factors == (5,)
    assert is_split_multiplicative(data)


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
    assert d2.phi_arithmetic.factors == (3,)


def test_nonsplit_multiplicative():
    # y^2 + xy = x^3 - 36x + 10 has nonsplit I2 at 5 (from the corpus search)
    E = WeierstrassCurve(1, 0, 0, -36, 10)
    data = tate_local(E, 5)
    assert data.kodaira == KodairaType("In", 2)
    assert data.split is False
    assert data.c == 2 and data.phi_arithmetic.factors == (2,)
    assert data.phi_geometric.factors == (2,)


def test_split_accessor_rejects_additive():
    data = tate_local(WeierstrassCurve(0, 0, 1, 0, 0), 3)
    with pytest.raises(ValueError, match="not multiplicative"):
        is_split_multiplicative(data)


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
            if data.kodaira.is_multiplicative:
                assert vc4 == 0 and data.vdelta == data.kodaira.n
            else:
                assert vc4 >= 1


def test_component_group_consistency(corpus):
    for rec in corpus:
        E = rec.curve()
        for row in rec.local_data:
            data = tate_local(E, row.prime)
            geom, arith = data.phi_geometric, data.phi_arithmetic
            assert arith.order == row.c and geom.order % row.c == 0, (rec.label, row.prime)
            assert geom.exponent % arith.exponent == 0
            for p in (3, 5, 7):
                assert phi_p_part_order(data, p) == arith.p_torsion_order(p)


def test_nonminimal_input_is_restarted():
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    blown = transform(E, (Fraction(1, 11), 0, 0, 0))  # valuations shifted up by 12
    assert blown.is_integral
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
    for kod in [KodairaType("I0"), KodairaType("In", 5), KodairaType("II*"),
                KodairaType("In*", 3), KodairaType("IV")]:
        assert KodairaType.deserialize(kod.serialize()) == kod
    assert KodairaType("In", 5).serialize() == "In:5"
    assert KodairaType("In*", 3).serialize() == "In*:3"
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


def test_finite_abelian_group():
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8 and g.exponent == 4
    assert g.p_torsion_order(2) == 4
    assert g.p_torsion_order(3) == 1
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
    assert FiniteAbelianGroup(()).order == 1


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
    frac = transform(E, (2, 0, 0, 0))
    with pytest.raises(ValueError, match="integral"):
        tate_local(frac, 5)


def test_rescale_requires_divisible_coefficients():
    machine = _Machine(WeierstrassCurve(1, 0, 0, 0, 11**6), 11)  # 11 does not divide a1
    with pytest.raises(TateInvariantError, match="algorithm invariant violated: rescale"):
        machine.rescale()


def _check_survives_rescaling(curve, ell, k, r, s, t):
    model = transform(curve, (Fraction(1, ell**k), r, s, t))  # forces the rescale restart
    assert model.is_integral
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
    # A Y^2 + B Y + C is inseparable exactly when it is A (Y - r)^2 for some
    # r, and splits exactly when it has a root; A runs over unreduced units
    machine = _residue_machine(ell)
    units = [A for A in range(1, 2 * ell) if A % ell]
    for A, B, C in itertools.product(units, range(ell * ell), range(ell * ell)):
        double = [r for r in range(ell) if (B + 2 * A * r) % ell == 0 and (C - A * r * r) % ell == 0]
        assert len(double) <= 1
        assert machine._separable(A, B, C) == (not double)
        if double:
            assert machine._double_root(A, B, C) == double[0]
            with pytest.raises(TateInvariantError, match="inseparable quadratic"):
                machine._quadratic_is_rational(A, B, C)
        else:
            rational = any((A * y * y + B * y + C) % ell == 0 for y in range(ell))
            assert machine._quadratic_is_rational(A, B, C) == rational
            with pytest.raises(TateInvariantError, match="no double root"):
                machine._double_root(A, B, C)


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
