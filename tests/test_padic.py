"""Arithmetic substrate: valuations, the square class at a root, l-adic root
counting."""

import copy
import importlib.util
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, discriminant, factorint, isprime, nextprime, primefactors

from tamagawa import padic, tate
from tamagawa.curves import FiniteFieldCurve, SingularCurveError, WeierstrassCurve, transform
from tamagawa.localorders import certified_psi, division_polynomial
from tamagawa.padic import (
    IntegerPolynomial,
    PadicRoot,
    PrecisionExhausted,
    find_roots_padic,
    prime_divisors,
    rational_roots,
    valuation,
    value_is_square_at_root,
)

from oracles import X, as_poly, expand, is_square_local, lift_and_split_certs

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(1, 7) == 0
    assert valuation(-405, 3) == 4
    assert valuation(Fraction(5, 8), 2) == -3


def test_valuation_of_zero_rejected():
    with pytest.raises(ValueError, match="valuation of zero"):
        valuation(0, 5)


@pytest.mark.parametrize("bad", [0.1, 2.0, "12"])
def test_valuation_rejects_inexact_input(bad):
    # Fraction(0.1) = 3602879701896397 / 2^55 would give -55 at l = 2
    with pytest.raises(ValueError, match="not an exact rational"):
        valuation(bad, 2)


def test_valuation_requires_prime():
    with pytest.raises(ValueError):
        valuation(10, 6)


def test_valuation_additive_on_products():
    rng = random.Random(1)
    for _ in range(500):
        ell = rng.choice(SMALL_PRIMES)
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        y = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        assert valuation(x * y, ell) == valuation(x, ell) + valuation(y, ell)


def _checked_square_class(x: int, ell: int) -> bool:
    """padic._square_class on the nonzero integer x, with v counted here,
    checked against the table reference ``oracles.is_square_local``."""
    v = 0
    while x % ell ** (v + 1) == 0:
        v += 1
    got = padic._square_class(x, v, ell)
    assert got == is_square_local(x, ell), (x, ell)
    return got


def test_square_examples():
    assert _checked_square_class(4, 5)
    assert not _checked_square_class(5, 5)
    assert _checked_square_class(2, 7)  # 3^2 = 9 = 2 (mod 7)
    assert _checked_square_class(17, 2)  # 17 = 1 (mod 8), even valuation
    assert not _checked_square_class(3, 2)
    assert not _checked_square_class(2, 2)
    # negative x: -1 is a square in Q_5 and Q_1009 (l = 1 mod 4), not in Q_3;
    # -7 = 1 (mod 8) is one in Q_2, -1 is not
    assert _checked_square_class(-1, 5) and _checked_square_class(-1, 1009) and _checked_square_class(-7, 2)
    assert not _checked_square_class(-1, 3) and not _checked_square_class(-1, 2)
    # odd v: never a square, whatever the unit
    assert not any(_checked_square_class(x, ell) for x, ell in ((8, 2), (-8, 2), (27, 3), (20, 5), (-1009, 1009)))
    assert _checked_square_class(-4 * 5**2, 5) and _checked_square_class(17 * 2**4, 2)
    assert not _checked_square_class(3**4 * 2, 3)
    rng = random.Random(15)
    for ell in (2, 3, 5, 1009):
        for _ in range(250):
            unit = rng.choice([1, -1]) * (ell * rng.randint(0, 10**6) + rng.randint(1, ell - 1))
            v = rng.randint(0, 5)
            assert _checked_square_class(unit * ell**v, ell) == (v % 2 == 0 and is_square_local(unit, ell))


def test_squares_are_squares():
    rng = random.Random(2)
    for _ in range(500):
        ell = rng.choice(SMALL_PRIMES)
        x = Fraction(rng.randint(1, 10**5), rng.randint(1, 10**5)) * rng.choice([1, -1])
        # x^2 and (num * den)^2 = x^2 den^4 have one square class
        assert _checked_square_class((x.numerator * x.denominator) ** 2, ell)


def test_count_roots_examples():
    assert len(find_roots_padic(IntegerPolynomial([-1, 0, 1]), 3)) == 2
    assert len(find_roots_padic(IntegerPolynomial([-3, 0, 1]), 3)) == 0
    assert len(find_roots_padic(IntegerPolynomial([1, 0, 1]), 5)) == 2


def test_count_roots_rejects_degenerate():
    with pytest.raises(ValueError, match="constant"):
        len(find_roots_padic(IntegerPolynomial([]), 5))
    with pytest.raises(ValueError, match="constant"):
        len(find_roots_padic(IntegerPolynomial([3]), 5))


def test_mixed_valuation_root_set():
    # (5x - 1)(x - 5)(x - 1): of the roots 1/5, 5, 1 in Q_5 only 5 and 1 lie in Z_5
    f = expand((5 * X - 1) * (X - 5) * (X - 1))
    roots = find_roots_padic(f, 5)
    assert sorted(r.approx(4) for r in roots) == [1, 5]


@pytest.mark.parametrize("ell", [3, 5, 7, 1009])
def test_only_the_root_in_z_ell_is_found(ell):
    # (l x - 1)(x - 2): the root 1/l lies outside Z_l, the root 2 inside
    f = expand((ell * X - 1) * (X - 2))
    assert [r.approx(6) for r in find_roots_padic(f, ell)] == [2]


def _random_constructed_poly(rng: random.Random, ell: int):
    """Product of linear factors with known Q_l roots times a mod-l
    irreducible quadratic (hence without Q_l roots); squarefree, since a
    root drawn twice gets one factor.  Returns f and its roots in Q_l."""
    roots = set()
    f = 1
    for _ in range(rng.randint(0, 3)):
        num = rng.randint(-30, 30)
        den = rng.choice([1, 1, ell])  # occasional negative-valuation root
        if den != 1 and num % ell == 0:
            num += 1
        if Fraction(num, den) not in roots:
            f *= den * X - num
            roots.add(Fraction(num, den))
    while True:
        b, c = rng.randint(0, ell - 1), rng.randint(1, ell - 1)
        disc = (b * b - 4 * c) % ell
        if pow(disc, (ell - 1) // 2, ell) == ell - 1:  # nonresidue: irreducible
            f *= X**2 + b * X + c
            break
    return expand(f), roots


def test_count_roots_constructed_oracle():
    rng = random.Random(3)
    for _ in range(200):
        ell = rng.choice([3, 5, 7])
        f, roots = _random_constructed_poly(rng, ell)
        assert len(find_roots_padic(f, ell)) == sum(1 for x in roots if x.denominator == 1)


def _brute_integral_root_count(coeffs, ell, M):
    """Hensel-witness enumeration modulo l^M: each residue r with
    v(f(r)) > 2 v(f'(r)) owns a unique root; Newton-settle to dedupe."""
    f = IntegerPolynomial(coeffs)
    fp = f.derivative()
    mod = ell**M
    keys = set()
    for r in range(mod):
        fr = f(r) % mod
        fpr = fp(r) % mod
        k = M if fpr == 0 else valuation(fpr, ell)
        vfr = M if fr == 0 else valuation(fr, ell)
        if vfr > 2 * k:
            t = r
            for _ in range(M + 2):
                u = fp(t)
                ku = valuation(u, ell) if u else M
                step = (f(t) // ell**ku) * pow(u // ell**ku, -1, mod) % mod
                t = (t - step) % mod
            keys.add(t % mod)
    return len(keys)


def test_count_roots_vs_brute_oracle():
    # soundness of the brute side needs v_l(disc) small; filter accordingly
    rng = random.Random(4)
    x = Symbol("x")
    params = {3: (6, 2), 5: (5, 2), 7: (4, 1)}
    checked = 0
    while checked < 120:
        ell = rng.choice([3, 5, 7])
        M, dmax = params[ell]
        deg = rng.choice([3, 4])
        coeffs = [rng.randint(-60, 60) for _ in range(deg)] + [rng.randint(1, 60)]
        disc = discriminant(Poly(list(reversed(coeffs)), x))
        if disc == 0 or (int(disc) != 0 and valuation(int(disc), ell) > dmax):
            continue
        f = IntegerPolynomial(coeffs)
        mine = len(find_roots_padic(f, ell))
        brute = _brute_integral_root_count(coeffs, ell, M)
        assert mine == brute, (coeffs, ell, mine, brute)
        checked += 1


def test_root_multiplicity_distinct_count():
    rng = random.Random(5)
    for _ in range(50):
        ell = rng.choice([3, 5, 7])
        f, roots = _random_constructed_poly(rng, ell)
        r = rng.randint(31, 60)  # outside the constructed root range
        g = expand(as_poly(f) * (X - r))
        assert len(find_roots_padic(g, ell)) == len(find_roots_padic(f, ell)) + 1
        # a repeated factor is refused, not counted once
        h = expand(as_poly(f) * (X - r) ** 2)
        with pytest.raises(ValueError, match="repeated factor"):
            find_roots_padic(h, ell)


def test_find_roots_requires_prime_ell():
    with pytest.raises(ValueError, match="must be prime"):
        find_roots_padic(IntegerPolynomial([-1, 0, 1]), 4)


def test_precision_ceiling_reports_undecided(monkeypatch):
    # roots congruent to high depth force deep lift-and-split;
    # a tiny ceiling must produce "undecided", never a wrong count
    f = expand((X - 1) * (X - 1 - 3**8))
    with monkeypatch.context() as m:
        m.setattr(padic, "PRECISION_HARD_CAP", 2)
        with pytest.raises(PrecisionExhausted, match="^undecided at precision 2$"):
            find_roots_padic(f, 3)
    assert len(find_roots_padic(f, 3)) == 2  # the fixed cap decides


def test_lift_and_split_reaches_the_depth_cap(monkeypatch):
    # x(x - 2^k): the roots agree to k binary digits, so lift-and-split goes
    # k levels deep; k = 1100 is past Python's default recursion limit
    roots = find_roots_padic(IntegerPolynomial([0, -(2**1100), 1]), 2)
    assert sorted(r.approx(1200) for r in roots) == [0, 2**1100]
    with pytest.raises(PrecisionExhausted, match="^undecided at precision 2048$"):
        find_roots_padic(IntegerPolynomial([0, -(2**2100), 1]), 2)
    monkeypatch.setattr(padic, "PRECISION_HARD_CAP", 64)
    assert len(find_roots_padic(IntegerPolynomial([0, -(2**63), 1]), 2)) == 2  # levels 0..63
    for k in (64, 100):
        with pytest.raises(PrecisionExhausted, match="^undecided at precision 64$"):
            find_roots_padic(IntegerPolynomial([0, -(2**k), 1]), 2)


def _is_power_of(n, ell):
    """Whether the positive integer n is a power of l: a child of a
    primitive node has one as its content, so dividing by the content
    divides by the same number as dividing out the power of l."""
    while n % ell == 0:
        n //= ell
    return n == 1


def _certs_at_cap(walk, f, ell, cap):
    saved = padic.PRECISION_HARD_CAP
    padic.PRECISION_HARD_CAP = cap
    try:
        return walk(f, ell)
    except PrecisionExhausted:
        return None
    finally:
        padic.PRECISION_HARD_CAP = saved


@settings(max_examples=200, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 7]),
    # roots c + u l^e, and ramified pairs (x - c)^2 - w l^k, with no root in
    # Q_l when k is odd and l does not divide w
    roots=st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4), st.integers(0, 5)), max_size=4),
    pairs=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6), st.integers(0, 7)), max_size=2),
    cofactor=st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    cap=st.integers(1, 6),
)
def test_v1_rule_matches_the_walk_without_it(ell, roots, pairs, cofactor, cap):
    f = as_poly(IntegerPolynomial(cofactor))
    for c, u, e in roots:
        f *= X - (c + u * ell**e)
    for c, w, k in pairs:
        f *= X**2 - 2 * c * X + c * c - w * ell**k
    f = expand(f)
    assume(f.degree >= 1)
    f = _sympy_squarefree_part(f)
    contents = []
    expected = lift_and_split_certs(f, ell, contents=contents)
    assert padic._integral_root_certs(f, ell) == expected
    assert all(_is_power_of(c, ell) for c in contents)  # so the content rules agree
    # under a lower cap the walk answers wherever the old one did, and then
    # the same; it may also answer where the old one ran into the cap
    reference, certs = (_certs_at_cap(w, f, ell, cap) for w in (lift_and_split_certs, padic._integral_root_certs))
    if reference is not None:
        assert certs == reference
    if certs is not None:
        assert certs == expected


def test_v1_rule_runs_no_taylor_shift_and_answers_under_the_cap(monkeypatch):
    shifts = []
    real_compose = IntegerPolynomial.compose_affine
    monkeypatch.setattr(IntegerPolynomial, "compose_affine", lambda self, *a: shifts.append(a) or real_compose(self, *a))
    # x^2 - 3 and (x - 1)^2 - 5: the singular residue has v(g(r)) = 1, so no
    # child and no compose_affine there, at r = 0 and at r = 1 alike
    for f, ell in ((IntegerPolynomial([-3, 0, 1]), 3), (IntegerPolynomial([-4, -2, 1]), 5)):
        assert lift_and_split_certs(f, ell) == []
        assert len(shifts) == 1
        shifts.clear()
        assert padic._integral_root_certs(f, ell) == []
        assert shifts == []
    # x^2 - 3^7 refines three levels to u^2 - 3, whose v = 1 residue used to
    # open a child at depth 4; at cap 4 that child raised, now the (empty)
    # root set is answered
    f = IntegerPolynomial([-(3**7), 0, 1])
    monkeypatch.setattr(padic, "PRECISION_HARD_CAP", 4)
    with pytest.raises(PrecisionExhausted, match="^undecided at precision 4$"):
        lift_and_split_certs(f, 3)
    assert find_roots_padic(f, 3) == []
    monkeypatch.setattr(padic, "PRECISION_HARD_CAP", 3)
    with pytest.raises(PrecisionExhausted, match="^undecided at precision 3$"):
        find_roots_padic(f, 3)


def _v1_walk(f, ell, contents=None):
    return lift_and_split_certs(f, ell, v1_rule=True, contents=contents)


@settings(max_examples=200, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 7]),
    roots=st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4), st.integers(0, 5)), max_size=3),
    pairs=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6), st.integers(0, 7)), max_size=2),
    # clusters (x - c)^k - w l^j with 1 <= j < k and l not dividing w: k
    # roots of valuation j/k < 1 around c, so the class of c mod l is empty
    # in Z_l, and at c = 0 with j >= 2 the valuations prove it so
    clusters=st.lists(
        st.tuples(st.sampled_from([0, 0, 0, 1, -2, 3]), st.integers(2, 5), st.integers(1, 4), st.integers(1, 40)),
        min_size=1,
        max_size=2,
    ),
    cofactor=st.lists(st.integers(-30, 30), min_size=1, max_size=4),
    cap=st.integers(1, 6),
)
def test_empty_class_at_zero_matches_the_walk_without_it(ell, roots, pairs, clusters, cofactor, cap):
    f = as_poly(IntegerPolynomial(cofactor))
    for c, u, e in roots:
        f *= X - (c + u * ell**e)
    for c, w, k in pairs:
        f *= X**2 - 2 * c * X + c * c - w * ell**k
    for c, k, j, w in clusters:
        assume(w % ell)
        f *= (X - c) ** k - w * ell ** min(j, k - 1)
    f = expand(f)
    assume(f.degree >= 1)
    f = _sympy_squarefree_part(f)
    contents = []
    expected = _v1_walk(f, ell, contents)
    assert padic._integral_root_certs(f, ell) == expected
    assert all(_is_power_of(c, ell) for c in contents)
    # under a lower cap the pruned walk answers wherever the unpruned one
    # did, and then the same; it may also answer where that one reached the cap
    reference, certs = (_certs_at_cap(w, f, ell, cap) for w in (_v1_walk, padic._integral_root_certs))
    if reference is not None:
        assert certs == reference
    if certs is not None:
        assert certs == expected


def test_empty_class_at_zero_builds_no_child(monkeypatch):
    shifts = []
    real_compose = IntegerPolynomial.compose_affine
    monkeypatch.setattr(IntegerPolynomial, "compose_affine", lambda self, *a: shifts.append(a) or real_compose(self, *a))
    # x^3 - 18 at 3 and x^4 - 2 * 5^3 at 5: g(l t) / l^v(g(0)) is a unit
    # constant mod l, so the class at 0 opens no child and shifts nothing
    for f, ell in ((IntegerPolynomial([-18, 0, 0, 1]), 3), (IntegerPolynomial([-250, 0, 0, 0, 1]), 5)):
        assert _v1_walk(f, ell) == []
        assert shifts == [(ell, 0)]
        shifts.clear()
        assert padic._integral_root_certs(f, ell) == []
        assert shifts == []
    # x^2 - 2 * 5^3: the roots have valuation 3/2, the coefficient of x^2
    # fails the test, and the class at 0 is refined as before
    assert padic._integral_root_certs(IntegerPolynomial([-250, 0, 1]), 5) == []
    assert shifts == [(5, 0)]
    # the unpruned walk opens its child at depth 1 and reaches a cap of 1;
    # the pruned one answers
    monkeypatch.setattr(padic, "PRECISION_HARD_CAP", 1)
    with pytest.raises(PrecisionExhausted, match="^undecided at precision 1$"):
        _v1_walk(IntegerPolynomial([-18, 0, 0, 1]), 3)
    assert find_roots_padic(IntegerPolynomial([-18, 0, 0, 1]), 3) == []


def test_an_exact_root_at_zero_is_never_pruned(monkeypatch):
    # 0 is a root of x (x - 3^5) and of every child on its way down: the
    # constant term is 0, whose valuation is the 10**9 sentinel, so the
    # test returns at once and the class is refined
    calls = []
    real_test = padic._unit_at_zero
    monkeypatch.setattr(padic, "_unit_at_zero", lambda cs, ell: calls.append(cs[0]) or real_test(cs, ell))
    f = IntegerPolynomial([0, -(3**5), 1])
    assert padic._integral_root_certs(f, 3) == _v1_walk(f, 3)
    assert sorted(root.approx(8) for root in find_roots_padic(f, 3)) == [0, 3**5]
    assert calls and set(calls) == {0}
    assert padic._unit_at_zero([0, 9, 1], 3) is False


@settings(max_examples=150, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 7, 131, 137, 65537]),
    roots=st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4), st.integers(0, 5)), max_size=4),
    pairs=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6), st.integers(0, 7)), max_size=2),
    cofactor=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6),
)
def test_root_certificates_match_the_whole_polynomial_walk(ell, roots, pairs, cofactor):
    """Residues mod l^2 and one Horner pass decide each node as g' and the
    big-integer values did: the same certificates on random squarefree
    polynomials with roots and empty classes planted near each other."""
    f = as_poly(IntegerPolynomial(cofactor))
    for c, u, e in roots:
        f *= X - (c + u * ell**e)
    for c, w, k in pairs:
        f *= X**2 - 2 * c * X + c * c - w * ell**k
    f = expand(f)
    assume(f.degree >= 1)
    f = _sympy_squarefree_part(f)
    expected = [PadicRoot(ell, *cert) for cert in lift_and_split_certs(f, ell, v1_rule=True, zero_rule=True)]
    assert find_roots_padic(f, ell) == expected


def test_root_certificates_match_the_whole_polynomial_walk_at_corpus_places(corpus):
    """The same on psi_p moved into Tate's frame, at every finite place of
    the corpus for p in {3, 5, 7}: each bad prime and p itself."""
    places = 0
    for rec in corpus:
        E = rec.curve()
        for p in (3, 5, 7):
            for ell in sorted(set(prime_divisors(E.discriminant)) | {p}):
                tr = tate.tate_local(E, ell).transformation
                psi = certified_psi(E, p).moved(tr.u, tr.r)
                expected = [PadicRoot(ell, *c) for c in lift_and_split_certs(psi, ell, v1_rule=True, zero_rule=True)]
                assert find_roots_padic(psi, ell) == expected, (rec.label, p, ell)
                places += 1
    assert places > 3 * len(corpus)


def test_roots_come_depth_first_in_residue_order():
    # residue 1 splits five levels deep before the simple residue 2 is certified
    f = expand((X - 2) * (X - 1) * (X - 1 - 3**5))
    assert [r.approx(8) for r in find_roots_padic(f, 3)] == [1, 1 + 3**5, 2]


def test_padic_root_refinement_is_consistent():
    f = IntegerPolynomial([-2, 0, 1])  # sqrt(2) in Q_7
    roots = find_roots_padic(f, 7)
    assert len(roots) == 2
    for r in roots:
        a8, a16 = r.approx(8), r.approx(16)
        assert valuation(a8 - a16, 7) >= 8 if a8 != a16 else True
        assert valuation(f(a16), 7) >= 16


def _fresh(root: PadicRoot) -> PadicRoot:
    return PadicRoot(root.ell, root.witness, root.t0, root.scale, root.offset)


@pytest.mark.parametrize("ell", [2, 3, 7, 1009])
def test_approx_is_a_pure_function_of_the_precision(ell, monkeypatch):
    """approx(b) is what a fresh root gives, whether a deeper or a shallower
    approx was asked first; approx(a) mod l^b is approx(b) for b <= a; and
    the witness vanishes mod l^k at the lifted t.  The lift runs on
    residues: it evaluates no polynomial over Z and builds no derivative."""
    # 1/l is not in Z_l; 1 + 8 l^3 is a unit square in Z_l, also at l = 2
    f = expand((ell * X - 1) * (X**2 - (1 + 8 * ell**3)))
    assert len(find_roots_padic(f, ell)) == 2
    # at l = 2, x^2 - 65 is (x - 1)^2 mod 2: both roots are lifted in a child
    assert all(root.scale > 1 for root in find_roots_padic(f, ell)) is (ell == 2)
    rng = random.Random(ell)
    families = [f] + [_random_constructed_poly(rng, ell)[0] for _ in range(6)]
    roots = [root for g in families for root in find_roots_padic(g, ell)]
    precisions = (1, 2, 3, 5, 8, 10, 20, 30, 40, 64, 80)
    with monkeypatch.context() as m:
        for name in ("__call__", "derivative"):
            m.setattr(IntegerPolynomial, name, lambda *args: pytest.fail("the lift left the residues"))
        fresh = [{b: _fresh(root).approx(b) for b in precisions} for root in roots]
        for root, lift in zip(roots, fresh):
            assert [root.approx(b) for b in reversed(precisions)] == [lift[b] for b in reversed(precisions)]
            assert [root.approx(b) for b in precisions] == [lift[b] for b in precisions]
        # the lift of t itself, the zero of the witness in t0 + l Z_l
        lifted_t = [{k: PadicRoot(ell, r.witness, r.t0, 1, 0).approx(k) for k in precisions} for r in roots]
    for root, lift, ts in zip(roots, fresh, lifted_t):
        for a in precisions:
            assert all(lift[a] % ell**b == lift[b] for b in precisions if b <= a)
            assert root.witness(ts[a]) % ell**a == 0
            assert lift[a] == (root.offset + root.scale * ts[a]) % ell**a


def _square_at_root_from_the_old_start(h: IntegerPolynomial, root: PadicRoot) -> bool:
    """Reference: value_is_square_at_root as it was at an integral root,
    starting at 8 digits under the same stop rule."""
    ell = root.ell
    slack = min(padic._int_valuation(c, ell) for c in h.coeffs[1:])
    margin = 3 if ell == 2 else 1
    digits = 8
    while digits <= padic.PRECISION_HARD_CAP:
        val = h(root.approx(digits))
        if val != 0:
            v = valuation(val, ell)
            if v + margin <= digits + slack:
                return padic._square_class(val, v, ell)
        digits *= 2
    raise PrecisionExhausted(padic.PRECISION_HARD_CAP)


@settings(max_examples=200, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 1009]),
    s=st.integers(0, 3),
    unit=st.integers(1, 10**4),
    a=st.integers(-(10**6), 10**6),
    b=st.integers(-(10**4), 10**4),
    e=st.integers(0, 5),
    w=st.integers(-(10**4), 10**4),
    q=st.lists(st.integers(-50, 50), min_size=1, max_size=3),
)
def test_square_test_start_agrees_with_the_old_start(ell, s, unit, a, b, e, w, q):
    """f = (d x - a)(x - b) with d = l^s * unit has the roots a/d and b; a/d
    is in Z_l, and found, iff l^s divides a.  On h = (d x - a) q(x) + l^e w,
    h(a/d) = l^e w has valuation e, and h(b) is whatever it is.  At each
    root found the square test answers as it did from 8 digits, and as
    is_square_local on the exact value."""
    assume(unit % ell and w % ell and a != b * unit * ell**s and any(q))
    lin = unit * ell**s * X - a
    h = expand(lin * as_poly(IntegerPolynomial(q)) + ell**e * w)
    assume(h(b) != 0)
    roots = find_roots_padic(expand(lin * (X - b)), ell)
    answers = [value_is_square_at_root(h, root) for root in roots]
    assert answers == [_square_at_root_from_the_old_start(h, root) for root in roots]
    expected = [is_square_local(h(b), ell)]
    if a % ell**s == 0:
        expected.append(is_square_local(ell**e * w, ell))
    assert sorted(answers) == sorted(expected)


def test_square_test_tries_the_cap_whatever_its_start():
    """h(1) = w * 2^1600 at the root 1 of x - 1 in Z_2 passes the stop rule
    from 1603 digits on.  Doubling from the start 3 reaches only 1536; the
    last try must be at the cap, 2048, as doubling from 8 was."""
    (root,) = find_roots_padic(IntegerPolynomial([-1, 1]), 2)
    for w, square in ((1, True), (3, False)):
        assert value_is_square_at_root(IntegerPolynomial([w * 2**1600 - 1, 1]), root) is square
        assert _square_at_root_from_the_old_start(IntegerPolynomial([w * 2**1600 - 1, 1]), root) is square


@pytest.mark.parametrize("ell", [7, 1009])
def test_unit_value_at_a_simple_root_needs_one_approximation(ell, monkeypatch):
    """x^2 - 2 has two simple roots r in Z_l; h = x + 1 is a unit there
    (r = -1 would give r^2 = 1, not 2), so one digit decides."""
    calls = []
    real = PadicRoot.approx
    monkeypatch.setattr(PadicRoot, "approx", lambda self, digits: calls.append(digits) or real(self, digits))
    h = IntegerPolynomial([1, 1])
    for root in find_roots_padic(IntegerPolynomial([-2, 0, 1]), ell):
        expected = is_square_local(root.approx(1) + 1, ell)
        calls.clear()
        assert value_is_square_at_root(h, root) == expected
        assert calls == [1]


def _sympy_squarefree_part(f: IntegerPolynomial) -> IntegerPolynomial:
    """Reference: the primitive squarefree part of f over Q, from sympy's
    ``sqf_part``, with the sign of lc(f)."""
    g = Poly(list(reversed(f.coeffs)), Symbol("x")).sqf_part()
    out = IntegerPolynomial(int(c) for c in reversed(g.all_coeffs())).primitive_part()
    return out if out.coeffs[-1] * f.coeffs[-1] > 0 else expand(-as_poly(out))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_squarefree_part_certifies_division_polynomials(corpus, p):
    for rec in corpus[:6]:
        psi = division_polynomial(rec.curve(), p)
        assert psi.squarefree_part() == _sympy_squarefree_part(psi) == psi.primitive_part()


@settings(max_examples=200, deadline=None)
@given(
    ainvs=st.tuples(*[st.integers(-50, 50)] * 5),
    ell=st.sampled_from([2, 3, 5, 7]),
    k=st.integers(0, 2),
    p=st.sampled_from([3, 5, 7, 11, 13]),
)
@example(ainvs=(0, -1, 1, -10, -20), ell=2, k=0, p=31)  # 11a1
@example(ainvs=(1, 0, 1, 4, -6), ell=2, k=0, p=31)  # 14a1
def test_division_polynomial_is_squarefree_by_theorem(ainvs, ell, k, p):
    """certified_psi certifies psi_p squarefree by theorem, with no check at
    run time; this is the check.  On random integral curves and on their
    models with u = 1/l^k, the prime certificate of squarefree_part accepts
    the primitive psi_p and returns certified_psi's psi; at
    p <= 7 that is also sympy's primitive squarefree part."""
    try:
        E = WeierstrassCurve(*ainvs)
    except SingularCurveError:
        assume(False)
    model = WeierstrassCurve(*transform(E, (Fraction(1, ell**k), 0, 0, 0)).integer_ainvs())
    psi = division_polynomial(model, p).primitive_part()
    certified = psi.squarefree_part()
    assert isinstance(certified, padic.SquarefreePolynomial)
    assert certified == psi == certified_psi(model, p)
    if p <= 7:
        assert psi == _sympy_squarefree_part(psi)


def test_squarefree_part_refuses_repeated_factor():
    a, b = 2 * X - 3, X**2 + 5
    for f in (a**3 * b**2 * 6, a * a, a * b * b):
        with pytest.raises(ValueError, match="has a repeated factor"):
            expand(f).squarefree_part()
    assert expand(a * b * 6).squarefree_part() == expand(a * b)


def test_squarefree_polynomial_has_no_public_constructor():
    # (x - 2)^2 must not pass as squarefree by naming the subclass: the root
    # walk would split its double root to the depth cap, and rational_roots
    # would find no certificate prime
    with pytest.raises(TypeError, match="IntegerPolynomial.squarefree_part"):
        padic.SquarefreePolynomial([4, -4, 1])
    f = IntegerPolynomial([4, -4, 1])
    for count in (lambda: find_roots_padic(f, 5), lambda: padic.rational_roots(f), f.squarefree_part):
        with pytest.raises(ValueError, match="has a repeated factor"):
            count()
    sf = IntegerPolynomial([-2, 0, 1]).squarefree_part()
    assert type(sf) is padic.SquarefreePolynomial and sf.coeffs == (-2, 0, 1)
    assert pickle.loads(pickle.dumps(sf)) == sf and type(copy.copy(sf)) is padic.SquarefreePolynomial


def _primorial_below_2_16() -> int:
    n = 1
    for q in padic._SMALL_PRIMES:
        n *= q
    return n


def test_squarefree_part_refuses_when_every_prime_collapses():
    # x(x - N), N the product of the primes below 2^16, is squarefree over Q
    # but x^2 modulo every prime of the search: undecided, so refused
    f = IntegerPolynomial([0, -_primorial_below_2_16(), 1])
    with pytest.raises(ValueError, match="no prime below 2\\^16 decides"):
        f.squarefree_part()
    # x(x - 30030) collapses mod 2, 3, 5, 7, 11 and 13; 17 certifies it
    g = IntegerPolynomial([0, -30030, 1])
    assert padic._certificate_prime(g) == 17
    assert g.squarefree_part() == g


def test_squarefree_part_lead_divisible_by_every_prime():
    # every prime below 2^16 divides the lead, so none certifies f: refused
    f = IntegerPolynomial([-1, 1, _primorial_below_2_16()])
    with pytest.raises(ValueError, match="no prime below 2\\^16 decides"):
        f.squarefree_part()
    g = IntegerPolynomial([-1, 1, 2 * 3 * 5 * 7])
    assert padic._certificate_prime(g) == 11
    assert g.squarefree_part() == g


def test_certified_polynomial_is_not_certified_again(corpus, monkeypatch):
    psi = division_polynomial(corpus[0].curve(), 5)
    sf = psi.squarefree_part()
    assert isinstance(sf, padic.SquarefreePolynomial) and not isinstance(psi, padic.SquarefreePolynomial)
    assert sf.squarefree_part() is sf and sf.primitive_part() is sf
    assert expand(6 * as_poly(psi)).squarefree_part() == sf == psi.primitive_part()  # certified on the primitive part
    assert type(sf.compose_affine(2, 1)) is type(sf.derivative()) is IntegerPolynomial  # arithmetic drops the certificate
    calls = []
    real = IntegerPolynomial.squarefree_part
    monkeypatch.setattr(IntegerPolynomial, "squarefree_part", lambda f: calls.append(f) or real(f))
    assert len(find_roots_padic(sf, 11)) == len(find_roots_padic(psi, 11))
    assert calls == [psi]
    with pytest.raises(ValueError, match="zero polynomial"):
        real(IntegerPolynomial([]))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_certified_psi_is_its_own_primitive_part(corpus, p):
    """SquarefreePolynomial has no primitive_part of its own: the base
    method returns the polynomial itself when its content is 1, as it is for
    every certified psi_p and every move of one."""
    for rec in corpus:
        psi = certified_psi(rec.curve(), p)
        moved = psi.moved(2, 1)
        for f in (psi, moved):
            assert f.content() == 1 and f.primitive_part() is f and f.squarefree_part() is f, (rec.label, p)


@pytest.mark.parametrize("coeffs, content", [
    ([], 0), ([0], 0), ([7], 7), ([-6], 6), ([-4, -6, -10], 2), ([3, -9, 12], 3), ([2, 3], 1),
], ids=["zero", "zero-constant", "constant", "negative-constant", "all-negative", "mixed-signs", "primitive"])
def test_content_is_the_gcd_of_the_coefficients(coeffs, content):
    """0 for the zero polynomial, |c| for a constant c, positive whatever
    the signs; the primitive part keeps the signs."""
    f = IntegerPolynomial(coeffs)
    assert f.content() == content
    if content in (0, 1):
        assert f.primitive_part() is f
    else:
        assert f.primitive_part() == IntegerPolynomial([c // content for c in coeffs])


def test_squarefree_part_matches_rational_reference():
    """Random products of small factors, some repeated: a squarefree product
    is certified as its primitive part, any other is refused."""
    rng = random.Random(6)
    refused = 0
    for _ in range(300):
        f = rng.randint(1, 5)
        for _ in range(rng.randint(1, 4)):
            factor = as_poly(IntegerPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 4)]))
            f *= factor ** rng.randint(1, 3)
        f = expand(f)
        reference = _sympy_squarefree_part(f)
        if reference == f.primitive_part():
            assert f.squarefree_part() == reference, f
        else:
            with pytest.raises(ValueError, match="has a repeated factor"):
                f.squarefree_part()
            refused += 1
    assert 0 < refused < 300


def test_lift_rejects_singular_witness():
    root = PadicRoot(5, IntegerPolynomial([0, 0, 1]), 0, 1, 0)  # x^2 at t0 = 0
    with pytest.raises(ArithmeticError, match="witness root must be simple"):
        root.approx(4)


def test_linear_roots_rejects_irreducible_factor():
    # x^2 + 1 has no root over F_3, so no shift ever splits it
    with pytest.raises(ArithmeticError, match="root splitting failed to converge"):
        padic._linear_roots_mod([1, 0, 1], 3)


# l = 3 mod 4, l = 5 mod 8, and primes with a large power of 2 in l - 1,
# where Tonelli-Shanks runs its longest loops (786433 - 1 = 3 * 2^18)
QUADRATIC_PRIMES = [3, 7, 11, 19, 131, 5, 13, 29, 37, 101, 17, 97, 193, 257, 7681, 12289, 65537, 786433]


def _scan_quadratic(h: list[int], ell: int) -> list[int]:
    """Reference: every residue r with h(r) = 0 mod l, by brute force."""
    h0, h1, h2 = h
    return [r for r in range(ell) if (h0 + r * (h1 + r * h2)) % ell == 0]


@pytest.mark.parametrize("ell", QUADRATIC_PRIMES)
def test_quadratic_base_case_matches_a_scan(ell, monkeypatch):
    """u (x - a)(x - b) for distinct a, b and a unit u splits to its two
    roots by a square root, with no power of x + c; a double root or an
    irreducible quadratic raises as a factor that never splits did before."""

    def no_powmod(*args):
        raise AssertionError("a quadratic reached the split by powers of x + c")

    monkeypatch.setattr(padic, "_linear_powmod_ell", no_powmod)
    rng = random.Random(ell)
    n = next(d for d in range(1, ell) if padic.legendre_symbol(d, ell) == -1)
    for _ in range(4):
        a, b = rng.sample(range(ell), 2)
        u = rng.randrange(1, ell)
        h = [u * a * b % ell, -u * (a + b) % ell, u]
        assert padic._linear_roots_mod(h, ell) == _scan_quadratic(h, ell) == sorted([a, b])
        c = rng.randrange(ell)
        double = [u * c * c % ell, -2 * u * c % ell, u]  # u (x - c)^2
        irreducible = [u * (c * c - n) % ell, -2 * u * c % ell, u]  # u ((x - c)^2 - n)
        for bad, scanned in ((double, [c]), (irreducible, [])):
            assert _scan_quadratic(bad, ell) == scanned
            with pytest.raises(ArithmeticError, match="root splitting failed to converge"):
                padic._linear_roots_mod(bad, ell)


@settings(max_examples=200, deadline=None)
@given(ell=st.sampled_from(QUADRATIC_PRIMES), data=st.data())
def test_sqrt_mod_squares_back(ell, data):
    a = data.draw(st.integers(1, ell - 1))
    assert padic._sqrt_mod(a * a, ell) in (a, ell - a)


def test_argument_preconditions_raise_value_error():
    # checks that must hold under python -O, where assert statements vanish
    assert padic._int_valuation(0, 7) == 10**9  # v(0) is the "infinite" sentinel
    with pytest.raises(ValueError, match="odd prime"):
        padic.legendre_symbol(3, 2)


def test_constructor_rejects_inexact_coefficients():
    # truncating to int would turn x^2 - 1/2 into x^2: one root in Q_7 instead of two
    with pytest.raises(ValueError, match="non-integral coefficient -1/2"):
        IntegerPolynomial([Fraction(-1, 2), 0, 1])
    with pytest.raises(ValueError, match="not an exact integer"):
        IntegerPolynomial([1.0, 1])
    assert IntegerPolynomial([Fraction(4, 2), True, 0]).coeffs == (2, 1)
    assert len(find_roots_padic(IntegerPolynomial([-1, 0, 2]), 7)) == 2


def _scan_residue_roots(coeffs, ell):
    """Reference: every residue r with f(r) = 0 mod l."""
    return [r for r in range(ell) if sum(c * pow(r, i, ell) for i, c in enumerate(coeffs)) % ell == 0]


# below the scan limit, just above it, and above 3000
RESIDUE_PRIMES = [2, 3, 5, 7, 13, 101, 131, 137, 293, 307, 331, 613, 997, 3001, 4999]


@settings(max_examples=200, deadline=None)
@given(
    ell=st.sampled_from(RESIDUE_PRIMES),
    planted=st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 3)), max_size=4),
    cofactor=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    lead_divisible=st.booleans(),
    zero_power=st.integers(0, 6),
    zero_lift=st.integers(-5, 5),
)
def test_residue_roots_match_scan(ell, planted, cofactor, lead_divisible, zero_power, zero_lift):
    # (x - l * zero_lift)^zero_power is x^zero_power mod l: the power of x
    # that _roots_mod splits off before the scan or the gcd
    lead = (cofactor[-1] or 1) * (ell if lead_divisible else 1)
    f = as_poly(IntegerPolynomial(cofactor[:-1] + [lead])) * (X - ell * zero_lift) ** zero_power
    for r, m in planted:
        f *= (X - r) ** m
    f = expand(f)
    assume(1 <= f.degree <= 30 and any(c % ell for c in f.coeffs))
    assert padic._roots_mod(f.coeffs, ell) == _scan_residue_roots(f.coeffs, ell)


def test_residue_roots_paths_agree_across_the_scan_limit():
    # psi_7 of 5077a1 on both paths, below and above the scan limit
    psi = division_polynomial(WeierstrassCurve(0, 0, 1, -7, 6), 7)
    ells = (131, 137, 1009, 3001)
    assert ells[0] <= padic._RESIDUE_SCAN_LIMIT < ells[1]
    for ell in ells:
        expected = _scan_residue_roots(psi.coeffs, ell)
        assert padic._linear_roots_mod(padic._gcd_with_frobenius([c % ell for c in psi.coeffs], ell), ell) == expected
        assert padic._roots_mod(psi.coeffs, ell) == expected


def test_residue_roots_skip_a_constant_reduction(monkeypatch):
    """A polynomial that is a nonzero constant mod l has no residue roots,
    one that is x^k times a nonzero constant has the root 0 alone, and
    neither is scanned nor split; one that is zero mod l raises on the scan
    path and on the Frobenius path alike."""

    def no_scan(cs, ell):
        raise AssertionError("a constant reduction was scanned")

    monkeypatch.setattr(padic, "_scan_roots", no_scan)
    monkeypatch.setattr(padic, "_gcd_with_frobenius", no_scan)
    for ell in (2, 3, 131, 137, 3001):
        assert padic._roots_mod([5 + 7 * ell, 3 * ell, 0, ell], ell) == []
        assert padic._roots_mod([1, 2 * ell, ell * ell], ell) == []
        for k in range(1, 7):
            f = IntegerPolynomial([ell * (i + 1) for i in range(k)] + [-1, ell, ell * ell])
            assert padic._roots_mod(f.coeffs, ell) == [0], (ell, k)
    monkeypatch.undo()
    for ell in (2, 5, 131, 137, 3001):
        with pytest.raises(ValueError, match="zero mod"):
            padic._roots_mod([ell, 0, ell], ell)


@settings(max_examples=300, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 7, 13, 131, 137, 293, 1009, 3001, 4999]),
    shape=st.sampled_from(["linear", "quadratic", "double"]),
    zero_power=st.integers(0, 3),
    data=st.data(),
)
def test_residue_roots_closed_forms_match_scan(ell, shape, zero_power, data):
    """x^k times a cofactor of degree 1 or 2 mod l, every coefficient lifted
    by a multiple of l: the closed forms give what the scan and the
    Frobenius path give, a double root (discriminant 0 mod l) once."""
    unit = st.integers(1, ell - 1)
    lead = data.draw(unit)
    if shape == "linear":
        h = [data.draw(unit), lead]
    elif shape == "quadratic":
        h = [data.draw(unit), data.draw(st.integers(0, ell - 1)), lead]
    else:
        a = data.draw(unit)
        h = [lead * a * a, -2 * lead * a, lead]  # lead (x - a)^2
    noise = data.draw(st.lists(st.integers(-3, 3), min_size=zero_power + len(h), max_size=zero_power + len(h)))
    f = IntegerPolynomial([c + ell * e for c, e in zip([0] * zero_power + h, noise)])
    expected = _scan_residue_roots(f.coeffs, ell)
    assert padic._roots_mod(f.coeffs, ell) == expected
    cofactor = [c % ell for c in h]
    gcd_roots = padic._linear_roots_mod(padic._gcd_with_frobenius(cofactor, ell), ell)
    assert padic._scan_roots(cofactor, ell) == gcd_roots == [r for r in expected if r]
    if shape == "double":
        assert expected == sorted({0, a} if zero_power else {a})


def test_residue_roots_of_degree_at_most_two_are_neither_scanned_nor_split(monkeypatch):
    def no_search(cs, ell):
        raise AssertionError("a cofactor of degree <= 2 reached the scan or the Frobenius path")

    monkeypatch.setattr(padic, "_scan_roots", no_search)
    monkeypatch.setattr(padic, "_gcd_with_frobenius", no_search)
    for ell in (3, 5, 131, 137, 3001):
        assert padic._roots_mod([0, 0, 2 + ell, -1], ell) == [0, 2]
        assert padic._roots_mod([-4, ell, 1], ell) == sorted([2, ell - 2])
        assert padic._roots_mod([9, 6 + ell, 1], ell) == [ell - 3]
    # at l = 2 a cofactor of degree 2 is answered by its values at 0 and 1
    assert padic._roots_mod([1, 3], 2) == [1]
    assert padic._roots_mod([1, 1, 1], 2) == []
    assert padic._roots_mod([1, 0, 1], 2) == [1]


@settings(max_examples=200, deadline=None)
@given(
    ell=st.sampled_from(RESIDUE_PRIMES),
    low=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
    high=st.lists(st.integers(-3, 3), max_size=2),
    lead=st.sampled_from([-2, -1, 1, 2]),
)
@example(ell=5, low=[-6, 1], high=[], lead=1)  # -6 + x + 5x^2 is x + 4 mod 5
def test_roots_mod_takes_unreduced_coefficients_and_leaves_them_unchanged(ell, low, high, lead):
    """A tuple of integers whose leading coefficients vanish mod l, and the
    same as a list ending in a zero: _roots_mod answers what the scan of
    every residue answers on any path, closed forms included, and changes
    neither argument."""
    coeffs = tuple(low) + tuple(ell * c for c in high) + (ell * lead,)
    assume(any(c % ell for c in low))
    expected = _scan_residue_roots(coeffs, ell)
    assert padic._roots_mod(coeffs, ell) == expected
    as_list = [*coeffs, 0]
    assert padic._roots_mod(as_list, ell) == expected
    assert as_list == [*coeffs, 0]


def test_crossover_script_reports_a_fault_in_tates_machine_and_runs_on(monkeypatch, capsys):
    """A TateInvariantError at one place of the frame check is printed as a
    disagreement; the other places and the double-root check still run, and
    the script exits with code 1."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "residue_crossover.py"
    spec = importlib.util.spec_from_file_location("residue_crossover", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real_tate_local = script.tate_local

    def faulty_tate_local(E, ell):
        if ell == 11:
            raise tate.TateInvariantError("step 6 normalization failed")
        return real_tate_local(E, ell)

    monkeypatch.setattr(script, "tate_local", faulty_tate_local)
    monkeypatch.setattr(script, "ELLS", ())  # no timing table
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "Tate's algorithm failed on (0, -1, 1, -10, -20) at 11: step 6 normalization failed" in out
    assert "closed-form residue roots against the Frobenius path" in out
    assert "closed-form double roots against both paths: 537 squares" in out


# The list-level kernel that padic._linear_powmod_ell replaced, kept as the
# reference for the packed one; it reduces by the remainder of
# padic._poly_divmod_ell.
_divmod, _mul = padic._poly_divmod_ell, padic._mul


def _poly_mulmod_ell(a: list[int], b: list[int], mod: list[int], ell: int) -> list[int]:
    return _divmod(_mul(a, b), mod, ell)[1]


def _linear_powmod_ell(c: int, e: int, f: list[int], ell: int) -> list[int]:
    """(x + c)^e mod f over F_l, left to right: square on every bit of e and
    multiply by x + c (a shift, a scaled add and one reduction) on each 1-bit."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _poly_mulmod_ell(r, r, f, ell)
        if bit == "1":
            t = [0] + r
            for i, v in enumerate(r):
                t[i] += c * v
            r = _divmod(t, f, ell)[1]
    return r


# 2^79 + 23, the least prime above 2^79
POWMOD_PRIMES = [2, 3, 5, 7, 11, 157, 163, 307, 3001, 26557, 999983, 604462909807314587353111]


def _reduced(cs: list[int], ell: int) -> list[int]:
    out = [c % ell for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


@settings(max_examples=200, deadline=None)
@given(ell=st.sampled_from(POWMOD_PRIMES), data=st.data())
def test_poly_divmod_is_division_with_remainder(ell, data):
    """a = q b + r over F_l with deg r < deg b, for an unreduced a (the
    kernel above hands it products) and for an exact multiple q0 b, which is
    how ``_linear_roots_mod`` divides a factor by a gcd: r = [] there."""
    n = data.draw(st.integers(0, 8))
    b = data.draw(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n)) + [data.draw(st.integers(1, ell - 1))]
    a = data.draw(st.lists(st.integers(-ell * ell, ell * ell), max_size=18))
    q, r = _divmod(a, b, ell)
    assert len(r) <= n and (not r or r[-1]) and all(0 <= c < ell for c in q + r)
    assert _reduced(padic._sub(a, _mul(q, b)), ell) == r
    q0 = data.draw(st.lists(st.integers(0, ell - 1), max_size=8)) + [data.draw(st.integers(1, ell - 1))]
    assert _divmod(_reduced(_mul(q0, b), ell), b, ell) == (q0, [])


@settings(max_examples=300, deadline=None)
@given(
    ell=st.sampled_from(POWMOD_PRIMES),
    degree=st.integers(1, 24),
    worst=st.booleans(),
    data=st.data(),
)
def test_packed_powmod_matches_list_reference(ell, degree, worst, data):
    """Packed (x + c)^e mod f against the list-level kernel, for deg f from 1
    to 24; ``worst`` sets c and every coefficient of f to l - 1, the
    largest canonical inputs."""
    if worst:
        f, c = [ell - 1] * (degree + 1), ell - 1
    else:
        f = data.draw(st.lists(st.integers(0, ell - 1), min_size=degree, max_size=degree))
        f.append(data.draw(st.integers(1, ell - 1)))
        c = data.draw(st.sampled_from([0, ell - 1]) | st.integers(0, ell - 1))
    e = data.draw(
        st.sampled_from([ell, (ell - 1) // 2])
        | st.integers(0, 90).map(lambda k: 2**k - 1)
        | st.integers(0, 2**96)
    )
    assert padic._linear_powmod_ell(c, e, f, ell) == _linear_powmod_ell(c, e, f, ell)


def _compose_affine_reference(f: IntegerPolynomial, scale: int, offset: int) -> IntegerPolynomial:
    """Reference: f(scale x + offset), composed by sympy."""
    return expand(as_poly(f).compose(scale * X + offset))


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-10**12, 10**12), max_size=25),
    scale=st.integers(-50, 50),
    offset=st.integers(-10**6, 10**6),
)
def test_compose_affine_matches_horner_reference(coeffs, scale, offset):
    f = IntegerPolynomial(coeffs)
    assert f.compose_affine(scale, offset) == _compose_affine_reference(f, scale, offset)
    if not f.is_zero:  # moved is arithmetic only, so any primitive f stands in for a squarefree one
        u, g = scale or 1, padic._certified(f.primitive_part())
        assert g.moved(u, offset) == _compose_affine_reference(g, u * u, offset).primitive_part()


def test_valuation_int_fast_path_matches_fraction_path():
    rng = random.Random(8)
    for _ in range(300):
        ell = rng.choice(SMALL_PRIMES + [1009, 65521, 65537, 999983])
        x = rng.choice([1, -1]) * rng.randint(1, 10**6) * ell ** rng.randint(0, 5)
        assert valuation(x, ell) == valuation(Fraction(x), ell)
    with pytest.raises(ValueError, match="valuation of zero"):
        valuation(Fraction(0), 5)


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**j, n) == n - 1 for j in range(1, s))


def test_is_prime_table_and_miller_rabin_match_sympy():
    assert padic._PSI_13 == PSI_13
    assert [n for n in range(-3, 1 << 16) if padic._is_prime(n)] == padic._SMALL_PRIMES
    assert padic._SMALL_PRIMES == [n for n in range(1 << 16) if isprime(n)]
    rng = random.Random(9)
    for _ in range(2000):
        n = rng.randrange(1 << 16, 10**rng.randint(5, 24))
        assert padic._is_prime(n) == isprime(n), n
    for n in (2**31 - 1, 2**61 - 1, 2**67 - 1, 3215031751, 3825123056546413051):
        assert padic._is_prime(n) == isprime(n), n


def test_is_prime_rejects_psi_12_and_raises_from_psi_13():
    # psi_12 = 399165290221 * 798330580441 fools the bases 2..37; base 41 catches it
    assert all(_strong_probable_prime(PSI_12, a) for a in padic._MR_BASES[:12])
    assert not padic._is_prime(PSI_12)
    # psi_13 fools all 13 bases, so the test stops below it
    assert all(_strong_probable_prime(PSI_13, a) for a in padic._MR_BASES)
    assert not padic._is_prime(PSI_13 - 1)
    for n in (PSI_13, nextprime(PSI_13), 10**30):
        with pytest.raises(ValueError, match="psi_13"):
            padic._is_prime(n)
    x2_minus_1 = IntegerPolynomial([-1, 0, 1])
    with pytest.raises(ValueError, match="must be prime"):
        find_roots_padic(x2_minus_1, PSI_12)
    # entry points that take l from the factoring defer to sympy above psi_13
    assert len(find_roots_padic(x2_minus_1, nextprime(PSI_13))) == 2
    with pytest.raises(ValueError, match="must be prime"):
        find_roots_padic(x2_minus_1, PSI_13)


_E11 = WeierstrassCurve(0, -1, 1, -10, -20)


@pytest.mark.parametrize("entry, message", [
    (lambda: tate.tate_local(_E11, 5.0), "integers"),
    (lambda: tate.tate_local(_E11, "5"), "integers"),
    (lambda: tate.tate_local(_E11, True), "must be prime, got True"),
    (lambda: find_roots_padic(IntegerPolynomial([-1, 0, 1]), 3.0), "integers"),
    (lambda: valuation(25, 5.0), "integers"),
    (lambda: FiniteFieldCurve(_E11, 7.0), "integers"),
], ids=["tate_local-float", "tate_local-str", "tate_local-bool", "find_roots_padic", "valuation", "FiniteFieldCurve"])
def test_a_non_int_prime_raises_value_error(entry, message):
    # 5.0 == 5 and hash(5.0) == hash(5): the Tate memo keys on the type
    # too, so 5.0 misses the entry of 5 and reaches the prime check, as
    # True misses that of 1; a raise caches nothing
    data = tate.tate_local(_E11, 5)
    with pytest.raises(ValueError, match=message):
        entry()
    assert tate.tate_local.cache_info().hits == 0 and tate.tate_local.cache_info().currsize == 1
    assert tate.tate_local(_E11, 5) is data


@pytest.fixture
def factorint_calls(monkeypatch):
    """Counts the cofactors that reach the sympy fallback."""
    import sympy

    calls = []
    real = sympy.factorint

    def spy(n, *args, **kwargs):
        calls.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(sympy, "factorint", spy)
    return calls


def test_prime_divisors_of_corpus_discriminants(corpus, factorint_calls):
    for rec in corpus:
        for n in (int(rec.curve().discriminant), rec.conductor):
            assert prime_divisors(n) == sorted(factorint(abs(n))), (rec.label, n)
    factorint_calls.clear()
    for rec in corpus:
        prime_divisors(int(rec.curve().discriminant))
    assert not factorint_calls  # every corpus discriminant is certified without sympy


def test_prime_divisors_semiprimes_and_prime_powers(factorint_calls):
    rng = random.Random(10)
    cases = []
    for bits in (20, 24, 28, 32, 36, 40):
        a, b = (nextprime(rng.randrange(1 << (bits - 1), 1 << bits)) for _ in range(2))
        cases.append(rng.choice([1, -1]) * a * b * rng.choice([1, 2, 6, 30]))
    for q in (65537, 1000003):
        cases += [q**2, q**3 * 11, q**2 * nextprime(q) ** 2]
    cases += [(2**31 - 1) ** 2, (2**31 - 1) ** 2 * 11]
    assert all(abs(n) < PSI_13 for n in cases)  # so no cofactor needs sympy
    for n in cases:
        assert prime_divisors(n) == sorted(factorint(abs(n))), n
    assert prime_divisors(PSI_12) == [399165290221, 798330580441]
    assert prime_divisors(-1) == prime_divisors(1) == []
    assert not factorint_calls
    with pytest.raises(ValueError):
        prime_divisors(0)


def test_prime_divisors_hands_large_or_unsplit_cofactors_to_sympy(factorint_calls, monkeypatch):
    big = nextprime(PSI_13)  # beyond the exact primality range: only sympy may call it prime
    assert prime_divisors(6 * big) == [2, 3, big]
    assert factorint_calls == [big]
    factorint_calls.clear()
    rng = random.Random(12)
    n = nextprime(rng.randrange(1 << 29, 1 << 30)) * nextprime(rng.randrange(1 << 29, 1 << 30))
    monkeypatch.setattr(padic, "_RHO_STEPS", 64)  # too few steps to split n
    assert padic._pollard_brent(n) is None
    assert prime_divisors(n) == sorted(factorint(n))
    assert factorint_calls == [n]


_PRIMES_BELOW_2_8 = [q for q in range(2, 256) if isprime(q)]


@st.composite
def _large_part(draw):
    """A prime in [2^16, psi_13), a power of a prime in [2^16, 2^24), or a
    product of two primes in [257, 2^24]: a cofactor the first stage of
    trial division leaves whole."""
    shape = draw(st.sampled_from(["prime", "power", "two primes"]))
    if shape == "prime":
        return nextprime(draw(st.integers(1 << 16, PSI_13 - 10**6)))
    if shape == "power":
        return nextprime(draw(st.integers(1 << 16, 1 << 24))) ** draw(st.integers(2, 3))
    a, b = (nextprime(draw(st.integers(256, 1 << 24))) for _ in range(2))
    return a * b


@settings(max_examples=200, deadline=None)
@given(
    small=st.lists(st.tuples(st.sampled_from(_PRIMES_BELOW_2_8), st.integers(1, 4)), max_size=5),
    large=_large_part(),
    sign=st.sampled_from([1, -1]),
)
def test_prime_divisors_match_sympy(small, large, sign):
    n = sign * large
    for q, e in small:
        n *= q**e
    assert prime_divisors(n) == primefactors(n)


def test_prime_divisors_proves_a_large_prime_cofactor_before_the_second_stage(corpus, monkeypatch):
    """The discriminant of syn-11-i7s is -2 * 11^k * 1642886909 up to the
    powers: after the primes below 2^8 the cofactor 1642886909 is proved
    prime, and no trial divisor above 257 runs."""
    events = []
    real_is_prime = padic._is_prime

    def is_prime(n):
        events.append(("is_prime", n))
        return real_is_prime(n)

    def second_stage():
        for q in padic._SMALL_PRIMES[54:]:
            events.append(("divisor", q))
            yield q

    first, _ = padic._TRIAL_STAGES
    monkeypatch.setattr(padic, "_is_prime", is_prime)
    monkeypatch.setattr(padic, "_TRIAL_STAGES", (first, second_stage()))
    disc = next(rec for rec in corpus if rec.label == "syn-11-i7s").curve().discriminant
    assert prime_divisors(disc) == [2, 11, 1642886909]
    proved = events.index(("is_prime", 1642886909))
    assert all(q <= 257 for kind, q in events[proved:] if kind == "divisor")
    assert not any(kind == "divisor" for kind, _ in events[:proved])


def _sympy_rational_roots(f: IntegerPolynomial) -> list[Fraction]:
    """Reference: the linear factors of f over Q, from sympy's factorization."""
    x = Symbol("x")
    roots = []
    for factor, _mult in Poly(list(reversed(f.coeffs)), x).factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = (int(c) for c in factor.all_coeffs())
            roots.append(Fraction(-c0, c1))
    return sorted(roots)


def _tate_normal_form(b: Fraction, c: Fraction) -> WeierstrassCurve:
    """y^2 + (1 - c)xy - by = x^3 - bx^2, which has the rational point (0, 0),
    scaled to an integral model."""
    u = b.denominator * c.denominator
    return WeierstrassCurve(*(int(a * u**i) for a, i in zip((1 - c, -b, -b, 0, 0), (1, 2, 3, 4, 6))))


def test_rational_roots_of_division_polynomials_match_sympy(corpus):
    rng = random.Random(11)
    curves = [rec.curve() for rec in corpus]
    while len(curves) < len(corpus) + 30:
        try:
            curves.append(WeierstrassCurve(*(rng.randint(-40, 40) for _ in range(5))))
        except ValueError:
            pass
    for t in (Fraction(2), Fraction(-3, 2), Fraction(5, 3)):
        curves.append(_tate_normal_form(t, t))  # a point of order 5
        curves.append(_tate_normal_form(t**3 - t**2, t**2 - t))  # a point of order 7
    found = 0
    for E in curves:
        for p in (3, 5, 7):
            psi = division_polynomial(E, p)
            roots = rational_roots(psi)
            assert roots == _sympy_rational_roots(psi), (E, p)
            assert all(psi(r) == 0 for r in roots)
            found += len(roots)
    assert found >= 12


@settings(max_examples=150, deadline=None)
@given(
    planted=st.lists(
        st.tuples(st.integers(-10**6, 10**6), st.integers(1, 60)), max_size=4, unique_by=lambda ad: Fraction(ad[0], ad[1])),
    cofactor=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=6),
    zero_root=st.integers(0, 1),
)
def test_rational_roots_recover_planted_roots(planted, cofactor, zero_root):
    """Each planted root once; the product is squarefree unless the cofactor
    has a repeated factor or shares a root, and is refused then."""
    f = as_poly(IntegerPolynomial(cofactor)) * X**zero_root
    assume(not f.is_zero)
    for a, d in planted:
        f *= d * X - a  # the root a/d, with d | lc(f)
    f = expand(f)
    assume(f.degree >= 1)
    if _sympy_squarefree_part(f) != f.primitive_part():
        with pytest.raises(ValueError, match="has a repeated factor"):
            rational_roots(f)
        return
    roots = rational_roots(f)
    assert roots == _sympy_rational_roots(f)
    assert {Fraction(a, d) for a, d in planted} <= set(roots)
    assert (Fraction(0) in roots) == (zero_root > 0 or f(0) == 0)


@settings(max_examples=150, deadline=None)
@given(
    planted=st.lists(
        st.tuples(st.integers(-10**6, 10**6), st.integers(1, 60)), max_size=4, unique_by=lambda ad: Fraction(ad[0], ad[1])),
    q=st.sampled_from([2, 3, 5, 7]),
    lead=st.integers(1, 50),
    middle=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=5),
    constant=st.integers(-10**4, 10**4),
)
def test_rational_roots_are_exactly_the_planted_roots(planted, q, lead, middle, constant):
    """prod (d_i x - a_i) times an Eisenstein polynomial h at q, which is
    irreducible of degree >= 2 and so has no rational root: the rational
    roots are exactly the a_i / d_i."""
    assume(lead % q and constant % q)
    h = IntegerPolynomial([q * constant] + [q * c for c in middle] + [lead])
    f = as_poly(h)
    for a, d in planted:
        f *= d * X - a
    roots = rational_roots(expand(f))
    assert roots == sorted(Fraction(a, d) for a, d in planted)


def test_rational_roots_read_the_certified_walk_at_the_certificate_prime(monkeypatch):
    """rational_roots takes its roots in Z_q from find_roots_padic at q, the
    prime of _certificate_prime.  Every residue root of g mod q is simple
    there, so the walk certifies each on g at its residue and opens no child
    (no Taylor shift)."""
    calls, shifts = [], []
    real_find, real_compose = padic.find_roots_padic, IntegerPolynomial.compose_affine

    def spy_find(f, ell):
        roots = real_find(f, ell)
        calls.append((f, ell, roots))
        return roots

    def spy_compose(f, scale, offset):
        shifts.append((scale, offset))
        return real_compose(f, scale, offset)

    g = IntegerPolynomial([0, -30030, 1])  # x(x - 30030): q = 17
    psi = certified_psi(WeierstrassCurve(0, -1, 1, -10, -20), 5)  # 11a1 has a point of order 5
    monkeypatch.setattr(padic, "find_roots_padic", spy_find)
    monkeypatch.setattr(IntegerPolynomial, "compose_affine", spy_compose)
    for f, expected in ((g, [0, 30030]), (psi, [5, 16])):
        calls.clear()
        assert rational_roots(f) == expected
        q = padic._certificate_prime(f)
        [(h, ell, roots)] = calls
        assert (h, ell) == (f, q) and len(roots) == len(expected)
        assert all((root.witness, root.scale, root.offset) == (f, 1, 0) for root in roots)
    assert shifts == []


def test_rational_roots_edge_cases():
    assert rational_roots(IntegerPolynomial([7])) == []
    assert rational_roots(IntegerPolynomial([1, 0, 1])) == []  # x^2 + 1
    assert rational_roots(IntegerPolynomial([-2, 0, 1])) == []  # x^2 - 2
    assert rational_roots(IntegerPolynomial([6, -5, 1])) == [2, 3]
    with pytest.raises(ValueError, match="has a repeated factor"):
        rational_roots(expand((X**2 - 5 * X + 6) ** 3))
    assert rational_roots(expand(6 * (4 * X**2 - 1))) == [Fraction(-1, 2), Fraction(1, 2)]
    with pytest.raises(ValueError, match="zero polynomial"):
        rational_roots(IntegerPolynomial([]))
