"""Arithmetic substrate: valuations, local square tests, l-adic root counting."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, discriminant, factorint, isprime, nextprime

from tamagawa import padic
from tamagawa.curves import WeierstrassCurve
from tamagawa.localorders import division_polynomial
from tamagawa.padic import (
    IntegerPolynomial,
    PadicRoot,
    PrecisionExhausted,
    find_roots_padic,
    is_square_local,
    prime_divisors,
    rational_roots,
    valuation,
    value_is_square_at_root,
)

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


@pytest.mark.parametrize("bad", [0.25, 4.0, "4"])
def test_is_square_local_rejects_inexact_input(bad):
    with pytest.raises(ValueError, match="not an exact rational"):
        is_square_local(bad, 5)


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


def test_square_examples():
    assert is_square_local(4, 5)
    assert not is_square_local(5, 5)
    assert is_square_local(2, 7)  # 3^2 = 9 = 2 (mod 7)
    assert is_square_local(17, 2)  # 17 = 1 (mod 8), even valuation
    assert not is_square_local(3, 2)
    assert not is_square_local(2, 2)


def test_squares_are_squares():
    rng = random.Random(2)
    for _ in range(500):
        ell = rng.choice(SMALL_PRIMES)
        x = Fraction(rng.randint(1, 10**5), rng.randint(1, 10**5)) * rng.choice([1, -1])
        assert is_square_local(x * x, ell)


def test_count_roots_examples():
    assert len(find_roots_padic(IntegerPolynomial([-1, 0, 1]), 3)) == 2
    assert len(find_roots_padic(IntegerPolynomial([-3, 0, 1]), 3)) == 0
    assert len(find_roots_padic(IntegerPolynomial([1, 0, 1]), 5)) == 2


def test_count_roots_rejects_degenerate():
    with pytest.raises(ValueError, match="constant"):
        len(find_roots_padic(IntegerPolynomial([]), 5))
    with pytest.raises(ValueError, match="constant"):
        len(find_roots_padic(IntegerPolynomial([3]), 5))


def test_negative_valuation_roots():
    # 25x^2 - 1 has the two roots +-1/5 in Q_5, neither integral
    f = IntegerPolynomial([-1, 0, 25])
    roots = find_roots_padic(f, 5)
    assert len(roots) == 2
    assert [r.shift for r in roots] == [1, 1]
    assert [valuation(r.approx(4), 5) for r in roots] == [-1, -1]
    for r in roots:
        val = f(r.approx(6))
        assert val == 0 or valuation(val, 5) >= 5  # f(x_hat) ~ 0 to the certified depth


def test_mixed_valuation_root_set():
    # (5x - 1)(x - 5)(x - 1): roots 1/5, 5, 1 all lie in Q_5
    f = IntegerPolynomial([-1, 5]) * IntegerPolynomial([-5, 1]) * IntegerPolynomial([-1, 1])
    roots = find_roots_padic(f, 5)
    assert sorted(valuation(r.approx(4), 5) for r in roots) == [-1, 0, 1]


def _newton_polygon_positive_slopes(f: IntegerPolynomial, ell: int) -> list[int]:
    """Reference: the hull walk without the early exit at a unit lead."""
    pts = [(i, padic._int_valuation(c, ell)) for i, c in enumerate(f.coeffs) if c != 0]
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    slopes = set()
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        num, den = y2 - y1, x2 - x1
        if num > 0 and num % den == 0:
            slopes.add(num // den)
    return sorted(slopes)


@settings(max_examples=300, deadline=None)
@given(
    ell=st.sampled_from([2, 3, 5, 7, 1009]),
    coeffs=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=12),
    lead=st.integers(1, 10**4),
    lead_power=st.integers(0, 6),
    scales=st.lists(st.integers(0, 8), min_size=12, max_size=12),
)
def test_newton_polygon_exit_matches_the_hull(ell, coeffs, lead, lead_power, scales):
    """Coefficients scaled by random powers of l give polygons of every
    shape; the lead is a unit or l^lead_power times one."""
    cs = [c * ell**k for c, k in zip(coeffs, scales)] + [lead * ell**lead_power]
    f = IntegerPolynomial(cs)
    assert padic._newton_polygon_positive_slopes(f, ell) == _newton_polygon_positive_slopes(f, ell)


@pytest.mark.parametrize("ell", [3, 5, 7, 1009])
def test_root_of_shift_one_survives_the_newton_polygon_exit(ell):
    # (l x - 1)(x - 2): the root 1/l has shift 1, the root 2 is integral
    f = IntegerPolynomial([-1, ell]) * IntegerPolynomial([-2, 1])
    roots = find_roots_padic(f, ell)
    assert sorted(r.shift for r in roots) == [0, 1]
    assert sorted(r.approx(6) for r in roots) == sorted([Fraction(1, ell), 2])


def _random_constructed_poly(rng: random.Random, ell: int):
    """Product of linear factors with known Q_l roots times a mod-l
    irreducible quadratic (hence without Q_l roots)."""
    roots = set()
    f = IntegerPolynomial([1])
    for _ in range(rng.randint(0, 3)):
        num = rng.randint(-30, 30)
        den = rng.choice([1, 1, ell])  # occasional negative-valuation root
        if den != 1 and num % ell == 0:
            num += 1
        f = f * IntegerPolynomial([-num, den])
        roots.add(Fraction(num, den))
    while True:
        b, c = rng.randint(0, ell - 1), rng.randint(1, ell - 1)
        disc = (b * b - 4 * c) % ell
        if pow(disc, (ell - 1) // 2, ell) == ell - 1:  # nonresidue: irreducible
            f = f * IntegerPolynomial([c, b, 1])
            break
    return f, roots


def test_count_roots_constructed_oracle():
    rng = random.Random(3)
    for _ in range(200):
        ell = rng.choice([3, 5, 7])
        f, roots = _random_constructed_poly(rng, ell)
        assert len(find_roots_padic(f, ell)) == len(roots)


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
        mine = sum(1 for r in find_roots_padic(f, ell) if r.shift == 0)
        brute = _brute_integral_root_count(coeffs, ell, M)
        assert mine == brute, (coeffs, ell, mine, brute)
        checked += 1


def test_root_multiplicity_distinct_count():
    rng = random.Random(5)
    for _ in range(50):
        ell = rng.choice([3, 5, 7])
        f, roots = _random_constructed_poly(rng, ell)
        r = rng.randint(31, 60)  # outside the constructed root range
        g = f * IntegerPolynomial([-r, 1])
        assert len(find_roots_padic(g, ell)) == len(find_roots_padic(f, ell)) + 1
        # repeating an existing factor must not change the distinct count
        h = g * IntegerPolynomial([-r, 1])
        assert len(find_roots_padic(h, ell)) == len(find_roots_padic(g, ell))


def test_find_roots_requires_prime_ell():
    with pytest.raises(ValueError, match="must be prime"):
        find_roots_padic(IntegerPolynomial([-1, 0, 1]), 4)


def test_precision_ceiling_reports_undecided(monkeypatch):
    # roots congruent to high depth force deep lift-and-split;
    # a tiny ceiling must produce "undecided", never a wrong count
    f = IntegerPolynomial([-1, 1]) * IntegerPolynomial([-1 - 3**8, 1])
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


def test_roots_come_depth_first_in_residue_order():
    # residue 1 splits five levels deep before the simple residue 2 is certified
    f = IntegerPolynomial([-2, 1]) * IntegerPolynomial([-1, 1]) * IntegerPolynomial([-1 - 3**5, 1])
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
    return PadicRoot(root.ell, root.witness, root.t0, root.scale, root.offset, root.shift)


@pytest.mark.parametrize("ell", [2, 3, 7, 1009])
def test_doubling_the_digits_continues_the_last_lift(ell, monkeypatch):
    """After approx(A), approx(2A) is what a fresh root gives, and that
    doubling costs one Newton step: one evaluation of the witness and one of
    its derivative.  A shallower approx then needs no evaluation at all."""
    # 1/l has shift 1; 1 + 8 l^3 is a unit square in Z_l, also at l = 2
    f = IntegerPolynomial([-1, ell]) * IntegerPolynomial([-(1 + 8 * ell**3), 0, 1])
    roots = find_roots_padic(f, ell)
    assert sorted(r.shift for r in roots) == [0, 0, 1]
    evaluations = []
    real_call = IntegerPolynomial.__call__
    for root in roots:
        for digits in (5, 10, 20, 40):
            assert root.approx(digits) == _fresh(root).approx(digits)
        with monkeypatch.context() as m:
            m.setattr(IntegerPolynomial, "__call__", lambda g, x: evaluations.append(x) or real_call(g, x))
            evaluations.clear()
            deep = root.approx(80)
            assert len(evaluations) == 2
            evaluations.clear()
            shallow = root.approx(30)
            assert evaluations == []
        assert deep == _fresh(root).approx(80)
        assert shallow == _fresh(root).approx(30)


def _square_at_root_from_the_old_start(h: IntegerPolynomial, root: PadicRoot) -> bool:
    """Reference: value_is_square_at_root as it was, starting at max(8, 4s + 8)
    digits under the same stop rule."""
    ell, s = root.ell, root.shift
    slack = min(padic._int_valuation(c, ell) - (i - 1) * s for i, c in enumerate(h.coeffs) if i >= 1)
    margin = 3 if ell == 2 else 1
    digits = max(8, 4 * s + 8)
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
    """f = (d x - a)(x - b) with d = l^s * unit has the roots a/d (shift s when
    l does not divide a, found through reverse_scale) and b.  On
    h = (d x - a) q(x) + l^e w, h(a/d) = l^e w has valuation e, and h(b) is
    whatever it is.  At each root the square test answers as it did from
    8 + 4s digits, and as is_square_local on the exact value."""
    assume(unit % ell and w % ell and a != b * unit * ell**s and any(q))
    lin = IntegerPolynomial([-a, unit * ell**s])
    h = lin * IntegerPolynomial(q) + IntegerPolynomial([ell**e * w])
    assume(h(b) != 0)
    roots = find_roots_padic(lin * IntegerPolynomial([-b, 1]), ell)
    answers = [value_is_square_at_root(h, root) for root in roots]
    assert answers == [_square_at_root_from_the_old_start(h, root) for root in roots]
    assert sorted(answers) == sorted([is_square_local(ell**e * w, ell), is_square_local(h(b), ell)])


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


def _rational_squarefree_part(f: IntegerPolynomial) -> IntegerPolynomial:
    """Reference: squarefree_part with no certificate primes runs the
    rational Euclid alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(padic, "_SQUAREFREE_PRIMES", ())
        return f.squarefree_part()


@pytest.fixture
def rational_gcd_calls(monkeypatch):
    """Counts the calls that reach the rational-Euclid fallback."""
    calls = []
    real = padic._rational_poly_gcd

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(padic, "_rational_poly_gcd", spy)
    return calls


@pytest.mark.parametrize("p", [3, 5, 7])
def test_squarefree_part_certifies_division_polynomials(corpus, p, rational_gcd_calls):
    for rec in corpus[:6]:
        psi = division_polynomial(rec.curve(), p)
        reference = _rational_squarefree_part(psi)
        rational_gcd_calls.clear()
        assert psi.squarefree_part() == reference == psi.primitive_part()
        assert not rational_gcd_calls  # certified mod a prime, no Fraction Euclid


def test_squarefree_part_removes_repeated_factor(rational_gcd_calls):
    a, b = IntegerPolynomial([-3, 2]), IntegerPolynomial([5, 0, 1])
    f = a**3 * b**2 * 6
    assert f.squarefree_part() == a * b
    assert rational_gcd_calls


def test_squarefree_part_falls_back_when_every_prime_collapses(rational_gcd_calls):
    # x(x - q1 q2 q3) is squarefree over Q but x^2 modulo every certificate prime
    q1, q2, q3 = padic._SQUAREFREE_PRIMES
    f = IntegerPolynomial([0, -q1 * q2 * q3, 1])
    assert f.squarefree_part() == f
    assert rational_gcd_calls


def test_squarefree_part_lead_divisible_by_every_prime(rational_gcd_calls):
    q1, q2, q3 = padic._SQUAREFREE_PRIMES
    f = IntegerPolynomial([-1, 1, q1 * q2 * q3])
    assert f.squarefree_part() == f
    assert rational_gcd_calls
    g = f * f * IntegerPolynomial([2, 1])
    assert g.squarefree_part() == f * IntegerPolynomial([2, 1])


def test_certified_polynomial_is_not_certified_again(corpus, monkeypatch):
    psi = division_polynomial(corpus[0].curve(), 5)
    sf = psi.squarefree_part()
    assert isinstance(sf, padic.SquarefreePolynomial) and not isinstance(psi, padic.SquarefreePolynomial)
    assert sf.squarefree_part() is sf and sf.primitive_part() is sf
    assert (psi * 6).squarefree_part() == sf == psi.primitive_part()  # certified on the primitive part
    assert type(sf + sf) is type(sf * 2) is IntegerPolynomial  # arithmetic drops the certificate
    calls = []
    real = IntegerPolynomial.squarefree_part
    monkeypatch.setattr(IntegerPolynomial, "squarefree_part", lambda f: calls.append(f) or real(f))
    assert len(find_roots_padic(sf, 11)) == len(find_roots_padic(psi, 11))
    assert calls == [psi]
    with pytest.raises(ValueError, match="zero polynomial"):
        real(IntegerPolynomial([]))


def test_squarefree_part_matches_rational_reference():
    rng = random.Random(6)
    for _ in range(300):
        f = IntegerPolynomial([rng.randint(1, 5)])
        for _ in range(rng.randint(1, 4)):
            factor = IntegerPolynomial([rng.randint(-20, 20) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 4)])
            f = f * factor ** rng.randint(1, 3)
        assert f.squarefree_part() == _rational_squarefree_part(f), f


def test_exact_division_remainder_raises():
    with pytest.raises(ArithmeticError, match="exact division expected"):
        padic._rational_poly_divide_exact([1, 0, 1], [Fraction(1), Fraction(1)])


def test_lift_rejects_singular_witness():
    root = PadicRoot(5, IntegerPolynomial([0, 0, 1]), 0, 1, 0, 0)  # x^2 at t0 = 0
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
    with pytest.raises(ValueError, match="negative exponent"):
        IntegerPolynomial([1, 1]) ** -1
    with pytest.raises(ValueError, match="zero polynomial"):
        IntegerPolynomial([0]).strip_prime_content(3)


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


@settings(max_examples=150, deadline=None)
@given(
    ell=st.sampled_from(RESIDUE_PRIMES),
    planted=st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 3)), max_size=4),
    cofactor=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    lead_divisible=st.booleans(),
)
def test_residue_roots_match_scan(ell, planted, cofactor, lead_divisible):
    lead = (cofactor[-1] or 1) * (ell if lead_divisible else 1)
    f = IntegerPolynomial(cofactor[:-1] + [lead])
    for r, m in planted:
        f = f * IntegerPolynomial([-r, 1]) ** m
    assume(1 <= f.degree <= 24 and any(c % ell for c in f.coeffs))
    assert padic._residue_roots(f, ell) == _scan_residue_roots(f.coeffs, ell)


def test_residue_roots_paths_agree_across_the_scan_limit():
    # psi_7 of 5077a1 on both paths, below and above the scan limit
    psi = division_polynomial(WeierstrassCurve(0, 0, 1, -7, 6), 7)
    ells = (131, 137, 1009, 3001)
    assert ells[0] <= padic._RESIDUE_SCAN_LIMIT < ells[1]
    for ell in ells:
        expected = _scan_residue_roots(psi.coeffs, ell)
        assert padic._linear_roots_mod(padic._gcd_with_frobenius(list(psi.coeffs), ell), ell) == expected
        assert padic._residue_roots(psi, ell) == expected


def test_residue_roots_skip_a_constant_reduction(monkeypatch):
    """A polynomial that is a nonzero constant mod l has no residue roots
    and is neither scanned nor split; one that is zero mod l raises on the
    scan path and on the Frobenius path alike."""

    def no_scan(cs, ell):
        raise AssertionError("a constant reduction was scanned")

    monkeypatch.setattr(padic, "_scan_roots", no_scan)
    monkeypatch.setattr(padic, "_gcd_with_frobenius", no_scan)
    for ell in (2, 3, 131, 137, 3001):
        assert padic._residue_roots(IntegerPolynomial([5 + 7 * ell, 3 * ell, 0, ell]), ell) == []
        assert padic._residue_roots(IntegerPolynomial([1, 2 * ell, ell * ell]), ell) == []
    monkeypatch.undo()
    for ell in (2, 5, 131, 137, 3001):
        with pytest.raises(ValueError, match="zero mod"):
            padic._residue_roots(IntegerPolynomial([ell, 0, ell]), ell)


# The list-level kernel that padic._linear_powmod_ell replaced, kept verbatim
# as the reference for the packed one.
_poly_mod_ell, _mul = padic._poly_mod_ell, padic._mul


def _poly_mulmod_ell(a: list[int], b: list[int], mod: list[int], ell: int) -> list[int]:
    return _poly_mod_ell(_mul(a, b), mod, ell)


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
            r = _poly_mod_ell(t, f, ell)
    return r


# 2^79 + 23, the least prime above 2^79
POWMOD_PRIMES = [2, 3, 5, 7, 11, 157, 163, 307, 3001, 26557, 999983, 604462909807314587353111]


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
    """Reference: Horner's rule over IntegerPolynomial temporaries."""
    arg = IntegerPolynomial([offset, scale])
    acc = IntegerPolynomial([])
    for c in reversed(f.coeffs):
        acc = acc * arg + IntegerPolynomial([c])
    return acc


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-10**12, 10**12), max_size=25),
    scale=st.integers(-50, 50),
    offset=st.integers(-10**6, 10**6),
)
def test_compose_affine_matches_horner_reference(coeffs, scale, offset):
    f = IntegerPolynomial(coeffs)
    assert f.compose_affine(scale, offset) == _compose_affine_reference(f, scale, offset)


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
        st.tuples(st.integers(-10**6, 10**6), st.integers(1, 60), st.integers(1, 3)), max_size=4),
    cofactor=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=6),
    zero_root=st.integers(0, 2),
)
def test_rational_roots_recover_planted_roots(planted, cofactor, zero_root):
    f = IntegerPolynomial(cofactor) * IntegerPolynomial([0, 1]) ** zero_root
    assume(not f.is_zero)
    for a, d, m in planted:
        f = f * IntegerPolynomial([-a, d]) ** m  # the root a/d, with d | lc(f)
    assume(f.degree >= 1)
    roots = rational_roots(f)
    assert roots == _sympy_rational_roots(f)
    assert {Fraction(a, d) for a, d, _ in planted} <= set(roots)
    assert (Fraction(0) in roots) == (zero_root > 0 or f(0) == 0)


def test_rational_roots_edge_cases():
    assert rational_roots(IntegerPolynomial([7])) == []
    assert rational_roots(IntegerPolynomial([1, 0, 1])) == []  # x^2 + 1
    assert rational_roots(IntegerPolynomial([-2, 0, 1])) == []  # x^2 - 2
    assert rational_roots(IntegerPolynomial([6, -5, 1]) ** 3) == [2, 3]
    assert rational_roots(IntegerPolynomial([-1, 0, 4]) * 6) == [Fraction(-1, 2), Fraction(1, 2)]
    with pytest.raises(ValueError, match="zero polynomial"):
        rational_roots(IntegerPolynomial([]))
