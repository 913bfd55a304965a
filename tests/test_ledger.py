"""Global bookkeeping: S, global torsion, Euler products, the two-sided
product identity, truncation soundness."""

import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tamagawa.curves import WeierstrassCurve, transform
from tamagawa.euler import global_torsion_order, verify_main_theorem
from tamagawa.lmfdb import fetch_curve
from tamagawa.localorders import (
    Place,
    assemble_local_orders,
    certified_psi,
    check_p,
    division_polynomial,
    local_torsion_order,
)
from tamagawa.padic import IntegerPolynomial, PrecisionExhausted, SquarefreePolynomial, _is_prime, prime_divisors
from tamagawa.tate import phi_p_part_order, tate_local


def test_verify_proves_each_prime_of_S_once(fixtures_dir, monkeypatch):
    """Tate's memo checks l on a miss only: from empty memos, a verify of
    syn-11-i7s at p = 7 asks for Tate's data at each prime of S three times
    (S, phi_p, the torsion count) and proves each prime once."""
    import tamagawa.tate as tate_mod

    proved = Counter()
    real_require_prime = tate_mod._require_prime
    monkeypatch.setattr(tate_mod, "_require_prime", lambda ell: proved.update([ell]) or real_require_prime(ell))
    verify_main_theorem(fetch_curve("syn-11-i7s", fixtures_dir=fixtures_dir).curve(), 7)
    assert proved == {2: 1, 7: 1, 11: 1, 1642886909: 1}


def test_S_examples():
    E = WeierstrassCurve(0, 0, 0, 0, 1)  # disc -432 = -2^4 3^3
    assert [str(p) for p in verify_main_theorem(E, 5).S] == ["oo", "2", "3", "5"]
    assert [str(p) for p in verify_main_theorem(E, 3).S] == ["oo", "2", "3"]
    E11 = WeierstrassCurve(0, -1, 1, -10, -20)
    assert [str(p) for p in verify_main_theorem(E11, 5).S] == ["oo", "5", "11"]


def test_S_contains_real_and_p(corpus):
    for rec in corpus[:10]:
        S = verify_main_theorem(rec.curve(), 7).S
        assert S[0].is_real
        assert Place.finite(7) in S


def test_global_torsion_examples():
    assert global_torsion_order(WeierstrassCurve(0, 0, 0, 1, 0), 3) == 1
    assert global_torsion_order(WeierstrassCurve(0, 0, 1, 0, 0), 3) == 3
    assert global_torsion_order(WeierstrassCurve(0, -1, 1, -10, -20), 5) == 5
    assert global_torsion_order(WeierstrassCurve(0, -1, 1, -10, -20), 7) == 1
    # curve with 7-torsion: y^2 + xy + y = x^3 - x^2 - 3x + 3
    assert global_torsion_order(WeierstrassCurve(1, -1, 1, -3, 3), 7) == 7


def test_global_torsion_matches_fixture_p_parts(corpus):
    import math

    for rec in corpus[:15]:
        E = rec.curve()
        for p in (3, 5, 7):
            expected = math.prod(math.gcd(d, p) for d in rec.torsion_structure)
            assert global_torsion_order(E, p) == expected, rec.label


def test_global_torsion_divides_every_local_torsion_count(corpus):
    """E(Q)[p] embeds in E(Q_l)[p] at every finite place, so on the corpus at
    p up to 13 global torsion divides each place's count.  Global torsion
    comes from the F_q screen or from rational roots at a certificate prime,
    a place's count from the roots in Z_l of psi_p moved into Tate's frame,
    so the relation crosses both routes; it has teeth on the ledgers at p <= 7
    whose global torsion is p."""
    places = 0
    torsion_p = []
    for p in (3, 5, 7, 11, 13):
        for rec in corpus:
            led = verify_main_theorem(rec.curve(), p)
            assert not led.undecided
            finite = [o for o in led.orders if not o.place.is_real]
            for o in finite:
                assert o.torsion_order % led.global_torsion == 0, (rec.label, p, o.place)
            places += len(finite)
            if led.global_torsion == p:
                torsion_p.append((rec.label, p))
    assert places == 1033
    assert len(torsion_p) == 10 and all(p <= 7 for _, p in torsion_p)


def test_chi_is_one_and_factor_breakdown():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    led = verify_main_theorem(E, 3)
    assert led.chi_selmer == 1
    by_place = {o.place: o for o in led.orders}
    real = by_place[Place.real()]
    assert Fraction(real.kummer_order, real.torsion_order) == Fraction(1, 3)
    atp = by_place[Place.finite(3)]
    assert Fraction(atp.kummer_order, atp.torsion_order) == 3


def test_main_identity_examples():
    led = verify_main_theorem(WeierstrassCurve(0, -1, 1, -10, -20), 5)
    assert led.mt_lhs == led.mt_rhs == 5
    assert led.passed
    led = verify_main_theorem(WeierstrassCurve(0, 0, 1, 0, -7), 3)  # IV* with c = 3
    assert led.mt_lhs == led.mt_rhs == 3
    led = verify_main_theorem(WeierstrassCurve(0, 0, 0, 1, 0), 3)  # no p | c anywhere
    assert led.mt_lhs == led.mt_rhs == 1
    assert led.all_phi_trivial


def test_square_chain_identity():
    import math

    led = verify_main_theorem(WeierstrassCurve(0, -1, 1, -10, -20), 5)
    relaxed = math.prod(o.relaxed_order for o in led.orders)
    restricted = math.prod(o.restricted_order for o in led.orders)
    assert relaxed == restricted * led.mt_rhs**2
    assert led.verdicts["square_chain_identity"] is True


def test_truncation_soundness_sampled():
    rng = random.Random(20)
    for ainvs in [(0, -1, 1, -10, -20), (0, 0, 0, 0, 1), (1, 0, 1, 4, -6)]:
        E = WeierstrassCurve(*ainvs)
        for p in (3, 5):
            in_S = {pl.prime for pl in verify_main_theorem(E, p).S if not pl.is_real}
            picked = 0
            while picked < 5:
                ell = rng.randint(7, 400)
                if not _is_prime(ell) or ell in in_S or int(E.discriminant) % ell == 0:
                    continue
                o = assemble_local_orders(E, Place.finite(ell), p)
                assert Fraction(o.kummer_order, o.torsion_order) == 1
                picked += 1


def test_ledger_record_shape():
    led = verify_main_theorem(WeierstrassCurve(0, -1, 1, -10, -20), 5, label="11a1")
    rec = led.to_record()
    assert rec["label"] == "11a1"
    assert rec["S"] == ["real", 5, 11]
    assert rec["chi_selmer"] == "1"
    assert rec["mt_lhs"] == "5" and rec["mt_rhs"] == 5
    assert rec["verdicts"]["euler_characteristic_is_one"] is True
    assert rec["verdicts"]["main_identity"] is True
    assert rec["verdicts"]["global_inequality"] == "not evaluated"
    assert [row["place"] for row in rec["places"]] == ["real", 5, 11]


def test_external_inequality_branch():
    # mt_rhs = 5 here, so the bound is selmer <= restricted * 5
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    led = verify_main_theorem(E, 5, external={"selmer_order": 5, "restricted_order": 1})
    assert led.verdicts["global_inequality"] is True
    led = verify_main_theorem(E, 5, external={"selmer_order": 25, "restricted_order": 5})
    assert led.verdicts["global_inequality"] is True  # boundary: non-strict on purpose
    led = verify_main_theorem(E, 5, external={"selmer_order": 26, "restricted_order": 5})
    assert led.verdicts["global_inequality"] is False


@pytest.mark.parametrize("value", [25.9, "25", 0, -3], ids=["float", "str", "zero", "negative"])
@pytest.mark.parametrize("key", ["selmer_order", "restricted_order"])
def test_external_orders_are_checked_not_truncated(monkeypatch, key, value):
    """An external order that is not an exact integer >= 1 raises, naming its
    key, before the discriminant is factored; a checked order is stored as an int."""
    import tamagawa.euler as euler_mod

    E = WeierstrassCurve(0, -1, 1, -10, -20)
    external = {"selmer_order": 25, "restricted_order": 5, key: value}

    def no_factoring(curve):
        raise AssertionError("the discriminant was factored before the external orders were checked")

    with monkeypatch.context() as m:
        m.setattr(euler_mod, "local_data_for_bad_primes", no_factoring)
        with pytest.raises(ValueError, match=re.escape(f"external {key} must be an integer >= 1, got {value!r}")):
            verify_main_theorem(E, 5, external=external)
    led = verify_main_theorem(E, 5, external={"selmer_order": Fraction(25), "restricted_order": 5, "rank": 0.5})
    assert led.external == {"selmer_order": 25, "restricted_order": 5}
    assert type(led.external["selmer_order"]) is int
    assert verify_main_theorem(E, 5, external={key: 5}).verdicts["global_inequality"] == "not evaluated"


def test_a_ledger_verdict_can_read_false():
    """Dropping the real place (#E(R)[5] = 5, kummer 1) from a real ledger
    leaves chi_selmer = 5: the ledger derives a failed verdict and status from
    what it holds, and no field of it can be reassigned."""
    led = verify_main_theorem(WeierstrassCurve(0, -1, 1, -10, -20), 5)
    assert led.status == "passed" and led.chi_selmer == 1
    broken = dataclasses.replace(led, orders=led.orders[1:])
    assert broken.chi_selmer == 5
    assert broken.verdicts["euler_characteristic_is_one"] is False
    assert broken.passed is False
    assert broken.status == "failed"
    assert broken.to_record()["verdicts"] == broken.verdicts
    for field in dataclasses.fields(led):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(led, field.name, getattr(led, field.name))


class _NoScreen:
    """Stands in for FiniteFieldCurve: every reduction order is 0, so p
    divides it and the finite-field screen never settles the answer."""

    def __init__(self, curve, q):
        pass

    def order(self):
        return 0


def test_global_torsion_rational_root_path_on_corpus(corpus, monkeypatch):
    import tamagawa.euler as euler_mod

    calls = []
    real = euler_mod.rational_roots
    monkeypatch.setattr(euler_mod, "FiniteFieldCurve", _NoScreen)
    monkeypatch.setattr(euler_mod, "rational_roots", lambda f: calls.append(f) or real(f))
    for rec in corpus:
        for p in (3, 5, 7):
            expected = p if any(d % p == 0 for d in rec.torsion_structure) else 1
            assert global_torsion_order(rec.curve(), p) == expected, (rec.label, p)
    assert len(calls) == 3 * len(corpus) == 186


def test_global_torsion_reuses_the_memoized_polynomials(monkeypatch):
    """With the screen stubbed out, global torsion searches the psi_p that
    certified_psi memoized; another p or curve is another entry."""
    import tamagawa.euler as euler_mod
    import tamagawa.localorders as lo

    E = WeierstrassCurve(0, -1, 1, -10, -20)
    psi = certified_psi(E, 5)
    searched = []
    built = []
    real_division = lo.division_polynomial
    real_roots = euler_mod.rational_roots
    monkeypatch.setattr(euler_mod, "FiniteFieldCurve", _NoScreen)
    monkeypatch.setattr(euler_mod, "rational_roots", lambda f: searched.append(f) or real_roots(f))
    monkeypatch.setattr(lo, "division_polynomial", lambda model, p: built.append((model, p)) or real_division(model, p))
    assert global_torsion_order(E, 5) == 5
    assert len(searched) == 1 and searched[0] is psi and built == []
    other = WeierstrassCurve(0, 0, 1, 0, 0)
    assert global_torsion_order(E, 3) == 1
    assert global_torsion_order(other, 5) == 1
    assert built == [(E, 3), (other, 5)]


def test_verify_builds_psi_once_when_global_torsion_needs_rational_roots(corpus, monkeypatch):
    """With the finite-field screen stubbed out, global torsion always runs
    its rational-root search; it reuses the certified psi_p the local side
    counts on, so each verify builds psi_p exactly once."""
    import tamagawa.euler as euler_mod
    import tamagawa.localorders as lo

    built = []
    searched = []
    real_division = lo.division_polynomial
    real_roots = euler_mod.rational_roots

    def division_polynomial(model, p):
        built.append((model, p))
        return real_division(model, p)

    monkeypatch.setattr(euler_mod, "FiniteFieldCurve", _NoScreen)
    monkeypatch.setattr(lo, "division_polynomial", division_polynomial)
    monkeypatch.setattr(euler_mod, "rational_roots", lambda f: searched.append(f) or real_roots(f))
    assert 3 * len(corpus) == 186
    for rec in corpus:
        for p in (3, 5, 7):
            built.clear()
            searched.clear()
            ledger = verify_main_theorem(rec.curve(), p)
            expected = p if any(d % p == 0 for d in rec.torsion_structure) else 1
            assert ledger.global_torsion == expected, (rec.label, p)
            assert built == [(rec.curve(), p)], (rec.label, p)
            assert len(searched) == 1 and isinstance(searched[0], SquarefreePolynomial), (rec.label, p)


@pytest.fixture
def counted_polys(monkeypatch):
    """Spies on the polynomials whose roots the verify path counts.

    ``psi`` holds each certified_psi(...) and each move of one, by id (the
    values keep them alive); find_roots_padic in localorders and
    rational_roots in euler fail on any other polynomial.  ``built``
    lists the models division_polynomial ran on, ``searched`` the inputs of
    rational_roots and ``squarefree`` the calls to
    IntegerPolynomial.squarefree_part."""
    import tamagawa.euler as euler_mod
    import tamagawa.localorders as lo

    spy = SimpleNamespace(psi={}, built=[], searched=[], squarefree=[])
    real_certified_psi = lo.certified_psi
    real_moved = SquarefreePolynomial.moved
    real_squarefree = IntegerPolynomial.squarefree_part
    real_find = lo.find_roots_padic
    real_division = lo.division_polynomial
    real_roots = euler_mod.rational_roots

    def certified_psi(model, p):
        psi = real_certified_psi(model, p)
        spy.psi[id(psi)] = psi
        return psi

    def moved(self, u, r):
        out = real_moved(self, u, r)
        if spy.psi.get(id(self)) is self:
            spy.psi[id(out)] = out
        return out

    def find_roots_padic(f, ell):
        assert spy.psi.get(id(f)) is f, "root count on a polynomial that is not a certified psi_p"
        return real_find(f, ell)

    def rational_roots(f):
        assert spy.psi.get(id(f)) is f, "rational roots of a polynomial that is not a certified psi_p"
        spy.searched.append(f)
        return real_roots(f)

    monkeypatch.setattr(lo, "certified_psi", certified_psi)
    monkeypatch.setattr(euler_mod, "certified_psi", certified_psi)
    monkeypatch.setattr(SquarefreePolynomial, "moved", moved)
    monkeypatch.setattr(IntegerPolynomial, "squarefree_part", lambda f: spy.squarefree.append(f) or real_squarefree(f))
    monkeypatch.setattr(lo, "find_roots_padic", find_roots_padic)
    monkeypatch.setattr(lo, "division_polynomial", lambda model, p: spy.built.append(model) or real_division(model, p))
    monkeypatch.setattr(euler_mod, "rational_roots", rational_roots)
    return spy


def test_verify_runs_no_squarefree_certificate(corpus, counted_polys):
    """psi_p is squarefree by theorem, so from an empty memo a verify over the
    corpus at p up to 13 never calls squarefree_part, and every root count
    and rational-root search runs on a certified_psi psi_p or on a move of
    one."""
    for p in (3, 5, 7, 11, 13):
        certified_psi.cache_clear()  # the real memo: counted_polys patches localorders.certified_psi
        for rec in corpus:
            verify_main_theorem(rec.curve(), p)
    assert counted_polys.squarefree == []
    assert counted_polys.searched and counted_polys.built


NON_MINIMAL_INVERSE_U = (2, 3, 5, 12, 10**12)


def test_verify_is_the_same_on_shifted_and_non_minimal_models(corpus, counted_polys, monkeypatch):
    """Every corpus curve under a seeded shift-only model and under models
    scaled by u = 1/k: the same record but for "curve", and every polynomial
    whose roots are counted is a psi_p that certified_psi built, or the move
    of one (``counted_polys``).  From empty memos, a verify builds psi_p
    exactly once, on its input model, whatever Tate's u at its places, and
    runs Tate's machine once at each prime of Delta and at p, also where p
    divides Delta of a non-minimal model that is good at p."""
    import tamagawa.tate as tate_mod

    built, ran = counted_polys.built, []
    real_run = tate_mod._Machine.run
    monkeypatch.setattr(tate_mod._Machine, "run", lambda self: ran.append((self.model, self.ell)) or real_run(self))

    def verify(model, p):
        built.clear()
        ran.clear()
        certified_psi.cache_clear()  # the real memo: counted_polys patches localorders.certified_psi
        tate_local.cache_clear()
        ledger = verify_main_theorem(model, p)
        assert built == [model], (model, p)
        assert all(run_on == model for run_on, _ in ran), (model, p)
        assert sorted(ell for _, ell in ran) == sorted(set(prime_divisors(model.discriminant)) | {p}), (model, p)
        return ledger

    rng = random.Random(7)
    rescaled_places = 0
    for rec in corpus:
        curve = rec.curve()
        models = []
        for k in (1,) + NON_MINIMAL_INVERSE_U:
            r, s, t = (rng.randint(-3, 3) for _ in range(3))
            if k == 1 and r == s == t == 0:
                r = 1
            models.append(WeierstrassCurve(*transform(curve, (Fraction(1, k), r, s, t)).integer_ainvs()))
        for p in (3, 5, 7):
            expected = verify(curve, p).to_record()
            del expected["curve"]
            for model in models:
                ledger = verify(model, p)
                record = ledger.to_record()
                assert record.pop("curve") == list(model.integer_ainvs())
                assert record == expected, (rec.label, p, model)
                rescaled_places += sum(d.transformation.u != 1 for d in ledger.local_data.values())
    assert rescaled_places > 0
    assert counted_polys.squarefree == []


def test_undecided_propagation(monkeypatch):
    import tamagawa.euler as euler_mod

    def boom(curve, place, p, **kwargs):
        raise PrecisionExhausted(2048)

    monkeypatch.setattr(euler_mod, "assemble_local_orders", _raise_for_finite(boom))
    led = verify_main_theorem(WeierstrassCurve(0, -1, 1, -10, -20), 5)
    assert led.undecided
    assert led.verdicts == {
        "euler_characteristic_is_one": "undecided",
        "main_identity": "undecided",
        "square_chain_identity": "undecided",
        "local_identities": "undecided",
        "global_inequality": "not evaluated",
    }
    record = led.to_record()
    assert record["chi_selmer"] is record["chi_relaxed"] is record["mt_lhs"] is None
    assert led.chi_selmer is led.chi_relaxed is led.mt_lhs is None
    assert not led.passed
    assert led.status == "undecided"


def _raise_for_finite(fn):
    from tamagawa.localorders import assemble_local_orders as real

    def wrapper(curve, place, p, **kwargs):
        if place.is_real:
            return real(curve, place, p, **kwargs)
        return fn(curve, place, p, **kwargs)

    return wrapper


def test_invalid_p_rejected():
    """Every public entry of the local and global layers that takes p
    applies the one rule: an odd prime at most 31."""
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    data = tate_local(E, 11)
    entries = [
        lambda p: check_p(p),
        lambda p: division_polynomial(E, p),
        lambda p: certified_psi(E, p),
        lambda p: local_torsion_order(E, Place.real(), p),
        lambda p: local_torsion_order(E, Place.finite(11), p),
        lambda p: phi_p_part_order(data, p),
        lambda p: assemble_local_orders(E, Place.real(), p),
        lambda p: assemble_local_orders(E, Place.finite(11), p),
        lambda p: assemble_local_orders(E, Place.finite(7), p),
        lambda p: global_torsion_order(E, p),
        lambda p: verify_main_theorem(E, p),
    ]
    for p in (2, 9, 33, 37, 1, -3, "5", 5.0):
        for entry in entries:
            with pytest.raises(ValueError, match="odd prime <= 31"):
                entry(p)
    for p in (3, 11, 31):
        check_p(p)


def test_verify_checks_p_before_factoring_the_discriminant(monkeypatch):
    import tamagawa.euler as euler_mod

    factored = []
    monkeypatch.setattr(euler_mod, "prime_divisors", lambda n: factored.append(n) or 1 / 0)
    with pytest.raises(ValueError, match="odd prime <= 31"):
        verify_main_theorem(WeierstrassCurve(0, -1, 1, -10, -20), 37)
    assert factored == []


@pytest.mark.parametrize("a6, p, split_at, mt_rhs", [
    (3**11, 11, {3: 11}, 11),
    (5**13, 13, {5: 13}, 13),
    (2**11 * 7**22, 11, {2: 11, 7: 22}, 121),
])
def test_verify_at_larger_p_on_split_multiplicative_curves(a6, p, split_at, mt_rhs):
    """y^2 + xy = x^3 + a6 has split multiplicative reduction I_n at each
    prime l | a6 (b2 = 1 is a square), with n = c = v_l(a6); p | c there."""
    ledger = verify_main_theorem(WeierstrassCurve(1, 0, 0, 0, a6), p)
    for ell, n in split_at.items():
        data = ledger.local_data[ell]
        assert (data.kodaira.serialize(), data.split, data.c) == (f"In:{n}", True, n)
    assert ledger.passed
    assert ledger.mt_rhs == mt_rhs
    assert ledger.global_torsion == 1


def test_global_torsion_is_trivial_on_the_corpus_at_p_11(corpus, monkeypatch):
    """Mazur's theorem rules out rational 11-torsion; the code reaches that
    answer itself, by the finite-field screen and, with the screen stubbed
    out, by the rational-root search on psi_11."""
    import tamagawa.euler as euler_mod

    assert [global_torsion_order(rec.curve(), 11) for rec in corpus] == [1] * len(corpus)
    monkeypatch.setattr(euler_mod, "FiniteFieldCurve", _NoScreen)
    assert [global_torsion_order(rec.curve(), 11) for rec in corpus] == [1] * len(corpus)
