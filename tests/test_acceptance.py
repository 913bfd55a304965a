"""Acceptance suite: every criterion exact, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from tamagawa import padic
from tamagawa.cli import main as cli_main
from tamagawa.curves import count_p_torsion_mod
from tamagawa.euler import verify_main_theorem
from tamagawa.localorders import Place, assemble_local_orders, local_torsion_order
from tamagawa.padic import (
    IntegerPolynomial,
    _is_prime,
    find_roots_padic,
    valuation,
)
from tamagawa.tate import tate_local

from oracles import crosscheck, is_square_local

PRIMES_P = (3, 5, 7)


@pytest.fixture(scope="module")
def ledgers(corpus):
    out = {}
    for rec in corpus:
        E = rec.curve()
        for p in PRIMES_P:
            t0 = time.monotonic()
            out[(rec.label, p)] = verify_main_theorem(E, p, label=rec.label)
            out[(rec.label, p, "dt")] = time.monotonic() - t0
    return out


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_tate_oracle_agreement(corpus):
    assert len(corpus) >= 50
    families = set()
    n_values = set()
    splits = set()
    worst = 0.0
    for rec in corpus:
        E = rec.curve()
        t0 = time.monotonic()
        mismatches = crosscheck(E, rec)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert mismatches == [], f"{rec.label}: {mismatches}"
        assert dt < 1.0, f"{rec.label}: {dt:.2f}s exceeds the 1s budget"
        for row in rec.local_data:
            fam = row.kodaira.split(":")[0]
            families.add(fam)
            if fam == "In":
                n_values.add(int(row.kodaira.split(":")[1]))
                splits.add(row.split)
    assert families >= {"In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}
    assert n_values >= set(range(1, 11))
    assert splits == {True, False}
    _report(
        "criterion 1: Tate oracle agreement",
        True,
        f"{len(corpus)} curves, families {sorted(families)}, worst {worst * 1000:.0f} ms/curve",
    )


def test_criterion_2_ogg_formula(corpus):
    checked = 0
    for rec in corpus:
        E = rec.curve()
        for row in rec.local_data:
            data = tate_local(E, row.prime)
            # the fixture's conductor exponent: f itself is derived by Ogg's formula
            assert data.vdelta == row.f + data.m - 1, (rec.label, row.prime)
            checked += 1
    _report("criterion 2: Ogg's formula", True, f"{checked} (curve, prime) pairs, exact")


def test_criterion_3_euler_characteristic_one(corpus, ledgers):
    worst = 0.0
    for rec in corpus:
        for p in PRIMES_P:
            led = ledgers[(rec.label, p)]
            dt = ledgers[(rec.label, p, "dt")]
            worst = max(worst, dt)
            assert led.chi_selmer == Fraction(1), (rec.label, p, led.chi_selmer)
            assert dt < 10.0, f"{rec.label} p={p}: {dt:.2f}s exceeds the 10s budget"
    _report(
        "criterion 3: Euler characteristic == 1",
        True,
        f"{len(corpus) * len(PRIMES_P)} (curve, p) pairs, worst {worst:.2f}s",
    )


def test_criterion_4_main_identity_two_sided(corpus, ledgers):
    nontrivial = set()
    shape_split_3 = shape_split_5 = shape_iv_3 = False
    for rec in corpus:
        for p in PRIMES_P:
            led = ledgers[(rec.label, p)]
            assert led.mt_lhs == led.mt_rhs, (rec.label, p, led.mt_lhs, led.mt_rhs)
            if led.mt_rhs > 1:
                nontrivial.add(rec.label)
        for row in rec.local_data:
            fam = row.kodaira.split(":")[0]
            if fam == "In" and row.split:
                n = int(row.kodaira.split(":")[1])
                shape_split_3 |= n % 3 == 0
                shape_split_5 |= n % 5 == 0
            if fam in ("IV", "IV*") and row.c == 3:
                shape_iv_3 = True
    assert len(nontrivial) >= 3, nontrivial
    assert shape_split_3 and shape_split_5 and shape_iv_3
    _report(
        "criterion 4: two-sided product identity",
        True,
        f"exact everywhere; {len(nontrivial)} curves with a nontrivial ratio",
    )


def test_criterion_5_local_identity_suite(corpus, ledgers):
    places = 0
    for rec in corpus:
        for p in PRIMES_P:
            for o in ledgers[(rec.label, p)].orders:
                assert o.relaxed_order == o.kummer_order * o.phi_p
                assert o.kummer_order == o.restricted_order * o.phi_p
                assert o.relaxed_order * o.restricted_order == o.kummer_order**2
                assert o.restricted_order <= o.kummer_order <= o.relaxed_order
                places += 1
    _report("criterion 5: local identity suite", True, f"{places} local order tuples, exact")


def test_criterion_6_torsion_oracle_equivalence(corpus):
    rng = random.Random(2026)
    pairs = 0
    for rec in corpus:
        E = rec.curve()
        disc = abs(int(E.discriminant))
        bad = {row.prime for row in rec.local_data}
        for p in PRIMES_P:
            in_S = bad | {p}
            good = [q for q in range(3, 500, 2)
                    if _is_prime(q) and q not in in_S and disc % q != 0]
            for q in good[:5]:
                assert local_torsion_order(E, Place.finite(q), p) == count_p_torsion_mod(E, q, p), (
                    rec.label, p, q)
                pairs += 1
            for q in rng.sample(good[5:40], 5):
                o = assemble_local_orders(E, Place.finite(q), p)
                assert Fraction(o.kummer_order, o.torsion_order) == 1, (rec.label, p, q)
    _report("criterion 6: torsion oracle equivalence", True, f"{pairs} comparisons + Euler factors 1")


def _brute_integral_count(coeffs, ell, M):
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
                t = (t - (f(t) // ell**ku) * pow(u // ell**ku, -1, mod)) % mod
            keys.add(t)
    return len(keys)


def test_criterion_7_randomized_arithmetic_suites():
    rng = random.Random(2027)
    for _ in range(1000):
        ell = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        y = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        assert valuation(x * y, ell) == valuation(x, ell) + valuation(y, ell)
    for _ in range(1000):
        ell = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                          53, 59, 61, 67, 71, 73, 79, 83, 89, 97])
        x = Fraction(rng.randint(1, 10**5), rng.randint(1, 10**5)) * rng.choice([1, -1])
        # n = num * den = x den^2 has the square class of x, and n^2 that of x^2
        n = x.numerator * x.denominator
        v = valuation(n, ell)
        assert padic._square_class(n * n, 2 * v, ell) and is_square_local(n * n, ell)
        assert padic._square_class(n, v, ell) == is_square_local(x, ell), (x, ell)
    from sympy import Poly, Symbol, discriminant as sym_disc

    xsym = Symbol("x")
    params = {3: (6, 2), 5: (5, 2), 7: (4, 1)}
    done = 0
    while done < 1000:
        ell = rng.choice([3, 5, 7])
        M, dmax = params[ell]
        deg = rng.choice([3, 4])
        coeffs = [rng.randint(-60, 60) for _ in range(deg)] + [rng.randint(1, 60)]
        disc = int(sym_disc(Poly(list(reversed(coeffs)), xsym)))
        if disc == 0 or valuation(disc, ell) > dmax:
            continue
        mine = len(find_roots_padic(IntegerPolynomial(coeffs), ell))
        assert mine == _brute_integral_count(coeffs, ell, M), (coeffs, ell)
        done += 1
    _report("criterion 7: randomized arithmetic suites", True, "3 x 1000 cases, zero failures")


def test_criterion_8_end_to_end_determinism(corpus, tmp_path, fixtures_dir, monkeypatch):
    lines = [",".join(str(a) for a in rec.ainvs) + f",{rec.label}" for rec in corpus]
    inp = tmp_path / "corpus.csv"
    inp.write_text("\n".join(lines) + "\n")
    runner = CliRunner()
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        result = runner.invoke(cli_main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3"])
        assert result.exit_code == 0, result.output
        assert f"{len(corpus)} passed, 0 failed, 0 undecided" in result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1], "batch reports must be byte-identical"

    # offline: fixture reads must succeed with the network disabled
    import socket

    def no_network(*args, **kwargs):
        raise AssertionError("network disabled")

    monkeypatch.setattr(socket.socket, "connect", no_network)
    from tamagawa.lmfdb import fetch_curve

    rec = fetch_curve(corpus[0].label, fixtures_dir=fixtures_dir)
    assert rec == corpus[0]
    _report("criterion 8: end-to-end determinism", True, "byte-identical reports, offline run ok")
