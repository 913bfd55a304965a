"""Isogeny invariance on the corpus: a rational isogeny E -> E' of degree
prime to p maps E[p] isomorphically onto E'[p] as Galois modules, so global
torsion and every place's torsion and Kummer orders agree.  For an isogeny of
prime degree q, c_l(E') / c_l(E) is a power of q at every l (Schaefer, "Class
groups and Selmer groups", J. Number Theory 56, 1996), so phi_p, mt_rhs and
every verdict agree for p != q.  The two curves share nothing in the
pipeline: another discriminant, another Tate run and another psi_p."""

import pytest

from tamagawa.euler import verify_main_theorem
from tamagawa.lmfdb import fetch_curve

# (curve, isogenous curve, the primes p prime to the isogeny's degree)
PAIRS = [
    ("11a1", "11a2", (3, 7, 11, 13)),  # degree 5
    ("11a1", "11a3", (3, 7, 11, 13)),  # degree 5
    ("27a1", "27a3", (5, 7, 11, 13)),  # degree a power of 3
    ("27a1", "27a4", (5, 7, 11, 13)),  # degree a power of 3
    ("49a1", "49a2", (3, 5)),  # degree 2
]


def _invariants(label, p, fixtures_dir):
    led = verify_main_theorem(fetch_curve(label, fixtures_dir=fixtures_dir).curve(), p)
    assert not led.undecided
    places = [(o.place, o.torsion_order, o.kummer_order, o.phi_p) for o in led.orders]
    return led.global_torsion, led.mt_rhs, led.verdicts, places


@pytest.mark.parametrize("label, other, p", [(a, b, p) for a, b, ps in PAIRS for p in ps])
def test_isogenous_corpus_curves_have_equal_orders_at_p(label, other, p, fixtures_dir):
    assert _invariants(label, p, fixtures_dir) == _invariants(other, p, fixtures_dir)


@pytest.mark.parametrize("label, other, p", [("11a1", "11a2", 5), ("11a1", "11a3", 5), ("27a1", "27a3", 3)])
def test_the_comparison_can_fail_where_p_divides_the_degree(label, other, p, fixtures_dir):
    """At p = q the isogeny need not preserve E[p], and on these pairs the
    orders differ, so the comparison above is not one that always holds."""
    assert _invariants(label, p, fixtures_dir) != _invariants(other, p, fixtures_dir)
