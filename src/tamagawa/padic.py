"""Exact l-adic arithmetic: valuations, root counting, and the square class
of a value at a root.

Everything here is integer/Fraction arithmetic; no floating point.  Root
counting finds the roots in Z_l of an integer polynomial by lift-and-split
with Hensel's lemma.  Roots in Q_l outside Z_l are not searched for: in
the frame where ``localorders`` counts, the l-minimal model, a point over
Q_l whose x has negative valuation lies in E_1(Q_l), which has no
p-torsion (see ``localorders.local_torsion_order``).  Results are
certified: an answer is returned only when every residue-class decision is
Hensel-stable.  Lift-and-split runs in one pass over a work list under one
fixed depth cap, ``PRECISION_HARD_CAP``; a root set that needs deeper
splitting raises ``PrecisionExhausted``.  Only the square test at a root
escalates its digits, doubling them up to the same cap.  A wrong count is
never returned.

Residue roots mod l have one entry, ``_roots_mod``, which reduces the
coefficients once.  It scans all l residues for l <= ``_RESIDUE_SCAN_LIMIT``
and splits gcd(f, x^l - x) above it.  The split takes a quadratic factor
apart by a square root of its discriminant (Tonelli-Shanks, with the least
non-residue), a larger one by gcds with (x + c)^((l-1)/2) - 1
(Cantor-Zassenhaus); see Cohen, A Course in Computational Algebraic Number
Theory, 1.5.1 and 1.6.  Before either path
runs, one modular inverse gives the root of a cofactor of degree 1, and the
same square root those of one of degree 2, or at l = 2 its values at 0 and
1.  That quadratic solver, ``_small_roots_mod``, also answers every
quadratic question Tate's algorithm asks of F_l.  A
simple residue root then costs a fixed amount of work: no Newton step when
one digit decides the square test, and integer arithmetic in that test.
Each try of the square test lifts the root from its residue again, on
residues: a ``PadicRoot`` is a frozen value, and a Newton step to l^k reads
the witness and its derivative mod l^k in one Horner pass.

The powers (x + c)^e mod f over F_l behind that split, x^l mod f above all,
run on packed integers: a residue mod f of degree n is one int whose W-bit
slots hold its coefficients, each kept in [0, 2l) rather than [0, l).  A
square has slots < 4nl^2; adding (2l - q) f for the quotient q mod l leaves
slots < 6nl^2, and a packed Barrett step (multiply, shift, mask, subtract)
brings them back into [0, 2l).  That step multiplies a slot by about
2^s / l with s = bits(6nl^2), so W >= 2s - bits(l) + 2, rounded up to whole
bytes.  Each bit of e then costs a fixed number of big-int operations and no
Python loop over coefficients; canonical residues are taken once, at the end.

Before the scan or the gcd runs, the largest power x^k dividing f mod l is
split off: 0 is a root iff k >= 1, and either path sees only the cofactor
f/x^k mod l.  A caller that counts in a frame where many roots of f mod l
sit at 0 (``localorders`` puts the singular point of the reduction there at
a bad place) thereby hands them a cofactor of small degree.

Lift-and-split decides each node of its walk on residues: the node's
coefficients are reduced once mod l^2, its residue roots come from that
list reduced mod l, and one Horner pass over it gives f(r) mod l^2 and
f'(r) mod l at each.  Only a child, f(r + l t) divided by its content, is
built in full.  A singular residue r with v_l(f(r)) = 1 gets no
child: l | f'(r) gives f(r + l t) = f(r) mod l^2 for every t in Z_l, so its
class holds no root.  Nor does the singular residue 0 when f(0) != 0 and
l^(v - k + 1) divides the coefficient f_k of x^k for 1 <= k <= v, where
v = v_l(f(0)): f(l t) / l^v is then a unit constant mod l.  Both rules
only prove a residue class of Z_l empty; neither looks outside Z_l.

Root counting needs simple roots, so ``find_roots_padic`` and
``rational_roots`` count on a ``SquarefreePolynomial``.  The psi_p of the
pipeline is one by theorem (its roots, the x(+-P) for the nonzero P in E[p],
are distinct in characteristic 0), and ``localorders`` certifies it so where
it builds it.  A plain ``IntegerPolynomial`` is certified first by
``IntegerPolynomial.squarefree_part``: a prime below 2^16 that proves it
squarefree, or ``ValueError`` when it has a repeated factor.

The global side needs two more exact tools, which live here so that the
pipeline runs without sympy.  ``prime_divisors`` factors the discriminant by
trial division below 2^16, which stops early at a cofactor ``_is_prime``
proves prime, and Pollard-Brent; ``_is_prime`` proves primality
below psi_13 ~ 3.3e24 (a table below 2^16, 13-base Miller-Rabin above) and
refuses to guess beyond it.  Only a cofactor beyond psi_13, or one the
Pollard-Brent budget does not split, goes to ``sympy.factorint``, imported
at that point.  ``rational_roots`` reconstructs the rational roots of psi_p
from its roots in Z_q that ``find_roots_padic`` certifies for a small prime
q, and keeps a candidate a / d only when d^n f(a / d), an integer, is 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

__all__ = [
    "P_MAX",
    "check_p",
    "PrecisionExhausted",
    "IntegerPolynomial",
    "SquarefreePolynomial",
    "PadicRoot",
    "valuation",
    "legendre_symbol",
    "find_roots_padic",
    "prime_divisors",
    "rational_roots",
]

# Hard ceiling in base-l digits: on the lift-and-split depth of
# ``find_roots_padic`` and on the digits ``value_is_square_at_root`` reaches.
# Read at call time.
PRECISION_HARD_CAP = 2048

# Largest l whose residue roots ``_roots_mod`` finds by scanning all l
# residues; above it it splits gcd(f, x^l - x).  The limit is the measured
# crossover of the two paths for psi_3, psi_5 and psi_7 (degrees 4-24): the
# Frobenius path is faster for all three from l = 137 on, so the limit is the
# largest prime below 137 (``PYTHONPATH=src python3 scripts/residue_crossover.py``).
_RESIDUE_SCAN_LIMIT = 131

# Primes below 2^16, as a sieve for lookups and as a list for trial division.
_SMALL_LIMIT = 1 << 16
_SMALL_SIEVE = bytearray([1]) * _SMALL_LIMIT
_SMALL_SIEVE[:2] = b"\0\0"
for _i in range(2, 256):
    if _SMALL_SIEVE[_i]:
        _SMALL_SIEVE[_i * _i :: _i] = bytes(len(range(_i * _i, _SMALL_LIMIT, _i)))
_SMALL_PRIMES = list(compress(range(_SMALL_LIMIT), _SMALL_SIEVE))
del _i
# The two stages of trial division in ``prime_divisors``: the 54 primes
# below 2^8, then the rest of _SMALL_PRIMES.
_TRIAL_STAGES = (_SMALL_PRIMES[:54], _SMALL_PRIMES[54:])

# Miller-Rabin bases and psi_13, the least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

P_MAX = 31  # the largest p the pipeline takes; psi_31 has degree 480

# Pollard-Brent iterations ``prime_divisors`` spends on one cofactor before
# it hands the cofactor to sympy: about 2.5 times the expected cost of a
# 41-bit factor, the largest smallest factor of a composite below psi_13.
_RHO_STEPS = 1 << 22


class PrecisionExhausted(Exception):
    """Raised when a decision is still unstable at the precision ceiling."""

    def __init__(self, precision: int) -> None:
        self.precision = precision
        super().__init__(f"undecided at precision {precision}")


def _is_prime(n: int) -> bool:
    """Exact primality for an int n < psi_13; anything else raises ValueError.

    Below 2^16 a table lookup; above it Miller-Rabin to the 13 prime bases
    2..41, which is deterministic below psi_13 (Sorenson-Webster 2015).  The
    first 12 bases alone stop at psi_12 ~ 3.19e23, which they call prime.
    """
    if not isinstance(n, int):
        raise ValueError(f"primality is decided for integers, not {n!r}")
    if n < _SMALL_LIMIT:
        return n >= 2 and bool(_SMALL_SIEVE[n])
    if n >= _PSI_13:
        raise ValueError(f"{n} is not below psi_13 = {_PSI_13}, the exact range of the primality test")
    for q in _MR_BASES:
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_p(p: int) -> None:
    """The one rule for p everywhere: an odd prime at most P_MAX, else ValueError."""
    if not (isinstance(p, int) and 3 <= p <= P_MAX and _is_prime(p)):
        raise ValueError(f"p must be an odd prime <= {P_MAX}, not {p!r}")


def _require_prime(ell: int) -> None:
    """ValueError unless ell is prime: ``_is_prime`` decides below psi_13,
    sympy's ``isprime`` (imported only then) at or above it.  That is the
    test by which ``sympy.factorint`` returns a bad prime that large to
    ``prime_divisors``, so the pipeline can still work at it."""
    if isinstance(ell, int) and ell >= _PSI_13:
        from sympy import isprime

        prime = isprime(ell)
    else:
        prime = _is_prime(ell)
    if not prime:
        raise ValueError(f"l must be prime, got {ell}")


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing the nonzero integer n, sorted.

    Trial division runs in two stages: by the primes below 2^8, then by
    the rest of the primes below 2^16.  Between them the cofactor is tested
    once with ``_is_prime`` (when it is below psi_13), and a prime cofactor
    ends the search there, so a discriminant that is a small number times
    one large prime never runs the second stage.  Either stage also stops
    once q^2 exceeds the cofactor.  What is left after both goes to
    Pollard-Brent; a factor counts as prime only when ``_is_prime``
    certifies it, so below psi_13.  A cofactor at or above psi_13, or one
    that ``_RHO_STEPS`` steps of Pollard-Brent do not split, is handed to
    ``sympy.factorint``, imported only then.
    """
    if n == 0:
        raise ValueError("0 has no finite set of prime divisors")
    out: list[int] = []
    first, second = _TRIAL_STAGES
    n = _divide_out(abs(n), first, out)
    if n < _PSI_13 and _is_prime(n):
        out.append(n)
        n = 1
    n = _divide_out(n, second, out)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        # every prime factor of m is >= 2^16, so m < 2^32 is prime
        if m < _SMALL_LIMIT**2 or (m < _PSI_13 and _is_prime(m)):
            out.append(m)
            continue
        d = _pollard_brent(m) if m < _PSI_13 else None
        if d is None:
            from sympy import factorint

            out.extend(int(q) for q in factorint(m))
            continue
        stack.append(d)
        stack.append(m // d)
    return sorted(set(out))


def _divide_out(n: int, primes: Iterable[int], out: list[int]) -> int:
    """n with every prime of ``primes`` (ascending) that divides it divided
    out, each such prime appended to ``out``; stops once q^2 > n, where
    what is left is 1 or a prime."""
    for q in primes:
        if q * q > n:
            break
        if n % q == 0:
            out.append(q)
            n //= q
            while n % q == 0:
                n //= q
    return n


def _pollard_brent(n: int) -> int | None:
    """A proper divisor of the odd composite n, or None when ``_RHO_STEPS``
    iterations of x -> x^2 + c (Brent's cycle search, gcds batched over 128
    steps) find none for any c tried."""
    steps = 0
    c = 1
    while steps < _RHO_STEPS:
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < _RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        c += 1
    return None


def _int_valuation(n: int, ell: int) -> int:
    """l-adic valuation of an integer; 10**9 stands in for v(0) = infinity."""
    if n == 0:
        return 10**9
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def valuation(x: int | Fraction, ell: int) -> int:
    """l-adic valuation of a nonzero rational; additive on products."""
    _require_prime(ell)
    if isinstance(x, int):
        if x == 0:
            raise ValueError("valuation of zero undefined")
        return _int_valuation(x, ell)
    x = _exact_rational(x)
    if x == 0:
        raise ValueError("valuation of zero undefined")
    return _int_valuation(x.numerator, ell) - _int_valuation(x.denominator, ell)


def legendre_symbol(a: int, ell: int) -> int:
    """(a/l) for an odd prime l: 0 if l | a, 1 for residues, -1 otherwise."""
    if ell % 2 != 1:
        raise ValueError(f"odd prime required, got {ell}")
    a %= ell
    if a == 0:
        return 0
    r = pow(a, (ell - 1) // 2, ell)
    return 1 if r == 1 else -1


def _square_class(x: int, v: int, ell: int) -> bool:
    """Whether the nonzero integer x, of valuation v at the prime l, is a
    square in Q_l: v even, and the unit part x / l^v 1 mod 8 at l = 2, a
    residue mod l above."""
    if v % 2 != 0:
        return False
    unit = x // ell**v
    if ell == 2:
        return unit % 8 == 1
    return legendre_symbol(unit, ell) == 1


# ---------------------------------------------------------------------------
# Integer polynomials


class IntegerPolynomial:
    """Dense univariate polynomial with arbitrary-precision integer
    coefficients.  It has no arithmetic operators: ``division_polynomial``
    builds psi_p with ``_mul`` and ``_sub`` on coefficient lists."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = [_exact_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)})"

    def __call__(self, x: int | Fraction):
        acc: int | Fraction = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntegerPolynomial":
        return _poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return gcd(*self.coeffs)

    def primitive_part(self) -> "IntegerPolynomial":
        g = self.content()
        if g in (0, 1):
            return self
        return _poly([c // g for c in self.coeffs])

    def compose_affine(self, scale: int, offset: int) -> "IntegerPolynomial":
        """f(scale*x + offset), exact: a Taylor shift by offset, then a_i *= scale^i."""
        c = list(self.coeffs)
        n = len(c)
        if offset:
            for i in range(n - 1):
                for j in range(n - 2, i - 1, -1):
                    c[j] += offset * c[j + 1]
        m = 1
        for i in range(1, n):
            m *= scale
            c[i] *= m
        return _poly(c)

    def squarefree_part(self) -> "SquarefreePolynomial":
        """The primitive part f of the nonzero input, certified squarefree
        over Q: the one way a plain polynomial becomes a
        ``SquarefreePolynomial``.

        A prime q below 2^16 with q not dividing lc(f) and gcd(f mod q,
        f' mod q) = 1 certifies f (``_certificate_prime``).  An f with a
        repeated factor has no such prime and raises ``ValueError``; it is
        refused, not reduced to its squarefree part.  psi_p never needs
        this: it is squarefree by theorem (``localorders.division_polynomial``).
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no squarefree part")
        f = self.primitive_part()
        if f.degree <= 1 or _certificate_prime(f) is not None:
            return _certified(f)
        raise ValueError(f"the polynomial of degree {f.degree} has a repeated factor")


class SquarefreePolynomial(IntegerPolynomial):
    """A nonzero polynomial that is primitive and squarefree over Q.  Its own
    ``primitive_part`` and ``squarefree_part`` return it unchanged, so a root
    count on it certifies nothing twice.  Two things build one: the prime
    certificate of ``IntegerPolynomial.squarefree_part``, and the theorem that
    psi_p of an elliptic curve has distinct roots in characteristic 0
    (Washington, *Elliptic Curves*, Sec. 3.2; Silverman, *AEC* III.6.4), by
    which ``localorders`` certifies the primitive psi_p it builds.
    ``moved`` keeps one (x -> u^2 x + r is an automorphism of Q[x], so it
    keeps the factorisation); ``compose_affine`` and ``derivative`` give a
    plain ``IntegerPolynomial``.  It has no public constructor: coefficients from
    outside become one only through ``IntegerPolynomial.squarefree_part``."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int]) -> None:
        raise TypeError("SquarefreePolynomial has no public constructor: certify with IntegerPolynomial.squarefree_part")

    def squarefree_part(self) -> "SquarefreePolynomial":
        return self

    def moved(self, u: int, r: int) -> "SquarefreePolynomial":
        """f(u^2 x + r) divided by its content; squarefree, as the move is an automorphism of Q[x]."""
        if (u, r) == (1, 0):
            return self
        return _certified(self.compose_affine(u * u, r).primitive_part())


def _certified(f: IntegerPolynomial) -> SquarefreePolynomial:
    out = object.__new__(SquarefreePolynomial)
    out.coeffs = f.coeffs
    return out


def _certificate_prime(f: IntegerPolynomial) -> int | None:
    """The first prime q below 2^16 with q not dividing lc(f) and
    gcd(f mod q, f' mod q) = 1, for f of degree >= 1; None when f has a
    repeated factor over Q.

    Such a q proves f squarefree: a repeated factor h^2 of f over Z has q not
    dividing lc(h), so h keeps its degree mod q and divides f and f' there.
    A prime q not dividing lc(f) with a nontrivial gcd divides disc(f), since
    lc(f) disc(f) = +-Res(f, f').  Once the product of such primes exceeds
    Mahler's bound |disc(f)| <= n^n ||f||_2^(2n-2), disc(f) = 0: f has a
    repeated factor, and the search stops.  If neither happens below 2^16,
    ``ValueError`` says so.
    """
    cs, dcs, lc, n = f.coeffs, f.derivative().coeffs, f.coeffs[-1], f.degree
    limit = n * n.bit_length() + (n - 1) * sum(c * c for c in cs).bit_length()  # Mahler's bound < 2^limit
    product = 1
    for q in _SMALL_PRIMES:
        if lc % q:
            if _poly_gcd_mod_ell([c % q for c in cs], [c % q for c in dcs], q) == [1]:
                return q
            product *= q
            if product.bit_length() > limit:
                return None
    raise ValueError(f"no prime below 2^16 decides whether the polynomial of degree {n} is squarefree")


def _exact_int(c) -> int:
    """c as an int; a float or a non-integral Fraction raises instead of truncating."""
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"non-integral coefficient {c}")
        return c.numerator
    try:
        return operator.index(c)
    except TypeError:
        raise ValueError(f"coefficient {c!r} is not an exact integer") from None


def _exact_rational(x) -> int | Fraction:
    """x unchanged when it is an int or a Fraction; anything else, a float
    above all, raises instead of being rounded to a nearby rational."""
    if isinstance(x, (int, Fraction)):
        return x
    raise ValueError(f"{x!r} is not an exact rational (int or Fraction)")


def _poly(cs: list[int]) -> IntegerPolynomial:
    """Wrap a list of ints that a kernel built, skipping the constructor's
    coercion; strips trailing zeros in place.  Outside input goes through
    the constructor."""
    while cs and cs[-1] == 0:
        cs.pop()
    out = object.__new__(IntegerPolynomial)
    out.coeffs = tuple(cs)
    return out


def _sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [*a, *[0] * (len(b) - len(a))]
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


# ---------------------------------------------------------------------------
# Roots in Q_l


@dataclass(frozen=True)
class PadicRoot:
    """A certified root of f in Z_l.

    The root is x = offset + scale * t where t is the unique zero of
    ``witness`` in the residue class t0 + l*Z_l, certified simple
    (witness'(t0) is an l-adic unit).  ``approx(A)`` Hensel-lifts it and
    returns an int x_hat with v(x - x_hat) >= A.
    """

    ell: int
    witness: IntegerPolynomial
    t0: int
    scale: int  # power of l accumulated by lift-and-split
    offset: int

    def approx(self, digits: int) -> int:
        """x_hat in [0, l^digits) with v(x - x_hat) >= digits (one digit at least).

        Newton-lifts t from t0 mod l, doubling its digits up to
        k = max(digits, 1); each step reads witness(t) and witness'(t) mod
        l^exp from one Horner pass over the witness's coefficients."""
        ell, k = self.ell, max(digits, 1)
        exp, t = 1, self.t0 % ell
        while exp < k:
            exp = min(2 * exp, k)
            m = ell**exp
            value = slope = 0  # witness(t) and witness'(t) mod m
            for c in reversed(self.witness.coeffs):
                slope = (slope * t + value) % m
                value = (value * t + c) % m
            if slope % ell == 0:
                raise ArithmeticError("witness root must be simple")
            t = (t - value * pow(slope, -1, m)) % m
        return (self.offset + self.scale * t) % ell**k


def _roots_mod(coeffs: Sequence[int], ell: int) -> list[int]:
    """Roots mod l, sorted, of sum coeffs_i x^i for any integers coeffs_i,
    given as a list or a tuple and left unchanged; zero mod l raises
    ``ValueError``.  The one way to roots mod l: lift-and-split hands it
    each node's list mod l^2, Tate's I0* count its cubic P.

    The coefficients are reduced once, into a fresh list, and the helpers
    below work on that list without reducing it again.  The largest power
    x^k dividing the polynomial is split off by slicing: 0 is a root iff
    k >= 1, and the other roots are those of the cofactor cs[k:], which a
    nonzero constant does not have.  A cofactor of degree 1 gives its root
    by one modular inverse, and one of degree 2 by the square root of its
    discriminant, or at l = 2 by its values at 0 and 1 (``_small_roots_mod``).
    A larger cofactor's roots come from a scan of every residue for
    l <= ``_RESIDUE_SCAN_LIMIT`` and from the split part of
    gcd(cofactor, x^l - x) above it.
    """
    cs = [c % ell for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError(f"polynomial is zero mod {ell}")
    k = 0
    while cs[k] == 0:
        k += 1
    zero = [0] if k else []
    cs = cs[k:]
    if len(cs) == 1:
        return zero
    if len(cs) <= 3:
        return zero + _small_roots_mod(cs, ell)
    if ell <= _RESIDUE_SCAN_LIMIT:
        return zero + _scan_roots(cs, ell)
    return zero + _linear_roots_mod(_gcd_with_frobenius(cs, ell), ell)


def _scan_roots(cs: list[int], ell: int) -> list[int]:
    """Every r in [0, l) with sum cs_i r^i = 0 mod l, by Horner's rule."""
    out = []
    for r in range(ell):
        acc = 0
        for c in reversed(cs):
            acc = (acc * r + c) % ell
        if acc == 0:
            out.append(r)
    return out


def _poly_divmod_ell(a: list[int], b: list[int], ell: int) -> tuple[list[int], list[int]]:
    """The quotient and remainder of a by b over F_l, both reduced, the
    remainder stripped; b must be reduced with a unit lead.  Entries of a are
    reduced lazily: each once, when it becomes the leading term, and the
    remainder once more at the end."""
    a = list(a)
    n = len(b) - 1
    binv = pow(b[-1], -1, ell)
    q = [0] * (len(a) - n)  # [] when deg a < deg b
    for k in range(len(a) - 1, n - 1, -1):
        coef = a[k] * binv % ell
        if coef:
            shift = k - n
            q[shift] = coef
            for i in range(n):
                a[shift + i] -= coef * b[i]
    del a[n:]
    a = [c % ell for c in a]
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _poly_gcd_mod_ell(a: list[int], b: list[int], ell: int) -> list[int]:
    """The monic gcd over F_l of a and b, both reduced, a with a unit lead.
    b may end in zeros (f' mod l, or x^l - x mod f, can lose its lead);
    they are stripped in place."""
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _poly_divmod_ell(a, b, ell)[1]
    inv = pow(a[-1], -1, ell)
    return [c * inv % ell for c in a]


def _linear_powmod_ell(c: int, e: int, f: list[int], ell: int) -> list[int]:
    """(x + c)^e mod f over F_l, for f reduced mod l with a unit lead and
    0 <= c < l, on packed integers.  Returns the canonical remainder.

    f is made monic, of degree n.  A residue r_0 + ... + r_(n-1) x^(n-1) is
    the int sum of r_i 2^(W i), every slot r_i in [0, 2l).  Each bit of e,
    left to right:

    - square it; the slots of the square are < n (2l)^2 = 4nl^2;
    - reduce its high half (slots n to 2n-2) to [0, 2l) and multiply it by
      h = rev(f)^-1 mod x^(n-1), packed in reverse; the top n - 1 slots of
      that middle product are the quotient q mod l;
    - add (2l - q) f, keep the low n slots (< 4nl^2 + 2nl^2 = 6nl^2), and
      reduce them to [0, 2l): modulo l the high half is now zero;
    - on a 1-bit, multiply by x + c: r x + c r + (2l - r_(n-1)) f, whose low
      n slots are < 4l^2, and reduce them again.

    The reduction is a packed Barrett step.  With V = 6nl^2, s = bits(V)
    and M = floor(2^s / l), every slot v < 2^s leaves v - floor(v M / 2^s) l
    in [0, 2l).  A slot of v M is < 2^(2s) / l <= 2^(2s - bits(l) + 1), so
    W >= 2s - bits(l) + 2 keeps every slot from spilling into the next;
    W is rounded up to whole bytes so packing is ``int.from_bytes``.  After
    the shift by s the mask keeps the low W - s bits of each slot, which
    drops what the slot above shifted in.
    """
    inv = pow(f[-1], -1, ell)
    f = [a * inv % ell for a in f]
    n = len(f) - 1
    h: list[int] = []  # rev(f)^-1 mod x^(n-1); rev(f) has constant term 1
    for k in range(n - 1):
        acc = 1 if k == 0 else 0
        for i in range(1, k + 1):
            acc -= f[n - i] * h[k - i]
        h.append(acc % ell)
    s = (6 * n * ell * ell).bit_length()
    width = (2 * s - ell.bit_length() + 9) // 8  # bytes per slot, W = 8 * width
    w = 8 * width

    def pack(cs: list[int]) -> int:
        return int.from_bytes(b"".join(a.to_bytes(width, "little") for a in cs), "little")

    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * n, "little")
    low = ((1 << (w - s)) - 1) * ones
    mask = (1 << (n * w)) - 1
    two_ell = 2 * ell * (ones >> w)  # 2l in each of the n - 1 quotient slots
    m = (1 << s) // ell
    big_f, big_h = pack(f), pack(h[::-1])
    hi_shift, mid_shift, top_shift = n * w, max(n - 2, 0) * w, (n - 1) * w
    r = 1
    for bit in bin(e)[2:]:
        sq = r * r
        hi = sq >> hi_shift
        hi -= (((hi * m) >> s) & low) * ell
        q = (hi * big_h) >> mid_shift
        q -= (((q * m) >> s) & low) * ell
        r = (sq + (two_ell - q) * big_f) & mask
        r -= (((r * m) >> s) & low) * ell
        if bit == "1":
            r = ((r << w) + c * r + (2 * ell - (r >> top_shift)) * big_f) & mask
            r -= (((r * m) >> s) & low) * ell
    raw = r.to_bytes(n * width, "little")
    out = [int.from_bytes(raw[i : i + width], "little") % ell for i in range(0, n * width, width)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_with_frobenius(f: list[int], ell: int) -> list[int]:
    """gcd(f, x^l - x) over F_l, the product of the distinct linear factors
    of f, for f reduced with a unit lead and of degree >= 1."""
    result = _linear_powmod_ell(0, ell, f, ell)  # x^l mod f; subtract x
    while len(result) < 2:
        result.append(0)
    result[1] = (result[1] - 1) % ell
    return _poly_gcd_mod_ell(f, result, ell)


def _sqrt_mod(a: int, ell: int) -> int:
    """A square root of the quadratic residue a mod the odd prime l, by
    Tonelli-Shanks (Cohen, Algorithm 1.5.1) with the least non-residue as
    its generator, so the answer is deterministic."""
    a %= ell
    q, e = ell - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while legendre_symbol(z, ell) != -1:
        z += 1
    y, x = pow(z, q, ell), pow(a, (q - 1) // 2, ell)
    b, x = a * x * x % ell, a * x % ell
    while b > 1:  # b has order 2^m, m < e; y generates the 2^e-th roots of 1
        m, t = 0, b
        while t != 1:
            t = t * t % ell
            m += 1
        t = pow(y, 1 << (e - m - 1), ell)
        y, e = t * t % ell, m
        x, b = x * t % ell, b * y % ell
    return x


def _small_roots_mod(h: Sequence[int], ell: int) -> list[int]:
    """Roots over F_l, sorted, of h0 + h1 x with h1 a unit, or of
    h0 + h1 x + h2 x^2 with h2 a unit: -h0 / h1; at l = 2 the residues
    0 and 1 where the quadratic vanishes; at odd l (-h1 +- sqrt(D)) / (2 h2)
    with D = h1^2 - 4 h0 h2, none when D is a non-residue, and the double
    root once when D = 0 mod l.  So at every l a quadratic has exactly one
    root iff it is inseparable, and two iff it splits.  The coefficients
    need not be reduced."""
    if len(h) == 2:
        return [-h[0] * pow(h[1], -1, ell) % ell]
    h0, h1, h2 = h
    if ell == 2:
        return [r for r in (0, 1) if (h0 + r * (h1 + h2)) % 2 == 0]
    disc = h1 * h1 - 4 * h0 * h2
    symbol = legendre_symbol(disc, ell)
    if symbol == -1:
        return []
    inv = pow(2 * h2, -1, ell)
    if symbol == 0:
        return [-h1 * inv % ell]
    r = _sqrt_mod(disc, ell)
    return sorted([(-h1 + r) * inv % ell, (-h1 - r) * inv % ell])


def _linear_roots_mod(g: list[int], ell: int) -> list[int]:
    """Roots of a product of distinct linear factors over F_l, sorted.

    A factor of degree 1 or 2 gives its roots by ``_small_roots_mod``, and
    one of degree 2 must have two.  A larger factor is split by its gcd
    with (x + c)^((l-1)/2) - 1 for c = 0, 1, 2, ...  A factor that is not
    such a product raises ArithmeticError."""
    roots: list[int] = []
    stack = [g]
    shift = 0
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d <= 0:
            continue
        if d <= 2:
            found = _small_roots_mod(h, ell)
            if len(found) != d:
                raise ArithmeticError("root splitting failed to converge")
            roots += found
            continue
        # split h using gcd with (x + shift)^((l-1)/2) - 1
        acc = _linear_powmod_ell(shift % ell, (ell - 1) // 2, h, ell)
        if acc:
            acc[0] = (acc[0] - 1) % ell
        g1 = _poly_gcd_mod_ell(h, acc, ell)
        shift += 1
        if 0 < len(g1) - 1 < d:
            stack.extend([g1, _poly_divmod_ell(h, g1, ell)[0]])
        else:
            stack.append(h)  # retry with the next shift
        if shift >= 4 * ell + 64:
            raise ArithmeticError("root splitting failed to converge")
    return sorted(roots)


def _unit_at_zero(cs: Sequence[int], ell: int) -> bool:
    """Whether g(l t) / l^v0, with v0 = v_l(g(0)), is a unit constant mod l
    for g = sum cs_k x^k, so that 0 + l Z_l holds no root of g: g(0) != 0
    and l^(v0 - k + 1) | g_k for 1 <= k <= min(v0, deg g).  Then every
    coefficient l^k g_k with k >= 1 has valuation above v0, the valuation
    of the constant term."""
    if cs[0] == 0:
        return False  # 0 is a root, and _int_valuation(0) is a sentinel
    v0 = _int_valuation(cs[0], ell)
    q = ell**v0
    for c in cs[1 : v0 + 1]:
        if c % q:
            return False
        q //= ell
    return True


def _integral_root_certs(f: IntegerPolynomial, ell: int) -> list[tuple[IntegerPolynomial, int, int, int]]:
    """Certificates (witness, t0, scale, offset) for the distinct roots of f
    in Z_l, depth first in residue order.  f must be squarefree and
    primitive, and then so is every item: for a prime q != l, t -> r + l*t
    is an automorphism of Z_(q)[t], so the content of a child g(r + l*t) of
    a primitive g is a power of l, and the child is divided by it.

    A work-list item (g, t0, scale, offset, depth) stands for the roots
    x = offset + scale * t of f with g(t) = 0.  An item's decisions read
    only residues: the coefficients of g are reduced once mod l^2, its
    residue roots are found from that list (``_roots_mod``),
    and one Horner pass over it gives g(r) mod l^2 and g'(r) mod l at each
    residue root r.  A residue t0 with a simple reduction is
    Hensel-certified.  A singular residue r with v_l(g(r)) = 1 holds no
    root: l | g'(r) gives g(r + l*u) = g(r) mod l^2 for every u in Z_l.
    Nor does the singular residue 0 when g(0) != 0 and the child
    g(l u) / l^v(g(0)) is a unit constant mod l (``_unit_at_zero``, read off
    the valuations of the coefficients of g): that class is proved empty
    before any Taylor shift, and opens no item that could reach the cap.
    Any other singular residue is refined by substituting t = r + l*u
    into g, one level deeper, divided by its content.  An item at depth
    ``PRECISION_HARD_CAP`` raises ``PrecisionExhausted``; being a work list
    rather than a recursion, the walk reaches that cap whatever Python's
    recursion limit.
    """
    cap = PRECISION_HARD_CAP
    ell2 = ell * ell
    certs: list[tuple[IntegerPolynomial, int, int, int]] = []
    stack: list[tuple[IntegerPolynomial, int | None, int, int, int]] = [(f, None, 1, 0, 0)]
    while stack:
        g, t0, scale, offset, depth = stack.pop()
        if t0 is not None:
            certs.append((g, t0, scale, offset))
            continue
        if depth >= cap:
            raise PrecisionExhausted(cap)
        cs = [c % ell2 for c in g.coeffs]
        children = []
        for r in _roots_mod(cs, ell):
            value = slope = 0  # g(r) mod l^2 and g'(r) mod l
            for c in reversed(cs):
                slope = (slope * r + value) % ell
                value = (value * r + c) % ell2
            if slope:
                children.append((g, r, scale, offset, depth))
            elif value == 0 and not (r == 0 and _unit_at_zero(g.coeffs, ell)):
                h = g.compose_affine(ell, r).primitive_part()
                children.append((h, None, scale * ell, offset + scale * r, depth + 1))
        stack.extend(reversed(children))
    return certs


def find_roots_padic(f: IntegerPolynomial, ell: int) -> list[PadicRoot]:
    """The roots of f in Z_l, as certified PadicRoots, for the prime l.

    Roots in Q_l outside Z_l are not searched for: at the one caller,
    ``localorders.local_torsion_order``, such a root carries no point of
    E(Q_l)[p] (see there).  f is a ``SquarefreePolynomial``, so its roots
    are simple; a plain ``IntegerPolynomial`` is certified first by
    ``squarefree_part``, which raises ``ValueError`` on a repeated factor.
    Raises ``PrecisionExhausted`` when lift-and-split reaches depth
    ``PRECISION_HARD_CAP``."""
    _require_prime(ell)
    if f.is_zero or f.degree == 0:
        raise ValueError("zero or constant polynomial has no well-defined root count")
    return [PadicRoot(ell, *cert) for cert in _integral_root_certs(f.squarefree_part(), ell)]


def rational_roots(f: IntegerPolynomial) -> list[Fraction]:
    """The rational roots of the nonzero f, sorted.

    f is a ``SquarefreePolynomial`` g; a plain ``IntegerPolynomial`` is
    certified first by ``squarefree_part``, which raises ``ValueError`` on a
    repeated factor.  Let q be the prime of ``_certificate_prime``: q does
    not divide lc(g) and g mod q is squarefree.  A rational root a/d has
    d | lc(g), so it lies in Z_q, and ``find_roots_padic`` finds it: every
    residue root of g mod q is simple, so the walk certifies each at its
    residue and opens no child.  Each root is approximated mod q^k for
    q^k > 2 * sum |g_i|, which exceeds twice the integer |lc(g) * root|
    (Cauchy's bound); lc(g) * root is then the symmetric residue of
    lc(g) * (approximation) mod q^k.  A candidate m / lc(g), in lowest
    terms a / d, is kept only if g vanishes on it exactly, which is tested
    in integers: d^n g(a / d) = sum g_i a^i d^(n-i) = 0, with n = deg g.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no finite root set")
    g = f.squarefree_part()
    if g.degree < 1:
        return []
    cs, lc, q = g.coeffs, g.coeffs[-1], _certificate_prime(g)
    bound = 2 * sum(abs(c) for c in cs)
    k, modulus = 1, q
    while modulus <= bound:
        k, modulus = k + 1, modulus * q
    roots = []
    for root in find_roots_padic(g, q):
        m = lc * root.approx(k) % modulus
        if 2 * m > modulus:
            m -= modulus
        h = gcd(m, lc)
        a, d = m // h, lc // h
        acc, power = 0, 1  # d^n g(a / d) by Horner's rule, d^(n-i) in power
        for c in reversed(cs):
            acc = acc * a + c * power
            power *= d
        if acc == 0:
            roots.append(Fraction(a, d))
    return sorted(roots)


def value_is_square_at_root(h: IntegerPolynomial, root: PadicRoot) -> bool:
    """Decide whether h(x) is a square in Q_l for a certified root x.

    Requires h(x) != 0 (guaranteed by callers: the torsion-x polynomial and
    the y-quadratic discriminant share no root for odd torsion orders).
    Evaluates h at integer approximations of x and stops as soon as the
    valuation and unit part of h(x) are certified stable; doubles the
    approximation digits otherwise, up to ``PRECISION_HARD_CAP``.  The start,
    ``margin`` digits, is the fewest at which a unit value passes the stop
    rule without slack; at odd l that needs no Newton step.  Each try lifts
    the root from its residue, on residues (``PadicRoot.approx``).
    """
    ell = root.ell
    # x and x_hat are in Z_l, so v(h(x) - h(x_hat)) >= A + min_(i>=1) v(c_i)
    # when v(x - x_hat) >= A
    slack = min(_int_valuation(c, ell) for c in h.coeffs[1:])
    margin = 3 if ell == 2 else 1
    cap = PRECISION_HARD_CAP
    digits = margin
    while digits <= cap:
        val = h(root.approx(digits))
        if val != 0:
            v = _int_valuation(val, ell)
            if v + margin <= digits + slack:
                return _square_class(val, v, ell)
        digits = cap if digits < cap < 2 * digits else 2 * digits  # the last try is at the cap
    raise PrecisionExhausted(cap)
