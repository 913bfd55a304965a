"""Exact l-adic arithmetic: valuations, local square tests, and root counting.

Everything here is integer/Fraction arithmetic; no floating point.  Root
counting over Q_l works on integer polynomials via the Newton polygon
(for negative-valuation roots) plus lift-and-split with Hensel's lemma (for
integral roots).  Results are certified: an answer is returned only when
every residue-class decision is Hensel-stable.  Lift-and-split runs in one
pass over a work list under one fixed depth cap, ``PRECISION_HARD_CAP``;
a root set that needs deeper splitting raises ``PrecisionExhausted``.  Only
the square test at a root escalates its digits, doubling them up to the
same cap.  A wrong count is never returned.

Residue roots mod l are found by scanning all l residues for
l <= ``_RESIDUE_SCAN_LIMIT`` (131) and by splitting gcd(f, x^l - x) above
it.  The limit sits at the measured crossover of the two paths for psi_3,
psi_5 and psi_7 (the Frobenius path wins for all three from l = 137 on);
l = 2 and 3 must be scanned, because the root splitting cannot separate
roots at l = 2.  The split takes a quadratic factor apart by a square root
of its discriminant (Tonelli-Shanks, with the least non-residue), a larger
one by gcds with (x + c)^((l-1)/2) - 1 (Cantor-Zassenhaus); see Cohen, A
Course in Computational Algebraic Number Theory, 1.5.1 and 1.6.  A simple
residue root then costs a fixed amount of work: no Newton-polygon hull when
l does not divide the lead, no Newton step when one digit decides the
square test, and integer arithmetic in that test at an integral root.

The powers (x + c)^e mod f over F_l behind that split, x^l mod f above all,
run on packed integers: a residue mod f of degree n is one int whose W-bit
slots hold its coefficients, each kept in [0, 2l) rather than [0, l).  A
square has slots < 4nl^2; adding (2l - q) f for the quotient q mod l leaves
slots < 6nl^2, and a packed Barrett step (multiply, shift, mask, subtract)
brings them back into [0, 2l).  That step multiplies a slot by about
2^s / l with s = bits(6nl^2), so W >= 2s - bits(l) + 2, rounded up to whole
bytes.  Each bit of e then costs a fixed number of big-int operations and no
Python loop over coefficients; canonical residues are taken once, at the end.

The global side needs two more exact tools, which live here so that the
pipeline runs without sympy.  ``prime_divisors`` factors the discriminant by
trial division below 2^16 and Pollard-Brent; ``_is_prime`` proves primality
below psi_13 ~ 3.3e24 (a table below 2^16, 13-base Miller-Rabin above) and
refuses to guess beyond it.  Only a cofactor beyond psi_13, or one the
Pollard-Brent budget does not split, goes to ``sympy.factorint``, imported
at that point.  ``rational_roots`` finds the rational roots of psi_p by
lifting its roots in Z_q for a small prime q and reconstructing them, and
keeps a candidate only when the polynomial vanishes on it exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

__all__ = [
    "P_MAX",
    "check_p",
    "PrecisionExhausted",
    "IntegerPolynomial",
    "SquarefreePolynomial",
    "PadicRoot",
    "valuation",
    "is_square_local",
    "legendre_symbol",
    "find_roots_padic",
    "prime_divisors",
    "rational_roots",
]

# Hard ceiling in base-l digits: on the lift-and-split depth of
# ``find_roots_padic`` and on the digits ``value_is_square_at_root`` reaches.
# Read at call time.
PRECISION_HARD_CAP = 2048

# Certificate primes for ``IntegerPolynomial.squarefree_part``: the largest
# three below 10^6.
_SQUAREFREE_PRIMES = (999983, 999979, 999961)

# Largest l whose residue roots are found by scanning all l residues; above
# it ``_residue_roots`` splits gcd(f, x^l - x).  The crossover of the two
# paths, measured with ``PYTHONPATH=src python3 scripts/residue_crossover.py``:
# the largest prime below 137, the first l where all three ratios exceed 1.
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
    """Exact primality for n < psi_13; larger n raises ValueError.

    Below 2^16 a table lookup; above it Miller-Rabin to the 13 prime bases
    2..41, which is deterministic below psi_13 (Sorenson-Webster 2015).  The
    first 12 bases alone stop at psi_12 ~ 3.19e23, which they call prime.
    """
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
    if ell >= _PSI_13:
        from sympy import isprime

        prime = isprime(ell)
    else:
        prime = _is_prime(ell)
    if not prime:
        raise ValueError(f"l must be prime, got {ell}")


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing the nonzero integer n, sorted.

    Trial division by the primes below 2^16, then Pollard-Brent on what is
    left; a factor counts as prime only when ``_is_prime`` certifies it, so
    below psi_13.  A cofactor at or above psi_13, or one that
    ``_RHO_STEPS`` steps of Pollard-Brent do not split, is handed to
    ``sympy.factorint``, imported only then.
    """
    if n == 0:
        raise ValueError("0 has no finite set of prime divisors")
    n = abs(n)
    out: list[int] = []
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        if n % q == 0:
            out.append(q)
            n //= q
            while n % q == 0:
                n //= q
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


def _pollard_brent(n: int) -> int | None:
    """A proper divisor of the odd composite n, or None when ``_RHO_STEPS``
    iterations of x -> x^2 + c (Brent's cycle search, gcds batched over 128
    steps) find none for any c tried."""
    from math import gcd

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


def _unit_residue(x: int | Fraction, ell: int, modulus: int) -> int:
    """The l-adic unit part of the nonzero x reduced mod ``modulus`` (a power
    of the prime l; callers have checked primality)."""
    num, den = x.numerator, x.denominator
    num //= ell ** _int_valuation(num, ell)
    den //= ell ** _int_valuation(den, ell)
    return num * pow(den, -1, modulus) % modulus


def is_square_local(x: int | Fraction, ell: int) -> bool:
    """True iff the nonzero rational x is a square in Q_l.

    Odd l: even valuation and the unit part a quadratic residue mod l.
    l = 2: even valuation and the unit part congruent to 1 mod 8.
    """
    x = Fraction(_exact_rational(x))
    if x == 0:
        raise ValueError("x must be nonzero")
    _require_prime(ell)
    v = _int_valuation(x.numerator, ell) - _int_valuation(x.denominator, ell)
    return _square_class(x, v, ell)


def _square_class(x: int | Fraction, v: int, ell: int) -> bool:
    """Whether the nonzero x, of valuation v at the prime l, is a square in
    Q_l: v even, and the unit part 1 mod 8 at l = 2, a residue mod l above."""
    if v % 2 != 0:
        return False
    if ell == 2:
        return _unit_residue(x, 2, 8) == 1
    return legendre_symbol(_unit_residue(x, ell, ell), ell) == 1


# ---------------------------------------------------------------------------
# Integer polynomials


class IntegerPolynomial:
    """Dense univariate polynomial with arbitrary-precision integer coefficients."""

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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)})"

    def __call__(self, x: int | Fraction):
        acc: int | Fraction = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        return _poly(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        return _poly(_sub(self.coeffs, other.coeffs))

    def __mul__(self, other: "IntegerPolynomial | int") -> "IntegerPolynomial":
        if isinstance(other, int):
            return _poly([c * other for c in self.coeffs])
        return _poly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntegerPolynomial":
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        result = IntegerPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "IntegerPolynomial":
        return _poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        from math import gcd

        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self) -> "IntegerPolynomial":
        g = self.content()
        if g in (0, 1):
            return self
        return _poly([c // g for c in self.coeffs])

    def strip_prime_content(self, ell: int) -> "IntegerPolynomial":
        """Divide out the largest power of l dividing every coefficient."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no prime content")
        e = _int_valuation(self.content(), ell)  # v_l(gcd c_i) = min v_l(c_i)
        if e == 0:
            return self
        q = ell**e
        return _poly([c // q for c in self.coeffs])

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

    def reverse_scale(self, ell: int, s: int) -> "IntegerPolynomial":
        """l^(s*deg) * f(x / l^s): coefficient a_i picks up l^(s*(deg-i))."""
        d = self.degree
        return _poly([c * ell ** (s * (d - i)) for i, c in enumerate(self.coeffs)])

    def squarefree_part(self) -> "SquarefreePolynomial":
        """f / gcd(f, f'), primitive over Z; same root set, all roots simple.

        Works on the primitive part f of the nonzero input.  Modular
        certificate first: if some prime q in ``_SQUAREFREE_PRIMES`` does
        not divide lc(f) and gcd(f mod q, f' mod q) = 1, then f is
        squarefree over Q and is returned.  (A repeated factor h^2 of f over
        Z has q not dividing lc(h), so h keeps its degree mod q and divides
        both f and f' there.)  The exact rational Euclid runs only when no
        prime certifies f: f has a repeated factor, every such prime divides
        lc(f), or f collapses mod every such prime.
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no squarefree part")
        f = self.primitive_part()
        if f.degree <= 1:
            return _certified(f)
        fp = f.derivative().coeffs
        for q in _SQUAREFREE_PRIMES:
            if f.coeffs[-1] % q and _poly_gcd_mod_ell(list(f.coeffs), list(fp), q) == [1]:
                return _certified(f)
        g = _rational_poly_gcd(f.coeffs, fp)
        if len(g) == 1:  # gcd is constant: already squarefree
            return _certified(f)
        return _certified(_clear_denominators(_rational_poly_divide_exact(f.coeffs, g)))


class SquarefreePolynomial(IntegerPolynomial):
    """A nonzero polynomial that ``squarefree_part`` returned: primitive and
    squarefree over Q.  Its own ``primitive_part`` and ``squarefree_part``
    return it unchanged, so a root count on it certifies nothing twice.
    Only ``squarefree_part`` builds one; arithmetic on it gives a plain
    ``IntegerPolynomial``."""

    __slots__ = ()

    def primitive_part(self) -> "SquarefreePolynomial":
        return self

    def squarefree_part(self) -> "SquarefreePolynomial":
        return self


def _certified(f: IntegerPolynomial) -> SquarefreePolynomial:
    out = object.__new__(SquarefreePolynomial)
    out.coeffs = f.coeffs
    return out


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


def _add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def _sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return _add(a, [-c for c in b])


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


def _rational_poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[Fraction]:
    """Monic gcd over Q, as a Fraction coefficient list."""
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while any(fb):
        fa, fb = fb, _poly_mod(fa, fb)
    lead = fa[-1]
    return [c / lead for c in fa]


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while a and a[-1] == 0:
        a.pop()
    bb = b[:]
    while bb and bb[-1] == 0:
        bb.pop()
    while len(a) >= len(bb):
        coef = a[-1] / bb[-1]
        shift = len(a) - len(bb)
        for i, c in enumerate(bb):
            a[i + shift] -= coef * c
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
    return a


def _rational_poly_divide_exact(a: Sequence[int], b: list[Fraction]) -> list[Fraction]:
    """a / b over Q; a nonzero remainder raises ArithmeticError."""
    ra = [Fraction(c) for c in a]
    q = [Fraction(0)] * (len(ra) - len(b) + 1)
    while len(ra) >= len(b) and any(ra):
        coef = ra[-1] / b[-1]
        shift = len(ra) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            ra[i + shift] -= coef * c
        while ra and ra[-1] == 0:
            ra.pop()
    if any(ra):
        raise ArithmeticError("exact division expected")
    return q


def _clear_denominators(q: list[Fraction]) -> IntegerPolynomial:
    from math import lcm

    den = 1
    for c in q:
        den = lcm(den, c.denominator)
    return IntegerPolynomial([int(c * den) for c in q]).primitive_part()


# ---------------------------------------------------------------------------
# Roots in Q_l


@dataclass
class PadicRoot:
    """A certified root of f in Q_l.

    The root is x = (offset + scale * t) / l^shift where t is the unique
    zero of ``witness`` in the residue class t0 + l*Z_l, certified simple
    (witness'(t0) is an l-adic unit).  ``approx(A)`` refines by Hensel
    lifting and returns an x_hat with v(x - x_hat) >= A.
    """

    ell: int
    witness: IntegerPolynomial
    t0: int
    scale: int  # power of l accumulated by lift-and-split
    offset: int
    shift: int  # s >= 0: the root is (integral root)/l^s

    # the deepest lift so far, (digits, t mod l^digits): a later, deeper
    # lift starts from it, so each doubling of the square test is one step
    _last: tuple[int, int] | None = field(default=None, init=False, compare=False, repr=False)

    def approx(self, digits: int) -> int | Fraction:
        """x_hat with v(x - x_hat) >= digits: an int when the root is
        integral (shift 0), else a Fraction with denominator l^shift."""
        need = digits + self.shift
        if need < 1:
            need = 1
        t = self._lift(need)
        x_int = (self.offset + self.scale * t) % self.ell**need
        return x_int if self.shift == 0 else Fraction(x_int, self.ell**self.shift)

    def _lift(self, k: int) -> int:
        """The zero of ``witness`` in t0 + l Z_l, mod l^k, in [0, l^k)."""
        ell = self.ell
        if k <= 1:
            return self.t0 % ell
        last = self._last
        if last is not None and last[0] >= k:
            return last[1] % ell**k
        exp, t = last or (1, self.t0 % ell)
        f, fp = self.witness, self.witness.derivative()
        while exp < k:
            exp = min(2 * exp, k)
            m = ell**exp
            ft = f(t) % m
            fpt = fp(t) % m
            if fpt % ell == 0:
                raise ArithmeticError("witness root must be simple")
            t = (t - ft * pow(fpt, -1, m)) % m
        self._last = (exp, t)
        return t


def _residue_roots(f: IntegerPolynomial, ell: int) -> list[int]:
    """Roots of f mod l: a scan of every residue for l <= ``_RESIDUE_SCAN_LIMIT``,
    the split part gcd(f, x^l - x) above it.

    f is reduced mod l first; a nonzero constant has no roots and is not
    scanned, and zero raises ``ValueError``.  The limit is the measured
    crossover of the two paths for degrees 4-24 (psi_3 to psi_7): the
    Frobenius path is faster for all three from l = 137 on
    (``scripts/residue_crossover.py``).  l = 2 and 3 must stay on the scan
    whatever the limit: ``_linear_roots_mod`` splits with
    (x + c)^((l-1)/2) - 1, which cannot separate roots at l = 2.
    """
    cs = [c % ell for c in f.coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError(f"polynomial is zero mod {ell}")
    if len(cs) == 1:
        return []
    if ell <= _RESIDUE_SCAN_LIMIT:
        return _scan_roots(cs, ell)
    return _linear_roots_mod(_gcd_with_frobenius(cs, ell), ell)


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


def _poly_mod_ell(a: list[int], b: list[int], ell: int) -> list[int]:
    """a mod b over F_l, reduced and stripped; b must be reduced with a unit
    lead.  Entries of a are reduced lazily: each once, when it becomes the
    leading term, and the remainder once more at the end."""
    a = list(a)
    n = len(b) - 1
    binv = pow(b[-1], -1, ell)
    for k in range(len(a) - 1, n - 1, -1):
        coef = a[k] * binv % ell
        if coef:
            shift = k - n
            for i in range(n):
                a[shift + i] -= coef * b[i]
    del a[n:]
    a = [c % ell for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd_mod_ell(a: list[int], b: list[int], ell: int) -> list[int]:
    a = [c % ell for c in a]
    b = [c % ell for c in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _poly_mod_ell(a, b, ell)
    if a:
        inv = pow(a[-1], -1, ell)
        a = [c * inv % ell for c in a]
    return a


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


def _gcd_with_frobenius(cs: list[int], ell: int) -> list[int]:
    """gcd(f, x^l - x) over F_l: the product of the distinct linear factors."""
    f = [c % ell for c in cs]
    while f and f[-1] == 0:
        f.pop()
    if len(f) <= 1:
        return []  # nonzero constant mod l: no residue roots
    if len(f) == 2:
        return [c * pow(f[-1], -1, ell) % ell for c in f]
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


def _linear_roots_mod(g: list[int], ell: int) -> list[int]:
    """Roots of a product of distinct linear factors over F_l, sorted.

    A factor of degree 1 gives its root; at odd l one of degree 2, h2 x^2 +
    h1 x + h0, gives (-h1 +- sqrt(D)) / (2 h2) with D = h1^2 - 4 h0 h2, which
    must be a nonzero square mod l.  A larger factor is split by its gcd
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
        if d == 1:
            roots.append((-h[0] * pow(h[1], -1, ell)) % ell)
            continue
        if d == 2 and ell != 2:
            h0, h1, h2 = h
            disc = h1 * h1 - 4 * h0 * h2
            if legendre_symbol(disc, ell) != 1:
                raise ArithmeticError("root splitting failed to converge")
            r, inv = _sqrt_mod(disc, ell), pow(2 * h2, -1, ell)
            roots += [(-h1 + r) * inv % ell, (-h1 - r) * inv % ell]
            continue
        # split h using gcd with (x + shift)^((l-1)/2) - 1
        acc = _linear_powmod_ell(shift % ell, (ell - 1) // 2, h, ell)
        if acc:
            acc[0] = (acc[0] - 1) % ell
        g1 = _poly_gcd_mod_ell(h, acc, ell)
        shift += 1
        if 0 < len(g1) - 1 < d:
            g2 = _poly_divide_mod_ell(h, g1, ell)
            stack.extend([g1, g2])
        else:
            stack.append(h)  # retry with the next shift
        if shift >= 4 * ell + 64:
            raise ArithmeticError("root splitting failed to converge")
    return sorted(roots)


def _poly_divide_mod_ell(a: list[int], b: list[int], ell: int) -> list[int]:
    a = [c % ell for c in a]
    q = [0] * (len(a) - len(b) + 1)
    binv = pow(b[-1], -1, ell)
    while len(a) >= len(b) and any(a):
        coef = a[-1] * binv % ell
        shift = len(a) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            a[i + shift] = (a[i + shift] - coef * c) % ell
        while a and a[-1] == 0:
            a.pop()
    return q


def _integral_root_certs(
    f: IntegerPolynomial,
    ell: int,
    skip_zero_residue: bool = False,
) -> list[tuple[IntegerPolynomial, int, int, int]]:
    """Certificates (witness, t0, scale, offset) for the distinct roots of f
    in Z_l, depth first in residue order.  f must be squarefree and
    l-primitive.

    A work-list item (g, t0, scale, offset, depth) stands for the roots
    x = offset + scale * t of f with g(t) = 0.  A residue t0 with a simple
    reduction is Hensel-certified; a singular residue r is refined by
    substituting t = r + l*u into g, one level deeper, on the l-primitive
    part.  An item at depth ``PRECISION_HARD_CAP`` raises
    ``PrecisionExhausted``; being a work list rather than a recursion, the
    walk reaches that cap whatever Python's recursion limit.
    ``skip_zero_residue`` drops t0 = 0 at depth 0.
    """
    cap = PRECISION_HARD_CAP
    certs: list[tuple[IntegerPolynomial, int, int, int]] = []
    stack: list[tuple[IntegerPolynomial, int | None, int, int, int]] = [(f, None, 1, 0, 0)]
    while stack:
        g, t0, scale, offset, depth = stack.pop()
        if t0 is not None:
            certs.append((g, t0, scale, offset))
            continue
        if depth >= cap:
            raise PrecisionExhausted(cap)
        gp = g.derivative()
        children = []
        for r in _residue_roots(g, ell):
            if skip_zero_residue and depth == 0 and r == 0:
                continue
            if gp(r) % ell != 0:
                children.append((g, r, scale, offset, depth))
            else:
                h = g.compose_affine(ell, r).strip_prime_content(ell)
                children.append((h, None, scale * ell, offset + scale * r, depth + 1))
        stack.extend(reversed(children))
    return certs


def _newton_polygon_positive_slopes(f: IntegerPolynomial, ell: int) -> list[int]:
    """Positive integer slopes of the Newton polygon of f; a slope s means
    candidate roots of valuation -s.  With l not dividing lc(f) the last
    point of the hull is its lowest, so no slope is positive."""
    if f.coeffs[-1] % ell:
        return []
    pts = [(i, _int_valuation(c, ell)) for i, c in enumerate(f.coeffs) if c != 0]
    # lower convex hull, left to right
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
        num, den = y2 - y1, x2 - x1  # roots on this segment have valuation -num/den
        if num > 0 and num % den == 0:
            slopes.add(num // den)
    return sorted(slopes)


def find_roots_padic(f: IntegerPolynomial, ell: int) -> list[PadicRoot]:
    """All distinct roots of f in Q_l (not just Z_l), as certified PadicRoots,
    for the prime l.  Raises ``PrecisionExhausted`` when lift-and-split
    reaches depth ``PRECISION_HARD_CAP``."""
    _require_prime(ell)
    if f.is_zero or f.degree == 0:
        raise ValueError("zero or constant polynomial has no well-defined root count")
    f0 = f.squarefree_part().strip_prime_content(ell)
    roots: list[PadicRoot] = []
    for witness, t0, scale, offset in _integral_root_certs(f0, ell):
        roots.append(PadicRoot(ell, witness, t0, scale, offset, 0))
    for s in _newton_polygon_positive_slopes(f0, ell):
        g = f0.reverse_scale(ell, s).strip_prime_content(ell)
        for witness, t0, scale, offset in _integral_root_certs(g, ell, skip_zero_residue=True):
            roots.append(PadicRoot(ell, witness, t0, scale, offset, s))
    return roots


def rational_roots(f: IntegerPolynomial) -> list[Fraction]:
    """The distinct rational roots of the nonzero f, sorted.

    Let g be the squarefree primitive part of f and q the first prime with
    q not dividing lc(g) and g mod q squarefree.  A rational root a/d has
    d | lc(g), so it lies in Z_q, and its residue is a simple root of g mod q.
    Each residue root is Hensel-lifted until q^k > 2 * sum |g_i|, which
    exceeds twice the integer |lc(g) * root| (Cauchy's bound); lc(g) * root
    is then the symmetric residue of lc(g) * (lifted root) mod q^k.  A
    candidate is kept only if g vanishes on it exactly.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no finite root set")
    g = f.squarefree_part()
    if g.degree < 1:
        return []
    cs, dcs, lc = g.coeffs, g.derivative().coeffs, g.coeffs[-1]
    for q in _SMALL_PRIMES:
        if lc % q and _poly_gcd_mod_ell(cs, dcs, q) == [1]:
            break
    else:
        raise ArithmeticError("no prime below 2^16 keeps the polynomial squarefree")
    bound = 2 * sum(abs(c) for c in cs)
    k, modulus = 1, q
    while modulus <= bound:
        k, modulus = k + 1, modulus * q
    roots = []
    for r0 in _residue_roots(g, q):
        t = PadicRoot(q, g, r0, 1, 0, 0)._lift(k)
        m = lc * t % modulus
        if 2 * m > modulus:
            m -= modulus
        x = Fraction(m, lc)
        if g(x) == 0:
            roots.append(x)
    return sorted(roots)


def value_is_square_at_root(h: IntegerPolynomial, root: PadicRoot) -> bool:
    """Decide whether h(x) is a square in Q_l for a certified root x.

    Requires h(x) != 0 (guaranteed by callers: the torsion-x polynomial and
    the y-quadratic discriminant share no root for odd torsion orders).
    Evaluates h at rational approximations of x and stops as soon as the
    valuation and unit part of h(x) are certified stable; doubles the
    approximation digits otherwise, up to ``PRECISION_HARD_CAP``.  The start,
    4s + margin digits, is at s = 0 the fewest at which a unit value passes
    the stop rule without slack; at odd l that needs no Newton step.  At an
    integral root (s = 0) ``root.approx`` is an int, so h is evaluated on
    ints; the root keeps its last lift, so a doubling costs one Newton step.
    """
    ell = root.ell
    s = root.shift
    # v(h(x) - h(x_hat)) >= A + min_i (v(c_i) - (i-1)*s) when v(x - x_hat) >= A
    slack = min(_int_valuation(c, ell) - (i - 1) * s for i, c in enumerate(h.coeffs) if i >= 1)
    margin = 3 if ell == 2 else 1
    cap = PRECISION_HARD_CAP
    digits = 4 * s + margin
    while digits <= cap:
        x_hat = root.approx(digits)
        val = h(x_hat)
        if val != 0:
            v = _int_valuation(val.numerator, ell) - _int_valuation(val.denominator, ell)
            if v + margin <= digits + slack:
                return _square_class(val, v, ell)
        digits = cap if digits < cap < 2 * digits else 2 * digits  # the last try is at the cap
    raise PrecisionExhausted(cap)
