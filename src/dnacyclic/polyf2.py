"""Polynomial arithmetic over GF(2).

Polynomials are plain nonnegative integers: bit i is the coefficient of
x^i, so 0b1010101 is x^6+x^4+x^2+1 and 0 is the zero polynomial. The
zero polynomial has degree NEG_INF so that degree comparisons involving
it never need a special case.

A negative int is no polynomial.  The products, divisions, factoring,
reversals and to_text raise ValueError for one, where their bit loops
would otherwise never end or answer wrongly; degree reads only the bit
length and does not check.

All functions are pure and all values immutable, hence thread-safe.
"""

from __future__ import annotations

import functools
import itertools

NEG_INF = float("-inf")

# Bound on n for divisor enumeration of x^n + 1.
DIVISOR_ENUM_CAP = 32

# Largest exponent from_text accepts: a term x^e is built as a (e+1)-bit
# int, so an unbounded e from outside input could ask for gigabytes.
MAX_TEXT_DEGREE = 1 << 16


class CapExceeded(RuntimeError):
    """An enumeration would exceed a configured size cap."""


def degree(f):
    """Degree of f; NEG_INF for the zero polynomial."""
    return f.bit_length() - 1 if f else NEG_INF


def mul(f, g):
    """Carry-less product of two polynomials."""
    if f < g:
        f, g = g, f
    if g < 0:
        raise ValueError(f"polynomial is negative: {g}")
    acc = 0
    while g:
        if g & 1:
            acc ^= f
        f <<= 1
        g >>= 1
    return acc


def divrem(f, d):
    """Quotient and remainder of f by d, with deg(remainder) < deg(d)."""
    if d <= 0 or f < 0:
        if d == 0:
            raise ZeroDivisionError("division by the zero polynomial")
        raise ValueError(f"polynomial is negative: {min(f, d)}")
    dd = d.bit_length() - 1
    q = 0
    while f.bit_length() - 1 >= dd:
        shift = f.bit_length() - 1 - dd
        f ^= d << shift
        q |= 1 << shift
    return q, f


def mod(f, d):
    """Remainder of f modulo d."""
    return divrem(f, d)[1]


def mod_xn1(f, n):
    """Remainder of f modulo x^n + 1, by folding.

    x^k = 1 modulo x^n + 1 for every multiple k of n, so the bits of f
    from k up fold onto the low k bits with one XOR.  Taking k close to
    half of f's length halves f per fold: O(log deg f) big-int steps
    instead of one per degree, as mod would take.
    """
    if f < 0:
        raise ValueError(f"polynomial is negative: {f}")
    while f >> n:
        k = max(f.bit_length() // (2 * n), 1) * n
        f = (f & ((1 << k) - 1)) ^ (f >> k)
    return f


def divides(d, f):
    """Whether d divides f.  The zero divisor is rejected, by divrem."""
    return divrem(f, d)[1] == 0


def gcd(f, g):
    """Greatest common divisor (monic automatically over GF(2))."""
    if f < 0 or g < 0:
        raise ValueError(f"polynomial is negative: {min(f, g)}")
    while g:
        f, g = g, divrem(f, g)[1]
    return f


@functools.lru_cache(maxsize=1024)
def bit_reverse(v, width):
    """Reverse the low `width` bits of v (v must fit in `width` bits).

    Cached: a search reverses the same few short layers for every
    candidate, and a cache hit costs less than the string round trip.
    A negative v raises on the miss, and a raise is not cached.
    """
    if v < 0:
        raise ValueError(f"polynomial is negative: {v}")
    return int(bin(v | 1 << width)[:2:-1] or "0", 2)


def reciprocal(f):
    """Coefficient reversal over [0, deg f]; the reciprocal of 0 is 0."""
    return bit_reverse(f, f.bit_length())


def is_self_reciprocal(f):
    """Whether f equals its own reciprocal."""
    return reciprocal(f) == f


def xn1(n):
    """x^n + 1, which equals x^n - 1 over GF(2)."""
    return (1 << n) | 1


def all_ones(n):
    """1 + x + ... + x^(n-1), the quotient (x^n + 1) / (x + 1)."""
    return (1 << n) - 1


def irreducible_factors(f):
    """Factor nonzero f into [(irreducible, multiplicity), ...].

    Trial division by candidates in increasing integer order; the first
    divisor of positive degree found is necessarily irreducible.  A
    reducible f has a factor of degree at most deg(f) / 2, so once the
    candidates pass that degree the rest of f is irreducible, with
    multiplicity 1, and the search stops.
    """
    if f <= 0:
        raise ValueError("cannot factor the zero polynomial" if f == 0
                         else f"polynomial is negative: {f}")
    out = []
    while degree(f) >= 1:
        d = 2
        while not divides(d, f):
            d += 1
            if 2 * degree(d) > degree(f):
                d = f
                break
        e = 0
        while divides(d, f):
            f = divrem(f, d)[0]
            e += 1
        out.append((d, e))
    return out


def divisors_of_xn1(n):
    """All monic divisors of x^n + 1, sorted by (degree, coefficient bits).

    Obtained by factoring x^n + 1 and expanding every exponent multiset.
    n above DIVISOR_ENUM_CAP raises CapExceeded, because divisor counts
    and trial division both grow with n; n < 1 raises ValueError.
    """
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > DIVISOR_ENUM_CAP:
        raise CapExceeded("divisor enumeration capped at "
                          f"n <= {DIVISOR_ENUM_CAP}, got n = {n}")
    factors = irreducible_factors(xn1(n))
    divisors = set()
    for exponents in itertools.product(*[range(e + 1) for _, e in factors]):
        d = 1
        for (p, _), e in zip(factors, exponents):
            for _ in range(e):
                d = mul(d, p)
        divisors.add(d)
    return sorted(divisors, key=lambda d: (degree(d), d))


def to_text(f):
    """Render as monomials joined by '+', descending degree, e.g. "x^6+x^4+x^2+1"."""
    if f < 0:
        raise ValueError(f"polynomial is negative: {f}")
    if f == 0:
        return "0"
    parts = []
    for i in range(f.bit_length() - 1, -1, -1):
        if (f >> i) & 1:
            parts.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(parts)


def from_text(s):
    """Parse the to_text format; duplicate or malformed terms are rejected.

    An exponent is ASCII decimal digits only, so "x^1_0" and non-ASCII
    digits are malformed.  A term x^e with e above MAX_TEXT_DEGREE is
    rejected before its int is built.
    """
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return 0
    f = 0
    for term in s.split("+"):
        if term == "1":
            b = 1
        elif term == "x":
            b = 2
        elif term.startswith("x^") and term[2:].isascii() and term[2:].isdigit():
            try:
                e = int(term[2:])
            except ValueError:  # more digits than int() converts
                raise ValueError(f"bad polynomial term {term!r}") from None
            if e > MAX_TEXT_DEGREE:
                raise ValueError(f"term {term!r} exceeds the degree bound "
                                 f"{MAX_TEXT_DEGREE}")
            b = 1 << e
        else:
            raise ValueError(f"bad polynomial term {term!r}")
        if f & b:
            raise ValueError(f"duplicate term {term!r}")
        f |= b
    return f
