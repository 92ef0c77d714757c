"""Length-n words over GF(2)[u]/(u^3), i.e. elements of R[x]/(x^n - 1).

A word stores one n-bit integer per u-layer: bit i of layer k is the
u^k-component of the coefficient of x^i.  The layer triple (f1, f2, f3)
means f1(x) + u*f2(x) + u^2*f3(x) and is unique for every word, so
composing and decomposing are inverse bijections.

Words are immutable; every operation returns a fresh word.
"""

from __future__ import annotations

from . import polyf2, ring
from .polyf2 import bit_reverse


class RingWord:
    """An element of R[x]/(x^n - 1) as three binary coefficient layers."""

    __slots__ = ("n", "f1", "f2", "f3")

    def __init__(self, n, f1=0, f2=0, f3=0):
        if n < 1:
            raise ValueError("word length must be at least 1")
        if (f1 | f2 | f3) >> n:  # also nonzero when a layer is negative
            raise ValueError("layer polynomial degree must be below the word length")
        self.n = n
        self.f1 = f1
        self.f2 = f2
        self.f3 = f3

    @classmethod
    def from_polys(cls, n, f1, f2=0, f3=0):
        """Embed binary polynomials as a word, reducing each modulo x^n + 1."""
        if (f1 | f2 | f3) < 0:  # mod_xn1 takes nonnegative polynomials only
            raise ValueError("layer polynomials must be nonnegative")
        return cls(n, polyf2.mod_xn1(f1, n), polyf2.mod_xn1(f2, n),
                   polyf2.mod_xn1(f3, n))

    @classmethod
    def from_elements(cls, elements):
        """Word with the given ring-element coordinates, index 0 first."""
        elements = list(elements)
        n = len(elements)
        f1 = f2 = f3 = 0
        for i, e in enumerate(elements):
            if e < 0 or e > 7:
                raise ValueError(f"not a ring element: {e!r}")
            f1 |= (e & 1) << i
            f2 |= ((e >> 1) & 1) << i
            f3 |= ((e >> 2) & 1) << i
        return cls(n, f1, f2, f3)

    @classmethod
    def from_tokens(cls, text):
        """Parse a comma-separated list of ring element tokens."""
        return cls.from_elements(ring.from_token(t) for t in text.split(","))

    @classmethod
    def from_poly_text(cls, n, text):
        """Parse the semicolon layer format "g;p1;p2" (trailing zero
        layers may be omitted), reducing modulo x^n + 1."""
        parts = text.split(";")
        if not 1 <= len(parts) <= 3:
            raise ValueError("expected 'g;p1;p2' with at most three layers")
        layers = [polyf2.from_text(p) for p in parts] + [0, 0]
        return cls.from_polys(n, *layers[:3])

    def poly_text(self):
        """The semicolon layer format "g;p1;p2"."""
        return ";".join(polyf2.to_text(f) for f in self.layers())

    def layers(self):
        """The unique u-adic layer triple (f1, f2, f3)."""
        return self.f1, self.f2, self.f3

    def element(self, i):
        """Ring element at coordinate i."""
        return (((self.f1 >> i) & 1)
                | ((self.f2 >> i) & 1) << 1
                | ((self.f3 >> i) & 1) << 2)

    def elements(self):
        return tuple(self.element(i) for i in range(self.n))

    def tokens(self):
        """Comma-separated canonical coordinate tokens, index 0 first."""
        return ",".join(ring.token(e) for e in self.elements())

    def is_zero(self):
        return not (self.f1 | self.f2 | self.f3)

    def weight(self):
        """Number of nonzero ring coordinates."""
        return ((self.f1 | self.f2 | self.f3)).bit_count()

    def top_index(self):
        """Largest coordinate index with a nonzero element; -1 for the zero word."""
        return (self.f1 | self.f2 | self.f3).bit_length() - 1

    def __eq__(self, other):
        return (isinstance(other, RingWord)
                and (self.n, self.f1, self.f2, self.f3)
                == (other.n, other.f1, other.f2, other.f3))

    def __hash__(self):
        return hash((self.n, self.f1, self.f2, self.f3))

    def __repr__(self):
        return f"RingWord({self.n}, {self.tokens()!r})"

    def _check_same_length(self, other):
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check_same_length(other)
        return RingWord(self.n, self.f1 ^ other.f1, self.f2 ^ other.f2,
                        self.f3 ^ other.f3)

    def __mul__(self, other):
        """Cyclic convolution: the product in R[x]/(x^n - 1)."""
        self._check_same_length(other)
        n = self.n

        def mm(a, b):
            return polyf2.mod_xn1(polyf2.mul(a, b), n)

        l1 = mm(self.f1, other.f1)
        l2 = mm(self.f1, other.f2) ^ mm(self.f2, other.f1)
        l3 = mm(self.f1, other.f3) ^ mm(self.f2, other.f2) ^ mm(self.f3, other.f1)
        return RingWord(self.n, l1, l2, l3)

    def scale(self, e):
        """Product with a ring constant."""
        e0, e1, e2 = e & 1, (e >> 1) & 1, (e >> 2) & 1
        f1, f2, f3 = self.f1, self.f2, self.f3
        l1 = f1 if e0 else 0
        l2 = (f2 if e0 else 0) ^ (f1 if e1 else 0)
        l3 = (f3 if e0 else 0) ^ (f2 if e1 else 0) ^ (f1 if e2 else 0)
        return RingWord(self.n, l1, l2, l3)

    def times_u(self):
        """Product with u: layers move up one level, the top one vanishes."""
        return RingWord(self.n, 0, self.f1, self.f2)

    def shift(self, k=1):
        """Product with x^k: cyclic shift of every layer by k places."""
        n = self.n
        k %= n
        if k == 0:
            return self
        mask = (1 << n) - 1

        def rot(f):
            return ((f << k) | (f >> (n - k))) & mask

        return RingWord(n, rot(self.f1), rot(self.f2), rot(self.f3))

    def reverse(self):
        """Coordinate reversal x_0..x_{n-1} -> x_{n-1}..x_0; an involution."""
        n = self.n
        return RingWord(n, bit_reverse(self.f1, n), bit_reverse(self.f2, n),
                        bit_reverse(self.f3, n))

    def complement(self):
        """Coordinatewise Watson-Crick complement (adds u^2 everywhere)."""
        return RingWord(self.n, self.f1, self.f2, self.f3 ^ ((1 << self.n) - 1))

    def reverse_complement(self):
        return self.reverse().complement()

    def reciprocal(self):
        """Coefficient reversal over [0, d], d the top nonzero coordinate index.

        On the layer triple this sends (f1, f2, f3) with deg f1 = r above
        both other degrees to (f1*, x^(r-s) f2*, x^(r-t) f3*); outside that
        degree configuration it is still the plain reversal over [0, d].
        """
        d = self.top_index()
        if d <= 0:
            return self
        w = d + 1
        return RingWord(self.n, bit_reverse(self.f1, w), bit_reverse(self.f2, w),
                        bit_reverse(self.f3, w))


def divides_xn_minus_1(w):
    """Whether w divides x^n - 1 exactly in R[x] (no quotient reduction).

    Solved by layer peeling: w * h = x^n - 1 forces h layer by layer, and
    w divides iff every peel is an exact binary division.  Words with a
    zero unit layer never divide (the product would have one too).
    """
    if w.f1 == 0:
        return False
    m = polyf2.xn1(w.n)
    h1, rem = polyf2.divrem(m, w.f1)
    if rem:
        return False
    h2, rem = polyf2.divrem(polyf2.mul(w.f2, h1), w.f1)
    if rem:
        return False
    _, rem = polyf2.divrem(polyf2.mul(w.f3, h1) ^ polyf2.mul(w.f2, h2), w.f1)
    return rem == 0


def all_ones(n):
    """The binary all-ones word 1 + x + ... + x^(n-1) embedded in R."""
    return RingWord(n, (1 << n) - 1, 0, 0)


def u2_all_ones(n):
    """u^2 * (1 + x + ... + x^(n-1)), the reverse-complement of the zero word."""
    return RingWord(n, 0, 0, (1 << n) - 1)
