"""Reference algebra the benchmark owns, independent of the package.

The benchmark builds its inputs and checks the program's answers with
this module, so a change to the package can neither alter its own
workload nor vouch for its own output.  Everything is plain GF(2)
linear algebra on Python ints:

* a binary polynomial is an int, bit i the coefficient of x^i;
* a word of R[x]/(x^n - 1), R = GF(2)[u]/(u^3), is a layer triple
  (f1, f2, f3) meaning f1 + u f2 + u^2 f3;
* a code is the GF(2) span of {x^i u^j w}, kept as an echelon basis
  keyed by pivot bit over the packing f3 | f2 << n | f1 << 2n.
"""

from __future__ import annotations


def pmul(a, b):
    """Carry-less product."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def pdivmod(a, d):
    q = 0
    dd = d.bit_length()
    while a.bit_length() >= dd:
        s = a.bit_length() - dd
        a ^= d << s
        q |= 1 << s
    return q, a


def divisors_of_xn1(n):
    """Every divisor of x^n + 1, sorted by integer value."""
    f = (1 << n) | 1
    factors = []
    d = 2
    while f.bit_length() > 1:
        q, r = pdivmod(f, d)
        if r:
            d += 1
            continue
        factors.append(d)
        f = q
    divs = {1}
    for p in factors:
        divs |= {pmul(x, p) for x in divs}
    return sorted(divs)


def to_text(f):
    """The package's polynomial text format, e.g. "x^6+x^4+x^2+1"."""
    if f == 0:
        return "0"
    terms = []
    for i in range(f.bit_length() - 1, -1, -1):
        if f >> i & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def from_text(s):
    if s == "0":
        return 0
    f = 0
    for t in s.split("+"):
        f |= 1 if t == "1" else 2 if t == "x" else 1 << int(t[2:])
    return f


def _rot(f, i, n):
    return ((f << i) | (f >> (n - i))) & ((1 << n) - 1) if i else f


def reduce_word(n, f1, f2, f3):
    """Reduce each layer modulo x^n + 1."""
    m = (1 << n) | 1
    return tuple(pdivmod(f, m)[1] for f in (f1, f2, f3))


class Code:
    """A cyclic code over R as a GF(2) basis {pivot: row}."""

    def __init__(self, n, words=()):
        self.n = n
        self.basis = {}
        for f1, f2, f3 in words:
            f1, f2, f3 = reduce_word(n, f1, f2, f3)
            for layers in ((f1, f2, f3), (0, f1, f2), (0, 0, f1)):
                for i in range(n):
                    a, b, c = (_rot(f, i, n) for f in layers)
                    self._insert(c | b << n | a << 2 * n)

    def pack(self, f1, f2, f3):
        n = self.n
        return f3 | f2 << n | f1 << 2 * n

    def _reduce(self, v):
        basis = self.basis
        while v:
            p = v.bit_length() - 1
            if p not in basis:
                return v
            v ^= basis[p]
        return 0

    def _insert(self, v):
        v = self._reduce(v)
        if v:
            self.basis[v.bit_length() - 1] = v

    @property
    def dim(self):
        return len(self.basis)

    def contains_packed(self, v):
        return self._reduce(v) == 0

    def contains(self, f1, f2, f3):
        return self.contains_packed(self.pack(f1, f2, f3))

    def same_span(self, other):
        return (self.n == other.n and self.dim == other.dim
                and all(other.contains_packed(v) for v in self.basis.values()))

    def canonical_rows(self):
        """The reduced row echelon basis, a span invariant."""
        rows = dict(self.basis)
        for p in sorted(rows):
            for q in rows:
                if q != p and rows[q] >> p & 1:
                    rows[q] ^= rows[p]
        return tuple(rows[p] for p in sorted(rows, reverse=True))

    def _reverse_packed(self, v):
        n = self.n
        out = 0
        for k in range(3):
            layer = v >> (k * n) & ((1 << n) - 1)
            out |= int(format(layer, f"0{n}b")[::-1], 2) << (k * n)
        return out

    def is_reversible(self):
        """Closure under coordinate reversal; reversal is linear, so the
        basis rows decide it."""
        return all(self.contains_packed(self._reverse_packed(v))
                   for v in self.basis.values())

    def is_rc_closed(self):
        """rc(c) = rev(c) + u^2 * all-ones; closure needs both parts."""
        return (self.is_reversible()
                and self.contains(0, 0, (1 << self.n) - 1))

    def weight_bound(self):
        """Weight of the lightest nonzero basis row: d(C) cannot exceed it."""
        n = self.n
        mask = (1 << n) - 1
        return min(((v | v >> n | v >> 2 * n) & mask).bit_count()
                   for v in self.basis.values())
