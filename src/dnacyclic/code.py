"""Cyclic codes over GF(2)[u]/(u^3) as ideals of R[x]/(x^n - 1).

A code is the GF(2) row span of its 3n-bit layer expansion.  A
codeword with layers (f1, f2, f3) packs into the integer

    f3  |  f2 << n  |  f1 << 2n

so that multiplication by u is a plain right shift by n and the
u^2-only subspace is exactly the low n bits.  Its canonical basis is
the reduced row echelon form with the pivot of a row being its highest
set bit; RREF is unique per subspace, which makes every derived
quantity deterministic.

Multiplication by x rotates each n-bit layer of the packed integer by
one place, and every span the package builds is closed under x: a code,
a sum or intersection of codes, and a dual.  One routine, x_span_lows,
builds each of them as the x-closure of a few seed rows; for the
intersection those are both codes' lowest rows in the Zassenhaus double
block, a 6n-bit vector whose two halves x rotates alike, and for the
dual the top bit of each layer next to its parities against the code,
one layer per equation row (see the dual module).  The routine
keeps a plain echelon form, reducing each inserted vector by leading
bits only.
The span built from earlier seeds is closed under x, so a seed's chain
x^i * v stops at the first shift already in the span: every later shift
lies in it too.  A chain rotates the stored remainder of its last shift,
not the shift itself: the two differ by a vector of the span, and so do
their rotations.  A stored remainder that sets no layer's top bit is
rotated by a plain shift, whose top is one past its own, so a chain runs
on storing shifts while that next pivot is free and rotates or reduces
only at a layer top or an occupied pivot.  The ideal generated by a set
of words is the x-closure of their multiples u^j * w, because R itself
is the GF(2) span of {1, u, u^2}; this reduces all module arithmetic to
bit linear algebra.  Those seeds go in low layer first, the generators
first to last and each one's u^2 * w, u * w and w in turn, so the lower
layers' short rows are in place before a shift of w falls out of layer
0.  The lows do not depend on the order; first to last takes fewer
chain steps on the search's generator pairs, whose second word u^2 a2
then mostly lies in the span already.

In an x-closed span the pivots of each layer run contiguously up to the
layer's top, and each RREF row above a layer's lowest is the one below
it times x plus, at most, the lowest rows of three layers.  So the
lowest RREF row of each layer fixes the whole basis and generates the
span under x, and a code is stored as those at most three rows: they
decide equality, the hash and membership, the dimension is read off
their pivots, they seed sums, intersections and duals, and the rows are
rotated out of them each time they are read.  A code grown from seed
rows rather than from words (a dual, an intersection, a u^2-subcode)
takes its basis rows, as words, for its generators, built when first
read and kept.  A layer's lowest row is reduced once, against the
echelon rows of the layers below it.

The torsion generators and the canonical presentation are read off the
lowest basis row of each layer.  That row's layer part is the torsion
generator, the least-degree member of the layer's torsion code.  Its
lower layers are already reduced modulo the lower torsion generators,
because an RREF row is zero at every other pivot and the pivots of a
torsion layer are every degree from its generator's up to n - 1.  The
presentation's case tag compares the code's dimension with the symbolic
dimensions of its one- and two-generator subcodes, which come from
torsion degrees alone, so no subcode is built.

Codes are immutable after construction.  Membership, closure and
distance are exact decisions on the lows.  The lowest rows of the three
layers span the code under x alone, so a word is a codeword exactly
when the x-closure of the lows and the word has the code's lows.
Reversal maps x * w to x^-1 * reverse(w), so the x-closure of the lows'
reversals is the reversed code, as large as the code: the code is
reversible exactly when that closure has the same lows.  Complement is
translation by the all-u^2 word, so closure under it is membership of
that word, which lies in the u^2-subcode (the socle) u^2 <t2>, t2 being
layer 2's lowest row: it is a codeword exactly when t2 is nonzero and
divides 1 + x + ... + x^(n-1).  The
minimum Hamming distance equals that of the socle, the binary cyclic
code <t2>, whose at most 2^n words are walked from t2's shifts until
the first word of weight at most 2; the walk's first word is t2 itself,
of weight 1 only when t2 = 1, and no other word has weight 1.
Enumeration, distance and closure are guarded by a configurable
dimension cap.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from . import polyf2
from .polyf2 import CapExceeded
from .polyr import RingWord

DEFAULT_ENUM_CAP = 24


def pack(word):
    """3n-bit layer expansion of a word."""
    n = word.n
    return word.f3 | word.f2 << n | word.f1 << 2 * n


def unpack(n, v):
    """Inverse of pack."""
    mask = (1 << n) - 1
    return RingWord(n, (v >> 2 * n) & mask, (v >> n) & mask, v & mask)


@functools.lru_cache(maxsize=256)
def _layer_tops(n, layers):
    """The top bit of each n-bit layer of a (layers * n)-bit vector, as one mask."""
    return (1 << n - 1) * ((1 << layers * n) - 1) // ((1 << n) - 1)


def _cyclic_lows(n, pivots):
    """The lowest RREF row of each layer of an x-closed span, layer 0 first.

    pivots is the span's echelon basis as x_span_lows keeps it: a row
    or 0 per bit, each row stored with its top bit as pivot and reduced
    by leading bits only.  x rotates each n-bit layer, so the vectors of
    the span that are zero above layer i have layer-i parts forming a
    cyclic code <t_i>, whose nonzero members have every degree from
    deg t_i to n - 1 and no other (Norton and Salagean, 2000).  The
    pivots of each layer are therefore contiguous and end at the layer's
    top, so a layer's lowest pivot follows its count of free bits; the
    echelon basis has the same pivots as the RREF.  The u^2 layer's
    lowest-pivot row has no layer below it and is already reduced.  The
    u and unit layers' rows are reduced against the echelon rows of the
    layers below them, highest pivot bit first: each XOR clears that bit
    and touches only lower ones.  An empty layer has n free bits, so its
    entry is 0 and it adds no pivot bit to those the layers above it are
    reduced against.
    """
    n2, n3 = 2 * n, 3 * n
    lo2 = pivots[:n].count(0)
    lo1 = n + pivots[n:n2].count(0)
    lo0 = n2 + pivots[n2:n3].count(0)
    t2 = pivots[lo2] if lo2 < n else 0
    t1 = pivots[lo1] if lo1 < n2 else 0
    t0 = pivots[lo0] if lo0 < n3 else 0
    below = (1 << n) - (1 << lo2)  # the u^2 layer's pivot bits
    while x := t1 & below:
        t1 ^= pivots[x.bit_length() - 1]
    below |= (1 << n2) - (1 << lo1)  # and the u layer's
    while x := t0 & below:
        t0 ^= pivots[x.bit_length() - 1]
    return t0, t1, t2


def _packed(n, vectors, kind):
    """Yield the vectors, raising ValueError for a length n < 1 or for a
    vector, named as kind, that is not a packed 3n-bit word."""
    if n < 1:
        raise ValueError(f"code length must be at least 1, got {n}")
    for v in vectors:
        if v >> 3 * n:  # -1 for a negative v
            fault = "is negative" if v < 0 else f"has a bit at or above 3n = {3 * n}"
            raise ValueError(f"{kind} {fault}")
        yield v


def rows_from_lows(n, lows):
    """Yield the RREF rows of an x-closed span from its lowest rows.

    lows is as CyclicCode.lows keeps it.  The rows come layer by layer,
    the u^2 layer first, each layer from its lowest pivot up, so in
    ascending pivot order.  Each further row of a layer is the one below
    it times x: a row zero at every other pivot has its layer-i part
    below its pivot and each lower layer's part below that layer's
    lowest pivot, so no layer's top bit is set until the row's own pivot
    reaches it, the rotation wraps no bit at all and is a plain shift,
    and it can set no pivot bit but its own and the lowest one of each
    non-empty layer; adding those layers' lowest rows clears them, so
    each row costs one shift and at most three conditional XORs.
    """
    seen = []  # (lowest pivot bit, its row) of each layer read so far
    low_bits = 0  # those layers' lowest pivot bits
    for block in range(3):  # the u^2 layer first
        v = lows[2 - block]
        if not v:
            continue
        lo = v.bit_length() - 1
        seen.append((1 << lo, v))
        low_bits |= 1 << lo
        yield v
        for _ in range(lo + 1, (block + 1) * n):
            v <<= 1
            if v & low_bits:
                for bit, low in seen:
                    if v & bit:
                        v ^= low
            yield v


def _reverse(n, v):
    """Coordinate reversal of a packed word: each n-bit layer reversed."""
    mask = (1 << n) - 1
    return (polyf2.bit_reverse(v >> 2 * n, n) << 2 * n
            | polyf2.bit_reverse(v >> n & mask, n) << n
            | polyf2.bit_reverse(v & mask, n))


def x_span_lows(n, seeds, layers=3):
    """The lowest RREF row of each layer of the x-closure of packed seeds.

    The seeds have the given number of n-bit layers, each rotated by x.
    Each seed is reduced by leading bits only and stored with its own
    top bit as pivot, and while its stored remainder is new, that
    remainder times x is inserted next; the chain ends at the first
    shift already in the span.  A remainder stored at pivot p that sets
    no layer's top bit times x is a plain shift with its top at p + 1,
    so the chain runs on storing v << 1 while that pivot is free, and
    only at a layer top or an occupied pivot does it rotate or reduce.
    Only the low three layers are read: with more, as for the
    Zassenhaus double block or a dual's graph, the echelon rows
    pivoting there span the closure's vectors that are zero above them.
    """
    tops = _layer_tops(n, layers)
    pivots = [0] * (layers * n)
    for v in seeds:
        while v:
            p = v.bit_length() - 1
            r = pivots[p]
            if r:
                v ^= r
                continue
            pivots[p] = v
            while not v & tops:  # then p is no layer top: p + 1 is in range
                v <<= 1
                p += 1
                r = pivots[p]
                if r:
                    v ^= r
                    break
                pivots[p] = v
            else:
                t = v & tops
                v = (v ^ t) << 1 | t >> n - 1
    return _cyclic_lows(n, pivots)


def gray_walk(rows):
    """The 2^len(rows) subset XORs of rows in Gray-code order, 0 first.

    Step k flips the row indexed by the trailing zeros of k, so a linear
    image of the rows walks to the image of each sum, in the same order.
    """
    v = 0
    yield v
    for k in range(1, 1 << len(rows)):
        v ^= rows[(k & -k).bit_length() - 1]
        yield v


def _torsion(n, g, p1, p2):
    """(a1, t) for the code <g + u p1 + u^2 p2>, without building it.

    g divides m = x^n + 1 (g = m with p1 = p2 = 0 stands for an empty
    unit layer).  With h = (m/g) p1, as derived in the constraints
    module docstring, the code's torsion codes are Tor_0 = <g>,
    Tor_1 = <a1> with a1 = gcd(g, h) and Tor_2 = <t> with
    t = gcd(a1, (m/a1) p2 + (h/a1) p1); adding the generator u^2 a2
    makes Tor_2 = <gcd(t, a2)> (a2 = 0 adds nothing).  The code's size
    is the product of its torsion codes' sizes (Norton and Salagean,
    2000).
    """
    m = polyf2.xn1(n)
    h = polyf2.mul(polyf2.divrem(m, g)[0], p1)
    a1 = polyf2.gcd(g, h)
    mix = (polyf2.mul(polyf2.divrem(m, a1)[0], p2)
           ^ polyf2.mul(polyf2.divrem(h, a1)[0], p1))
    return a1, polyf2.gcd(a1, mix)


class Presentation(namedtuple("Presentation", "case g p1 p2 a1 q a2")):
    """Structure-theorem generator data: case (int, 1-3) and six packed
    GF(2) polynomials (int), the fields a case does not use being zero.

    case 1: <g + u p1 + u^2 p2>
    case 2: <g + u p1 + u^2 p2, u^2 a2>
    case 3: <g + u p1 + u^2 p2, u a1 + u^2 q, u^2 a2>
    """

    __slots__ = ()

    def generator_words(self, n):
        """The generating words of the presentation (zero words omitted)."""
        triples = ((self.g, self.p1, self.p2), (0, self.a1, self.q),
                   (0, 0, self.a2))
        return [RingWord.from_polys(n, *t) for t in triples if any(t)]

    def to_json(self):
        return {
            "case": self.case,
            "g": polyf2.to_text(self.g),
            "p1": polyf2.to_text(self.p1),
            "p2": polyf2.to_text(self.p2),
            "a1": polyf2.to_text(self.a1),
            "q": polyf2.to_text(self.q),
            "a2": polyf2.to_text(self.a2),
        }


class CyclicCode:
    """An ideal of R[x]/(x^n - 1), kept as the lowest RREF row of each layer.

    lows[i] is the lowest-pivot row of layer i's rows in the canonical
    basis, 0 for an empty layer.  The lows fix the whole basis (see
    rows_from_lows), so they decide equality, membership and the
    dimension; the rows are rotated out of them on each read.  A code
    given no generators (a dual, an intersection, a u^2-subcode, a code
    built from its rows) takes its basis rows, as words, for its
    generators, built when first read and kept.
    """

    __slots__ = ("n", "lows", "_generators")

    def __init__(self, n, rows):
        """The ideal with the given rows, each layer's last nonzero row
        being its lowest RREF row: its whole RREF basis, highest pivot
        first, or just its lows.  Only the lows are kept, and the basis
        rows, as words, are the generators.

        A length n < 1, or a row that is negative or has a bit at or
        above 3n, raises ValueError.  That the rows are an ideal's rows
        is not checked.
        """
        lows = [0, 0, 0]
        for r in _packed(n, rows, "row"):
            if r:
                lows[2 - (r.bit_length() - 1) // n] = r
        self.n = n
        self.lows = tuple(lows)
        self._generators = None

    @classmethod
    def _from_lows(cls, n, lows, generators=None):
        """The code with the given lows tuple, as x_span_lows returns it,
        and generators (a tuple or None), with no row scan."""
        c = object.__new__(cls)
        c.n = n
        c.lows = lows
        c._generators = generators
        return c

    @classmethod
    def from_span(cls, n, vectors):
        """The ideal generated by packed vectors: the GF(2) span of the
        x-closure of each vector's u^2-, u- and 1-multiples, seeded in
        that order, so the result is an ideal whether or not the vectors
        span one.  Each vector must be a packed 3n-bit word.
        """
        seeds = []
        for v in _packed(n, vectors, "packed vector"):
            seeds += (v >> 2 * n, v >> n, v)
        return cls._from_lows(n, x_span_lows(n, seeds))

    @classmethod
    def from_generators(cls, n, generators):
        """The ideal generated by the given words (the zero code for none),
        seeded first to last, each word's u^2- and u-multiples ahead of it.
        """
        if n < 1:
            raise ValueError(f"code length must be at least 1, got {n}")
        generators = tuple(generators)
        seeds = []
        for w in generators:
            if w.n != n:
                raise ValueError(f"generator length {w.n} does not match n = {n}")
            f1 = w.f1
            uw = w.f2 | f1 << n
            seeds += (f1, uw, w.f3 | uw << n)
        return cls._from_lows(n, x_span_lows(n, seeds), generators)

    @classmethod
    def zero(cls, n):
        """The zero code, generated by no word."""
        return cls.from_generators(n, ())

    @classmethod
    def full(cls, n):
        """The whole ambient space R^n, the ideal generated by 1."""
        return cls.from_generators(n, [RingWord(n, 1)])

    @property
    def rows(self):
        """The RREF basis, highest pivot first."""
        rows = list(rows_from_lows(self.n, self.lows))
        rows.reverse()
        return tuple(rows)

    @property
    def generators(self):
        """The generating words, as the code was built from them."""
        if self._generators is None:
            n = self.n
            self._generators = tuple(unpack(n, r) for r in self.rows)
        return self._generators

    @property
    def dim(self):
        """GF(2) dimension; the code has 2^dim words.

        Layer i's pivots run from its lowest row's up to its top bit,
        (3 - i) n - 1.
        """
        n = self.n
        return sum((3 - i) * n + 1 - low.bit_length()
                   for i, low in enumerate(self.lows) if low)

    @property
    def cardinality(self):
        return 1 << self.dim

    def __eq__(self, other):
        return (isinstance(other, CyclicCode)
                and self.n == other.n and self.lows == other.lows)

    def __hash__(self):
        return hash((self.n, self.lows))

    def __repr__(self):
        return f"CyclicCode(n={self.n}, dim={self.dim})"

    def contains(self, word):
        """Whether the word is a codeword: whether it leaves the lows of
        the code's x-closure unchanged, as for is_reversible."""
        if word.n != self.n:
            raise ValueError(f"length mismatch: {word.n} vs {self.n}")
        seeds = [*reversed(self.lows), pack(word)]
        return x_span_lows(self.n, seeds) == self.lows

    def check_cap(self, cap):
        """Raise CapExceeded if the code has more than 2^cap words."""
        cap = DEFAULT_ENUM_CAP if cap is None else cap
        if self.dim > cap:
            raise CapExceeded(
                f"enumeration of 2^{self.dim} codewords exceeds cap 2^{cap}")

    def packed_words(self, cap=None):
        """All 2^dim packed codewords, Gray-code order, each exactly once.

        The cap is checked at the call, before the walk starts.
        """
        self.check_cap(cap)
        return gray_walk(self.rows)

    def words(self, cap=None):
        """All codewords as RingWord values."""
        n = self.n
        return (unpack(n, v) for v in self.packed_words(cap))

    def min_hamming_distance(self, cap=None):
        """Minimum weight over nonzero codewords; inf for the zero code.

        Coordinates are counted nonzero/zero over R, and linearity makes
        the minimum weight equal the minimum pairwise distance.  For a
        nonzero codeword c with u^k c the last nonzero power, u^k c is a
        u^2-only codeword supported inside c, so the minimum is taken
        over the u^2-subcode alone (Norton and Salagean, 2000).  That is
        the binary cyclic code <t2> with t2 layer 2's torsion generator.
        A word of weight 1, x^i, is a unit of GF(2)[x]/(x^n + 1) (x^n = 1),
        so <t2> holds one only when it is the whole space, t2 = 1.  The
        walk's first nonzero word is t2 itself, which then has weight 1,
        and otherwise no word has weight 1, so the walk stops at its
        first word of weight at most 2.  The cap is checked against the
        whole code's dimension, not the socle's.
        """
        t2 = self.lows[2]
        if not t2:  # a nonzero code has a nonzero u^2-subcode
            return math.inf
        self.check_cap(cap)
        # The u^2-subcode is u^2 <t2>: its words are the multiples of t2
        # of degree below n, spanned by t2's shifts x^k t2, k < n - deg t2.
        best = self.n + 1
        for v in gray_walk([t2 << k for k in range(self.n + 1 - t2.bit_length())]):
            w = v.bit_count()
            if 0 < w < best:
                best = w
                if best <= 2:  # weight 1 is t2 = 1, the walk's first word
                    break
        return best

    def is_reversible(self, cap=None):
        """Whether the reversal of every codeword is a codeword.

        The lowest rows of the three layers span the code under x alone
        (see rows_from_lows), and reversal maps x * w to x^-1 reverse(w)
        within each layer, so their reversals span the reversed code
        under x.  The reversed code has as many words as the code, so
        the code contains it exactly when the two are equal, that is
        when that span has the code's lows; this holds for every n, odd
        n included.
        """
        self.check_cap(cap)
        n = self.n
        # The u^2 layer first, as for a sum.
        seeds = [_reverse(n, r) for r in reversed(self.lows)]
        return x_span_lows(n, seeds) == self.lows

    def is_complement_closed(self, cap=None):
        """Whether the code is closed under the coordinatewise complement.

        Complement adds u^2 to every coordinate, so the code is closed
        under it exactly when it contains the all-u^2 word.  The code's
        u^2-only words are u^2 <t2>, t2 layer 2's lowest row, and t2
        divides x^n + 1, so that holds exactly when t2 is nonzero and
        divides 1 + x + ... + x^(n-1).
        """
        self.check_cap(cap)
        t2 = self.lows[2]
        return t2 != 0 and polyf2.divides(t2, polyf2.all_ones(self.n))

    def is_rc_closed(self, cap=None):
        """Whether the code is closed under reverse-complement."""
        return self.is_reversible(cap) and self.is_complement_closed(cap)

    def sum_with(self, other):
        """The code C1 + C2 (span of the union)."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        # Each code is the x-closure of its lows; the u^2 layer goes first.
        return CyclicCode._from_lows(
            self.n, x_span_lows(self.n, sorted(self.lows + other.lows)),
            self.generators + other.generators)

    def intersect_with(self, other):
        """The code C1 ∩ C2, via the Zassenhaus double-block reduction.

        The double block {(c1 | c1)} + {(c2 | 0)} over c1 in C1 and c2 in
        C2 is closed under x acting on both 3n-bit halves, so it is the
        chain closure of its lows, taken as six n-bit layers; its vectors
        with a zero top half are (0 | c) for c in C1 ∩ C2.
        """
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        w = 3 * self.n
        # The u^2 layer goes first, as for a sum.
        seeds = sorted([r << w | r for r in self.lows if r]
                       + [r << w for r in other.lows if r])
        return CyclicCode._from_lows(self.n, x_span_lows(self.n, seeds, 6))

    def report_json(self, cap=None):
        """Summary report of the code as a JSON-ready dict."""
        d = self.min_hamming_distance(cap)
        reversible = self.is_reversible(cap)
        return {
            "n": self.n,
            "dim": self.dim,
            "cardinality": self.cardinality,
            "min_distance": None if d == math.inf else d,
            "reversible": reversible,
            "rc_closed": reversible and self.is_complement_closed(cap),
            "presentation": (self.canonical_presentation().to_json()
                             if self.n % 2 == 0 else None),
        }

    def u2_subcode(self):
        """The subcode of codewords supported only on the u^2 layer.

        With the chosen packing these are spanned by exactly the basis
        rows whose pivot lies below bit n, whose lowest row is layer 2's.
        """
        return CyclicCode._from_lows(self.n, (0, 0, self.lows[2]))

    def torsion_generator(self, i):
        """Monic minimum-degree generator of the torsion code T_i.

        T_i = {a in GF(2)[x] : some codeword is congruent to u^i * a
        modulo u^(i+1)}.  The layer-i parts of the basis rows pivoting in
        layer i are T_i in RREF, and T_i's generator is its only nonzero
        member of least degree: the layer part of the layer's lowest row.
        The zero torsion code yields x^n + 1.
        """
        if i not in (0, 1, 2):
            raise ValueError("torsion layer must be 0, 1 or 2")
        r = self.lows[i]
        return r >> (2 - i) * self.n if r else polyf2.xn1(self.n)

    def canonical_presentation(self):
        """Extract deterministic structure-theorem generator data.

        g, p1, p2 are the layers of layer 0's lowest basis row, a1, q
        those of layer 1's and a2 is layer 2's (all zero for an empty
        layer).  The degree bounds deg p1 < deg a1, deg p2 < deg a2 and
        deg q < deg a2 already hold: a row of the RREF basis is zero at
        every other pivot, and the pivots of layers 1 and 2 are every
        degree from deg a1 (resp. deg a2) up to n - 1, since T_1 and T_2
        are cyclic.  The case tag is the smallest generator set that
        generates the code, decided by comparing symbolic dimensions
        (see _torsion) with the code's.
        """
        n = self.n
        if n % 2:
            raise ValueError("presentation extraction requires even length")
        mask = (1 << n) - 1
        c_g, c_a1, a2 = self.lows
        g, p1, p2 = c_g >> 2 * n, c_g >> n & mask, c_g & mask
        a1, q = c_a1 >> n, c_a1 & mask

        # Both one- and two-generator codes are subcodes of C, so each
        # equals C exactly when its dimension does; they differ only in
        # Tor_2 (see _torsion).
        g0 = g or polyf2.xn1(n)
        sub_a1, t = _torsion(n, g0, p1, p2)
        rest = 3 * n - polyf2.degree(g0) - polyf2.degree(sub_a1)
        if rest - polyf2.degree(t) == self.dim:
            return Presentation(1, g, p1, p2, 0, 0, 0)
        if rest - polyf2.degree(polyf2.gcd(t, a2)) == self.dim:
            return Presentation(2, g, p1, p2, 0, 0, a2)
        return Presentation(3, g, p1, p2, a1, q, a2)
