"""Cyclic codes over GF(2)[u]/(u^3) as ideals of R[x]/(x^n - 1).

A code is stored as the GF(2) row span of its 3n-bit layer expansion.
A codeword with layers (f1, f2, f3) packs into the integer

    f3  |  f2 << n  |  f1 << 2n

so that multiplication by u is a plain right shift by n and the
u^2-only subspace is exactly the low n bits.  The basis is stored in
reduced row echelon form with the pivot of a row being its highest set
bit; RREF is unique per subspace, which makes code equality a tuple
comparison and every derived quantity deterministic.  Elimination
builds a plain echelon form, reducing each inserted vector by leading
bits only.  Every span the package reads out this way is closed under
x: a code, a sum of codes, a dual and the span of a dual's parity
masks.  In such a span the pivots of each layer run contiguously up to
the layer's top, so the rows are read by rotation: the lowest row of
each layer is reduced once against the layers below it, and each
further row is the one below it times x plus, at most, the lowest rows
of three layers.  rref back-reduces bit by bit and serves spans with no
such structure, such as the double block of an intersection.

The ideal generated by a set of words equals the GF(2) span of
{u^j * x^i * w}, because R itself is the GF(2) span of {1, u, u^2}; this
reduces all module arithmetic to bit linear algebra.  Multiplication by
x rotates each n-bit layer of the packed integer by one place.  The span
built from earlier shift chains is closed under x, so a generator's
chain x^i * u^j * w stops at the first shift already in the span: every
later shift lies in it too.  The chains are built low layer first: the
generators last to first, and each one's chains from u^2 * w up to w.  A
presentation lists its u^2-generator last, and u^2 * w and u * w are
shorter than w, so the lower layers' pivots are filled with short rows
before a shift of w falls out of layer 0.  That shift's remainder then
reduces against them, or is already in the span and ends the chain,
instead of adding a long row that later lower-layer vectors must reduce
through.  A chain rotates the stored remainder of its last shift, not
the shift itself: the two differ by a vector of the span, and so do
their rotations.  On the certified candidates of an n = 8 search the
low-layer-first order takes the mean elimination XORs per build from
41.8 to 27.0, and rotating remainders takes them to 20.8; reading the
rows then costs 7.1 XORs on the lowest rows and 4.4 conditional ones,
where back-reduction bit by bit costs 30.2.  The RREF is unique, so
the rows do not change.

The torsion generators and the canonical presentation are read off the
lowest basis row of each layer.  That row's layer part is the torsion
generator, the least-degree member of the layer's torsion code.  Its
lower layers are already reduced modulo the lower torsion generators,
because an RREF row is zero at every other pivot and the pivots of a
torsion layer are every degree from its generator's up to n - 1.  The
presentation's case tag compares the code's dimension with the symbolic
dimensions of its one- and two-generator subcodes, which come from
torsion degrees alone, so no subcode is built.

Codes are immutable after construction.  Closure and distance are exact
decisions on the basis.  The lowest rows of the three layers generate
the code as an ideal, and reversal maps k * w to phi(k) * reverse(w)
with phi: x -> x^-1 a ring automorphism, so the code is reversible
exactly when those at most three rows' reversals reduce to zero;
complement is translation by the all-u^2 word, so closure under it is
membership of that word; and the minimum Hamming distance equals that
of the u^2-subcode (the socle), whose at most 2^n words are walked.
Enumeration, distance and closure are guarded by a configurable
dimension cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _insert(pivots, v):
    """Insert v into an echelon basis kept as {pivot bit: row}.

    v is reduced by leading bits only and stored with its own top bit as
    pivot, so rows may still carry lower pivot bits until they are read
    out.  Returns the stored row, or 0 if v was already in the span.
    """
    while v:
        p = v.bit_length() - 1
        r = pivots.get(p)
        if r is None:
            pivots[p] = v
            return v
        v ^= r
    return 0


def _rows_of(pivots):
    """Back-reduce an echelon basis in place; its unique RREF, highest pivot first.

    One pass in ascending pivot order: each row already reduced is zero
    at every other pivot, so a row clears its lower pivot bits with one
    XOR per bit set there, in any order.
    """
    order = sorted(pivots)
    below = 0
    for p in order:
        v = pivots[p]
        x = v & below
        while x:
            q = x.bit_length() - 1
            v ^= pivots[q]
            x ^= 1 << q
        pivots[p] = v
        below |= 1 << p
    return tuple(pivots[p] for p in reversed(order))


def rref(vectors):
    """The RREF basis of the span of packed vectors, highest pivot first."""
    pivots = {}
    for v in vectors:
        _insert(pivots, v)
    return _rows_of(pivots)


def _layer_tops(n):
    """The top bit of each of the three n-bit layers, as one mask."""
    return (1 << n - 1) * ((1 << 3 * n) - 1) // ((1 << n) - 1)


def _cyclic_rows(n, pivots):
    """The RREF of an x-closed span from its echelon basis, highest pivot first.

    x rotates each n-bit layer, so the vectors of the span that are zero
    above layer i have layer-i parts forming a cyclic code <t_i>, whose
    nonzero members have every degree from deg t_i to n - 1 and no
    other (Norton and Salagean, 2000).  The pivots of each layer are
    therefore contiguous and end at the layer's top; the echelon basis
    has the same pivots as the RREF.  The lowest-pivot row of a layer
    is reduced against the rows of the layers below it, bit by bit.
    Each further row of the layer is the one below it times x: a row
    zero at every other pivot has its layer-i part below its pivot and
    each lower layer's part below that layer's lowest pivot, so the
    rotation wraps no pivot bit and can set no pivot bit but its own
    and the lowest one of each non-empty layer; adding those layers'
    lowest rows clears them, so each row costs one rotation and at most
    three conditional XORs.  The rows are written back into pivots.
    """
    counts = [0, 0, 0]
    for p in pivots:
        counts[p // n] += 1
    tops = _layer_tops(n)
    rows = []
    lows = []  # (lowest pivot bit, its row) of each layer read so far
    low_bits = 0  # those layers' lowest pivot bits
    below = 0  # the pivot bits of the layers read so far
    for block, count in enumerate(counts):  # n bits each, the u^2 layer first
        if not count:
            continue
        end = (block + 1) * n
        lo = end - count
        v = pivots[lo]
        x = v & below
        while x:
            q = x.bit_length() - 1
            v ^= pivots[q]
            x ^= 1 << q
        lows.append((1 << lo, v))
        low_bits |= 1 << lo
        pivots[lo] = v
        rows.append(v)
        for p in range(lo + 1, end):
            t = v & tops
            v = (v ^ t) << 1 | t >> n - 1
            if v & low_bits:
                for bit, low in lows:
                    if v & bit:
                        v ^= low
            pivots[p] = v
            rows.append(v)
        below |= (1 << end) - (1 << lo)
    rows.reverse()
    return tuple(rows)


def cyclic_rref(n, vectors):
    """rref(vectors) for packed 3n-bit vectors whose span is closed under x."""
    pivots = {}
    for v in vectors:
        _insert(pivots, v)
    return _cyclic_rows(n, pivots)


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


def _presented_dim(n, g, p1, p2, a2):
    """GF(2) dimension of <g + u p1 + u^2 p2, u^2 a2>, without building it.

    g divides m = x^n + 1 (g = m with p1 = p2 = 0 stands for an empty
    unit layer), and a2 = 0 means no second generator.  The code's size
    is the product of its three torsion codes' sizes (Norton and
    Salagean, 2000), and with h = (m/g) p1 these are, as derived in the
    constraints module docstring:

        Tor_0 = <g>,  Tor_1 = <a1> with a1 = gcd(g, h),
        Tor_2 = <t2> with t2 = gcd(a1, (m/a1) p2 + (h/a1) p1, a2),

    so the dimension is 3n - deg g - deg a1 - deg t2.
    """
    m = polyf2.xn1(n)
    h = polyf2.mul(polyf2.divrem(m, g)[0], p1)
    a1 = polyf2.gcd(g, h)
    mix = (polyf2.mul(polyf2.divrem(m, a1)[0], p2)
           ^ polyf2.mul(polyf2.divrem(h, a1)[0], p1))
    t2 = polyf2.gcd(polyf2.gcd(a1, mix), a2)
    return 3 * n - polyf2.degree(g) - polyf2.degree(a1) - polyf2.degree(t2)


@dataclass(frozen=True)
class Presentation:
    """Structure-theorem generator data (unused fields are zero per case).

    case 1: <g + u p1 + u^2 p2>
    case 2: <g + u p1 + u^2 p2, u^2 a2>
    case 3: <g + u p1 + u^2 p2, u a1 + u^2 q, u^2 a2>
    """

    case: int
    g: int
    p1: int
    p2: int
    a1: int
    q: int
    a2: int

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
    """An ideal of R[x]/(x^n - 1) with a canonical GF(2) basis."""

    __slots__ = ("n", "rows", "generators")

    def __init__(self, n, rows, generators=()):
        self.n = n
        self.rows = tuple(rows)
        self.generators = tuple(generators)

    @classmethod
    def from_generators(cls, n, generators):
        """The ideal generated by the given words (the zero code for none)."""
        generators = tuple(generators)
        tops = _layer_tops(n)
        pivots = {}
        for w in reversed(generators):
            if w.n != n:
                raise ValueError(f"generator length {w.n} does not match n = {n}")
            base = pack(w)
            for j in (2, 1, 0):
                v = base >> (n * j)
                while v := _insert(pivots, v):
                    t = v & tops
                    v = (v ^ t) << 1 | t >> n - 1
        return cls(n, _cyclic_rows(n, pivots), generators)

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def full(cls, n):
        """The whole ambient space R^n, the ideal generated by 1."""
        return cls.from_generators(n, [RingWord(n, 1)])

    @property
    def dim(self):
        """GF(2) dimension; the code has 2^dim words."""
        return len(self.rows)

    @property
    def cardinality(self):
        return 1 << len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, CyclicCode)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"CyclicCode(n={self.n}, dim={self.dim})"

    def _reduce(self, v):
        for r in self.rows:
            if v.bit_length() == r.bit_length():
                v ^= r
        return v

    def contains(self, word):
        if word.n != self.n:
            raise ValueError(f"length mismatch: {word.n} vs {self.n}")
        return self._reduce(pack(word)) == 0

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
        over the u^2-subcode alone (Norton and Salagean, 2000).
        """
        if self.dim == 0:
            return math.inf
        self.check_cap(cap)
        best = self.n + 1
        for v in self.u2_subcode().packed_words(cap):
            w = v.bit_count()
            if 0 < w < best:
                best = w
                if best == 1:
                    break
        return best

    def is_reversible(self, cap=None):
        """Whether the reversal of every codeword is a codeword.

        The lowest rows l0, l1, l2 of the three layers generate the code
        as an ideal: the layer-i part of li generates the torsion code
        T_i, so subtracting multiples of l0, then l1, then l2 clears a
        codeword's unit, u and u^2 layers in turn.  Reversal maps k * w
        to phi(k) * reverse(w) with phi: x -> x^-1 a ring automorphism,
        so the code is reversible exactly when each li's reversal is a
        codeword; this holds for every n, odd n included.
        """
        self.check_cap(cap)
        return all(self._reduce(pack(unpack(self.n, r).reverse())) == 0
                   for r in self._lowest_rows())

    def is_complement_closed(self, cap=None):
        """Whether the code is closed under the coordinatewise complement.

        Complement adds u^2 to every coordinate, so the code is closed
        under it exactly when it contains the all-u^2 word.
        """
        self.check_cap(cap)
        return self._reduce((1 << self.n) - 1) == 0

    def is_rc_closed(self, cap=None):
        """Whether the code is closed under reverse-complement."""
        return self.is_reversible(cap) and self.is_complement_closed(cap)

    def sum_with(self, other):
        """The code C1 + C2 (span of the union)."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return CyclicCode(self.n, cyclic_rref(self.n, self.rows + other.rows),
                          self.generators + other.generators)

    def intersect_with(self, other):
        """The code C1 ∩ C2, via the Zassenhaus double-block reduction."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        w = 3 * self.n
        both = rref([(r << w) | r for r in self.rows]
                    + [r << w for r in other.rows])
        # Rows with a zero top block are zero at every pivot but their
        # own, so they already form the reduced echelon basis of C1 ∩ C2.
        rows = tuple(r for r in both if r >> w == 0)
        return CyclicCode(self.n, rows, tuple(unpack(self.n, r) for r in rows))

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
        rows whose pivot lies below bit n.
        """
        rows = tuple(r for r in self.rows if r.bit_length() - 1 < self.n)
        return CyclicCode(self.n, rows, tuple(unpack(self.n, r) for r in rows))

    def _lowest_rows(self):
        """The lowest-pivot basis row of each layer, 0 for an empty layer.

        Rows run highest pivot first, so the last row seen in a layer is
        its lowest.
        """
        n = self.n
        low = [0, 0, 0]
        for r in self.rows:
            low[2 - (r.bit_length() - 1) // n] = r
        return low

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
        r = self._lowest_rows()[i]
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
        (see _presented_dim) with the code's.
        """
        n = self.n
        if n % 2:
            raise ValueError("presentation extraction requires even length")
        mask = (1 << n) - 1
        c_g, c_a1, a2 = self._lowest_rows()
        g, p1, p2 = c_g >> 2 * n, c_g >> n & mask, c_g & mask
        a1, q = c_a1 >> n, c_a1 & mask

        # Both one- and two-generator codes are subcodes of C, so each
        # equals C exactly when its dimension does.
        g0 = g or polyf2.xn1(n)
        if _presented_dim(n, g0, p1, p2, 0) == self.dim:
            return Presentation(1, g, p1, p2, 0, 0, 0)
        if _presented_dim(n, g0, p1, p2, a2) == self.dim:
            return Presentation(2, g, p1, p2, 0, 0, a2)
        return Presentation(3, g, p1, p2, a1, q, a2)
