"""Euclidean and Hermitian inner products, dual codes, and the
divisibility relations between a code's generators and its dual's.

The Euclidean product of X and Y is sum(x_i * y_i) in the ring; the
Hermitian product pairs X with the coordinatewise Watson-Crick
complement of Y.  Because the complement is the affine map y + u^2, the
Hermitian product is the Euclidean one plus u^2 times the coordinate
sum of X, so the Hermitian dual is the Euclidean dual cut by one more
parity equation: the unit layer of X has even weight.

dual_code solves a GF(2) linear system over the 3n layer bits: one
parity equation per codeword of a GF(2) basis.  For an unknown word v
and a codeword b, write c0, c1, c2 for the unit, u and u^2 layers of
<v, b>.  Then c2(v, u*b) = c1(v, b) and c2(v, u^2*b) = c0(v, b), and a
code is an ideal, hence closed under u; so the u^2-layer equations
against the basis rows already imply the other two layers.  The
solution space is the dual ideal itself, since the orthogonal space of
an ideal and the Hermitian extra equation are both invariant under x
and u.  A row's equation is parity(v & swap(b)) = 0, with swap
exchanging the outer layers; that is parity(swap(v) & b) = 0, so the
dual is swap(K) for K the plain GF(2) kernel of the code's own basis
rows, plus, for the Hermitian flavor, the all-u^2 word, which the swap
takes to the Hermitian equation.  That word joins the code's lowest
rows as one reduced row.  K is closed under x, whose adjoint is x^-1:
it has one vector per free column of the rows' RREF, and each layer's
top free column gets its vector from one pass over the rows as they are
rotated out of the lowest rows, with no row kept.  Those at most three
top vectors, swapped, seed the dual code: one x-closure per dual.  The
dual's generators are its basis rows as words, built when first read.
dual_brute filters every word of R^n by definitional inner products
against every codeword and exists solely as an independent oracle for
small n.
"""

from __future__ import annotations

from . import polyf2
from .code import CyclicCode, rows_from_lows, unpack

FLAVORS = ("euclidean", "hermitian")


def _check_flavor(flavor):
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")


def inner_euclidean(x, y):
    """sum(x_i * y_i) over the coordinates, as a ring element."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    c0 = (x.f1 & y.f1).bit_count() & 1
    c1 = ((x.f1 & y.f2).bit_count() ^ (x.f2 & y.f1).bit_count()) & 1
    c2 = ((x.f1 & y.f3).bit_count() ^ (x.f2 & y.f2).bit_count()
          ^ (x.f3 & y.f1).bit_count()) & 1
    return c0 | c1 << 1 | c2 << 2


def inner_hermitian(x, y):
    """sum(x_i * complement(y_i)); equals the Euclidean product of x
    with the complemented word."""
    return inner_euclidean(x, y.complement())


def _kernel_tops(c, flavor):
    """Each layer's top free-column vector of K, u^2 block first.

    K is the plain GF(2) orthogonal complement of c's basis rows, plus,
    for the Hermitian flavor, the all-u^2 word.  It has one vector per
    free (non-pivot) column of their RREF: the column's bit plus the
    pivot of each row with a bit in that column.  The free columns of
    each layer are the bits below its lowest pivot, so each layer's top
    one's vector comes from one pass over the rows as they are rotated
    out of the lows; no row is kept.

    The all-u^2 word J joins as one row.  Reduced by the u^2-layer rows
    it is z = J mod t2, with t2 layer 2's lowest row (J itself for the
    zero code, where t2 = 0).  z is 0 when c holds J; otherwise its
    pivot lies below t2's and it becomes layer 2's lowest row.  Its
    other bits lie below every pivot, so adding it to each upper lowest
    row with a bit at that pivot reduces the lows again.  J is fixed by
    x, so the extended span stays x-closed.
    """
    n = c.n
    l0, l1, l2 = c.lows
    if flavor == "hermitian":
        ones = polyf2.all_ones(n)
        z = polyf2.mod(ones, l2) if l2 else ones
        if z:
            pivot = 1 << z.bit_length() - 1
            if l0 & pivot:
                l0 ^= z
            if l1 & pivot:
                l1 ^= z
            l2 = z
    lows = (l0, l1, l2)
    tops = []
    columns = 0
    for block in range(3):
        low = lows[2 - block]
        f = low.bit_length() - 2 if low else (block + 1) * n - 1
        if f >= block * n:
            tops.append([f, 1 << f])
            columns |= 1 << f
    if columns:
        for r in rows_from_lows(n, lows):
            if r & columns:
                for top in tops:
                    if r >> top[0] & 1:
                        top[1] |= 1 << r.bit_length() - 1
    return [v for _, v in tops]


def dual_code(c, flavor="euclidean"):
    """The dual code, grown from the swapped top vectors of K.

    parity(v & swap(b)) = parity(swap(v) & b), so the dual is swap(K),
    with K as _kernel_tops reads it.  x permutes the bits with x^-1 as
    its adjoint, so K is closed under x and x^-1.  A lower free column's
    vector is the one above it times x^-1 plus, at most, the top vectors
    whose columns that sets, so the top vectors x-generate K, and their
    swaps, the swap commuting with x, x-generate the dual.  Its
    generators are its basis rows as words, built when first read.
    """
    _check_flavor(flavor)
    n = c.n
    mask = (1 << n) - 1
    # The swapped top of K's unit layer lies in the dual's u^2 layer, so
    # it goes first.
    seeds = [(v & mask) << 2 * n | (v >> n & mask) << n | v >> 2 * n
             for v in reversed(_kernel_tops(c, flavor))]
    return CyclicCode.from_span(n, seeds)


def dual_brute(c, flavor="euclidean"):
    """Exhaustive dual oracle: filter all 8^n words against all codewords."""
    _check_flavor(flavor)
    n = c.n
    if n > 8:
        raise ValueError("the exhaustive dual oracle is limited to n <= 8")
    inner = inner_euclidean if flavor == "euclidean" else inner_hermitian
    codewords = list(c.words())
    keep = []
    for v in range(1 << 3 * n):
        w = unpack(n, v)
        if all(inner(w, y) == 0 for y in codewords):
            keep.append(w)
    return CyclicCode.from_generators(n, keep)


def check_dual_reversibility_equivalence(c, cap=None):
    """Whether c, its Euclidean dual and its Hermitian dual are all
    reversible or all not, as the three-way equivalence demands."""
    r0 = c.is_reversible(cap)
    re = dual_code(c, "euclidean").is_reversible(cap)
    rh = dual_code(c, "hermitian").is_reversible(cap)
    return r0 == re == rh


_CLAIM_COFACTORS = ("a2", "a1", "g", "g", "a1", "g")
_CLAIM_TARGETS = ("g", "a1", "a2", "q", "p1", "p2")


def verify_dual_divisibility(pres, pres_hat, n):
    """Check the six generator-divisibility claims relating a code's
    presentation to its dual's.

    Claim k states that (x^n + 1) / r* divides the k-th dual generator
    polynomial, where r runs over (a2, a1, g, g, a1, g) and the targets
    over (g^, a1^, a2^, q^, p1^, p2^).  A zero target is vacuously
    divisible and noted as such.  Hypothesis violations are reported in
    the result rather than raised.
    """
    m = polyf2.xn1(n)
    violations = []
    if pres.case != 3:
        violations.append(f"presentation is case {pres.case}, the claims "
                          "address three-generator codes")
    g, p1, p2, a1, q, a2 = pres.g, pres.p1, pres.p2, pres.a1, pres.q, pres.a2
    if not (g and a1 and a2):
        violations.append("g, a1, a2 must all be nonzero")
    else:
        if not (polyf2.divides(a2, a1) and polyf2.divides(a1, g)
                and polyf2.divides(g, m)):
            violations.append("divisibility chain a2 | a1 | g | x^n+1 violated")
        if not polyf2.divides(a1, p1):
            violations.append("a1 does not divide p1")
        if not polyf2.divides(a2, p2):
            violations.append("a2 does not divide p2")
        if not polyf2.divides(a2, q):
            violations.append("a2 does not divide q")
        if not (polyf2.degree(g) > polyf2.degree(p1)
                and polyf2.degree(g) > polyf2.degree(p2)):
            violations.append("deg g must exceed deg p1 and deg p2")
        if not polyf2.degree(a1) > polyf2.degree(q):
            violations.append("deg a1 must exceed deg q")

    hypotheses_ok = not violations
    claims = []
    notes = []
    if hypotheses_ok:
        cof = {}
        for name, poly in (("g", g), ("a1", a1), ("a2", a2)):
            quot, rem = polyf2.divrem(m, polyf2.reciprocal(poly))
            assert rem == 0
            cof[name] = quot
        hat = {"g": pres_hat.g, "a1": pres_hat.a1, "a2": pres_hat.a2,
               "q": pres_hat.q, "p1": pres_hat.p1, "p2": pres_hat.p2}
        for k, (cname, tname) in enumerate(zip(_CLAIM_COFACTORS, _CLAIM_TARGETS),
                                           start=1):
            target = hat[tname]
            claims.append(polyf2.divides(cof[cname], target))
            if target == 0:
                notes.append(f"claim {k}: dual part {tname} is zero, "
                             "vacuously divisible")
    else:
        claims = [None] * 6
        notes.append("hypotheses not met; claims not evaluated")

    return {
        "hypotheses_ok": hypotheses_ok,
        "violations": violations,
        "claims": claims,
        "notes": notes,
    }
