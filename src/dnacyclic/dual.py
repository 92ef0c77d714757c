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
and u.  A row's equation mask is the row with its outer layers swapped,
which commutes with x, so the masks span the x-closure of the code's
at most three lowest rows, swapped, plus the Hermitian mask; those at
most four masks seed the equations' span (see the code module).  The
kernel is closed under x as well: it has one vector per free column in
ascending column order.  Each layer's top free column gets its vector
from one pass over the equations' rows as they are rotated out of the
span's lowest rows, and those at most three top vectors seed the dual
code.  The rest of the kernel, each lower column's vector being the one
above it times x^-1, is read only for the dual's generators, which are
built when first read.
dual_brute filters every word of R^n by definitional inner products
against every codeword and exists solely as an independent oracle for
small n.
"""

from __future__ import annotations

import functools

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


def _orthogonality_masks(c, flavor):
    """Parity-equation masks whose x-closure is every equation on a word.

    A packed unknown v satisfies every mask m of that closure with
    parity(v & m) = 0 exactly when it is orthogonal (in the requested
    flavor) to every codeword of c.  A codeword's mask is the codeword
    with its unit and u^2 layer blocks swapped: parity(v & mask) is the
    u^2 layer of <v, codeword>.  The swap commutes with x, so the masks
    of c's nonzero lowest rows x-generate those of all its codewords.
    """
    n = c.n
    mask = (1 << n) - 1
    masks = [(b & mask) << 2 * n | (b >> n & mask) << n | b >> 2 * n
             for b in c.lows if b]
    if flavor == "hermitian":
        # The u^2 * (coordinate sum) term: the unit layer has even weight.
        masks.append(mask << 2 * n)
    return masks


def _kernel_tops(n, masks):
    """[column, vector] of each layer's top free column, u^2 block first.

    The solution space of the x-closure of the parity masks has one
    vector per free (non-pivot) column of the equations' RREF: the
    column's bit plus the pivot of each row with a bit in that column.
    The free columns of each layer are the bits below its lowest pivot,
    which its lowest row gives, so the top one's vector comes from one
    pass over the rows as they are rotated out of the lows; no row is
    kept.
    """
    lows = CyclicCode.from_span(n, masks).lows
    tops = []
    for block in range(3):
        low = lows[2 - block]
        f = low.bit_length() - 2 if low else (block + 1) * n - 1
        if f >= block * n:
            tops.append([f, 1 << f])
    if tops:
        for r in rows_from_lows(n, lows):
            for top in tops:
                if r >> top[0] & 1:
                    top[1] |= 1 << r.bit_length() - 1
    return tops


def _kernel_below(n, tops):
    """The kernel basis from its top vectors, in ascending column order.

    The equations are closed under x, and x permutes the bits with x^-1
    as its adjoint, so the solutions are closed under x and x^-1 too.
    Each lower free column's vector is the one above it times x^-1,
    which moves that column's bit down by one, wraps no free bit and
    sets at most one other free bit per layer: the top free column,
    from the layer's lowest pivot.  Adding those columns' vectors clears
    them.
    """
    bottoms = 1 | 1 << n | 1 << 2 * n
    kernel = []
    for f, v in tops:
        column = [v]
        for _ in range(f % n):
            t = v & bottoms
            v = (v ^ t) >> 1 | t << n - 1
            for g, top in tops:
                if v >> g & 1:
                    v ^= top
            column.append(v)
        column.reverse()
        kernel += column
    return kernel


def _kernel(n, masks):
    """Basis of the solution space of the x-closure of the parity masks,
    one vector per free column in ascending column order."""
    return _kernel_below(n, _kernel_tops(n, masks))


def _kernel_words(n, tops):
    """The kernel basis from its top vectors, as words."""
    return [unpack(n, v) for v in _kernel_below(n, tops)]


def dual_code(c, flavor="euclidean"):
    """The dual code by the kernel method.

    The kernel's top vectors seed the dual; its generators, the whole
    kernel basis as words, are built when first read.
    """
    _check_flavor(flavor)
    n = c.n
    tops = _kernel_tops(n, _orthogonality_masks(c, flavor))
    return CyclicCode.from_span(n, [v for _, v in tops],
                                functools.partial(_kernel_words, n, tops))


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
