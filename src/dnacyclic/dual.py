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
against a basis already imply the other two layers.  The solution
space is the dual ideal itself, since the orthogonal space of an ideal
and the Hermitian extra equation are both invariant under x and u.  A
codeword's equation is parity(v & swap(b)) = 0, with swap exchanging
the outer layers, and the rotations x^k l of the code's lowest rows l
span the code; the Hermitian equation is parity(v & swap(J)) for the
all-u^2 word J, which x fixes.  So the equations are
parity(v & x^k s) = 0 for each s among the swapped lows (and swap(J))
and each k.  Their parities, one n-bit layer per s, rotate when v does
(x's adjoint is x^-1), so the graph of v and its parities is closed
under x on all its layers.  It is the x-closure of its three seeds,
the top bit of each of v's layers with its parities, and its vectors
with no parity set are the dual: one x-closure per dual, its lows read
as an intersection's are, and no row of the code rotated out.  The
dual's generators are its basis rows as words, built when first read.
dual_brute filters every word of R^n by definitional inner products
against every codeword and exists solely as an independent oracle for
small n.
"""

from __future__ import annotations

from . import polyf2
from .code import CyclicCode, unpack, x_span_lows

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


def dual_code(c, flavor="euclidean"):
    """The dual code, read off the graph of its parity equations.

    v lies in the dual when parity(v & x^k s) = 0 for every k and every
    s among the swaps of c's nonzero lows, plus swap(J) for the
    Hermitian flavor.  Let L(v) hold those parities, one n-bit layer per
    s with bit k in it; x's adjoint is x^-1, so L(x v) is L(v) rotated.
    The graph {(L(v) | v)} is then the x-closure of its three seeds
    (L(e) | e), e the top bit of each layer of v, and its vectors with a
    zero L half are (0 | v) for v in the dual.
    """
    _check_flavor(flavor)
    n = c.n
    mask = (1 << n) - 1
    rows = [low for low in c.lows if low]  # each s, unswapped
    if flavor == "hermitian":
        rows.append(polyf2.all_ones(n))
    seeds = []
    for block in range(3):
        # Bit k of a parity layer is parity(e & x^k s), e this block's
        # top bit: bit n - 1 - k of s's part in the block, which is the
        # unswapped row's part in block 2 - block.
        seed = 1 << block * n + n - 1
        for layer, row in enumerate(rows, start=3):
            part = row >> (2 - block) * n & mask
            seed |= polyf2.bit_reverse(part, n) << layer * n
        seeds.append(seed)
    return CyclicCode(n, x_span_lows(n, sorted(seeds), 3 + len(rows)))


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
