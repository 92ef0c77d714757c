"""The independent references the tests compare the library against.

Each reference and draw helper is written here once and imported by
every test file that needs it (and by the CI family-gap step, with
`PYTHONPATH=src:tests`).  They use the plainest method that is still
exact: walks, full expansions and one candidate at a time, not the
library's fast paths.
"""

import functools
import json
import math

from dnacyclic import constraints, polyf2
from dnacyclic.code import CyclicCode, pack
from dnacyclic.constraints import Verdict
from dnacyclic.polyr import RingWord, divides_xn_minus_1

# The bundled n = 8 example, <G + u P1 + u^2 P2>: reversible and rc-closed.
G = polyf2.from_text("x^6+x^4+x^2+1")
P1 = polyf2.from_text("x^5+x")
P2 = polyf2.from_text("x^4+x^2")


def example_code():
    return CyclicCode.from_generators(8, [RingWord.from_polys(8, G, P1, P2)])


def random_word(rng, n):
    return RingWord(n, rng.randrange(1 << n), rng.randrange(1 << n),
                    rng.randrange(1 << n))


def random_code(rng, n, max_gens=2):
    gens = [random_word(rng, n) for _ in range(rng.randrange(0, max_gens + 1))]
    return CyclicCode.from_generators(n, gens)


@functools.cache
def proper_divisors(n):
    """The divisors g of x^n + 1 with 1 <= deg g <= n - 1, in divisor order."""
    return tuple(d for d in polyf2.divisors_of_xn1(n)
                 if 1 <= polyf2.degree(d) <= n - 1)


@functools.cache
def structural_pairs(n, g):
    """(p1, p2) with deg < deg g whose generator divides x^n - 1 in R."""
    r = polyf2.degree(g)
    return tuple((p1, p2)
                 for p1 in range(1 << r) for p2 in range(1 << r)
                 if divides_xn_minus_1(RingWord.from_polys(n, g, p1, p2)))


def search_candidates(n):
    """Yield (g, p1, p2, a2) per candidate, a2 = None for one generator:
    search's walk order, one candidate at a time."""
    divisors = polyf2.divisors_of_xn1(n)
    for g in proper_divisors(n):
        r = polyf2.degree(g)
        a2s = (None, *(d for d in divisors if d != g and polyf2.divides(d, g)))
        for p1 in range(1 << r):
            for p2 in range(1 << r):
                for a2 in a2s:
                    yield g, p1, p2, a2


def candidate_code(n, g, p1, p2, a2=None):
    """<g + u p1 + u^2 p2>, plus u^2 a2 unless a2 is None or 0."""
    gens = [RingWord.from_polys(n, g, p1, p2)]
    if a2:
        gens.append(RingWord.from_polys(n, 0, 0, a2))
    return CyclicCode.from_generators(n, gens)


def verdict(require, n, g, p1, p2, a2=None):
    """The public checker's verdict on the same data, for require "rc"
    or "reversible", looked up on the module when called."""
    if a2:
        check = (constraints.check_rc_double if require == "rc"
                 else constraints.check_reversible_double)
        return check(n, g, p1, p2, a2)
    check = (constraints.check_rc_single if require == "rc"
             else constraints.check_reversible_single)
    return check(n, g, p1, p2)


# The rc checkers' former membership path, kept as the reference they
# are compared against: all four folds on every call, no cached half.
def u2_all_ones_member(n, g, p1, p2, a2):
    """Whether u^2 (1 + ... + x^(n-1)) is in <g + u p1 + u^2 p2, u^2 a2>.

    Requires g | m = x^n+1.  A codeword (k0 + u k1 + u^2 k2)(g + u p1 +
    u^2 p2) lies in u^2 R exactly when k0 g = 0 and k0 p1 + k1 g = 0
    (mod m), so k0 = (m/g) k0' with the syzygy (m/g) k0' p1 = g k1
    (mod m).  With h = (m/g) p1 and a1 = gcd(g, h) it holds exactly when
    k0' = (g/a1) k and k1 = (h/a1) k + (m/g) j, and the u^2 layer
    k0 p2 + k1 p1 + k2 g spans Tor_2 = <a1, (m/a1) p2 + (h/a1) p1>, plus
    a2 for the second generator.

    Tor_2 is <t2> with t2 | m, and 1 + ... + x^(n-1) = m/(x+1), so only
    the power of x+1 in t2 decides: m = (x^o + 1)^e with o odd holds x+1
    exactly e times, and the word is missing exactly when (x+1)^e | t2.
    (x+1)^e | a1 needs it to divide g, so m/g is prime to x+1, and then
    p1; then m/a1 is prime to x+1 and (h/a1) p1 is a multiple, so
    (x+1)^e | t2 holds exactly when it also divides p2 and a2.
    """
    e = n & -n  # (x+1)^e = x^e + 1, e the largest power of two dividing n
    return bool(polyf2.mod_xn1(g, e) or polyf2.mod_xn1(a2, e)
                or polyf2.mod_xn1(p1, e) or polyf2.mod_xn1(p2, e))


def with_membership(verdict, n, g, p1, p2, a2):
    """verdict, turned down with one more note when the hypotheses hold
    and the all-u^2 word is not a codeword."""
    if not verdict.hypothesis_ok or u2_all_ones_member(n, g, p1, p2, a2):
        return verdict
    notes = "; ".join(filter(None, [verdict.notes,
                                    "all-u2 word is not a codeword"]))
    return Verdict(False, verdict.case, True, notes)


def search_family_gap(n, require):
    """(closed codes no candidate certifies, closed codes) on search's family.

    Walks the candidates of `search --n n` in their order (every g | x^n+1
    of degree 1 to n - 1, every p1, p2 of degree below deg g, then one
    generator and each proper divisor a2 of g), builds every candidate's
    code and counts the distinct codes that are reversible (rc-closed
    for require == "rc"), and among them those that no candidate's
    checker verdict certifies.  Off the R-divisor family the criterion
    is sufficient only, so the first count need not be 0.
    """
    certified = {}
    for g, p1, p2, a2 in search_candidates(n):
        c = candidate_code(n, g, p1, p2, a2)
        closed = (c.is_rc_closed(3 * n) if require == "rc"
                  else c.is_reversible(3 * n))
        if closed:
            v = verdict(require, n, g, p1, p2, a2)
            certified[c.rows] = certified.get(c.rows, False) or v.satisfied
    return sum(not v for v in certified.values()), len(certified)


def reference_search(n, require, max_configs, cap, min_distance):
    """(stdout, exit code) of search as a loop of one candidate at a time:
    one public-checker call per candidate up to --max-configs, one build
    per certified candidate, and the first-seen candidate of each code."""
    truncated = False
    configs = 0
    seen = {}
    for g, p1, p2, a2 in search_candidates(n):
        configs += 1
        if configs > max_configs:
            truncated = True
            break
        v = verdict(require, n, g, p1, p2, a2)
        if not v.satisfied:
            continue
        c = candidate_code(n, g, p1, p2, a2)
        if c in seen:
            continue
        if c.dim > (24 if cap is None else cap):
            truncated = True
            continue
        seen[c] = {
            "n": n, "g": polyf2.to_text(g), "p1": polyf2.to_text(p1),
            "p2": polyf2.to_text(p2),
            "a2": None if a2 is None else polyf2.to_text(a2),
            "case": v.case, "dim": c.dim,
            "cardinality": c.cardinality,
            "min_distance": c.min_hamming_distance(cap),
        }
    hits = [h for h in seen.values() if h["min_distance"] >= min_distance]
    hits.sort(key=lambda h: (-h["min_distance"], -h["cardinality"],
                             h["g"], h["p1"], h["p2"], h["a2"] or ""))
    lines = [json.dumps(h, sort_keys=True) for h in hits]
    lines.append(json.dumps({"summary": True, "hits": len(hits),
                             "configs": configs, "truncated": truncated},
                            sort_keys=True))
    return "".join(line + "\n" for line in lines), 3 if truncated else 0


def span(vectors):
    """Every GF(2) combination of the vectors, by a plain walk."""
    words = {0}
    for v in vectors:
        words |= {w ^ v for w in words}
    return words


def reference_rref(vectors):
    """The RREF basis of the span of packed vectors, highest pivot first.

    Each vector is reduced by leading bits only and stored with its own
    top bit as pivot.  The echelon basis is then back-reduced in one pass
    in ascending pivot order: each row already reduced is zero at every
    other pivot, so a row clears its lower pivot bits with one XOR per
    bit set there, in any order.
    """
    vectors = list(vectors)
    pivots = [0] * max((v.bit_length() for v in vectors), default=0)
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if not pivots[p]:
                pivots[p] = v
                break
            v ^= pivots[p]
    rows = []
    below = 0
    for p, v in enumerate(pivots):
        if not v:
            continue
        x = v & below
        while x:
            q = x.bit_length() - 1
            v ^= pivots[q]
            x ^= 1 << q
        pivots[p] = v
        below |= 1 << p
        rows.append(v)
    rows.reverse()
    return tuple(rows)


def x_closure_lows(n, seeds, layers=3):
    """The lowest RREF row of each of the low three n-bit layers of the
    span of x^i * s over every seed s and every i < n, layer 0 first and
    0 for an empty layer, where x rotates each of the given number of
    layers by one place."""
    mask = (1 << n) - 1
    vectors = []
    for v in seeds:
        for _ in range(n):
            vectors.append(v)
            parts = [v >> k * n & mask for k in range(layers)]
            v = sum((p << 1 & mask | p >> n - 1) << k * n
                    for k, p in enumerate(parts))
    lows = [0, 0, 0]
    for r in reference_rref(vectors):  # highest pivot first
        layer = (r.bit_length() - 1) // n
        if layer < 3:
            lows[2 - layer] = r
    return tuple(lows)


def expansion_rref(n, gens):
    """Plain elimination of every u^j x^i w over the generators w."""
    expansions = []
    for w in gens:
        for _ in range(3):
            expansions.extend(pack(w.shift(i)) for i in range(n))
            w = w.times_u()
    return reference_rref(expansions)


def zassenhaus_rows(a, b):
    """The RREF of C1 ∩ C2: the RREF of the double block (c1 | c1),
    (c2 | 0), keeping the rows whose top block is zero."""
    w = 3 * a.n
    both = reference_rref([r << w | r for r in a.rows]
                          + [r << w for r in b.rows])
    return tuple(r for r in both if r >> w == 0)


def per_bit_kernel(rows, width):
    """Reference kernel: each bit of an RREF row besides its pivot is a
    free column whose vector the pivot joins, walked one bit at a time."""
    pivots = 0
    joins = [0] * width
    for r in reference_rref(rows):
        p = 1 << r.bit_length() - 1
        pivots |= p
        x = r ^ p
        while x:
            q = x.bit_length() - 1
            joins[q] |= p
            x ^= 1 << q
    return [joins[col] | 1 << col for col in range(width)
            if not pivots >> col & 1]


def swap_layers(n, v):
    """The packed 3n-bit word v with its unit and u^2 layers exchanged."""
    mask = (1 << n) - 1
    return (v & mask) << 2 * n | v & mask << n | v >> 2 * n


def three_equation_dual(c, flavor):
    """RREF rows of the dual, solved with all three layer equations per
    basis row and a column-scan kernel."""
    n = c.n
    mask = (1 << n) - 1
    masks = []
    for b in c.rows:
        g1, g2, g3 = b >> 2 * n, (b >> n) & mask, b & mask
        if flavor == "hermitian":
            g3 ^= mask
        masks.append(g1 << 2 * n)
        masks.append(g2 << 2 * n | g1 << n)
        masks.append(g3 << 2 * n | g2 << n | g1)
    if flavor == "hermitian":
        masks.append(mask << 2 * n)
    pivots = {r.bit_length() - 1: r for r in reference_rref(masks)}
    kernel = []
    for col in range(3 * n):
        if col in pivots:
            continue
        v = 1 << col
        for p, r in pivots.items():
            if (r >> col) & 1:
                v |= 1 << p
        kernel.append(v)
    return reference_rref(kernel)


def socle_distance(rows):
    """Minimum weight over the nonzero span of u^2-only rows, by a plain walk."""
    return min((w.bit_count() for w in span(rows) if w), default=math.inf)


def walked_distance(n, t2):
    """The socle <t2>'s distance by walking every word of it."""
    return socle_distance([t2 << i for i in range(n + 1 - t2.bit_length())])


def exhaustive_report(c):
    """Closure and distance of a code by walking all of its words."""
    n = c.n
    mask = (1 << n) - 1
    rev = [int(format(v, f"0{n}b")[::-1], 2) for v in range(1 << n)]

    def reverse(v):
        return rev[v & mask] | rev[v >> n & mask] << n | rev[v >> 2 * n] << 2 * n

    members = set(c.packed_words())
    weights = [w.weight() for w in c.words() if not w.is_zero()]
    return {
        "reversible": all(reverse(v) in members for v in members),
        "complement": all(v ^ mask in members for v in members),
        "rc": all(reverse(v) ^ mask in members for v in members),
        "distance": min(weights, default=math.inf),
    }
