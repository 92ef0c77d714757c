"""Symbolic checkers for the reverse and reverse-complement constraints.

Each checker transcribes an exact polynomial criterion for closure of a
one- or two-generator cyclic code of even length under coordinate
reversal (and, for the rc variants, additionally requires the all-u^2
word to be a codeword).  The verdict names which case of the criterion
certified the property; the cases exclude each other, so at most one
applies.

The two presentations obey one criterion.  u^2 (g + u p1 + u^2 p2) =
u^2 g, so <g + u p1 + u^2 p2> = <g + u p1 + u^2 p2, u^2 g>: one
generator is two generators at a2 = g.  With r = deg g, s1 =
x^(r - deg p1) reciprocal(p1) and s2 likewise, case A (s1 = p1) asks
that a2 divide s2 + p2 and case B (s1 = g + p1) that a2 divide
s2 + p1 + p2.  Both residues have degree at most r, so at a2 = g they
must be 0 or g: the one-generator cases A and C are case A with
residue 0 and g.

One generator never certifies through case B, so the checker returns
no case at once there.  The s1 test is reached only when g | x^n+1,
so g(0) = 1, and deg p1, deg p2 < r; at r = 0 both are 0 and s1 = p1.
At x^r, s1 = g + p1 reads p1(0) = 1, so p1 is 1 at x^0 and 0 at x^r.
s2 + p2 has equal coefficients at x^0 and x^r, so s2 + p2 + p1 has
unequal ones there, while 0 and g have equal ones: the residue is
neither, and g does not divide it.

Degree conventions: deg 0 = NEG_INF, so a zero p1/p2 never violates the
degree hypothesis and its shifted reciprocal is simply 0.  With deg p <=
r = deg g, x^(r - deg p) * reciprocal(p) is bit_reverse(p, r + 1).

Hypothesis failures (generator degree ordering, divisor condition) yield
a verdict with hypothesis_ok = False and never claim satisfaction;
structurally invalid inputs (odd length, zero g, broken divisor chain)
raise ValueError instead.

The all-u^2 word u^2 (1 + x + ... + x^(n-1)) is a codeword exactly when
the all-ones polynomial lies in the torsion code Tor_2 = {a : u^2 a in C},
which the generator polynomials give without building the ideal.  With
m = x^n+1, h = (m/g) p1 and a1 = gcd(g, h):

    Tor_1 = <a1>,   Tor_2 = <a1, (m/a1) p2 + (h/a1) p1, a2>

(a2 = 0 for one generator), so the word is a codeword exactly when
t2 = gcd(a1, (m/a1) p2 + (h/a1) p1, a2) divides 1 + x + ... + x^(n-1).
That reduces to one divisibility test: with e the largest power of two
dividing n, the word is a codeword unless x^e + 1 = (x+1)^e divides
each of g, p1, p2 and a2 (see _rc).

A search checks every p2 and a2 of each (g, p1) in a row, so all that
does not depend on p2 sits in one bounded cache keyed by (n, g, p1,
a2), _p1_facts, which reads the (n, g, a2) facts of _generator_facts
on its misses.  An entry holds the verdict when p1 alone settles it,
else what case A or B leaves to p2: the divisor and the mask of the
residue.  It also holds whether (x+1)^e fails to divide g, a2 or p1
(an absent a2 counts as divisible); then the all-u^2 word is a
codeword whatever p2 is, and the rc verdict is the reversible one.  A
reversible check then pays one cache hit, one shift for the degree of
p2, and in case A or B one cached reversal of p2 and at most one
division.  An rc check reads the entry once more for the membership
fact, and folds p2 modulo x^e + 1 only when (x+1)^e divides g, a2 and
p1.  Inputs are validated on the misses, so a hit pays for no check; a
negative p2 fails the degree shift and raises on that slow path.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import polyf2
from .polyf2 import bit_reverse


class Verdict(namedtuple("Verdict", "satisfied case hypothesis_ok notes",
                         defaults=("",))):
    """A checker's answer: satisfied and hypothesis_ok (bool), case (str:
    "A" or "C" for one generator, "A" or "B" for two, else "NONE") and
    notes (str, "" when there is nothing to report)."""

    __slots__ = ()

    def to_json(self):
        return self._asdict()


def _degree_hypothesis(g, p1, p2):
    """Notes for a violated r > max(deg p1, deg p2) hypothesis, else "".

    g is nonzero, so comparing bit lengths compares degrees, with the
    zero polynomial below every other.
    """
    w = g.bit_length()
    if w > (p1 | p2).bit_length():
        return ""
    if w > p1.bit_length():
        # The borderline the criterion statement leaves open: only the
        # p1 bound holds.  Flagged distinctly instead of guessed.
        return ("deg g exceeds deg p1 but not deg p2; "
                "the checker requires deg g > max(deg p1, deg p2)")
    return "deg g must exceed both deg p1 and deg p2"


@functools.lru_cache(maxsize=1024)
def _generator_facts(n, g, a2):
    """(chain, recip, divisor, member) for nonzero g; a2 = None: one generator.

    All four depend on (n, g, a2) alone: chain is whether a2 | g | x^n+1
    (a2 = 0 breaks it), recip the verdict naming the self-reciprocity
    failures of g then a2 (None if there are none), divisor is a2 or g,
    and member is whether (x+1)^e fails to divide g or a2 (an absent a2
    counts as divisible), which makes the all-u^2 word a codeword
    whatever p1 and p2 are (module docstring).  Structurally invalid
    inputs raise, and a raise is not cached.
    """
    if n < 1 or n % 2:
        raise ValueError(f"checker requires an even length, got n = {n}")
    if g == 0:
        raise ValueError("generator polynomial g must be nonzero")
    if g < 0 or (a2 or 0) < 0:
        raise ValueError(f"polynomial {'g' if g < 0 else 'a2'} is negative")
    chain = (polyf2.divides(g, polyf2.xn1(n))
             and (a2 is None or (a2 != 0 and polyf2.divides(a2, g))))
    if not chain and a2 is not None:
        raise ValueError("divisibility chain a2 | g | x^n+1 violated")
    notes = "; ".join(
        f"{name} is not self-reciprocal"
        for name, f in (("g", g), ("a2", a2 or 0))
        if not polyf2.is_self_reciprocal(f))
    e = n & -n
    member = bool(polyf2.mod_xn1(g, e) or polyf2.mod_xn1(a2 or 0, e))
    recip = Verdict(False, "NONE", True, notes) if notes else None
    return chain, recip, a2 or g, member


_CERTIFIED = {tag: Verdict(True, tag, True) for tag in "ABC"}
_NO_CASE = Verdict(False, "NONE", True, "no shifted-reciprocal case matches")


def _hypothesis_failure(chain, g, p1, p2):
    """The verdict for a broken chain or a violated degree hypothesis."""
    hyp = _degree_hypothesis(g, p1, p2)
    if not chain:
        hyp = "; ".join(filter(None, ("g does not divide x^n+1", hyp)))
    return Verdict(False, "NONE", False, hyp)


@functools.lru_cache(maxsize=4096)
def _p1_facts(n, g, p1, a2):
    """What (n, g, p1, a2) settles for every p2 of degree below deg g:
    (w, settled, mask, divisor, certified, member); a2 = None: one
    generator.

    w is g.bit_length().  settled is the verdict when p1 decides it
    alone (a broken chain, deg p1 >= deg g, a g or a2 that is not
    self-reciprocal, or an s1 in neither case), else None.  Then the
    code is reversible exactly when divisor (a2 or g) divides the residue
    bit_reverse(p2, w) ^ p2 ^ mask, with mask 0 in case A and p1 in
    case B, and certified holds the verdicts for a zero and a nonzero
    residue.  member is whether (x+1)^e fails to divide g, a2 or p1,
    which makes the all-u^2 word a codeword whatever p2 is.  Invalid
    inputs raise here, on a miss, and a raise is not cached.
    """
    chain, recip, divisor, member = _generator_facts(n, g, a2)
    if p1 < 0:
        raise ValueError("polynomial p1 is negative")
    w = g.bit_length()
    member = member or bool(polyf2.mod_xn1(p1, n & -n))
    settled, mask, certified = _NO_CASE, 0, None
    if not chain or p1 >> (w - 1):
        settled = _hypothesis_failure(chain, g, p1, 0)
    elif recip:
        settled = recip
    else:
        s1 = bit_reverse(p1, w)
        if s1 == p1:
            # deg residue <= deg g, so for one generator it is 0 or g.
            settled, certified = None, (
                _CERTIFIED["A"], _CERTIFIED["A" if a2 is not None else "C"])
        elif s1 == g ^ p1 and a2 is not None:
            # One generator never certifies here (module docstring).
            settled, mask, certified = None, p1, (_CERTIFIED["B"],) * 2
    return w, settled, mask, divisor, certified, member


def check_reversible_double(n, g, p1, p2, a2):
    """Reversibility criterion for C = <g + u p1 + u^2 p2, u^2 a2>."""
    w, settled, mask, divisor, certified, _ = _p1_facts(n, g, p1, a2)
    # Every search candidate passes this one shift: p2 >> (w - 1) is
    # nonzero when deg p2 >= deg g and when p2 is negative.
    if p2 >> (w - 1):
        if p2 < 0:
            raise ValueError("polynomial p2 is negative")
        return _hypothesis_failure(_generator_facts(n, g, a2)[0], g, p1, p2)
    if settled:
        return settled
    residue = bit_reverse(p2, w) ^ p2 ^ mask
    if residue and not polyf2.divides(divisor, residue):
        return _NO_CASE
    return certified[residue != 0]


# The body of every checker, a2 = None standing for one generator: a
# broken chain is then a hypothesis failure, where for two it raises.
# Bound here, so that a wrapper put on the public name later sees only
# the calls made through it.
_reversible = check_reversible_double


def check_reversible_single(n, g, p1, p2):
    """Reversibility criterion for C = <g + u p1 + u^2 p2>, cases A and C."""
    return _reversible(n, g, p1, p2, None)


def _rc(n, g, p1, p2, a2):
    """Reverse-complement verdict of <g + u p1 + u^2 p2, u^2 a2>; a2 None:
    one generator.  It is the reversible verdict, turned down with one
    more note when the hypotheses hold but u^2 (1 + ... + x^(n-1)) is
    not a codeword.

    With g | m = x^n+1, a codeword (k0 + u k1 + u^2 k2)(g + u p1 +
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
    (x+1)^e | t2 holds exactly when it also divides p2 and a2.  The
    cached member fact settles the (g, a2, p1) part; p2 is folded only
    when it leaves the question open.
    """
    verdict = _reversible(n, g, p1, p2, a2)
    if not verdict.hypothesis_ok or _p1_facts(n, g, p1, a2)[5]:
        return verdict
    # (x+1)^e = x^e + 1, e the largest power of two dividing n
    if polyf2.mod_xn1(p2, n & -n):
        return verdict
    notes = "; ".join(filter(None, [verdict.notes, "all-u2 word is not a codeword"]))
    return Verdict(False, verdict.case, True, notes)


def check_rc_single(n, g, p1, p2):
    """Reverse-complement criterion: reversibility plus the all-u^2 word."""
    return _rc(n, g, p1, p2, None)


def check_rc_double(n, g, p1, p2, a2):
    """Two-generator reverse-complement criterion."""
    return _rc(n, g, p1, p2, a2)
