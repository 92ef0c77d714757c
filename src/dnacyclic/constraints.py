"""Symbolic checkers for the reverse and reverse-complement constraints.

Each checker transcribes an exact polynomial criterion for closure of a
one- or two-generator cyclic code of even length under coordinate
reversal (and, for the rc variants, additionally requires the all-u^2
word to be a codeword).  The verdict names which case of the criterion
certified the property; when several cases hold simultaneously the first
in the fixed order A, B, C, D is reported, and that ordering is part of
the contract.

Degree conventions: deg 0 = NEG_INF, so a zero p1/p2 never violates the
degree hypothesis and its shifted reciprocal is simply 0.  With deg p <=
r = deg g, x^(r - deg p) * reciprocal(p) is bit_reverse(p, r + 1).

Hypothesis failures (generator degree ordering, divisor condition) yield
a verdict with hypothesis_ok = False and never claim satisfaction;
structurally invalid inputs (odd length, zero g, broken divisor chain)
raise ValueError instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polyf2
from .code import CyclicCode
from .polyf2 import bit_reverse
from .polyr import RingWord, u2_all_ones


@dataclass(frozen=True)
class Verdict:
    satisfied: bool
    case: str  # "A", "B", "C", "D" or "NONE"
    hypothesis_ok: bool
    notes: str = ""

    def to_json(self):
        return {
            "satisfied": self.satisfied,
            "case": self.case,
            "hypothesis_ok": self.hypothesis_ok,
            "notes": self.notes,
        }


def _validate_even(n):
    if n < 1 or n % 2:
        raise ValueError(f"checker requires an even length, got n = {n}")


def _degree_hypothesis(g, p1, p2):
    """Notes for a violated r > max(deg p1, deg p2) hypothesis, else ""."""
    r = polyf2.degree(g)
    s = polyf2.degree(p1)
    t = polyf2.degree(p2)
    if r > s and r > t:
        return ""
    if r > s:
        # The borderline the criterion statement leaves open: only the
        # p1 bound holds.  Flagged distinctly instead of guessed.
        return ("deg g exceeds deg p1 but not deg p2; "
                "the checker requires deg g > max(deg p1, deg p2)")
    return "deg g must exceed both deg p1 and deg p2"


def check_reversible_single(n, g, p1, p2):
    """Reversibility criterion for C = <g + u p1 + u^2 p2>, cases A-D."""
    _validate_even(n)
    if g == 0:
        raise ValueError("generator polynomial g must be nonzero")
    notes = []
    if not polyf2.divides(g, polyf2.xn1(n)):
        notes.append("g does not divide x^n+1")
    hyp = _degree_hypothesis(g, p1, p2)
    if hyp:
        notes.append(hyp)
    if notes:
        return Verdict(False, "NONE", False, "; ".join(notes))
    if not polyf2.is_self_reciprocal(g):
        return Verdict(False, "NONE", True, "g is not self-reciprocal")
    w = g.bit_length()
    a1 = bit_reverse(p1, w)
    a2 = bit_reverse(p2, w)
    cases = (
        ("A", a1 == p1 and a2 == p2),
        ("B", a1 == g ^ p1 and a2 == p1 ^ p2),
        ("C", a1 == p1 and a2 == g ^ p2),
        ("D", a1 == g ^ p1 and a2 == g ^ p1 ^ p2),
    )
    for tag, ok in cases:
        if ok:
            return Verdict(True, tag, True)
    return Verdict(False, "NONE", True, "no shifted-reciprocal case matches")


def check_reversible_double(n, g, p1, p2, a2):
    """Reversibility criterion for C = <g + u p1 + u^2 p2, u^2 a2>."""
    _validate_even(n)
    if g == 0:
        raise ValueError("generator polynomial g must be nonzero")
    if a2 == 0 or not polyf2.divides(a2, g) or not polyf2.divides(g, polyf2.xn1(n)):
        raise ValueError("divisibility chain a2 | g | x^n+1 violated")
    hyp = _degree_hypothesis(g, p1, p2)
    if hyp:
        return Verdict(False, "NONE", False, hyp)
    notes = []
    if not polyf2.is_self_reciprocal(g):
        notes.append("g is not self-reciprocal")
    if not polyf2.is_self_reciprocal(a2):
        notes.append("a2 is not self-reciprocal")
    if notes:
        return Verdict(False, "NONE", True, "; ".join(notes))
    w = g.bit_length()
    s1 = bit_reverse(p1, w)
    s2 = bit_reverse(p2, w)
    cases = (
        ("A", s1 == p1 and polyf2.divides(a2, s2 ^ p2)),
        ("B", s1 == g ^ p1 and polyf2.divides(a2, s2 ^ p1 ^ p2)),
    )
    for tag, ok in cases:
        if ok:
            return Verdict(True, tag, True)
    return Verdict(False, "NONE", True, "no shifted-reciprocal case matches")


def _with_membership(n, verdict, generators):
    if not verdict.hypothesis_ok:
        return verdict
    c = CyclicCode.from_generators(n, generators)
    member = c.contains(u2_all_ones(n))
    notes = verdict.notes
    if not member:
        notes = "; ".join(filter(None, [notes, "all-u2 word is not a codeword"]))
    return Verdict(verdict.satisfied and member, verdict.case,
                   verdict.hypothesis_ok, notes)


def check_rc_single(n, g, p1, p2):
    """Reverse-complement criterion: reversibility plus the all-u^2 word."""
    verdict = check_reversible_single(n, g, p1, p2)
    return _with_membership(n, verdict, [RingWord.from_polys(n, g, p1, p2)])


def check_rc_double(n, g, p1, p2, a2):
    """Two-generator reverse-complement criterion."""
    verdict = check_reversible_double(n, g, p1, p2, a2)
    return _with_membership(
        n, verdict,
        [RingWord.from_polys(n, g, p1, p2), RingWord.from_polys(n, 0, 0, a2)])
