import random

import pytest

from dnacyclic import cli, constraints, polyf2
from dnacyclic.code import CyclicCode
from dnacyclic.constraints import (Verdict, check_rc_double,
                                   check_rc_single, check_reversible_double,
                                   check_reversible_single)
from dnacyclic.polyr import RingWord, u2_all_ones
from oracles import (G, P1, P2, candidate_code, proper_divisors,
                     search_family_gap, structural_pairs, u2_all_ones_member,
                     verdict, with_membership)


def test_example_single():
    v = check_reversible_single(8, G, P1, P2)
    assert v.satisfied and v.case == "A" and v.hypothesis_ok


def test_example_rc():
    v = check_rc_single(8, G, P1, P2)
    assert v.satisfied and v.case == "A"


def test_perturbed_p2_fails():
    v = check_reversible_single(8, G, P1, P2 ^ 1)
    assert not v.satisfied
    assert v.case == "NONE"
    assert v.hypothesis_ok


def test_non_self_reciprocal_g():
    # x^14+1 has non-palindromic divisors, e.g. (x^3+x+1)(x+1).
    g = polyf2.mul(polyf2.from_text("x^3+x+1"), polyf2.from_text("x+1"))
    assert polyf2.divides(g, polyf2.xn1(14))
    assert not polyf2.is_self_reciprocal(g)
    v = check_reversible_single(14, g, 0, 0)
    assert not v.satisfied
    assert v.hypothesis_ok
    assert "self-reciprocal" in v.notes


def test_errors():
    with pytest.raises(ValueError):
        check_reversible_single(7, G, P1, P2)  # odd length
    with pytest.raises(ValueError):
        check_reversible_single(8, 0, P1, P2)  # zero g
    with pytest.raises(ValueError):
        check_reversible_double(7, G, P1, P2, 1)
    with pytest.raises(ValueError):
        # a2 does not divide g
        check_reversible_double(8, G, P1, P2, polyf2.from_text("x^3+x+1"))
    with pytest.raises(ValueError):
        check_reversible_double(8, G, P1, P2, 0)


def test_hypothesis_failures_are_verdicts():
    # g not dividing x^n+1 (single checker treats it as hypothesis failure)
    v = check_reversible_single(8, polyf2.from_text("x^2+x+1"), 0, 0)
    assert not v.satisfied and not v.hypothesis_ok
    # degree hypothesis violated: deg p1 >= deg g
    v = check_reversible_single(8, polyf2.from_text("x^2+1"),
                                polyf2.from_text("x^3"), 0)
    assert not v.hypothesis_ok
    # only the p1 bound holds: distinct diagnostic
    v = check_reversible_single(8, polyf2.from_text("x^2+1"), 1,
                                polyf2.from_text("x^3"))
    assert not v.hypothesis_ok
    assert "deg p2" in v.notes


def test_example_double_case_a():
    a2 = polyf2.from_text("x^2+1")
    v = check_reversible_double(8, G, P1, P2, a2)
    assert v.satisfied and v.case == "A"
    a2 = polyf2.from_text("x^3+x^2+x+1")
    v = check_reversible_double(8, G, P1, P2, a2)
    assert polyf2.is_self_reciprocal(a2)
    assert v.satisfied and v.case == "A"


def test_double_divisibility_decides():
    # p2 perturbed so the case-A difference is x^6+1 = (x+1)^2 (x^2+x+1)^2:
    # a2 = (x+1)^2 divides it, a2 = (x+1)^3 does not.
    n, g = 8, G
    p2 = P2 ^ 1
    diff = (polyf2.reciprocal(p2) << (6 - polyf2.degree(p2))) ^ p2
    assert diff == polyf2.from_text("x^6+1")
    assert polyf2.divides(polyf2.from_text("x^2+1"), diff)
    assert not polyf2.divides(polyf2.from_text("x^3+x^2+x+1"), diff)
    va = check_reversible_double(n, g, P1, p2, polyf2.from_text("x^2+1"))
    vb = check_reversible_double(n, g, P1, p2, polyf2.from_text("x^3+x^2+x+1"))
    assert va.satisfied and va.case == "A"
    assert not vb.satisfied


def test_rc_degenerate_zero_code():
    # g = x^n+1 embeds as the zero word; the code is {0}: reversible by
    # the checker, but the all-u2 word is missing so rc fails.
    n = 4
    g = polyf2.xn1(n)
    v = check_reversible_single(n, g, 0, 0)
    assert v.satisfied
    rc = check_rc_single(n, g, 0, 0)
    assert not rc.satisfied
    assert "all-u2" in rc.notes


def test_rc_reversible_but_not_rc_at_n6():
    # At n = 6, g = (x+1)^2 is self-reciprocal and reversible, but the
    # all-u2 word is not a codeword, so rc fails.
    g = polyf2.from_text("x^2+1")
    assert check_reversible_single(6, g, 0, 0).satisfied
    v = check_rc_single(6, g, 0, 0)
    assert not v.satisfied
    c = CyclicCode.from_generators(6, [RingWord.from_polys(6, g)])
    assert c.is_reversible() and not c.is_rc_closed()


def test_checker_satisfaction_is_sufficient_unconditionally():
    # Even outside the structural family, a satisfied verdict implies the
    # brute-force property (the sufficiency direction has no side
    # conditions).
    rng = random.Random(40)
    for _ in range(400):
        n = rng.choice((2, 4, 6))
        g = rng.choice(proper_divisors(n))
        r = polyf2.degree(g)
        p1 = rng.randrange(1 << r)
        p2 = rng.randrange(1 << r)
        v = check_reversible_single(n, g, p1, p2)
        if v.satisfied:
            c = candidate_code(n, g, p1, p2)
            assert c.is_reversible()


def test_biconditional_on_structural_family_small():
    # Exhaustive at even n <= 10: on generators dividing x^n - 1 in R the
    # verdict equals the exact decision on the basis, for both properties.
    # Codes at n = 10 reach dimension 27, above the default cap.
    for n in (2, 4, 6, 8, 10):
        for g in proper_divisors(n):
            for p1, p2 in structural_pairs(n, g):
                c = candidate_code(n, g, p1, p2)
                assert check_reversible_single(n, g, p1, p2).satisfied \
                    == c.is_reversible(cap=3 * n)
                assert check_rc_single(n, g, p1, p2).satisfied \
                    == c.is_rc_closed(cap=3 * n)


def test_double_biconditional_on_structural_family_small():
    for n in (2, 4, 6, 8, 10):
        divisors = polyf2.divisors_of_xn1(n)
        for g in proper_divisors(n):
            subs = [d for d in divisors if polyf2.divides(d, g)]
            for p1, p2 in structural_pairs(n, g):
                for a2 in subs:
                    c = candidate_code(n, g, p1, p2, a2)
                    assert check_reversible_double(n, g, p1, p2, a2).satisfied \
                        == c.is_reversible(cap=3 * n)
                    assert check_rc_double(n, g, p1, p2, a2).satisfied \
                        == c.is_rc_closed(cap=3 * n)


@pytest.mark.parametrize("n, require, expected", [
    (4, "reversible", (1, 32)), (4, "rc", (1, 32)),
    (6, "reversible", (0, 94)), (6, "rc", (0, 89))])
def test_search_family_gap(n, require, expected):
    # On search's family (g | x^n+1 only) a closed code can have no
    # certified candidate: at n = 4 one code is missed in both modes.
    assert search_family_gap(n, require) == expected


def test_case_order_is_first_match():
    # With p1 = p2 = 0 case A matches immediately and is reported even
    # though the B/D identities could only coincide degenerately.
    v = check_reversible_single(8, G, 0, 0)
    assert v.case == "A"
    v = check_reversible_double(8, G, 0, 0, polyf2.from_text("x+1"))
    assert v.case == "A"


def test_verdict_json():
    j = check_rc_single(8, G, P1, P2).to_json()
    assert j == {"satisfied": True, "case": "A", "hypothesis_ok": True,
                 "notes": ""}


def test_rc_membership_matches_built_ideal():
    # The rc checkers decide the all-u2 word from the generator
    # polynomials; compare with membership in the ideal they generate.
    rng = random.Random(52)
    divisors = {n: polyf2.divisors_of_xn1(n) for n in range(2, 17, 2)}
    outcomes = set()
    for _ in range(1500):
        n = rng.choice(sorted(divisors))
        g = rng.choice(divisors[n])
        r = polyf2.degree(g)
        p1, p2 = (rng.choice((0, rng.randrange(1 << r))) for _ in range(2))
        a2 = rng.choice([0] + [d for d in divisors[n] if polyf2.divides(d, g)])
        rev = verdict("reversible", n, g, p1, p2, a2)
        rc = verdict("rc", n, g, p1, p2, a2)
        member = candidate_code(n, g, p1, p2, a2).contains(u2_all_ones(n))
        assert rc.satisfied == (rev.satisfied and member)
        assert ("all-u2 word is not a codeword" in rc.notes) == (not member)
        outcomes.add((member, rev.satisfied))
    assert outcomes == {(m, s) for m in (True, False) for s in (True, False)}


def test_hypothesis_notes_are_exact():
    # The (n, g, a2) hypotheses are computed once per generator; repeated
    # calls with other (p1, p2) must give the same notes and raises.
    g = polyf2.mul(polyf2.from_text("x^3+x+1"), polyf2.from_text("x+1"))
    a2 = polyf2.from_text("x^3+x+1")
    for p1, p2 in ((0, 0), (0b101, 0b1110)):
        v = check_reversible_double(14, g, p1, p2, a2)
        assert v == Verdict(False, "NONE", True,
                            "g is not self-reciprocal; a2 is not self-reciprocal")
    g = polyf2.from_text("x^2+x+1")
    v = check_reversible_single(8, g, polyf2.from_text("x^3"), 0)
    assert v == Verdict(False, "NONE", False,
                        "g does not divide x^n+1; "
                        "deg g must exceed both deg p1 and deg p2")
    v = check_reversible_single(8, g, 1, polyf2.from_text("x^3"))
    assert v.notes == ("g does not divide x^n+1; "
                       "deg g exceeds deg p1 but not deg p2; "
                       "the checker requires deg g > max(deg p1, deg p2)")
    for _ in range(2):
        with pytest.raises(ValueError, match="divisibility chain"):
            check_reversible_double(8, g, 0, 0, 1)
        with pytest.raises(ValueError, match="divisibility chain"):
            check_reversible_double(8, G, 0, 0, 0)


def test_one_generator_is_two_at_a2_equal_g():
    # <g + u p1 + u^2 p2> = <g + u p1 + u^2 p2, u^2 g>, so on every search
    # candidate the one-generator cases A and C are the two-generator case
    # A at a2 = g, and one generator never certifies through case B.
    merged = {"A": "A", "C": "A"}
    candidates = 0
    for n in (2, 4, 6, 8):
        for g in proper_divisors(n):
            r = polyf2.degree(g)
            for p1 in range(1 << r):
                for p2 in range(1 << r):
                    candidates += 1
                    for single, double in (
                            (check_reversible_single, check_reversible_double),
                            (check_rc_single, check_rc_double)):
                        one = single(n, g, p1, p2)
                        two = double(n, g, p1, p2, g)
                        assert one.case in {"A", "C", "NONE"}
                        assert one.satisfied == two.satisfied
                        if one.satisfied:
                            assert merged[one.case] == two.case
    assert candidates == 23568


# The two reversibility bodies as they stood before they were merged,
# kept verbatim apart from the inlined (n, g, a2) facts: the reference
# for the merged body's verdicts, notes, messages and raise order.

def _reference_facts(n, g, a2):
    chain = (polyf2.divides(g, polyf2.xn1(n))
             and (a2 == 0 or polyf2.divides(a2, g)))
    notes = "; ".join(
        f"{name} is not self-reciprocal"
        for name, f in (("g", g), ("a2", a2))
        if not polyf2.is_self_reciprocal(f))
    return chain, notes


def _reference_degree(g, p1, p2):
    w = g.bit_length()
    if w > (p1 | p2).bit_length():
        return ""
    if w > p1.bit_length():
        return ("deg g exceeds deg p1 but not deg p2; "
                "the checker requires deg g > max(deg p1, deg p2)")
    return "deg g must exceed both deg p1 and deg p2"


_REF_NO_CASE = Verdict(False, "NONE", True, "no shifted-reciprocal case matches")


def _reference_single(n, g, p1, p2):
    if n < 1 or n % 2:
        raise ValueError(f"checker requires an even length, got n = {n}")
    if g == 0:
        raise ValueError("generator polynomial g must be nonzero")
    chain, recip_notes = _reference_facts(n, g, 0)
    notes = []
    if not chain:
        notes.append("g does not divide x^n+1")
    hyp = _reference_degree(g, p1, p2)
    if hyp:
        notes.append(hyp)
    if notes:
        return Verdict(False, "NONE", False, "; ".join(notes))
    if recip_notes:
        return Verdict(False, "NONE", True, recip_notes)
    w = g.bit_length()
    s1 = polyf2.bit_reverse(p1, w)
    if s1 != p1 and s1 != g ^ p1:
        return _REF_NO_CASE
    s2 = polyf2.bit_reverse(p2, w)
    if s1 == p1 and s2 == p2:
        return Verdict(True, "A", True)
    if s1 == g ^ p1 and s2 == p1 ^ p2:
        return Verdict(True, "B", True)
    if s1 == p1 and s2 == g ^ p2:
        return Verdict(True, "C", True)
    if s1 == g ^ p1 and s2 == g ^ p1 ^ p2:
        return Verdict(True, "D", True)
    return _REF_NO_CASE


def _reference_double(n, g, p1, p2, a2):
    if n < 1 or n % 2:
        raise ValueError(f"checker requires an even length, got n = {n}")
    if g == 0:
        raise ValueError("generator polynomial g must be nonzero")
    chain, recip_notes = _reference_facts(n, g, a2)
    if a2 == 0 or not chain:
        raise ValueError("divisibility chain a2 | g | x^n+1 violated")
    hyp = _reference_degree(g, p1, p2)
    if hyp:
        return Verdict(False, "NONE", False, hyp)
    if recip_notes:
        return Verdict(False, "NONE", True, recip_notes)
    w = g.bit_length()
    s1 = polyf2.bit_reverse(p1, w)
    if s1 != p1 and s1 != g ^ p1:
        return _REF_NO_CASE
    s2 = polyf2.bit_reverse(p2, w)
    if s1 == p1 and polyf2.divides(a2, s2 ^ p2):
        return Verdict(True, "A", True)
    if s1 == g ^ p1 and polyf2.divides(a2, s2 ^ p1 ^ p2):
        return Verdict(True, "B", True)
    return _REF_NO_CASE


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def test_merged_body_matches_reference():
    # n = 0 and odd n raise; g = 0 raises; a2 = 0 and a2 = x^3+x+1 (not
    # dividing most g) break the chain; g < 32 includes g not dividing
    # x^n+1 and, at n = 14, non-self-reciprocal divisors such as x^3+x+1
    # and (x^3+x+1)(x+1), whose a2 = x^3+x+1 is not self-reciprocal
    # either; p1, p2 < 8 exceed deg g for the small g.
    seen = set()

    def same(check, reference, *args):
        v = _outcome(check, *args)
        assert v == _outcome(reference, *args)
        seen.add(v if isinstance(v, str) else (v.case, v.notes))
        if not isinstance(v, str):
            a2 = args[4] if len(args) == 5 else 0
            rc = check_rc_double if len(args) == 5 else check_rc_single
            assert rc(*args) == with_membership(v, *args[:4], a2)

    for n in (0, 1, 2, 4, 6, 7, 8, 14):
        for g in range(32):
            for p1 in range(8):
                for p2 in range(8):
                    same(check_reversible_single, _reference_single,
                         n, g, p1, p2)
                    for a2 in sorted({0, 1, 3, 7, 11, g}):
                        same(check_reversible_double, _reference_double,
                             n, g, p1, p2, a2)
    assert {"checker requires an even length, got n = 0",
            "checker requires an even length, got n = 7",
            "generator polynomial g must be nonzero",
            "divisibility chain a2 | g | x^n+1 violated",
            ("NONE", "g does not divide x^n+1"),
            ("NONE", "g does not divide x^n+1; "
                     "deg g must exceed both deg p1 and deg p2"),
            ("NONE", "deg g exceeds deg p1 but not deg p2; "
                     "the checker requires deg g > max(deg p1, deg p2)"),
            ("NONE", "g is not self-reciprocal"),
            ("NONE", "g is not self-reciprocal; a2 is not self-reciprocal"),
            ("NONE", "no shifted-reciprocal case matches"),
            ("A", ""), ("B", ""), ("C", "")} <= seen
    # No "D", nor a one-generator "B": s1 = g + p1 forces p1(0) = 1, and
    # s2 + p2 has equal coefficients at x^0 and x^r, so with g(0) = 1 it
    # is neither p1 nor g + p1.


@pytest.mark.parametrize("n", [10, 12])
def test_search_inputs_match_reference(n):
    # The search's inputs at lengths past the exhaustive tests: every
    # divisor g of x^n+1 with deg g <= 6, all p1, p2 below deg g, and
    # every a2 dividing g.  One generator's case B branch stops at once
    # here, so these are the inputs where that shortcut could differ.
    divisors = polyf2.divisors_of_xn1(n)
    cases = set()
    for g in divisors:
        r = polyf2.degree(g)
        if r > 6:
            continue
        subs = [d for d in divisors if polyf2.divides(d, g)]
        for p1 in range(1 << r):
            for p2 in range(1 << r):
                v = check_reversible_single(n, g, p1, p2)
                assert v == _reference_single(n, g, p1, p2)
                assert check_rc_single(n, g, p1, p2) == with_membership(
                    v, n, g, p1, p2, 0)
                cases.add(v.case)
                for a2 in subs:
                    v = check_reversible_double(n, g, p1, p2, a2)
                    assert v == _reference_double(n, g, p1, p2, a2)
                    assert check_rc_double(n, g, p1, p2, a2) == (
                        with_membership(v, n, g, p1, p2, a2))
    assert cases == {"A", "C", "NONE"}


@pytest.mark.parametrize("n", [6, 8, 10])
def test_verdicts_do_not_depend_on_the_cache(n):
    # The search's inputs in a seeded shuffled order from empty caches;
    # at n = 10 the 1,572,864 of the one g of degree 9 are sampled, one
    # in 16, as all of them would add about ten seconds.  Calls for one
    # (g, p1, a2) are then spread over the run, and divisors g of equal
    # degree alternate (at n = 6, x^2+1 and x^2+x+1 and two of degree 4),
    # so an entry keyed without g or a2 answers for the wrong candidate.
    rng = random.Random(n)
    inputs = [(g, p1, p2, a2)
              for g, p1, p2, a2s in cli._search_candidates(n)
              for a2 in a2s
              if n < 10 or polyf2.degree(g) < 9 or rng.random() < 1 / 16]
    rng.shuffle(inputs)
    for cached in (constraints._p1_facts, constraints._generator_facts,
                   polyf2.bit_reverse):
        cached.cache_clear()
    cases = set()
    for g, p1, p2, a2 in inputs:
        if a2 is None:
            v = check_reversible_single(n, g, p1, p2)
            assert v == _reference_single(n, g, p1, p2), (g, p1, p2)
            rc = check_rc_single(n, g, p1, p2)
        else:
            v = check_reversible_double(n, g, p1, p2, a2)
            assert v == _reference_double(n, g, p1, p2, a2), (g, p1, p2, a2)
            rc = check_rc_double(n, g, p1, p2, a2)
        assert rc == with_membership(v, n, g, p1, p2, a2 or 0), (g, p1, p2, a2)
        cases.add((a2 is None, v.case, rc.satisfied))
    assert {(True, "A", True), (True, "C", True), (False, "A", True),
            (False, "B", True), (False, "NONE", False)} <= cases


@pytest.mark.parametrize("n", [2, 4, 6])
def test_rc_verdict_is_reversibility_plus_built_membership(n):
    # Every search candidate: the rc verdict is the reversible verdict,
    # turned down with one more note exactly when the all-u^2 word is
    # missing from the ideal the candidate generates.
    word = u2_all_ones(n)
    missing = 0
    for g, p1, p2, a2s in cli._search_candidates(n):
        for a2 in a2s:
            rev = verdict("reversible", n, g, p1, p2, a2)
            rc = verdict("rc", n, g, p1, p2, a2)
            expected = rev
            if rev.hypothesis_ok and not candidate_code(n, g, p1, p2, a2).contains(word):
                missing += 1
                notes = "; ".join(filter(None, [rev.notes, "all-u2 word is not a codeword"]))
                expected = Verdict(False, rev.case, True, notes)
            assert rc == expected, (g, p1, p2, a2)
    # At n = 2^k the word is missing only if (x+1)^n divides g, of
    # degree below n, so only n = 6 reaches the second branch.
    assert (missing > 0) == (n == 6)


def _palindrome(rng, width):
    """A random polynomial whose coefficients i and width - 1 - i agree."""
    half = [rng.randrange(2) for _ in range((width + 1) // 2)]
    bits = half + half[:width // 2][::-1]
    return sum(b << i for i, b in enumerate(bits))


def _layer(rng, r, e4):
    """A p1 or p2 below degree r: random, a multiple of e4 = x^4+1, equal
    to its shifted reciprocal in width r+1 (bit_reverse), or both."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(1 << r)
    if kind == 1:
        return polyf2.mul(e4, rng.randrange(1 << (r - 4)))
    if kind == 2:
        return _palindrome(rng, r - 1) << 1
    # x^k e4 t, t a palindrome of width m: a palindrome of width
    # m + 4 + 2k = r + 1.
    ks = range(1, (r - 4) // 2 + 1)
    if not ks:
        return 0
    k = rng.choice(ks)
    return polyf2.mul(e4, _palindrome(rng, r - 3 - 2 * k)) << k


@pytest.mark.parametrize("n", [12, 20])
def test_rc_membership_where_p1_and_p2_decide(n):
    # At n = 12 and 20, e = 4, and here (x+1)^4 = x^4+1 divides g and
    # a2 (an absent a2 counts as divisible), so the cached (g, a2) half
    # leaves the all-u^2 word open and p1 and p2 decide it.  The layers
    # mix multiples of x^4+1 with palindromes, so that both reversible
    # and turned-down verdicts occur.
    rng = random.Random(n)
    e4 = polyf2.from_text("x^4+1")
    word = u2_all_ones(n)
    divisors = polyf2.divisors_of_xn1(n)
    gs = [g for g in divisors
          if polyf2.divides(e4, g) and polyf2.degree(g) < n]
    satisfied = turned_down = 0
    for _ in range(400):
        g = rng.choice(gs)
        r = polyf2.degree(g)
        a2 = rng.choice([None] + [d for d in divisors if d != g
                                  and polyf2.divides(e4, d)
                                  and polyf2.divides(d, g)])
        p1, p2 = _layer(rng, r, e4), _layer(rng, r, e4)
        rev = verdict("reversible", n, g, p1, p2, a2)
        rc = verdict("rc", n, g, p1, p2, a2)
        assert rc == with_membership(rev, n, g, p1, p2, a2 or 0), (
            g, p1, p2, a2)
        member = candidate_code(n, g, p1, p2, a2).contains(word)
        assert member == u2_all_ones_member(n, g, p1, p2, a2 or 0)
        if rc.satisfied:
            assert member
        satisfied += rc.satisfied
        turned_down += rev.satisfied and not rc.satisfied
    assert satisfied > 20 and turned_down > 20, (satisfied, turned_down)
