"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and timings.

Sampling note: the certified closure criteria are biconditionals for the
generator data the length-n structure of these codes actually produces,
namely unit-layer generators dividing x^n - 1 in R (with a2 a binary
divisor of g).  The suites for criteria 4, 5 and 10 therefore sample
from that family.  Outside it the certificates remain sufficient but not
necessary (covered by test_constraints), and the u^2-subcode identity of
criterion 10 genuinely fails; criterion 10 additionally measures and
reports that failure rate on unrestricted samples.
"""

import functools
import random
import time

from dnacyclic import cli, polyf2
from dnacyclic.code import CyclicCode
from dnacyclic.constraints import (check_rc_double, check_rc_single,
                                   check_reversible_double,
                                   check_reversible_single)
from dnacyclic.dual import (check_dual_reversibility_equivalence, dual_brute,
                            dual_code, verify_dual_divisibility)
from dnacyclic.polyr import RingWord, u2_all_ones
from oracles import (G, P1, P2, candidate_code, example_code, proper_divisors,
                     random_code, random_word, structural_pairs)

SEED = 20260808

TABLE2 = frozenset({
    "GCGCGCGCGCGCGCGC", "CGCGCGCGCGCGCGCG", "ATGTTAGCTAGTATGC",
    "GCATGTTAGCTAGTAT", "ATGCATGTTAGCTAGT", "GTATGCATGTTAGCTA",
    "TAGTATGCATGTTAGC", "GCTAGTATGCATGTTA", "TAGCTAGTATGCATGT",
    "GTTAGCTAGTATGCAT", "CAACGCACCATGGCTG", "CGCAGCCACGCAGCCA",
    "GCCGGCCGGCCGGCCG", "GCACCATGGCTGCAAC", "GTCGGTGCGTCGGTGC",
    "GCGTCGGTGCGTCGGT", "GTGCGTCGGTGCGTCG", "CGGTGCGTCGGTGCGT",
    "TGCAACGCACCATGGC", "GCTGCAACGCACCATG", "TGGCTGCAACGCACCA",
    "CATGGCTGCAACGCAC", "ACCATGGCTGCAACGC", "CACGCAGCCACGCAGC",
    "GCCACGCAGCCACGCA", "CAGCCACGCAGCCACG", "CGGCCGGCCGGCCGGC",
    "ACGCACCATGGCTGCA",
})


def _report(k, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {k:02d}: {status}  {detail}")
    assert ok, f"criterion {k}: {detail}"


@functools.cache
def _basis_decisions(c):
    """(reversible, rc-closed), decided exactly on the code's basis by
    is_reversible and is_rc_closed, once per code.

    test_code.py's test_algebraic_decisions_match_exhaustive_walk pins
    these decisions to a walk of every codeword.
    """
    return c.is_reversible(), c.is_rc_closed()


def test_criterion_01_reference_catalog_set_equality():
    t0 = time.perf_counter()
    catalog = cli.reference_catalog()
    elapsed = time.perf_counter() - t0
    ok = catalog == TABLE2 and elapsed < 1.0
    _report(1, ok, f"{len(catalog)} DNA strings, set-equal to the expected "
                   f"28, {elapsed:.3f}s")


def test_criterion_02_example_certification():
    t0 = time.perf_counter()
    rev = check_reversible_single(8, G, P1, P2)
    c = example_code()
    member = c.contains(u2_all_ones(8))
    rc = check_rc_single(8, G, P1, P2)
    elapsed = time.perf_counter() - t0
    ok = (rev.satisfied and rev.case == "A" and member and rc.satisfied
          and elapsed < 1.0)
    _report(2, ok, f"reversible case {rev.case}, all-u2 member {member}, "
                   f"rc {rc.satisfied}, {elapsed:.3f}s")


def test_criterion_03_minimum_distance():
    t0 = time.perf_counter()
    words = [cli.dna_to_word(s) for s in cli.reference_catalog()]
    pairwise = min((a + b).weight()
                   for i, a in enumerate(words) for b in words[i + 1:])
    c = example_code()
    full = c.min_hamming_distance()
    elapsed = time.perf_counter() - t0
    note = "" if full == pairwise else \
        f" (full-ideal distance {full} differs from the catalog's; logged)"
    ok = pairwise == 4 and elapsed < 10.0
    _report(3, ok, f"catalog pairwise distance {pairwise}, full-ideal "
                   f"minimum weight {full}{note}, {elapsed:.3f}s")


def test_criterion_04_reversible_single_oracle_suite():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    checks = agree = 0
    mismatches = []
    for n in (2, 4, 6, 8):
        for g in proper_divisors(n):
            pairs = structural_pairs(n, g)
            draws = {tuple(rng.choice(pairs)) for _ in range(200)}
            for p1, p2 in sorted(draws):
                verdict = check_reversible_single(n, g, p1, p2)
                rev, _ = _basis_decisions(candidate_code(n, g, p1, p2))
                checks += 1
                if verdict.satisfied == rev:
                    agree += 1
                elif len(mismatches) < 3:
                    mismatches.append((n, polyf2.to_text(g),
                                       polyf2.to_text(p1), polyf2.to_text(p2)))
    elapsed = time.perf_counter() - t0
    ok = agree == checks and elapsed < 120.0
    _report(4, ok, f"{agree}/{checks} verdicts match the exact basis "
                   f"decisions across n in (2,4,6,8), {elapsed:.1f}s"
                   + (f"; mismatches {mismatches}" if mismatches else ""))


def test_criterion_05_double_and_rc_oracle_suites():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    checks = agree = 0
    mismatches = []

    def compare(kind, verdict_ok, oracle_ok, cfg):
        nonlocal checks, agree
        checks += 1
        if verdict_ok == oracle_ok:
            agree += 1
        elif len(mismatches) < 3:
            mismatches.append((kind,) + cfg)

    for n in (2, 4, 6, 8):
        all_divs = polyf2.divisors_of_xn1(n)
        for g in proper_divisors(n):
            pairs = structural_pairs(n, g)
            subs = [d for d in all_divs if polyf2.divides(d, g)]
            # two-generator draws, a2 sampled over the divisors of g
            double_draws = {(rng.choice(pairs), rng.choice(subs))
                            for _ in range(200)}
            for (p1, p2), a2 in sorted(double_draws):
                rev, rc = _basis_decisions(candidate_code(n, g, p1, p2, a2))
                cfg = (n, polyf2.to_text(g), polyf2.to_text(p1),
                       polyf2.to_text(p2), polyf2.to_text(a2))
                compare("rev2", check_reversible_double(n, g, p1, p2, a2).satisfied,
                        rev, cfg)
                compare("rc2", check_rc_double(n, g, p1, p2, a2).satisfied,
                        rc, cfg)
            # single-generator rc draws
            single_draws = {tuple(rng.choice(pairs)) for _ in range(200)}
            for p1, p2 in sorted(single_draws):
                _, rc = _basis_decisions(candidate_code(n, g, p1, p2))
                compare("rc1", check_rc_single(n, g, p1, p2).satisfied, rc,
                        (n, polyf2.to_text(g), polyf2.to_text(p1),
                         polyf2.to_text(p2)))
    elapsed = time.perf_counter() - t0
    ok = agree == checks and elapsed < 120.0
    _report(5, ok, f"{agree}/{checks} two-generator and rc verdicts match "
                   f"the exact basis decisions, {elapsed:.1f}s"
                   + (f"; mismatches {mismatches}" if mismatches else ""))


def test_criterion_06_reversal_identities():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 2)
    failures = 0
    total = 10_000
    for _ in range(total):
        n = rng.randrange(1, 9)
        w = random_word(rng, n)
        if w.reverse_complement() != w.reverse() + u2_all_ones(n):
            failures += 1
            continue
        if w.is_zero():
            continue
        t = w.top_index()
        if w.reverse().shift(t + 1) != w.reciprocal():
            failures += 1
        elif w.reciprocal().shift(n - t - 1) != w.reverse():
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    _report(6, ok, f"{total} random words over n in 1..8, {failures} "
                   f"identity failures, {elapsed:.1f}s")


def _rc_closed_pool(rng, n, min_deg, want):
    """Distinct rc-closed codes built from certified structural data."""
    pool = []
    seen = set()
    divisors = [g for g in proper_divisors(n) if polyf2.degree(g) >= min_deg]
    attempts = 0
    while len(pool) < want and attempts < 10_000:
        attempts += 1
        g = rng.choice(divisors)
        p1, p2 = rng.choice(structural_pairs(n, g))
        if not check_rc_single(n, g, p1, p2).satisfied:
            continue
        c = candidate_code(n, g, p1, p2)
        if c.rows in seen:
            continue
        seen.add(c.rows)
        pool.append(c)
    return pool


def test_criterion_07_sum_intersection_rc_closure():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 3)
    failures = checked = 0
    for n, min_deg in ((4, 1), (8, 3)):
        pool = _rc_closed_pool(rng, n, min_deg, 12)
        assert all(c.is_rc_closed() for c in pool)
        for _ in range(100):
            c1, c2 = rng.choice(pool), rng.choice(pool)
            s = c1.sum_with(c2)
            i = c1.intersect_with(c2)
            checked += 1
            if not (s.is_rc_closed() and i.is_rc_closed()):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and checked == 200
    _report(7, ok, f"{checked} rc-closed pairs: sums and intersections all "
                   f"rc-closed, {failures} failures, {elapsed:.1f}s")


def _moderate_code(rng, n):
    """Random structural code of moderate dimension (duals stay small)."""
    divisors = [g for g in proper_divisors(n)
                if polyf2.degree(g) >= max(1, n // 2 - 1)]
    g = rng.choice(divisors)
    p1, p2 = rng.choice(structural_pairs(n, g))
    gens = [RingWord.from_polys(n, g, p1, p2)]
    if rng.random() < 0.5:
        subs = [d for d in polyf2.divisors_of_xn1(n) if polyf2.divides(d, g)
                and polyf2.degree(d) >= 1]
        gens.append(RingWord.from_polys(n, 0, 0, rng.choice(subs)))
    return CyclicCode.from_generators(n, gens)


def test_criterion_08_duality_suite():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 4)
    brute_checked = brute_ok = 0
    for n in (1, 2, 3, 4):
        for _ in range(50):
            c = random_code(rng, n)
            for flavor in ("euclidean", "hermitian"):
                brute_checked += 1
                if dual_code(c, flavor) == dual_brute(c, flavor):
                    brute_ok += 1
    identity_checked = identity_ok = equiv_ok = equiv_checked = 0
    for n in (2, 4, 6, 8):
        for _ in range(25):
            c = _moderate_code(rng, n) if n >= 6 else random_code(rng, n)
            d = dual_code(c, "euclidean")
            identity_checked += 1
            if (c.cardinality * d.cardinality == 8 ** n
                    and dual_code(d, "euclidean") == c):
                identity_ok += 1
            equiv_checked += 1
            if check_dual_reversibility_equivalence(c):
                equiv_ok += 1
    elapsed = time.perf_counter() - t0
    ok = (brute_ok == brute_checked and identity_ok == identity_checked
          and equiv_ok == equiv_checked and elapsed < 180.0)
    _report(8, ok, f"kernel==brute {brute_ok}/{brute_checked}, "
                   f"cardinality+double-dual {identity_ok}/{identity_checked}, "
                   f"three-way reversibility {equiv_ok}/{equiv_checked}, "
                   f"{elapsed:.1f}s")


def _strict_chains(n):
    divisors = polyf2.divisors_of_xn1(n)
    chains = []
    for g in proper_divisors(n):
        for a1 in divisors:
            if a1 == g or not polyf2.divides(a1, g):
                continue
            for a2 in divisors:
                if a2 == a1 or not polyf2.divides(a2, a1):
                    continue
                chains.append((g, a1, a2))
    return chains


def test_criterion_09_dual_divisibility_claims():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 5)
    evaluated = all_true = 0
    failures = []
    for n in (4, 6, 8):
        chains = _strict_chains(n)
        rng.shuffle(chains)
        for g, a1, a2 in chains[:30]:
            m1 = rng.randrange(1 << 3)
            m3 = rng.randrange(1 << 2)
            gens = [
                RingWord.from_polys(n, g, polyf2.mul(m1, a1),
                                    polyf2.mul(rng.randrange(1 << 2), a2)),
                RingWord.from_polys(n, 0, a1, polyf2.mul(m3, a2)),
                RingWord.from_polys(n, 0, 0, a2),
            ]
            c = CyclicCode.from_generators(n, gens)
            pres = c.canonical_presentation()
            if pres.case != 3:
                continue
            report = verify_dual_divisibility(
                pres, dual_code(c, "euclidean").canonical_presentation(), n)
            if not report["hypotheses_ok"]:
                continue
            evaluated += 1
            if report["claims"] == [True] * 6:
                all_true += 1
            elif len(failures) < 3:
                failures.append((n, polyf2.to_text(g), polyf2.to_text(a1),
                                 polyf2.to_text(a2), report["claims"]))
    elapsed = time.perf_counter() - t0
    ok = evaluated >= 50 and all_true == evaluated
    _report(9, ok, f"all six claims hold on {all_true}/{evaluated} "
                   f"hypothesis-satisfying three-generator codes, {elapsed:.1f}s"
                   + (f"; failures {failures}" if failures else ""))


def test_criterion_10_u2_subcode_identity():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 6)
    checked = equal = 0
    unrestricted_checked = unrestricted_equal = 0
    for n in (4, 8):
        divisors = proper_divisors(n)
        all_divs = polyf2.divisors_of_xn1(n)
        for _ in range(60):
            g = rng.choice(divisors)
            subs = [d for d in all_divs if polyf2.divides(d, g)]
            a2 = rng.choice(subs)
            p1, p2 = rng.choice(structural_pairs(n, g))
            c = candidate_code(n, g, p1, p2, a2)
            expected = CyclicCode.from_generators(
                n, [RingWord.from_polys(n, 0, 0, a2)])
            checked += 1
            if c.u2_subcode() == expected:
                equal += 1
        # informational: the identity is not universal for arbitrary p1, p2
        for _ in range(60):
            g = rng.choice(divisors)
            subs = [d for d in all_divs if polyf2.divides(d, g)]
            a2 = rng.choice(subs)
            r = polyf2.degree(g)
            p1, p2 = rng.randrange(1 << r), rng.randrange(1 << r)
            c = candidate_code(n, g, p1, p2, a2)
            expected = CyclicCode.from_generators(
                n, [RingWord.from_polys(n, 0, 0, a2)])
            unrestricted_checked += 1
            if c.u2_subcode() == expected:
                unrestricted_equal += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 100 and equal == checked
    _report(10, ok,
            f"u2-subcode equals <u2 a2> on {equal}/{checked} structural "
            f"samples (unrestricted p1,p2 hold only "
            f"{unrestricted_equal}/{unrestricted_checked}), {elapsed:.1f}s")
