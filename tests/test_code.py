import functools
import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnacyclic import cli, code, polyf2
from dnacyclic.code import (CyclicCode, DEFAULT_ENUM_CAP, Presentation,
                            _torsion, pack, unpack)
from dnacyclic.constraints import Verdict, check_rc_single
from dnacyclic.dual import FLAVORS, dual_code
from dnacyclic.polyf2 import CapExceeded
from dnacyclic.polyr import RingWord, u2_all_ones
from oracles import (G, P1, P2, candidate_code, example_code,
                     exhaustive_report, expansion_rref, random_code,
                     random_word, reference_rref, socle_distance, verdict,
                     walked_distance, zassenhaus_rows)


def test_pack_round_trip():
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randrange(1, 10)
        w = random_word(rng, n)
        assert unpack(n, pack(w)) == w


def test_tiny_code():
    c = CyclicCode.from_generators(
        2, [RingWord.from_polys(2, 0, 0, polyf2.from_text("x+1"))])
    assert c.dim == 1
    assert c.cardinality == 2
    words = set(c.words())
    assert words == {RingWord(2), RingWord(2, 0, 0, 0b11)}


def test_zero_code():
    z = CyclicCode.from_generators(3, [RingWord(3)])
    assert z.dim == 0
    assert z.cardinality == 1
    assert list(z.words()) == [RingWord(3)]
    assert z.min_hamming_distance() == math.inf
    assert CyclicCode.from_generators(3, []) == z


def test_example_code_contents():
    c = example_code()
    assert c.dim == 6
    assert c.contains(RingWord.from_polys(8, 0, 0, G))
    assert c.contains(u2_all_ones(8))
    assert not c.contains(RingWord.from_polys(8, 1))


def test_contains_length_mismatch():
    with pytest.raises(ValueError):
        example_code().contains(RingWord(4))


def test_enumeration_counts():
    rng = random.Random(21)
    for _ in range(40):
        c = random_code(rng, rng.randrange(1, 5))
        words = list(c.words())
        assert len(words) == c.cardinality
        assert len(set(words)) == c.cardinality


def test_enumeration_cap():
    c = CyclicCode.from_generators(2, [RingWord(2, 1)])
    assert c.dim == 6
    with pytest.raises(CapExceeded):
        list(c.words(cap=5))
    assert len(list(c.words(cap=6))) == 64
    assert DEFAULT_ENUM_CAP == 24


def test_basis_closed_under_shift_and_u():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randrange(1, 7)
        c = random_code(rng, n)
        for r in c.rows:
            w = unpack(n, r)
            assert c.contains(w.shift(1))
            assert c.contains(w.times_u())


def test_min_distance_example():
    assert example_code().min_hamming_distance() == 4


def test_min_distance_u2_iota():
    c = CyclicCode.from_generators(8, [u2_all_ones(8)])
    assert c.min_hamming_distance() == 8


def test_reversibility_oracle():
    c = example_code()
    assert c.is_reversible()
    assert c.is_rc_closed()
    z = CyclicCode.zero(4)
    assert z.is_reversible()
    assert not z.is_rc_closed()  # rc(0) is the all-u2 word, not in {0}
    assert not z.is_complement_closed()
    report = z.report_json()
    assert report["reversible"] and not report["rc_closed"]


def test_full_code_closures():
    c = CyclicCode.full(3)
    assert c.cardinality == 8 ** 3
    assert c.is_reversible()
    assert c.is_complement_closed()
    assert c.is_rc_closed()


def test_reversible_iff_reciprocal_closed():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randrange(1, 6)
        c = random_code(rng, n)
        words = list(c.words())
        recip_closed = all(c.contains(w.reciprocal()) for w in words)
        assert c.is_reversible() == recip_closed


def test_reverse_in_iff_reciprocal_in():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randrange(1, 7)
        c = random_code(rng, n)
        f = random_word(rng, n)
        assert c.contains(f.reverse()) == c.contains(f.reciprocal())


def test_rc_iff_reversible_and_u2_iota():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randrange(1, 6)
        c = random_code(rng, n)
        expected = c.is_reversible() and c.contains(u2_all_ones(n))
        assert c.is_rc_closed() == expected


def test_sum_and_intersection():
    rng = random.Random(26)
    for _ in range(60):
        n = rng.randrange(1, 6)
        c1 = random_code(rng, n)
        c2 = random_code(rng, n)
        z = CyclicCode.zero(n)
        assert c1.sum_with(z) == c1
        assert c1.intersect_with(z) == z
        s = c1.sum_with(c2)
        i = c1.intersect_with(c2)
        assert c1.dim + c2.dim == s.dim + i.dim
        assert i.rows == reference_rref(i.rows)
        for r in i.rows:
            w = unpack(n, r)
            assert c1.contains(w) and c2.contains(w)


def test_sum_intersection_preserve_rc():
    rng = random.Random(27)
    done = 0
    while done < 25:
        n = rng.choice((2, 4))
        c1 = random_code(rng, n)
        c2 = random_code(rng, n)
        if not (c1.is_rc_closed() and c2.is_rc_closed()):
            continue
        assert c1.sum_with(c2).is_rc_closed()
        assert c1.intersect_with(c2).is_rc_closed()
        done += 1


def test_u2_subcode_layers():
    rng = random.Random(28)
    for _ in range(60):
        n = rng.randrange(1, 6)
        c = random_code(rng, n)
        sub = c.u2_subcode()
        for w in sub.words():
            assert w.f1 == 0 and w.f2 == 0
            assert c.contains(w)
        # every u2-only codeword of c is in the subcode
        for w in c.words():
            if w.f1 == 0 and w.f2 == 0:
                assert sub.contains(w)
    assert CyclicCode.zero(4).u2_subcode() == CyclicCode.zero(4)


def test_u2_subcode_of_aligned_double_generator():
    # <g + u p1 + u^2 p2, u^2 a2> with the generator an R-divisor of
    # x^n - 1 and a2 | g: the u^2-subcode is exactly <u^2 a2>.
    a2 = polyf2.from_text("x^2+1")
    c = CyclicCode.from_generators(8, [RingWord.from_polys(8, G, P1, P2),
                                       RingWord.from_polys(8, 0, 0, a2)])
    assert c.u2_subcode() == CyclicCode.from_generators(
        8, [RingWord.from_polys(8, 0, 0, a2)])


def test_torsion_example():
    c = example_code()
    assert c.torsion_generator(0) == G
    assert c.torsion_generator(1) == G
    assert c.torsion_generator(2) == G


def test_torsion_u2_only_code():
    a2 = polyf2.from_text("x+1")
    c = CyclicCode.from_generators(2, [RingWord.from_polys(2, 0, 0, a2)])
    assert c.torsion_generator(0) == polyf2.xn1(2)
    assert c.torsion_generator(1) == polyf2.xn1(2)
    assert c.torsion_generator(2) == a2


def test_torsion_nesting():
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randrange(1, 7)
        c = random_code(rng, n)
        t0 = c.torsion_generator(0)
        t1 = c.torsion_generator(1)
        t2 = c.torsion_generator(2)
        assert polyf2.divides(t2, t1)
        assert polyf2.divides(t1, t0)
        assert polyf2.divides(t0, polyf2.xn1(n))
    with pytest.raises(ValueError):
        c.torsion_generator(3)
    for _ in range(200):
        n = rng.randrange(1, 17)
        c = structured_code(rng, n) if rng.randrange(2) else random_code(rng, n)
        for i in range(3):
            assert c.torsion_generator(i) == reference_torsion(c, i), (n, i)


def reference_torsion(c, i):
    """The gcd of x^n + 1 with the layer-i part of every basis row that is
    zero above layer i; those parts span the torsion code T_i."""
    n = c.n
    t = polyf2.xn1(n)
    for r in c.rows:
        if r >> (3 - i) * n == 0:
            t = polyf2.gcd(t, r >> (2 - i) * n)
    return t


def test_canonical_presentation_example():
    p = example_code().canonical_presentation()
    assert p.case == 1
    assert (p.g, p.p1, p.p2) == (G, P1, P2)
    assert (p.a1, p.q, p.a2) == (0, 0, 0)


def test_canonical_presentation_u2_only():
    a2 = polyf2.from_text("x+1")
    c = CyclicCode.from_generators(2, [RingWord.from_polys(2, 0, 0, a2)])
    p = c.canonical_presentation()
    assert p.case == 2
    assert p.g == 0 and p.p1 == 0 and p.p2 == 0
    assert p.a2 == a2


def test_canonical_presentation_round_trip():
    rng = random.Random(30)
    draws = [rng.choice(range(2, 17, 2)) for _ in range(150)]
    for n in draws + [24] * 6 + [32] * 6:
        c = (structured_code(rng, n) if n > 16 or rng.randrange(2)
             else random_code(rng, n))
        p = c.canonical_presentation()
        assert CyclicCode.from_generators(n, p.generator_words(n)) == c
        if p.case == 3:
            assert polyf2.degree(p.p1) < polyf2.degree(p.a1)
            assert polyf2.degree(p.p2) < polyf2.degree(p.a2)
            assert polyf2.degree(p.q) < polyf2.degree(p.a2)
            assert polyf2.divides(p.a2, p.a1)
            assert polyf2.divides(p.a1, p.g if p.g else polyf2.xn1(n))
        # In every case the fields are the torsion generators (zero read
        # as x^n + 1) of the layers the case uses, reduced below them.
        m = polyf2.xn1(n)
        g, a1, a2 = (c.torsion_generator(i) for i in range(3))
        assert polyf2.divides(a2, a1) and polyf2.divides(a1, g)
        assert p.g == (0 if g == m else g)
        assert p.a1 == (0 if p.case < 3 or a1 == m else a1)
        assert p.a2 == (0 if p.case < 2 or a2 == m else a2)
        if a1 != m:
            assert polyf2.degree(p.p1) < polyf2.degree(a1)
        if a2 != m:
            assert polyf2.degree(p.p2) < polyf2.degree(a2)
            assert polyf2.degree(p.q) < polyf2.degree(a2)


def rebuilt_presentation(c):
    """The presentation whose case is the smallest generator set that
    rebuilds c, with fields from the lowest basis row of each layer."""
    n = c.n
    mask = (1 << n) - 1
    low = [0, 0, 0]
    for r in c.rows:
        low[2 - (r.bit_length() - 1) // n] = r
    g, p1, p2 = low[0] >> 2 * n, low[0] >> n & mask, low[0] & mask
    a1, q, a2 = low[1] >> n, low[1] & mask, low[2]
    for p in (Presentation(1, g, p1, p2, 0, 0, 0),
              Presentation(2, g, p1, p2, 0, 0, a2)):
        if CyclicCode.from_generators(n, p.generator_words(n)) == c:
            return p
    return Presentation(3, g, p1, p2, a1, q, a2)


@st.composite
def even_length_codes(draw):
    """Even n in 2..32: zero and full codes, structured ideals from
    divisors of x^n + 1 times u^k, and random words."""
    n = draw(st.sampled_from(range(2, 33, 2)))
    m = polyf2.xn1(n)
    layer = st.integers(0, (1 << n) - 1)
    structured = st.builds(
        lambda f, a, b, c, k: RingWord.from_polys(
            n, *([0] * k + [polyf2.mul(polyf2.gcd(f | 1, m), x)
                            for x in (a, b, c)])[:3]),
        st.integers(0, m), layer, layer, layer, st.integers(0, 2))
    word = st.one_of(st.just(RingWord(n, 1)), structured,
                     st.builds(RingWord, st.just(n), layer, layer, layer))
    return CyclicCode.from_generators(n, draw(st.lists(word, max_size=3)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(even_length_codes())
@example(CyclicCode.zero(2))
@example(CyclicCode.zero(32))
@example(CyclicCode.full(32))
def test_case_tag_matches_rebuild(c):
    assert c.canonical_presentation() == rebuilt_presentation(c)


def test_presented_dim_matches_built_ideal():
    # The dimension 3n - deg g - deg a1 - deg t2 from the generator data,
    # and the torsion generators it reads, against the built ideal.
    rng = random.Random(31)
    for n in range(1, 13):
        divisors = polyf2.divisors_of_xn1(n)
        for g in divisors:
            subs = [d for d in divisors if polyf2.divides(d, g)]
            for _ in range(3):
                p1, p2 = rng.randrange(1 << n), rng.randrange(1 << n)
                for a2 in (0, rng.choice(subs)):
                    assert_torsion_matches_built_ideal(n, g, p1, p2, a2)


def assert_torsion_matches_built_ideal(n, g, p1, p2, a2):
    c = candidate_code(n, g, p1, p2, a2)
    a1, t = _torsion(n, g, p1, p2)
    t2 = polyf2.gcd(t, a2)
    assert (a1, t2) == (c.torsion_generator(1), c.torsion_generator(2))
    assert c.dim == (3 * n - polyf2.degree(g) - polyf2.degree(a1)
                     - polyf2.degree(t2))


@pytest.mark.parametrize("mode", ["reversible", "rc"])
def test_torsion_matches_every_certified_search_candidate(mode):
    certified = 0
    for n in (2, 4, 6):
        for g, p1, p2, a2s in cli._search_candidates(n):
            for a2 in a2s:
                if verdict(mode, n, g, p1, p2, a2).satisfied:
                    certified += 1
                    assert_torsion_matches_built_ideal(n, g, p1, p2, a2 or 0)
    assert certified > 1000


def test_torsion_matches_random_specs():
    rng = random.Random(32)
    for n in range(1, 25):
        divisors = polyf2.divisors_of_xn1(n)
        for _ in range(12):
            g = rng.choice(divisors)
            p1, p2 = rng.randrange(1 << n), rng.randrange(1 << n)
            a2 = rng.choice([0] + [d for d in divisors if polyf2.divides(d, g)])
            assert_torsion_matches_built_ideal(n, g, p1, p2, a2)


def test_canonical_presentation_odd_n():
    with pytest.raises(ValueError):
        CyclicCode.zero(3).canonical_presentation()


def test_report_json():
    report = example_code().report_json()
    assert report == {
        "n": 8,
        "dim": 6,
        "cardinality": 64,
        "min_distance": 4,
        "reversible": True,
        "rc_closed": True,
        "presentation": {"case": 1, "g": "x^6+x^4+x^2+1", "p1": "x^5+x",
                         "p2": "x^4+x^2", "a1": "0", "q": "0", "a2": "0"},
    }
    zero = CyclicCode.zero(3).report_json()
    assert zero["min_distance"] is None
    assert zero["presentation"] is None


def test_presentation_json():
    p = example_code().canonical_presentation()
    j = p.to_json()
    assert j["case"] == 1
    assert j["g"] == "x^6+x^4+x^2+1"
    assert j["p1"] == "x^5+x"
    assert j["p2"] == "x^4+x^2"
    assert j["a2"] == "0"


def test_generator_length_mismatch():
    with pytest.raises(ValueError):
        CyclicCode.from_generators(4, [RingWord(5)])
    with pytest.raises(ValueError):
        CyclicCode.zero(4).sum_with(CyclicCode.zero(5))
    with pytest.raises(ValueError):
        CyclicCode.zero(4).intersect_with(CyclicCode.zero(5))


def test_redundant_generators_deduplicate():
    w = RingWord.from_polys(4, polyf2.from_text("x+1"))
    once = CyclicCode.from_generators(4, [w])
    twice = CyclicCode.from_generators(4, [w, w, w.shift(2)])
    assert once == twice


def structured_code(rng, n):
    """A random ideal from 1-2 generators u^k * d * f with d | x^n - 1.

    The divisor factor brings in non-self-reciprocal generators, so both
    closure verdicts occur often.
    """
    divisors = polyf2.divisors_of_xn1(n)
    m = polyf2.xn1(n)
    gens = []
    for _ in range(rng.randrange(1, 3)):
        d = rng.choice(divisors)
        layers = [polyf2.mod(polyf2.mul(d, rng.randrange(1 << n)), m)
                  for _ in range(3)]
        k = rng.randrange(3)
        gens.append(RingWord(n, *([0] * k + layers[:3 - k])))
    return CyclicCode.from_generators(n, gens)


def algebraic_report(c):
    return {
        "reversible": c.is_reversible(),
        "complement": c.is_complement_closed(),
        "rc": c.is_rc_closed(),
        "distance": c.min_hamming_distance(),
    }


@pytest.mark.parametrize("low, high, count", [(0, 12, 150), (14, 18, 10)])
def test_algebraic_decisions_match_exhaustive_walk(low, high, count):
    rng = random.Random(31 + low)
    verdicts = {key: set() for key in ("reversible", "complement", "rc")}
    done = 0
    while done < count:
        c = structured_code(rng, rng.randrange(1, 17))
        if not low <= c.dim <= high:
            continue
        expected = exhaustive_report(c)
        assert algebraic_report(c) == expected, (c.n, c.rows)
        for key, seen in verdicts.items():
            seen.add(expected[key])
        done += 1
    assert all(seen == {True, False} for seen in verdicts.values())


def words_of_length(n):
    layer = st.integers(0, (1 << n) - 1)
    return st.one_of(
        st.just(RingWord(n)),
        st.builds(lambda f: RingWord(n, 0, f, 0), layer),
        st.builds(lambda f: RingWord(n, 0, 0, f), layer),
        st.builds(lambda a, b, c: RingWord(n, a, b, c), layer, layer, layer))


@st.composite
def generator_sets(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(words_of_length(n), max_size=3))
    if len(gens) > 1 and draw(st.booleans()):
        gens[-1] = gens[0]
    return n, gens


@settings(derandomize=True, deadline=None, max_examples=300)
@given(generator_sets())
@example((1, [RingWord(1, 1, 1, 1)]))
@example((7, [RingWord(7)]))
@example((5, [RingWord(5, 0, 0b10011, 0), RingWord(5, 0, 0, 0b1)]))
@example((6, [RingWord(6, 0b101, 0b11, 0)] * 3))
def test_span_matches_full_expansion(case):
    n, gens = case
    rows = expansion_rref(n, gens)
    # The build order of the chains must not change the unique RREF.
    for order in itertools.permutations(gens):
        assert CyclicCode.from_generators(n, order).rows == rows


# f = x^3 + x + 1 divides x^21 + 1 and x^7 + 1 divides it too.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(generator_sets(max_n=40))
@example((21, [RingWord.from_poly_text(21, "x^3+x+1;x^2;1"),
               RingWord.from_poly_text(21, "0;x^7+1;x^5")]))
@example((33, [RingWord(33, 0, 0, (1 << 33) - 1)]))
@example((40, [RingWord.from_poly_text(40, "x^20+1;x^3+x;x^7+1"),
               RingWord.from_poly_text(40, "0;0;x^4+1")]))
@example((40, [RingWord(40, 1)]))
def test_long_span_matches_full_expansion(case):
    # Lengths beyond test_span_matches_full_expansion, where each layer
    # has many rows read off its lowest one by rotation.
    n, gens = case
    assert CyclicCode.from_generators(n, gens).rows == expansion_rref(n, gens)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(generator_sets(max_n=40))
@example((21, [RingWord.from_poly_text(21, "x^3+x+1;x^2;1"),
               RingWord.from_poly_text(21, "0;x^7+1;x^5")]))
def test_sum_is_rref_of_both_bases(case):
    n, gens = case
    for k in range(len(gens) + 1):
        a = CyclicCode.from_generators(n, gens[:k])
        b = CyclicCode.from_generators(n, gens[k:])
        assert a.sum_with(b).rows == reference_rref(a.rows + b.rows)


def all_rows_reversible(c):
    """Reference decision: the reversal of every basis row is a codeword,
    so adding it leaves the RREF basis as it is."""
    rows = c.rows
    return all(reference_rref(rows + (pack(unpack(c.n, r).reverse()),)) == rows
               for r in rows)


# f = x^3 + x + 1 is not self-reciprocal, and at n = 7 each layer's
# lowest row alone exposes one of these codes: <u^2 f> only layer 2's,
# <u f, u^2> only layer 1's, <f, u> only layer 0's, and <f, u^2> layers
# 0 and 1 but not 2.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(generator_sets())
@example((5, []))
@example((5, [RingWord(5, 1)]))
@example((7, [RingWord(7, 0, 0, 0b1011)]))
@example((7, [RingWord(7, 0, 0b1011, 0), RingWord(7, 0, 0, 1)]))
@example((7, [RingWord(7, 0b1011, 0, 0), RingWord(7, 0, 0, 1)]))
@example((7, [RingWord(7, 0b1011, 0, 0), RingWord(7, 0, 1, 0)]))
def test_reversible_from_lowest_rows_matches_all_rows(case):
    # The closure decisions read off the lows, against the row-by-row
    # references and, at n <= 4, against a walk of every word.
    n, gens = case
    c = CyclicCode.from_generators(n, gens)
    reversible = c.is_reversible(cap=3 * n)
    complement = c.is_complement_closed(cap=3 * n)
    assert reversible == all_rows_reversible(c)
    assert complement == c.contains(u2_all_ones(n))
    assert c.is_rc_closed(cap=3 * n) == (reversible and complement)
    if n <= 4:
        walked = exhaustive_report(c)
        assert walked["reversible"] == reversible
        assert walked["complement"] == complement
        assert walked["rc"] == (reversible and complement)


@st.composite
def generator_set_pairs(draw):
    """(n, a, b): two generator lists of one length, b often spanning a's ideal."""
    n, gens = draw(generator_sets())
    if gens and draw(st.booleans()):
        # Reordered, plus a multiple of a generator: the same ideal.
        k = draw(st.integers(0, n - 1))
        other = draw(st.permutations(gens)) + [gens[0].shift(k).times_u()]
    else:
        other = draw(st.lists(words_of_length(n), max_size=3))
    return n, gens, other


@settings(derandomize=True, deadline=None, max_examples=300)
@given(generator_set_pairs())
@example((5, [RingWord(5, 1)], [RingWord(5, 1, 1, 0)]))
@example((6, [RingWord(6, 0, 0, 0b11)], [RingWord(6, 0, 0b11, 0)]))
@example((7, [], [RingWord(7)]))
def test_code_identity_is_its_lowest_rows(case):
    # A code keeps only the lowest RREF row of each layer; equality, the
    # hash, the dimension and the socle walk must agree with the rows.
    n, gens, other = case
    a = CyclicCode.from_generators(n, gens)
    b = CyclicCode.from_generators(n, other)
    assert (a == b) == (a.rows == b.rows)
    if a == b:
        assert hash(a) == hash(b)
    for c in (a, b):
        assert c.dim == len(c.rows)
        assert CyclicCode(n, c.rows) == c
        socle = tuple(r for r in c.rows if r.bit_length() <= n)
        sub = c.u2_subcode()
        assert sub.rows == socle
        assert sub == CyclicCode(n, socle)
        assert c.min_hamming_distance(cap=3 * n) == socle_distance(socle)


def socle_code(n, t2):
    return CyclicCode.from_generators(n, [RingWord(n, 0, 0, t2)])


@pytest.mark.parametrize("n", range(2, 17))
def test_min_distance_matches_walk_on_every_socle(n):
    # Every proper divisor t2 of x^n + 1: socles that stop at weight 2
    # and socles walked to the end, at every length.
    for t2 in polyf2.divisors_of_xn1(n)[:-1]:
        assert socle_code(n, t2).min_hamming_distance() == walked_distance(n, t2)


# (n, t2, distance), with k = n - deg t2: t2 = 1 (the whole space), the
# repetition code (deg t2 = n - 1), socles with k = n - k, the [7, 4, 3]
# Hamming and [23, 12, 7] Golay codes, and six socles at n = 21.
@pytest.mark.parametrize("n, t2, distance", [
    (1, "1", 1), (2, "1", 1), (16, "1", 1),
    (2, "x+1", 2), (5, "x^4+x^3+x^2+x+1", 5),
    (16, "x^15+x^14+x^13+x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1",
     16),
    (8, "x^4+1", 2), (12, "x^6+x^5+x^3+x+1", 3),
    (14, "x^7+x^6+x^3+x^2+x+1", 4), (24, "x^12+x^10+x^6+x^2+1", 3),
    (7, "x^3+x+1", 3), (23, "x^11+x^10+x^6+x^5+x^4+x^2+1", 7),
    (21, "x^6+x^4+x+1", 4), (21, "x^9+x^8+x^5+x^4+x^2+x+1", 5),
    (21, "x^10+x^7+x^6+x^4+x^2+1", 6), (21, "x^11+x^8+x^7+x^2+1", 5),
    (21, "x^12+x^11+x^9+x^7+x^3+x^2+x+1", 8),
    (21, "x^20+x^19+x^18+x^17+x^16+x^15+x^14+x^13+x^12+x^11+x^10+x^9+x^8"
         "+x^7+x^6+x^5+x^4+x^3+x^2+x+1", 21),
])
def test_min_distance_examples(n, t2, distance):
    t2 = polyf2.from_text(t2)
    assert polyf2.divides(t2, polyf2.xn1(n))
    assert socle_code(n, t2).min_hamming_distance(cap=3 * n) == distance
    assert walked_distance(n, t2) == distance


@st.composite
def codes_with_small_socles(draw):
    """(n, generators) at n <= 24 inside <d> for a proper divisor d of
    x^n + 1 of degree at least n - 16, from 1-3 generators u^j d f: the
    socle, inside u^2 <d>, has at most 2^16 words.
    """
    n = draw(st.integers(1, 24))
    d = draw(st.sampled_from([d for d in polyf2.divisors_of_xn1(n)[:-1]
                              if polyf2.degree(d) >= n - 16]))
    m = polyf2.xn1(n)
    layer = st.integers(0, (1 << n) - 1).map(
        lambda f: polyf2.mod(polyf2.mul(d, f), m))
    gens = draw(st.lists(st.tuples(st.integers(0, 2), layer, layer, layer),
                         min_size=1, max_size=3))
    return n, [RingWord(n, *([0] * j + layers[:3 - j]))
               for j, *layers in gens]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(codes_with_small_socles())
@example((7, [RingWord(7, 0b1011, 0b1, 0)]))
@example((21, [RingWord.from_poly_text(21, "x^6+x^4+x+1;0;0")]))
def test_min_distance_matches_walk_of_the_socle_rows(case):
    n, gens = case
    c = CyclicCode.from_generators(n, gens)
    socle = [r for r in c.rows if r.bit_length() <= n]
    assert c.min_hamming_distance(cap=3 * n) == socle_distance(socle)


# At n = 64 and at odd n = 21 the first two pairs of each length meet
# in a code smaller than either; the last pair at n = 21 is the whole
# space and a code, which meet in that code.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(generator_set_pairs())
@example((64, [RingWord.from_poly_text(64, "x^32+1;x^3+x;x^7+1")],
          [RingWord.from_poly_text(64, "x^16+1;x;0"),
           RingWord.from_poly_text(64, "0;0;x^8+1")]))
@example((64, [RingWord.from_poly_text(64, "0;x^16+1;x^5")],
          [RingWord.from_poly_text(64, "x^32+1;0;x^3")]))
@example((21, [RingWord.from_poly_text(21, "x^3+x+1;x^2;1"),
               RingWord.from_poly_text(21, "0;x^7+1;x^5")],
          [RingWord.from_poly_text(21, "x^3+x^2+1;x^4;x")]))
@example((21, [RingWord.from_poly_text(21, "x^3+x+1;x^2;1"),
               RingWord.from_poly_text(21, "0;x^7+1;x^5")],
          [RingWord.from_poly_text(21, "x^6+x^4+x^2+x+1;0;x^2")]))
@example((21, [RingWord(21, 1)], [RingWord.from_poly_text(21, "0;x^3+x+1;1")]))
def test_intersection_matches_zassenhaus_on_rref(case):
    # The intersection is stored as its lowest rows; they must give the
    # RREF of the general double-block reduction, and its generators
    # must generate it, as must the u^2-subcode's.
    n, gens, other = case
    a = CyclicCode.from_generators(n, gens)
    b = CyclicCode.from_generators(n, other)
    i = a.intersect_with(b)
    assert i.rows == zassenhaus_rows(a, b)
    assert CyclicCode.from_generators(n, i.generators) == i
    for c in (a, b, i):
        sub = c.u2_subcode()
        assert CyclicCode.from_generators(n, sub.generators) == sub


@settings(derandomize=True, deadline=None, max_examples=100)
@given(generator_set_pairs(), st.booleans())
def test_grown_codes_read_their_rows_as_generators(case, rows_first):
    # An intersection and a u^2-subcode build their generators, the
    # basis rows as words, on first read, whichever is read first.
    n, gens, other = case
    a = CyclicCode.from_generators(n, gens)
    b = CyclicCode.from_generators(n, other)
    for c in (a.intersect_with(b), b.intersect_with(a), a.u2_subcode()):
        if rows_first:
            assert len(c.rows) == c.dim
        assert c.generators == tuple(unpack(n, r) for r in c.rows)


@pytest.mark.parametrize("rows_first", [False, True])
def test_span_without_generators_reads_its_rows_as_generators(rows_first):
    # The seeds 1, u and u^2 x-generate the whole ideal R^4, and so does
    # 1 alone, whose u-multiples the span seeds itself; with no
    # generators given, its basis rows as words generate it again.
    v = pack(RingWord(4, 1))
    for seeds in ([v >> 8, v >> 4, v], [v]):
        c = CyclicCode.from_span(4, seeds)
        if rows_first:
            assert len(c.rows) == 12
        assert c == CyclicCode.full(4)
        assert c.generators == tuple(unpack(4, r) for r in c.rows)
        assert CyclicCode.from_generators(4, c.generators) == c


@st.composite
def built_codes(draw):
    """A code from one of the public constructors, on drawn inputs."""
    n, gens = draw(generator_sets())
    c = CyclicCode.from_generators(n, gens)
    kind = draw(st.sampled_from(
        ("rows", "lows", "span", "generators", "zero", "full", "sum",
         "intersect", "u2", "euclidean", "hermitian")))
    if kind == "rows":
        return CyclicCode(n, c.rows)
    if kind == "lows":
        return CyclicCode(n, c.lows)
    if kind == "span":
        vectors = st.integers(0, (1 << 3 * n) - 1)
        return CyclicCode.from_span(n, draw(st.lists(vectors, max_size=4)))
    if kind == "generators":
        return c
    if kind == "zero":
        return CyclicCode.zero(n)
    if kind == "full":
        return CyclicCode.full(n)
    if kind == "u2":
        return c.u2_subcode()
    if kind in FLAVORS:
        return dual_code(c, kind)
    other = CyclicCode.from_generators(
        n, draw(st.lists(words_of_length(n), max_size=3)))
    return c.sum_with(other) if kind == "sum" else c.intersect_with(other)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(built_codes())
@example(CyclicCode.from_span(4, [pack(RingWord(4, 1))]))
@example(CyclicCode(4, CyclicCode.full(4).rows))
@example(CyclicCode(4, (0, 0, pack(RingWord(4, 0, 0, 1)))))
def test_every_code_is_the_ideal_its_generators_generate(c):
    # Whatever built it, a code is an ideal: its lows x-generate it, so
    # it is closed under u when u times each low lies in it.  And its
    # generators generate it again, and its lows alone, empty layers'
    # zeros included, give it the same basis.
    n = c.n
    assert all(c.contains(unpack(n, low >> n)) for low in c.lows)
    assert CyclicCode.from_generators(n, c.generators) == c
    assert CyclicCode(n, c.lows).rows == c.rows


def test_intersection_at_the_length_bound(monkeypatch):
    # At n = 1024 the intersection grows from the operands' lows alone,
    # so no rows are rotated out of them, and it still equals the
    # reduction of both full bases.
    n = 1024
    a = CyclicCode.from_generators(
        n, [RingWord.from_poly_text(n, "x^512+1;x^3+x;x^7+1")])
    b = CyclicCode.from_generators(
        n, [RingWord.from_poly_text(n, "x^256+1;x;0"),
            RingWord.from_poly_text(n, "0;0;x^8+1")])
    rotations = []
    rotate = code.rows_from_lows
    monkeypatch.setattr(code, "rows_from_lows",
                        lambda *args: rotations.append(args) or rotate(*args))
    i = a.intersect_with(b)
    assert rotations == []
    assert (a.dim, b.dim, i.dim) == (2044, 2552, 1782)
    assert i.rows == zassenhaus_rows(a, b)
    assert i.generators == tuple(unpack(n, r) for r in i.rows)


@pytest.mark.parametrize("cls, fields, text, as_json", [
    (Verdict,
     {"satisfied": False, "case": "NONE", "hypothesis_ok": True,
      "notes": "no shifted-reciprocal case matches"},
     "Verdict(satisfied=False, case='NONE', hypothesis_ok=True, "
     "notes='no shifted-reciprocal case matches')",
     {"satisfied": False, "case": "NONE", "hypothesis_ok": True,
      "notes": "no shifted-reciprocal case matches"}),
    (Presentation,
     {"case": 3, "g": 5, "p1": 1, "p2": 0, "a1": 3, "q": 1, "a2": 1},
     "Presentation(case=3, g=5, p1=1, p2=0, a1=3, q=1, a2=1)",
     {"case": 3, "g": "x^2+1", "p1": "1", "p2": "0", "a1": "x+1", "q": "1",
      "a2": "1"}),
], ids=["Verdict", "Presentation"])
def test_record_contract(cls, fields, text, as_json):
    # What callers see of the two result records: construction, repr,
    # value equality and hashing, immutability, JSON form and pickling.
    record = cls(*fields.values())
    assert cls(**fields) == record
    assert repr(record) == text
    assert hash(cls(**fields)) == hash(record)
    assert record.to_json() == as_json
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)

    @functools.lru_cache(maxsize=None)
    def key(r):
        return object()
    assert key(record) is key(cls(**fields))

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


def test_verdict_notes_default_to_empty():
    assert Verdict(True, "A", True) == Verdict(True, "A", True, "")
    assert Verdict(True, "A", True).notes == ""
    # The repr README shows for the reference code.
    assert repr(check_rc_single(8, G, P1, P2)) == (
        "Verdict(satisfied=True, case='A', hypothesis_ok=True, notes='')")
