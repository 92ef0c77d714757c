import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnacyclic import code, polyf2, ring
from dnacyclic.code import CyclicCode, Presentation, unpack
from dnacyclic.dual import (FLAVORS, check_dual_reversibility_equivalence,
                            dual_brute, dual_code, inner_euclidean,
                            inner_hermitian, verify_dual_divisibility)
from dnacyclic.polyr import RingWord, u2_all_ones
from oracles import (example_code, per_bit_kernel, random_code, random_word,
                     reference_rref, swap_layers, three_equation_dual)


def naive_euclidean(x, y):
    acc = 0
    for a, b in zip(x.elements(), y.elements()):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def naive_hermitian(x, y):
    acc = 0
    for a, b in zip(x.elements(), y.elements()):
        acc = ring.add(acc, ring.mul(a, ring.complement(b)))
    return acc


def test_inner_product_examples():
    x = RingWord.from_elements([ring.ONE, ring.U])
    y = RingWord.from_elements([ring.U2, ring.ONE])
    assert inner_euclidean(x, y) == ring.from_token("u+u2")
    assert inner_hermitian(x, y) == ring.U
    z = RingWord(2)
    assert inner_euclidean(x, z) == 0
    assert inner_hermitian(z, y) == 0


def test_inner_products_match_naive():
    rng = random.Random(50)
    for _ in range(300):
        n = rng.randrange(1, 9)
        x, y = random_word(rng, n), random_word(rng, n)
        assert inner_euclidean(x, y) == naive_euclidean(x, y)
        assert inner_hermitian(x, y) == naive_hermitian(x, y)
        assert inner_euclidean(x, y) == inner_euclidean(y, x)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_euclidean(RingWord(2), RingWord(3))


def test_hermitian_euclidean_bridge_exhaustive():
    # <X,Y>_H = <X,Y>_E + u^2 * (coordinate sum of X), exhaustively for
    # n <= 2 and sampled at n = 3.
    for n in (1, 2):
        for vx in range(1 << 3 * n):
            x = unpack(n, vx)
            sx = 0
            for e in x.elements():
                sx = ring.add(sx, e)
            for vy in range(1 << 3 * n):
                y = unpack(n, vy)
                assert inner_hermitian(x, y) == ring.add(
                    inner_euclidean(x, y), ring.mul(ring.U2, sx))
    rng = random.Random(51)
    for _ in range(500):
        x, y = random_word(rng, 3), random_word(rng, 3)
        sx = 0
        for e in x.elements():
            sx = ring.add(sx, e)
        assert inner_hermitian(x, y) == ring.add(
            inner_euclidean(x, y), ring.mul(ring.U2, sx))


def test_shift_adjointness_and_reverse_symmetry():
    rng = random.Random(52)
    for _ in range(300):
        n = rng.randrange(1, 9)
        x, y = random_word(rng, n), random_word(rng, n)
        assert inner_euclidean(x.shift(1), y) == inner_euclidean(x, y.shift(n - 1))
        assert inner_euclidean(x, y.reverse()) == inner_euclidean(x.reverse(), y)
        assert inner_hermitian(x, y.reverse()) == inner_hermitian(x.reverse(), y)


def test_dual_of_trivial_codes():
    for n in (1, 2, 4):
        z = CyclicCode.zero(n)
        full = CyclicCode.full(n)
        assert dual_code(z, "euclidean") == full
        assert dual_code(full, "euclidean") == z


def test_dual_cardinality_example_n2():
    c = CyclicCode.from_generators(
        2, [RingWord.from_polys(2, 0, 0, polyf2.from_text("x+1"))])
    assert c.cardinality == 2
    d = dual_code(c, "euclidean")
    assert d.cardinality == 32


def test_dual_matches_brute():
    rng = random.Random(53)
    for n in (1, 2, 3):
        for _ in range(25):
            c = random_code(rng, n)
            for flavor in ("euclidean", "hermitian"):
                assert dual_code(c, flavor) == dual_brute(c, flavor)


# Codes whose u-layer (first) or unit-layer (second) lowest row has a
# bit at the pivot of the all-u^2 row reduced by the code's basis, which
# itself has the bit just below that pivot, the top free column of the
# u^2 layer: a Hermitian kernel read off the lows alone is wrong unless
# that lowest row is cleared there.
UPPER_LOWS_AT_THE_HERMITIAN_PIVOT = [
    (14, [RingWord.from_poly_text(14, "0;x^5+x^2+x+1;x^4+x^3+x^2+x"),
          RingWord.from_poly_text(14, "0;0;x^5+x^2+x+1")]),
    (14, [RingWord.from_poly_text(14, "x^5+x^2+x+1;0;x^4+x^3+x+1"),
          RingWord.from_poly_text(14, "0;x^5+x^2+x+1;0"),
          RingWord.from_poly_text(14, "0;0;x^5+x^2+x+1")]),
]


@st.composite
def dual_inputs(draw):
    """n in 1..40 and generators: zero, one, u- or u^2-only words,
    divisor multiples of x^n + 1 and random words, with the all-u^2
    word added on some draws."""
    n = draw(st.integers(1, 40))
    m = polyf2.xn1(n)
    layer = st.integers(0, (1 << n) - 1)
    divisor = st.builds(lambda f: polyf2.gcd(f | 1, m), st.integers(0, m))
    word = st.one_of(
        st.just(RingWord(n)),
        st.just(RingWord(n, 1)),
        st.builds(lambda f: RingWord(n, 0, f), layer),
        st.builds(lambda f: RingWord(n, 0, 0, f), layer),
        st.builds(lambda d, k: RingWord.from_polys(n, *([0] * k + [d])),
                  divisor, st.integers(0, 2)),
        st.builds(RingWord, st.just(n), layer, layer, layer))
    gens = draw(st.lists(word, max_size=3))
    if draw(st.booleans()):
        gens.append(u2_all_ones(n))
    return n, gens


@settings(derandomize=True, deadline=None, max_examples=300)
@given(dual_inputs())
@example((1, []))
@example((40, []))
@example((7, [RingWord(7, 1)]))
@example((6, [RingWord.from_polys(6, 0, polyf2.from_text("x^2+1"))]))
@example((6, [RingWord.from_polys(6, 0, 0, polyf2.from_text("x^2+1"))]))
@example((6, [RingWord.from_polys(6, 0, 0, polyf2.from_text("x^2+1")),
              u2_all_ones(6)]))
@example((8, [RingWord.from_poly_text(8, "x^6+x^4+x^2+1;x^5+x;x^4+x^2")]))
@example(UPPER_LOWS_AT_THE_HERMITIAN_PIVOT[0])
@example(UPPER_LOWS_AT_THE_HERMITIAN_PIVOT[1])
def test_dual_matches_three_equation_reference(case):
    # One u^2-layer equation per basis row spans the same equations as
    # the three layer equations, so the dual's basis is the same too.
    n, gens = case
    c = CyclicCode.from_generators(n, gens)
    for flavor in ("euclidean", "hermitian"):
        assert dual_code(c, flavor).rows == three_equation_dual(c, flavor)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(dual_inputs())
@example((64, [RingWord.from_poly_text(64, "x^32+1;x^3+x;x^7+1")]))
@example((128, [RingWord.from_poly_text(128, "x^64+1;x^5+x^2;x"),
                RingWord.from_poly_text(128, "0;0;x^16+1")]))
@example((21, [RingWord.from_poly_text(21, "x^3+x+1;x^2;1"),
               RingWord.from_poly_text(21, "0;x^7+1;x^5")]))
@example((15, [RingWord.from_poly_text(15, "0;x^4+x+1;0"), u2_all_ones(15)]))
@example((9, [RingWord(9, 1)]))
@example((5, [RingWord(5, 0, 0, 1)]))
@example(UPPER_LOWS_AT_THE_HERMITIAN_PIVOT[0])
@example(UPPER_LOWS_AT_THE_HERMITIAN_PIVOT[1])
def test_kernel_matches_per_bit_walk(case):
    # parity(v & swap(b)) = parity(swap(v) & b), so the dual is swap(K)
    # for K the plain GF(2) kernel of c's basis rows, plus the all-u^2
    # word for the Hermitian flavor; the reference walks K one free
    # column at a time.
    n, gens = case
    c = CyclicCode.from_generators(n, gens)
    for flavor in FLAVORS:
        rows = list(c.rows)
        if flavor == "hermitian":
            rows.append((1 << n) - 1)
        kernel = per_bit_kernel(rows, 3 * n)
        assert dual_code(c, flavor).rows == reference_rref(
            swap_layers(n, v) for v in kernel)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(dual_inputs())
@example((21, [RingWord.from_poly_text(21, "x^3+x+1;x^2;1"),
               RingWord.from_poly_text(21, "0;x^7+1;x^5")]))
@example((9, [RingWord(9, 1)]))
def test_dual_generators_are_its_rows_as_words(case):
    # The dual is read off one x-closure as its lows; its generators,
    # built on first read, are its basis rows as words, and the dual is
    # the same whether its rows or its dimension is read first.
    n, gens = case
    c = CyclicCode.from_generators(n, gens)
    for flavor in FLAVORS:
        rows_first, dim_first = dual_code(c, flavor), dual_code(c, flavor)
        assert len(rows_first.rows) == dim_first.dim
        words = tuple(unpack(n, r) for r in rows_first.rows)
        assert dim_first.generators == rows_first.generators == words
        assert rows_first.rows == dim_first.rows
        assert rows_first == dim_first


@settings(derandomize=True, deadline=None, max_examples=300)
@given(dual_inputs())
@example((1, []))
@example((1, [RingWord(1, 1)]))
@example((1, [u2_all_ones(1)]))
@example((21, []))
@example((21, [RingWord(21, 1)]))
@example((21, [RingWord.from_poly_text(21, "0;x^7+1;x"), u2_all_ones(21)]))
@example((21, [RingWord.from_poly_text(21, "0;0;x+1")]))
@example((40, []))
@example((40, [RingWord(40, 1)]))
@example((40, [RingWord.from_poly_text(40, "0;0;x+1")]))
@example((40, [RingWord.from_poly_text(40, "0;0;x^8+1")]))
def test_hermitian_dual_adds_one_equation_off_the_all_u2_word(case):
    # The Hermitian equation swaps to the all-u^2 word, which adds one
    # row to the code's span exactly when the code does not hold it.
    n, gens = case
    c = CyclicCode.from_generators(n, gens)
    held = c.contains(u2_all_ones(n))
    assert c.dim + dual_code(c, "hermitian").dim == 3 * n - (not held)


def test_dual_brute_rejects_large_n():
    with pytest.raises(ValueError):
        dual_brute(CyclicCode.zero(9))
    with pytest.raises(ValueError):
        dual_code(CyclicCode.zero(2), "unitary")


def test_euclidean_duality_identities():
    rng = random.Random(54)
    for n in (2, 4, 6):
        for _ in range(20):
            c = random_code(rng, n)
            d = dual_code(c, "euclidean")
            assert c.cardinality * d.cardinality == 8 ** n
            assert dual_code(d, "euclidean") == c


def test_dual_is_ideal():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randrange(1, 17)
        c = random_code(rng, n)
        for flavor in ("euclidean", "hermitian"):
            d = dual_code(c, flavor)
            assert CyclicCode.from_generators(n, d.generators) == d
            for r in d.rows:
                w = unpack(n, r)
                assert d.contains(w.shift(1))
                assert d.contains(w.times_u())


def test_dual_orthogonality():
    rng = random.Random(56)
    for _ in range(30):
        n = rng.randrange(1, 5)
        c = random_code(rng, n)
        d = dual_code(c, "euclidean")
        h = dual_code(c, "hermitian")
        for y in itertools.islice(c.words(), 16):
            for w in itertools.islice(d.words(), 16):
                assert inner_euclidean(w, y) == 0
            for w in itertools.islice(h.words(), 16):
                assert inner_hermitian(w, y) == 0


def test_three_way_equivalence():
    c = example_code()
    assert c.is_reversible()
    assert dual_code(c, "euclidean").is_reversible()
    assert dual_code(c, "hermitian").is_reversible()
    assert check_dual_reversibility_equivalence(c)
    for n in (1, 2, 4):
        assert check_dual_reversibility_equivalence(CyclicCode.zero(n))
        assert check_dual_reversibility_equivalence(CyclicCode.full(n))


def test_three_way_equivalence_non_reversible():
    # 1 + u*x at n = 4 generates a non-reversible code; all three
    # reversibility values must then be false together.
    c = CyclicCode.from_generators(4, [RingWord.from_polys(4, 1, 2, 0)])
    if not c.is_reversible():
        assert not dual_code(c, "euclidean").is_reversible()
        assert not dual_code(c, "hermitian").is_reversible()
    assert check_dual_reversibility_equivalence(c)


def test_three_way_equivalence_random():
    rng = random.Random(57)
    for _ in range(40):
        n = rng.randrange(1, 5)
        assert check_dual_reversibility_equivalence(random_code(rng, n))


def _structural_chain_code(n, g, a1, a2):
    words = [RingWord.from_polys(n, g),
             RingWord.from_polys(n, 0, a1),
             RingWord.from_polys(n, 0, 0, a2)]
    return CyclicCode.from_generators(n, words)


def test_verify_dual_divisibility_chain_code():
    # n=8 chain (x+1)^3 | (x+1)^2 | (x+1): a case-3 code meeting every
    # hypothesis; all six claims must hold for the Euclidean dual.
    n = 8
    g = polyf2.from_text("x^3+x^2+x+1")
    a1 = polyf2.from_text("x^2+1")
    a2 = polyf2.from_text("x+1")
    c = _structural_chain_code(n, g, a1, a2)
    pres = c.canonical_presentation()
    assert pres.case == 3
    assert (pres.g, pres.a1, pres.a2) == (g, a1, a2)
    assert (pres.p1, pres.p2, pres.q) == (0, 0, 0)
    d = dual_code(c, "euclidean")
    report = verify_dual_divisibility(pres, d.canonical_presentation(), n)
    assert report["hypotheses_ok"]
    assert report["claims"] == [True] * 6


def test_verify_dual_divisibility_hermitian_dual_too():
    n = 6
    g = polyf2.from_text("x^3+1")
    a1 = polyf2.from_text("x^2+x+1")
    a2 = 1
    c = _structural_chain_code(n, g, a1, a2)
    pres = c.canonical_presentation()
    assert pres.case == 3
    d = dual_code(c, "hermitian")
    report = verify_dual_divisibility(pres, d.canonical_presentation(), n)
    assert report["hypotheses_ok"]
    assert report["claims"] == [True] * 6


def test_verify_dual_divisibility_vacuous_zero_parts():
    # A wide code has a tiny dual whose extraction misses generators;
    # missing parts are zero and the claims hold vacuously, with notes.
    n = 4
    c = _structural_chain_code(n, polyf2.from_text("x+1"), 1, 1)
    pres = c.canonical_presentation()
    assert pres.case == 3
    d = dual_code(c, "euclidean")
    pres_hat = d.canonical_presentation()
    report = verify_dual_divisibility(pres, pres_hat, n)
    assert report["hypotheses_ok"]
    assert report["claims"] == [True] * 6
    if pres_hat.g == 0:
        assert any("vacuously" in note for note in report["notes"])
    # A note for each zero dual part and for no other.
    report = verify_dual_divisibility(
        pres, Presentation(3, 1, 0, 0, 1, 0, 1), n)
    assert report["notes"] == [
        f"claim {k}: dual part {part} is zero, vacuously divisible"
        for k, part in [(4, "q"), (5, "p1"), (6, "p2")]]


def test_verify_dual_divisibility_hypothesis_violation():
    # Each violated hypothesis is reported on its own, not raised, and
    # no claim is evaluated.  At n = 4 every presentation below meets all
    # hypotheses but the one named: (g, p1, p2, a1, q, a2).  A zero part
    # is reported before any check that divides by it.
    t = polyf2.from_text
    cases = [
        ((t("x^2+1"), 0, 0, 0, 0, 1), "g, a1, a2 must all be nonzero"),
        ((t("x^3+x+1"), 0, 0, 1, 0, 1),
         "divisibility chain a2 | a1 | g | x^n+1 violated"),
        ((t("x^2+1"), 1, 0, t("x+1"), 0, t("x+1")), "a1 does not divide p1"),
        ((t("x^2+1"), 0, 1, t("x+1"), 0, t("x+1")), "a2 does not divide p2"),
        ((t("x^2+1"), 0, 0, t("x+1"), 1, t("x+1")), "a2 does not divide q"),
        ((t("x+1"), t("x+1"), 0, t("x+1"), 0, t("x+1")),
         "deg g must exceed deg p1 and deg p2"),
        ((t("x+1"), 0, t("x+1"), t("x+1"), 0, t("x+1")),
         "deg g must exceed deg p1 and deg p2"),
        ((t("x^2+1"), 0, 0, t("x+1"), t("x+1"), 1), "deg a1 must exceed deg q"),
    ]
    for fields, violation in cases:
        pres = Presentation(3, *fields)
        report = verify_dual_divisibility(
            pres, Presentation(1, 0, 0, 0, 0, 0, 0), 4)
        assert not report["hypotheses_ok"]
        assert report["violations"] == [violation]
        assert report["claims"] == [None] * 6


def test_dual_and_sum_leave_the_rows_unbuilt(monkeypatch):
    # Both are seeded from a code's at most three lowest rows, so neither
    # rotates the full basis out of them.
    n = 64
    c = CyclicCode.from_generators(
        n, [RingWord.from_poly_text(n, "x^32+1;x^3+x;x^7+1")])
    d = CyclicCode.from_generators(n, [RingWord.from_poly_text(n, "0;x^16+1;x^5")])
    rotations = []
    rotate = code.rows_from_lows
    monkeypatch.setattr(code, "rows_from_lows",
                        lambda *args: rotations.append(args) or rotate(*args))
    for flavor in FLAVORS:
        dual_code(c, flavor)
    c.sum_with(d)
    assert rotations == []


def test_grown_codes_leave_their_generators_unbuilt():
    # A dual and an intersection grow from seed rows; their generators
    # wait until they are read.
    n = 64
    c = CyclicCode.from_generators(
        n, [RingWord.from_poly_text(n, "x^32+1;x^3+x;x^7+1")])
    d = CyclicCode.from_generators(n, [RingWord.from_poly_text(n, "0;x^16+1;x^5")])
    grown = [dual_code(c, flavor) for flavor in FLAVORS] + [c.intersect_with(d)]
    for e in grown:
        assert not isinstance(e._generators, tuple)
        assert CyclicCode.from_generators(n, e.generators) == e
        assert isinstance(e._generators, tuple)


def test_sum_joins_its_operands_generators_when_read():
    # A sum's generators are its operands' own, joined, whether the
    # operands were built from words or grown from seed rows.
    n = 64

    def operands():
        c = CyclicCode.from_generators(
            n, [RingWord.from_poly_text(n, "x^32+1;x^3+x;x^7+1")])
        d = CyclicCode.from_generators(
            n, [RingWord.from_poly_text(n, "0;x^16+1;x^5")])
        return {"words": c, "dual": dual_code(c, "hermitian"),
                "rows": c.intersect_with(d)}

    for left, right in itertools.product(["words", "dual", "rows"], repeat=2):
        ops = operands()
        a, b = ops[left], ops[right]
        s = a.sum_with(b)
        gens = s.generators
        assert gens == a.generators + b.generators
        assert CyclicCode.from_generators(n, gens) == s
