import random

import pytest

from dnacyclic import polyf2, ring
from dnacyclic.polyr import (RingWord, all_ones, bit_reverse,
                             divides_xn_minus_1, u2_all_ones)
from oracles import G, P1, P2, random_word


def test_layer_round_trip_random():
    rng = random.Random(10)
    for _ in range(1000):
        n = rng.randrange(1, 13)
        w = random_word(rng, n)
        assert RingWord(n, *w.layers()) == w
        assert RingWord.from_elements(w.elements()) == w


def test_example_generator_layers():
    w = RingWord.from_polys(8, G, P1, P2)
    assert w.layers() == (G, P1, P2)
    assert w.tokens() == "1,u,1+u2,0,1+u2,u,1,0"


def test_all_u2_word_layers():
    w = u2_all_ones(8)
    assert w.layers() == (0, 0, 0b11111111)
    assert all(e == ring.U2 for e in w.elements())


def test_ctor_rejects_overflow():
    with pytest.raises(ValueError):
        RingWord(4, 1 << 4)
    with pytest.raises(ValueError):
        RingWord(0, 0)
    # a negative layer is no polynomial, reduced or not
    for args in [(4, -1), (4, 0, 0, -5)]:
        with pytest.raises(ValueError):
            RingWord.from_polys(*args)
    with pytest.raises(ValueError):
        RingWord(4, -1)
    # from_polys reduces instead
    assert RingWord.from_polys(2, polyf2.xn1(2)).is_zero()


def test_reverse():
    w = RingWord.from_elements([ring.ONE, ring.U, 0, 0])
    assert w.reverse().elements() == (0, 0, ring.U, ring.ONE)
    pal = RingWord.from_elements([ring.ONE, ring.U, ring.U, ring.ONE])
    assert pal.reverse() == pal
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng, rng.randrange(1, 10))
        assert w.reverse().reverse() == w


def test_complement_and_rc():
    z = RingWord(8)
    assert z.complement() == u2_all_ones(8)
    assert z.reverse_complement() == u2_all_ones(8)
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(1, 10)
        w = random_word(rng, n)
        # universal identity: rc(X) = reverse(X) + u^2 * (all ones)
        assert w.reverse_complement() == w.reverse() + u2_all_ones(n)
        assert w.reverse_complement().reverse_complement() == w


def test_reciprocal_examples():
    w = RingWord.from_polys(8, G, P1, P2)
    assert w.reciprocal() == w
    # 1 + u*x has top index 1; the reversal gives x + u
    v = RingWord.from_polys(4, 1, 2, 0)
    assert v.reciprocal() == RingWord.from_polys(4, 2, 1, 0)
    assert RingWord(4).reciprocal() == RingWord(4)


def test_reciprocal_vs_reverse_shift_identities():
    # x^(t+1) * reverse(w) = reciprocal(w) and x^(n-t-1) * reciprocal(w)
    # = reverse(w) in R[x]/(x^n - 1), t the top nonzero index.
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randrange(1, 10)
        w = random_word(rng, n)
        if w.is_zero():
            continue
        t = w.top_index()
        assert w.reverse().shift(t + 1) == w.reciprocal()
        assert w.reciprocal().shift(n - t - 1) == w.reverse()


def test_reciprocal_matches_layer_formula():
    # When deg f1 > max(deg f2, deg f3) the reciprocal has layers
    # (f1*, x^(r-s) f2*, x^(r-t) f3*).
    rng = random.Random(14)
    done = 0
    while done < 200:
        n = rng.randrange(2, 12)
        w = random_word(rng, n)
        r = polyf2.degree(w.f1)
        if r == polyf2.NEG_INF or r <= polyf2.degree(w.f2) or r <= polyf2.degree(w.f3):
            continue
        expect = RingWord(
            n,
            polyf2.reciprocal(w.f1),
            polyf2.reciprocal(w.f2) << (r - (w.f2.bit_length() - 1)) if w.f2 else 0,
            polyf2.reciprocal(w.f3) << (r - (w.f3.bit_length() - 1)) if w.f3 else 0,
        )
        assert w.reciprocal() == expect
        done += 1


def test_all_ones():
    w = all_ones(4)
    assert w.elements() == (ring.ONE,) * 4
    x1 = RingWord.from_polys(4, polyf2.from_text("x+1"))
    assert (x1 * w).is_zero()


def test_u2_iota_equals_u2_x1_g_at_n8():
    w = RingWord.from_polys(8, 0, 0, polyf2.mul(polyf2.from_text("x+1"), G))
    assert w == u2_all_ones(8)


def test_mul_shift_and_u2():
    rng = random.Random(15)
    for _ in range(100):
        n = rng.randrange(1, 9)
        w = random_word(rng, n)
        x = RingWord.from_polys(n, 2 if n > 1 else 1)
        assert x * w == w.shift(1)
    gen = RingWord.from_polys(8, G, P1, P2)
    u2w = RingWord(8, 0, 0, 1)
    assert u2w * gen == RingWord(8, 0, 0, gen.f1)
    assert gen.scale(ring.U2) == RingWord(8, 0, 0, gen.f1)


def test_mul_algebra_laws():
    rng = random.Random(16)
    for _ in range(150):
        n = rng.randrange(1, 9)
        a, b, c = (random_word(rng, n) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_scale_matches_constant_word_mul():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(1, 9)
        w = random_word(rng, n)
        e = rng.randrange(8)
        const = RingWord(n, e & 1, (e >> 1) & 1, (e >> 2) & 1)
        assert w.scale(e) == w * const


def test_times_u():
    rng = random.Random(18)
    for _ in range(100):
        n = rng.randrange(1, 9)
        w = random_word(rng, n)
        assert w.times_u() == w.scale(ring.U)
        assert w.times_u().times_u() == w.scale(ring.U2)
        assert w.times_u().times_u().times_u().is_zero()


def test_length_mismatch():
    with pytest.raises(ValueError):
        RingWord(2) + RingWord(3)
    with pytest.raises(ValueError):
        RingWord(2) * RingWord(3)


def test_tokens_round_trip():
    text = "1,u,1+u2,0,1+u2,u,1,0"
    assert RingWord.from_tokens(text).tokens() == text


def test_poly_text_round_trip():
    w = RingWord.from_poly_text(8, "x^6+x^4+x^2+1;x^5+x;x^4+x^2")
    assert w.layers() == (G, P1, P2)
    assert w.poly_text() == "x^6+x^4+x^2+1;x^5+x;x^4+x^2"
    assert RingWord.from_poly_text(4, "x+1") == RingWord.from_polys(
        4, polyf2.from_text("x+1"))
    assert RingWord(3).poly_text() == "0;0;0"
    with pytest.raises(ValueError):
        RingWord.from_poly_text(4, "1;1;1;1")


def test_bit_reverse():
    assert bit_reverse(0b100010, 6) == 0b010001
    assert bit_reverse(0b1, 1) == 0b1
    assert bit_reverse(0, 5) == 0
    for width in range(9):
        for v in range(1 << width):
            text = format(v, "b").zfill(width) if width else ""
            assert bit_reverse(v, width) == int(text[::-1] or "0", 2)
    for f in range(4096):
        assert polyf2.reciprocal(f) == bit_reverse(f, f.bit_length())
    # The shifted reciprocal x^(r - deg p) * reciprocal(p), deg p <= r,
    # with the reciprocal taken as the reversed binary string of p.
    for r in range(9):
        for p in range(1, 1 << (r + 1)):
            shifted = int(bin(p)[:1:-1], 2) << (r - (p.bit_length() - 1))
            assert bit_reverse(p, r + 1) == shifted


def test_divides_xn_minus_1():
    # The bundled example generator divides x^8 - 1 in R.
    gen = RingWord.from_polys(8, G, P1, P2)
    assert divides_xn_minus_1(gen)
    # (x+1) + u does not (the layer peel leaves a remainder).
    assert not divides_xn_minus_1(RingWord.from_polys(2, polyf2.from_text("x+1"), 1))
    # Plain binary divisors embed as R-divisors.
    assert divides_xn_minus_1(RingWord.from_polys(6, polyf2.from_text("x^2+x+1")))
    assert not divides_xn_minus_1(RingWord(4, 0, 1, 0))


def test_weight():
    assert RingWord(5).weight() == 0
    assert u2_all_ones(5).weight() == 5
    assert RingWord.from_elements([0, ring.U, 0, ring.ONE]).weight() == 2
