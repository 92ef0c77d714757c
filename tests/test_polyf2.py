import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnacyclic import polyf2
from dnacyclic.polyf2 import (CapExceeded, NEG_INF, all_ones, degree,
                              divides, divrem, divisors_of_xn1, from_text, gcd,
                              irreducible_factors, is_self_reciprocal, mod,
                              mod_xn1, mul, reciprocal, to_text, xn1)

X8_1 = xn1(8)


def test_degree():
    assert degree(0) == NEG_INF
    assert degree(1) == 0
    assert degree(from_text("x^6+x^4+x^2+1")) == 6
    assert NEG_INF < 0


def test_divrem_power_of_x_plus_1():
    q, r = divrem(X8_1, from_text("x+1"))
    assert r == 0
    assert q == from_text("x^7+x^6+x^5+x^4+x^3+x^2+x+1")


def test_divrem_self():
    for f in (1, 3, from_text("x^5+x"), X8_1):
        assert divrem(f, f) == (1, 0)


def test_divrem_by_hand():
    assert divrem(from_text("x^2"), from_text("x+1")) == (from_text("x+1"), 1)


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divrem(5, 0)
    with pytest.raises(ZeroDivisionError):
        divides(0, 5)


def test_divides():
    assert divides(from_text("x+1"), X8_1)
    assert not divides(from_text("x^2+x+1"), X8_1)
    assert divides(from_text("x^3+x+1"), 0)


def test_reciprocal():
    assert reciprocal(from_text("x^5+x")) == from_text("x^4+1")
    assert reciprocal(from_text("x^6+x^4+x^2+1")) == from_text("x^6+x^4+x^2+1")
    assert reciprocal(0) == 0


def test_self_reciprocal():
    assert is_self_reciprocal(from_text("x^6+x^4+x^2+1"))
    assert not is_self_reciprocal(from_text("x^5+x"))
    assert is_self_reciprocal(1)


def test_reciprocal_involution_and_degree():
    rng = random.Random(1)
    for _ in range(300):
        f = rng.randrange(1, 1 << 12)
        assert degree(reciprocal(f)) <= degree(f)
        if f & 1:  # nonzero constant term
            assert reciprocal(reciprocal(f)) == f
            assert degree(reciprocal(f)) == degree(f)


def test_reciprocal_multiplicative():
    rng = random.Random(2)
    for _ in range(200):
        f = rng.randrange(1, 1 << 10)
        g = rng.randrange(1, 1 << 10)
        assert reciprocal(mul(f, g)) == mul(reciprocal(f), reciprocal(g))


def test_reciprocal_preserves_divisibility():
    rng = random.Random(3)
    for _ in range(200):
        f = rng.randrange(1, 1 << 6)
        h = rng.randrange(1, 1 << 6)
        g = mul(f, h)
        assert divides(f, g)
        assert divides(reciprocal(f), reciprocal(g))


def test_degree_additive_under_mul():
    rng = random.Random(4)
    for _ in range(200):
        f = rng.randrange(1, 1 << 14)
        g = rng.randrange(1, 1 << 14)
        assert degree(mul(f, g)) == degree(f) + degree(g)


def test_divisors_n2():
    assert divisors_of_xn1(2) == [1, from_text("x+1"), from_text("x^2+1")]


def test_divisors_n8_are_powers_of_x_plus_1():
    divs = divisors_of_xn1(8)
    assert len(divs) == 9
    p = 1
    for k in range(9):
        assert divs[k] == p
        p = mul(p, from_text("x+1"))


def test_divisors_all_divide():
    for n in (1, 3, 5, 6, 7, 9, 12):
        for d in divisors_of_xn1(n):
            assert divides(d, xn1(n))


def test_divisors_square_structure_for_even_n():
    # x^(2m) + 1 = (x^m + 1)^2 over GF(2): the square of every divisor of
    # x^m + 1 divides x^(2m) + 1 and appears in the enumeration.
    for m in (1, 2, 3, 5):
        half = divisors_of_xn1(m)
        full = set(divisors_of_xn1(2 * m))
        for d in half:
            assert mul(d, d) in full


def test_divisor_cap():
    with pytest.raises(CapExceeded):
        divisors_of_xn1(33)
    with pytest.raises(ValueError):
        divisors_of_xn1(0)
    assert divisors_of_xn1(33, cap=40)


def test_irreducible_factors():
    assert irreducible_factors(X8_1) == [(from_text("x+1"), 8)]
    assert irreducible_factors(xn1(6)) == [(from_text("x+1"), 2),
                                           (from_text("x^2+x+1"), 2)]
    with pytest.raises(ValueError):
        irreducible_factors(0)


def test_gcd():
    a = mul(from_text("x+1"), from_text("x^2+x+1"))
    b = mul(from_text("x+1"), from_text("x^3+x+1"))
    assert gcd(a, b) == from_text("x+1")
    assert gcd(0, a) == a
    assert gcd(a, 0) == a


def test_all_ones_identity():
    for n in (1, 2, 5, 8):
        assert mul(from_text("x+1"), all_ones(n)) == xn1(n)


def test_mod():
    assert mod(from_text("x^2"), from_text("x+1")) == 1


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.integers(0, (1 << (1 << 12)) - 1), st.integers(1, 70))
@example(0, 1)
@example(1, 1)
@example(0b111, 1)
@example(1 << 70, 70)
@example((1 << 4096) - 1, 3)
@example(1 << 65536, 8)
def test_mod_xn1_matches_mod(f, n):
    assert mod_xn1(f, n) == mod(f, xn1(n))


def test_text_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        f = rng.randrange(0, 1 << 16)
        assert from_text(to_text(f)) == f
    assert to_text(0) == "0"
    assert to_text(1) == "1"
    assert to_text(2) == "x"
    assert to_text(from_text("x^6+x^4+x^2+1")) == "x^6+x^4+x^2+1"


def test_text_rejects_garbage():
    for bad in ("", "x^-1", "y+1", "1+1", "x^", "x^1_0", "x^\u0663"):
        with pytest.raises(ValueError):
            from_text(bad)


def test_text_degree_bound():
    top = polyf2.MAX_TEXT_DEGREE
    assert top == 65536
    assert from_text("x^65536") == 1 << 65536
    assert from_text(f"x^{top}+1") == (1 << top) | 1
    for bad in ("x^65537", "x^3000000+x", f"1+x^{10 ** 12}"):
        with pytest.raises(ValueError, match="degree bound"):
            from_text(bad)


def trial_division_factors(f):
    """Unbounded trial division: every integer from 2 up is a candidate
    until the cofactor is 1, so no degree bound is assumed."""
    out = []
    d = 2
    while degree(f) >= 1:
        while not divides(d, f):
            d += 1
        e = 0
        while divides(d, f):
            f = divrem(f, d)[0]
            e += 1
        out.append((d, e))
    return out


def test_irreducible_factors_match_trial_division():
    for f in range(1, 1 << 12):
        assert irreducible_factors(f) == trial_division_factors(f), f
    for n in range(1, 25):
        assert irreducible_factors(xn1(n)) == trial_division_factors(xn1(n)), n


def test_divisors_of_xn1_up_to_cap():
    # x^29 + 1 has an irreducible factor of degree 28, so a search that
    # only stops at the factor itself would try about 2^29 candidates.
    for n in range(1, polyf2.DIVISOR_ENUM_CAP + 1):
        divs = divisors_of_xn1(n)
        assert all(divides(d, xn1(n)) for d in divs)
        count = 1
        for _, e in irreducible_factors(xn1(n)):
            count *= e + 1
        assert len(divs) == count, n
