"""Self-tests of the references in oracles.py that no other test pins to
known values or to a walk of their definition, at sizes small enough to
walk every vector."""

import random

from dnacyclic.dual import dual_brute
from oracles import (per_bit_kernel, random_code, reference_rref, span,
                     three_equation_dual, zassenhaus_rows)


def test_reference_rref_is_the_reduced_basis_of_the_span():
    rng = random.Random(60)
    for _ in range(300):
        width = rng.randrange(1, 9)
        vs = [rng.randrange(1 << width) for _ in range(rng.randrange(9))]
        rows = reference_rref(vs)
        pivots = [r.bit_length() - 1 for r in rows]
        assert pivots == sorted(set(pivots), reverse=True) and -1 not in pivots
        assert not any(r >> p & 1 for r in rows for p in pivots if r >> p > 1)
        assert span(rows) == span(vs) and len(span(vs)) == 1 << len(rows)


def test_per_bit_kernel_is_the_walked_kernel():
    rng = random.Random(61)
    for _ in range(300):
        width = rng.randrange(1, 9)
        rows = [rng.randrange(1 << width) for _ in range(rng.randrange(6))]
        walked = {v for v in range(1 << width)
                  if not any((v & r).bit_count() & 1 for r in rows)}
        kernel = per_bit_kernel(rows, width)
        assert span(kernel) == walked and len(walked) == 1 << len(kernel)


def test_zassenhaus_rows_are_the_walked_intersection():
    rng = random.Random(62)
    for _ in range(100):
        n = rng.randrange(1, 4)
        a, b = random_code(rng, n), random_code(rng, n)
        both = set(a.packed_words()) & set(b.packed_words())
        assert zassenhaus_rows(a, b) == reference_rref(both)


def test_three_equation_dual_is_the_brute_dual():
    rng = random.Random(63)
    for _ in range(30):
        c = random_code(rng, rng.randrange(1, 4))
        for flavor in ("euclidean", "hermitian"):
            assert three_equation_dual(c, flavor) == dual_brute(c, flavor).rows
