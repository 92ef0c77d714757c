"""Seeded operation lists for the three benchmark workloads.

An op is one in-process ``dnacyclic.cli.main(argv)`` call with stdout
captured, or one library call where the CLI has no command for it.
Inputs come from ``ref`` and the seed, never from the package, so the
program under test cannot change its own workload.

* ``search``: the three catalogue searches a user runs.  The seed only
  shuffles their order; the work is the same for every seed.
* ``analyze``: exhaustive oracles on single codes.  Each (n, dim) slot of
  ANALYZE_SLOTS is filled with a seeded spec of exactly that dimension,
  so every seed does the same amount of enumeration and the dims fall on
  both sides of the package's dim-14 switch to vectorised oracles.
* ``structure``: duals, canonical presentations, certificates and
  sum/intersection on large lengths; nothing here enumerates a code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import ref

SEARCH_ARGVS = (
    ("search", "--n", "6", "--require", "rc"),
    ("search", "--n", "6", "--require", "reversible"),
    ("search", "--n", "8", "--require", "reversible"),
)

# (n, dim) slots; every dim >= 14 takes the package's numpy oracle path.
ANALYZE_SLOTS = tuple((n, d) for n in (8, 10, 12, 14, 16)
                      for d in (6, 8, 10, 12, 13, 15, 17, 20))
ENUMERATE_MAX_DIM = 12
VECTOR_MIN_DIM = 14  # the package's switch to numpy oracles at the baseline

STRUCTURE_LENGTHS = (16, 24, 32, 48, 64, 21)
# Per length, 1-, 2- and 3-generator specs with deg g near n/4, n/2, 3n/4,
# each of the dimension a fixed reference draw has, so that every seed
# builds bases of the same sizes.
STRUCTURE_SPECS_PER_LENGTH = 9
STRUCTURE_PAIRS_PER_LENGTH = 2

TINY = {
    "search": (("search", "--n", "4", "--require", "rc"),
               ("search", "--n", "4", "--require", "reversible")),
    "analyze": ((4, 3), (4, 6)),
    "structure": (6, 5),
}


@dataclass
class Op:
    """One timed operation plus what its checks need to know."""

    key: str            # stable identity, the index into expected digests
    kind: str           # CLI subcommand, or "sum" / "intersect"
    argv: tuple = ()
    n: int = 0
    pair: tuple = ()    # two layer-triple lists, for library ops
    code: object = None  # ref.Code of spec (or of the pair's sum)


def spec_json(n, triples):
    gens = [{"f2": ref.to_text(a), "u": ref.to_text(b), "u2": ref.to_text(c)}
            for a, b, c in triples]
    return json.dumps({"n": n, "generators": gens}, separators=(",", ":"),
                      sort_keys=True)


def _deg(f):
    return f.bit_length() - 1


def _random_analyze_spec(rng, n, divs):
    proper = [d for d in divs if 1 <= _deg(d) <= n - 1]
    g = rng.choice(proper)
    r = _deg(g)
    under = [d for d in divs if ref.pdivmod(g, d)[1] == 0]
    kind = rng.randrange(5)
    if kind == 0:
        return [(g, rng.getrandbits(r), rng.getrandbits(r))]
    if kind == 1:
        return [(g, rng.getrandbits(r), rng.getrandbits(r)),
                (0, 0, rng.choice(under))]
    if kind == 2:
        return [(g, 0, 0)]
    if kind == 3:
        return [(0, g, rng.getrandbits(r)), (0, 0, rng.choice(under))]
    return [(0, 0, g), (0, rng.choice(proper), 0)]


def _analyze_specs(rng, slots):
    """One seeded spec of exactly the slot's dimension per slot."""
    specs = []
    for n, target in slots:
        divs = ref.divisors_of_xn1(n)
        for _ in range(20000):
            triples = _random_analyze_spec(rng, n, divs)
            code = ref.Code(n, triples)
            if code.dim == target:
                specs.append((n, triples, code))
                break
        else:
            raise RuntimeError(f"no spec of dim {target} at n={n}")
    return specs


def _near(rng, candidates, target):
    """A random one of the candidates whose degree is closest to target."""
    best = min(abs(_deg(d) - target) for d in candidates)
    return rng.choice([d for d in candidates if abs(_deg(d) - target) == best])


def _chain(rng, n, divs, depth, r):
    """g of degree near r, then a1 | g, then a2 | a1, each a proper divisor
    of about two thirds of the degree before it (1 when there is none)."""
    out = [_near(rng, [d for d in divs if 1 <= _deg(d) <= n - 1], r)]
    for _ in range(depth - 1):
        under = [d for d in divs if ref.pdivmod(out[-1], d)[1] == 0
                 and d != out[-1]]
        out.append(_near(rng, under, 2 * _deg(out[-1]) / 3) if under else 1)
    return out


def _structure_spec(rng, n, divs, ngens, r):
    """A 1-, 2- or 3-generator spec in structure-theorem shape."""
    chain = _chain(rng, n, divs, ngens, r)
    g = chain[0]
    r = _deg(g)
    if ngens == 1:
        return [(g, rng.getrandbits(r), rng.getrandbits(r))]
    if ngens == 2:
        return [(g, rng.getrandbits(r), rng.getrandbits(r)), (0, 0, chain[1])]
    a1, a2 = chain[1], chain[2]
    small = 1 << max(1, (r - _deg(a1)))
    return [(g, ref.pmul(rng.randrange(small), a1), rng.getrandbits(r)),
            (0, a1, ref.pmul(rng.randrange(4), a2)),
            (0, 0, a2)]


def _structure_specs(rng, n, divs):
    target_rng = random.Random(f"structure-dims:{n}")
    specs = []
    for i in range(STRUCTURE_SPECS_PER_LENGTH):
        shape = (n, divs, 1 + i % 3, (1 + i // 3) * n / 4)
        target = ref.Code(n, _structure_spec(target_rng, *shape)).dim
        for _ in range(2000):
            triples = _structure_spec(rng, *shape)
            if ref.Code(n, triples).dim == target:
                break
        specs.append(triples)
    return specs


def _cli_op(kind, argv, n=0, code=None):
    return Op(key=" ".join(argv), kind=kind, argv=tuple(argv), n=n, code=code)


def build(workload, seed, tiny=False):
    """The op list of one pass, as a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        argvs = list(TINY["search"] if tiny else SEARCH_ARGVS)
        rng.shuffle(argvs)
        return [_cli_op("search", a) for a in argvs]
    if workload == "analyze":
        return _analyze_ops(rng, TINY["analyze"] if tiny else ANALYZE_SLOTS)
    if workload == "structure":
        lengths = TINY["structure"] if tiny else STRUCTURE_LENGTHS
        return _structure_ops(rng, lengths)
    raise ValueError(f"unknown workload {workload!r}")


def _analyze_ops(rng, slots):
    ops = []
    for n, triples, code in _analyze_specs(rng, slots):
        spec = spec_json(n, triples)
        argvs = [("distance", "--spec", spec),
                 ("check", "--spec", spec, "--mode", "rc", "--method", "both"),
                 ("check", "--spec", spec, "--mode", "reversible",
                  "--method", "oracle")]
        if code.dim <= ENUMERATE_MAX_DIM:
            argvs.append(("enumerate", "--spec", spec, "--format", "dna"))
        ops += [_cli_op(a[0], a, n, code) for a in argvs]
    rng.shuffle(ops)
    return ops


def _structure_ops(rng, lengths):
    ops = []
    for n in lengths:
        divs = ref.divisors_of_xn1(n)
        specs = _structure_specs(rng, n, divs)
        for triples in specs:
            code = ref.Code(n, triples)
            spec = spec_json(n, triples)
            argvs = [("dual", "--spec", spec, "--flavor", "euclidean"),
                     ("dual", "--spec", spec, "--flavor", "hermitian"),
                     ("check", "--spec", spec, "--mode", "rc",
                      "--method", "theorem")]
            if n % 2 == 0:
                argvs.append(("canonical", "--spec", spec))
            ops += [_cli_op(a[0], a, n, code) for a in argvs]
        for _ in range(STRUCTURE_PAIRS_PER_LENGTH):
            a, b = rng.sample(specs, 2)
            for kind in ("sum", "intersect"):
                ops.append(Op(key=f"{kind} {spec_json(n, a)} {spec_json(n, b)}",
                              kind=kind, n=n, pair=(a, b),
                              code=ref.Code(n, a + b)))
    rng.shuffle(ops)
    return ops
