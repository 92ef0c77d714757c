"""Command-line interface.

Subcommands: table2, check, search, dual, distance, enumerate, canonical.
Code specs are JSON, inline or in a file:

    {"n": 8, "generators": [{"f2": "x^6+x^4+x^2+1", "u": "x^5+x", "u2": "x^4+x^2"}]}

where "f2" is the unit layer and "u"/"u2" the u- and u^2-layers of one
generator word.  DNA output encodes each ring coordinate as one
dinucleotide, so reversal acts on codon blocks, never on raw
nucleotides.  The codon mapping itself is defined only in `ring`; the
one codec here writes a word as one hex digit per coordinate, its ring
element, and translates the digits by tables built from `ring.to_codon`
and `ring.token`.

`main(argv)` may be called repeatedly in one process: the argument
parser is built on the first call and reused, as parsing keeps no state
in it.

Exit codes: 0 success, 1 check failed (property not satisfied),
2 input error, 3 cap exceeded.  A reader that closes stdout early (as
`| head` does) ends the command quietly with exit 0: nothing is
printed to stderr, and what is left unwritten is discarded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import constraints, dual, polyf2, polyr, ring
from .code import CyclicCode, DEFAULT_ENUM_CAP, gray_walk, pack
from .polyf2 import CapExceeded
from .polyr import RingWord

# The bundled length-8 reference code: a single-generator cyclic DNA code
# whose generator layers are (x+1)^6, x^5+x, x^4+x^2.
_REF_N = 8
_REF_G = polyf2.from_text("x^6+x^4+x^2+1")
_REF_P1 = polyf2.from_text("x^5+x")
_REF_P2 = polyf2.from_text("x^4+x^2")

# Longest code length a spec may declare: dual, canonical and the
# theorem checks have no dimension cap, and their bit algebra grows with n.
MAX_LENGTH = 1024


# Digit e of a word's coordinate-major form to its codon or its token.
_DNA = str.maketrans({str(e): ring.to_codon(e) for e in ring.ELEMENTS})
_TOKENS = str.maketrans({str(e): ring.token(e) for e in ring.ELEMENTS})

_BATCH = 1024  # the most lines one write of `enumerate` carries


def _spread(n, v):
    """Packed 3n-bit word (code.pack) to one hex digit per coordinate, 0
    first: digit i is f1_i | f2_i << 1 | f3_i << 2, a GF(2)-linear map."""
    mask = (1 << n) - 1
    spec = f"0{n}b"
    return (int(format(v >> 2 * n, spec)[::-1], 16)
            | int(format(v >> n & mask, spec)[::-1], 16) << 1
            | int(format(v & mask, spec)[::-1], 16) << 2)


def _render(n, words, fmt):
    """Newline-joined lines of spread words (see _spread) in --format fmt."""
    spec = f"0{n}x"
    hexes = [format(v, spec) for v in words]
    if fmt == "dna":
        return "\n".join(hexes).translate(_DNA)
    return "\n".join(map(",".join, hexes)).translate(_TOKENS)


def word_to_dna(word):
    """DNA string of a word: one codon per coordinate, index 0 first."""
    return _render(word.n, (_spread(word.n, pack(word)),), "dna")


def dna_to_word(text):
    """Inverse of word_to_dna; rejects odd lengths and unmapped codons."""
    s = text.strip()
    if len(s) % 2:
        raise ValueError("DNA string must have even length (whole codons)")
    if not s:
        raise ValueError("empty DNA string")
    return RingWord.from_elements(
        ring.from_codon(s[i:i + 2]) for i in range(0, len(s), 2))


def reference_catalog():
    """The catalog of DNA strings for the bundled reference code.

    Contains every ring-constant multiple of the generator, every cyclic
    shift of those words, and the reverse-complement of the zero word
    (the all-u2 word), deduplicated.
    """
    gen = RingWord.from_polys(_REF_N, _REF_G, _REF_P1, _REF_P2)
    words = set()
    for alpha in ring.ELEMENTS:
        scaled = gen.scale(alpha)
        for i in range(_REF_N):
            words.add(scaled.shift(i))
    words.add(polyr.u2_all_ones(_REF_N))
    return {word_to_dna(w) for w in words}


def _load_spec(text):
    raw = text.strip()
    if not raw.startswith("{"):
        with open(raw, encoding="utf-8") as f:
            raw = f.read()
    try:
        spec = json.loads(raw)
    except RecursionError:
        raise ValueError("spec JSON is nested too deeply") from None
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    n = spec.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("spec field 'n' must be a positive integer")
    if n > MAX_LENGTH:
        raise CapExceeded(f"length n = {n} exceeds the bound {MAX_LENGTH}")
    gens = spec.get("generators", [])
    if not isinstance(gens, list):
        raise ValueError("spec field 'generators' must be a list")
    words = []
    triples = []
    for entry in gens:
        if not isinstance(entry, dict):
            raise ValueError("each generator must be an object with "
                             "'f2', 'u', 'u2' polynomial strings")
        layers = [entry.get(key, "0") for key in ("f2", "u", "u2")]
        if not all(isinstance(t, str) for t in layers):
            raise ValueError("generator fields 'f2', 'u', 'u2' must be "
                             "polynomial strings")
        f1, f2, f3 = (polyf2.from_text(t) for t in layers)
        triples.append((f1, f2, f3))
        words.append(RingWord.from_polys(n, f1, f2, f3))
    return n, words, triples


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_table2(args):
    strings = sorted(reference_catalog())
    _emit({"count": len(strings), "strings": strings})
    return 0


def _checkers(mode):
    """The public (single, double) checker pair for a --mode/--require value.

    Read off the constraints module at each call, never bound at import,
    so that a wrapper put on those module attributes after import sees
    every checker call.
    """
    if mode == "reversible":
        return (constraints.check_reversible_single,
                constraints.check_reversible_double)
    return constraints.check_rc_single, constraints.check_rc_double


def _theorem_verdict(n, triples, mode):
    """Run the matching checker for a 1- or 2-generator structural spec."""
    single, double = _checkers(mode)
    if len(triples) == 1:
        return single(n, *triples[0])
    if len(triples) == 2 and triples[1][0] == 0 and triples[1][1] == 0:
        return double(n, *triples[0], triples[1][2])
    raise ValueError("theorem checkers need one generator (g, p1, p2) or "
                     "two with the second of the form u^2*a2")


def _cmd_check(args):
    n, words, triples = _load_spec(args.spec)
    report = {"mode": args.mode, "method": args.method,
              "theorem": None, "oracle": None, "agreement": None}
    theorem_ok = oracle_ok = None
    if args.method in ("theorem", "both"):
        try:
            verdict = _theorem_verdict(n, triples, args.mode)
            report["theorem"] = verdict.to_json()
            theorem_ok = verdict.satisfied if verdict.hypothesis_ok else None
        except ValueError as exc:
            report["theorem"] = {"satisfied": False, "case": "NONE",
                                 "hypothesis_ok": False, "notes": str(exc)}
    if args.method in ("oracle", "both"):
        c = CyclicCode.from_generators(n, words)
        oracle_ok = (c.is_reversible(args.cap) if args.mode == "reversible"
                     else c.is_rc_closed(args.cap))
        report["oracle"] = {"satisfied": oracle_ok}
    if args.method == "both":
        report["agreement"] = (None if theorem_ok is None
                               else theorem_ok == oracle_ok)
    satisfied = oracle_ok if oracle_ok is not None else bool(theorem_ok)
    report["satisfied"] = satisfied
    _emit(report)
    if args.method == "both" and report["agreement"] is False:
        return 1
    return 0 if satisfied else 1


def _search_candidates(n):
    """Yield (g, p1, p2, a2s) for each structural (g, p1, p2) of even length n.

    Plain packed polynomials, each of degree below n: g runs over the
    divisors of x^n + 1 of degree 1 to n - 1, and p1, p2 over every
    polynomial of degree below deg g.  a2s lists the candidates of one
    (g, p1, p2) in order: None for the one-generator candidate
    <g + u p1 + u^2 p2>, then each proper divisor a2 of g for the
    two-generator candidate <g + u p1 + u^2 p2, u^2 a2>.  It is one
    tuple per g, built once.
    """
    divisors = polyf2.divisors_of_xn1(n)
    for g in divisors:
        r = polyf2.degree(g)
        if not 1 <= r <= n - 1:
            continue
        a2s = (None, *(d for d in divisors if d != g and polyf2.divides(d, g)))
        for p1 in range(1 << r):
            for p2 in range(1 << r):
                yield g, p1, p2, a2s


def _cmd_search(args):
    n = args.n
    if n < 2 or n % 2:
        raise ValueError("search requires an even length n >= 2")
    cap = args.cap
    truncated = False
    # --max-configs bounds the candidates checked; a negative budget
    # checks none.  Each (g, p1, p2) is counted whole, the one the budget
    # ends in is cut to the candidates inside it, and configs then reads
    # budget + 1: the number of the first candidate past the budget.
    budget = max(args.max_configs, 0)
    configs = 0
    seen = {}
    single, double = _checkers(args.require)
    for g, p1, p2, a2s in _search_candidates(n):
        configs += len(a2s)
        if configs > budget:
            truncated = True
            a2s = a2s[:budget + len(a2s) - configs]
            configs = budget + 1
        for a2 in a2s:
            verdict = (single(n, g, p1, p2) if a2 is None
                       else double(n, g, p1, p2, a2))
            if not verdict.satisfied:
                continue
            # Every layer has degree below n, so the words need no reduction.
            gens = [RingWord(n, g, p1, p2)]
            if a2 is not None:
                gens.append(RingWord(n, 0, 0, a2))
            c = CyclicCode.from_generators(n, gens)
            if c in seen:
                continue
            if c.dim > (DEFAULT_ENUM_CAP if cap is None else cap):
                truncated = True
                continue
            seen[c] = {
                "n": n,
                "g": polyf2.to_text(g),
                "p1": polyf2.to_text(p1),
                "p2": polyf2.to_text(p2),
                "a2": None if a2 is None else polyf2.to_text(a2),
                "case": verdict.case,
                "dim": c.dim,
                "cardinality": c.cardinality,
                "min_distance": c.min_hamming_distance(cap),
            }
        if configs > budget:
            break
    hits = [h for h in seen.values() if h["min_distance"] >= args.min_distance]
    hits.sort(key=lambda h: (-h["min_distance"], -h["cardinality"],
                             h["g"], h["p1"], h["p2"], h["a2"] or ""))
    for h in hits:
        print(json.dumps(h, sort_keys=True))
    print(json.dumps({"summary": True, "hits": len(hits),
                      "configs": configs, "truncated": truncated},
                     sort_keys=True))
    return 3 if truncated else 0


def _cmd_dual(args):
    n, words, _ = _load_spec(args.spec)
    c = CyclicCode.from_generators(n, words)
    d = dual.dual_code(c, args.flavor)
    report = {"flavor": args.flavor, "n": n, "dim": d.dim,
              "cardinality": d.cardinality,
              "divisibility_claims": None, "notes": []}
    if n % 2 == 0:
        pres = c.canonical_presentation()
        pres_hat = d.canonical_presentation()
        result = dual.verify_dual_divisibility(pres, pres_hat, n)
        report["divisibility_claims"] = result["claims"]
        report["notes"] = result["violations"] + result["notes"]
    else:
        report["notes"] = ["odd length: presentation claims not evaluated"]
    _emit(report)
    return 0


def _cmd_distance(args):
    n, words, _ = _load_spec(args.spec)
    c = CyclicCode.from_generators(n, words)
    d = c.min_hamming_distance(args.cap)
    _emit({"n": n, "min_distance": None if d == float("inf") else d})
    return 0


def _cmd_enumerate(args):
    n, words, _ = _load_spec(args.spec)
    c = CyclicCode.from_generators(n, words)
    c.check_cap(args.cap)
    # _spread is linear, so the walk over the spread rows yields the
    # spread of each word of c.packed_words(), in the same order.
    walk = gray_walk([_spread(n, r) for r in c.rows])
    out = sys.stdout
    while batch := [v for _, v in zip(range(_BATCH), walk)]:
        out.write(_render(n, batch, args.format) + "\n")
    return 0


def _cmd_canonical(args):
    n, words, _ = _load_spec(args.spec)
    c = CyclicCode.from_generators(n, words)
    _emit(c.canonical_presentation().to_json())
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dnacyclic",
        description="Cyclic codes over the 8-element ring GF(2)[u]/(u^3) "
                    "with DNA codon mapping.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="emit the bundled reference DNA catalog")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("check", help="certify reverse / reverse-complement closure")
    p.add_argument("--spec", required=True, help="JSON code spec (inline or file)")
    p.add_argument("--mode", choices=("reversible", "rc"), default="rc")
    p.add_argument("--method", choices=("theorem", "oracle", "both"),
                   default="both")
    p.add_argument("--cap", type=int, default=None,
                   help=f"enumeration dimension cap (default {DEFAULT_ENUM_CAP})")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="catalog codes passing a closure constraint")
    p.add_argument("--n", type=int, required=True, help="even code length")
    p.add_argument("--min-distance", type=int, default=0)
    p.add_argument("--require", choices=("rc", "reversible"), default="rc")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--max-configs", type=int, default=1_000_000,
                   help="candidate budget before truncation")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("dual", help="dual code report")
    p.add_argument("--spec", required=True)
    p.add_argument("--flavor", choices=dual.FLAVORS, default="euclidean")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("distance", help="minimum Hamming distance")
    p.add_argument("--spec", required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("enumerate", help="list every codeword")
    p.add_argument("--spec", required=True)
    p.add_argument("--format", choices=("tokens", "dna"), default="tokens")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("canonical", help="canonical presentation extraction")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_canonical)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Output still buffered would raise again at the interpreter's
        # final flush, so stdout's descriptor now points at the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except CapExceeded as exc:
        print(json.dumps({"error": "cap exceeded", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "input error", "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
