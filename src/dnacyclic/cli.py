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

Each command's options are declared once, in one table.  `main(argv)`
reads an argv of the plain form COMMAND (--flag value)* straight off
it, into the namespace argparse would give.  Every other argv goes to
the full argparse parser built from the same table: help, "--",
--flag=value, abbreviations, values starting with "-", and bad or
missing values, so it alone prints help and errors.  That parser is
built, and argparse imported, on first use only, then reused, as
parsing keeps no state in it; `main` may be called repeatedly in one
process.

A report prints as one two-space-indented, key-sorted, ASCII-escaped
JSON object, the bytes json.dumps(obj, indent=2, sort_keys=True)
writes; search prints one compact object per line.

Exit codes: 0 success, 1 check failed (property not satisfied),
2 input error, 3 cap exceeded.  A reader that closes stdout early (as
`| head` does) ends the command quietly with exit 0: nothing is
printed to stderr, and what is left unwritten is discarded.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

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


_ESCAPE = json.encoder.encode_basestring_ascii


def _dumps(obj, indent=""):
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for
    dicts with str keys, lists, tuples, str, int, float, bool and None.

    json.dumps takes the pure-Python encoder whenever it indents; this
    writes the same layout with the C string escape.  A key that is not
    a str, or any other type, raises TypeError.
    """
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)  # NaN and Infinity as json writes them
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        parts = [_dumps(v, inner) for v in obj]
        brackets = "[]"
    elif isinstance(obj, dict):
        parts = [_ESCAPE(k) + ": " + _dumps(v, inner)
                 for k, v in sorted(obj.items())]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")
    if not parts:
        return brackets
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(parts)
            + "\n" + indent + brackets[1])


def _emit(obj):
    """Print a report: one two-space-indented, key-sorted, ASCII-escaped
    JSON object."""
    print(_dumps(obj))


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
    # Each word is built at its first certified candidate and reused:
    # u^2 a2 across the search, g + u p1 + u^2 p2 across its triple's a2s.
    # Every layer has degree below n, so the words need no reduction.
    u2 = {}
    for g, p1, p2, a2s in _search_candidates(n):
        configs += len(a2s)
        if configs > budget:
            truncated = True
            a2s = a2s[:budget + len(a2s) - configs]
            configs = budget + 1
        word = None
        for a2 in a2s:
            verdict = (single(n, g, p1, p2) if a2 is None
                       else double(n, g, p1, p2, a2))
            if not verdict.satisfied:
                continue
            if word is None:
                word = RingWord(n, g, p1, p2)
            if a2 is None:
                gens = (word,)
            else:
                if a2 not in u2:
                    u2[a2] = RingWord(n, 0, 0, a2)
                gens = (word, u2[a2])
            c = CyclicCode.from_generators(n, gens)
            if c.lows in seen:  # n is fixed, so the lows decide equality
                continue
            try:
                c.check_cap(cap)
            except CapExceeded:
                truncated = True
                continue
            seen[c.lows] = {
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


_Option = namedtuple("_Option", "flag dest type choices default required help")


def _option(flag, type=str, choices=None, default=None, required=False,
            help=None):
    """One command option.  Its dest is the flag's name with "-" read as
    "_", as argparse derives it; str converts a value to itself."""
    return _Option(flag, flag[2:].replace("-", "_"), type, choices, default,
                   required, help)


def _command(func, help_line, *options):
    """(handler, help line, {flag: _Option}) of one command."""
    return func, help_line, {o.flag: o for o in options}


_SPEC = _option("--spec", required=True)
_CAP = _option("--cap", type=int)

# Each command's handler, help line and options, declared once: the full
# parser is built from this table, and main reads plain argv off it.
_COMMANDS = {
    "table2": _command(_cmd_table2, "emit the bundled reference DNA catalog"),
    "check": _command(
        _cmd_check, "certify reverse / reverse-complement closure",
        _option("--spec", required=True,
                help="JSON code spec (inline or file)"),
        _option("--mode", choices=("reversible", "rc"), default="rc"),
        _option("--method", choices=("theorem", "oracle", "both"),
                default="both"),
        _option("--cap", type=int, help="enumeration dimension cap "
                f"(default {DEFAULT_ENUM_CAP})")),
    "search": _command(
        _cmd_search, "catalog codes passing a closure constraint",
        _option("--n", type=int, required=True, help="even code length"),
        _option("--min-distance", type=int, default=0),
        _option("--require", choices=("rc", "reversible"), default="rc"),
        _CAP,
        _option("--max-configs", type=int, default=1_000_000,
                help="candidate budget before truncation")),
    "dual": _command(
        _cmd_dual, "dual code report", _SPEC,
        _option("--flavor", choices=dual.FLAVORS, default="euclidean")),
    "distance": _command(_cmd_distance, "minimum Hamming distance",
                         _SPEC, _CAP),
    "enumerate": _command(
        _cmd_enumerate, "list every codeword", _SPEC,
        _option("--format", choices=("tokens", "dna"), default="tokens"),
        _CAP),
    "canonical": _command(_cmd_canonical, "canonical presentation extraction",
                          _SPEC),
}


@functools.cache
def _build_parser():
    """The full argument parser, built from _COMMANDS on first use."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dnacyclic",
        description="Cyclic codes over the 8-element ring GF(2)[u]/(u^3) "
                    "with DNA codon mapping.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for o in options.values():
            p.add_argument(o.flag, dest=o.dest, type=o.type,
                           choices=o.choices, default=o.default,
                           required=o.required, help=o.help)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv):
    """The namespace the full parser gives argv, read off _COMMANDS, when
    argv is COMMAND (--flag value)*: each flag one of the command's own,
    spelt in full; each value not starting with "-", of its option's
    type and among its choices; every required option given, a repeated
    one taking its last value.  Any other argv gives None."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    func, _, options = _COMMANDS[argv[0]]
    values = {o.dest: o.default for o in options.values()}
    given = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or text.startswith("-"):
            return None
        try:
            value = option.type(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
        given.add(flag)
    if any(o.required and o.flag not in given for o in options.values()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # Plain argv is read off the option table; the full parser takes
    # every other argv and owns help, errors and their exit code 2.
    args = _read_argv(argv)
    if args is None:
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
