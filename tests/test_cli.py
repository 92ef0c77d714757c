import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dnacyclic
from dnacyclic import cli, constraints, polyf2, ring
from dnacyclic.code import CyclicCode, pack
from dnacyclic.cli import dna_to_word, main, reference_catalog, word_to_dna
from dnacyclic.polyr import RingWord, u2_all_ones
from cli_pins import EXAMPLE_SPEC, ODD_LONG_SPEC, ODD_SPEC, ZERO_SPEC, pins
from oracles import (G, P1, P2, candidate_code, reference_search,
                     search_candidates, verdict)


def run(argv):
    """(exit code, stdout, stderr) of one in-process main(argv); an
    argparse exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_env():
    """The environment of a fresh interpreter that imports this package
    from its source tree."""
    src = Path(dnacyclic.__file__).parents[1]
    return dict(os.environ, PYTHONPATH=str(src))


def test_word_dna_round_trip():
    w = RingWord.from_polys(8, G, P1, P2)
    s = word_to_dna(w)
    assert s == "ATGTTAGCTAGTATGC"
    assert dna_to_word(s) == w


def reference_dna(w):
    return "".join(ring.to_codon(e) for e in w.elements())


def reference_tokens(w):
    return ",".join(ring.token(e) for e in w.elements())


@st.composite
def codec_words(draw):
    n = draw(st.integers(1, 64))
    ones = (1 << n) - 1
    layer = st.one_of(st.just(0), st.just(ones), st.integers(0, ones))
    return RingWord(n, draw(layer), draw(layer), draw(layer))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(codec_words())
@example(RingWord(1, 1, 1, 1))
@example(RingWord(3))
@example(RingWord(7, 0b1111111, 0, 0b1111111))
@example(RingWord(7, 0b1, 0b10, 0b100))
@example(RingWord(64, (1 << 64) - 1, 1 << 63, 1))
def test_codec_matches_per_coordinate_reference(w):
    s = word_to_dna(w)
    assert s == reference_dna(w)
    assert dna_to_word(s) == w
    spread = cli._spread(w.n, pack(w))
    assert cli._render(w.n, [spread], "tokens") == reference_tokens(w)
    assert RingWord.from_tokens(reference_tokens(w)) == w


@st.composite
def enumerate_specs(draw):
    """(n, generator layer triples) of codes with dim up to 3n = 30."""
    n = draw(st.integers(1, 10))
    layer = st.one_of(st.just(0), st.integers(0, (1 << n) - 1))
    return n, draw(st.lists(st.tuples(layer, layer, layer), max_size=3))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(enumerate_specs())
@example((7, [(0b1011, 0b10110, 0)]))  # 4096 lines: four full writes
@example((1, [(1, 0, 0)]))
@example((5, []))
def test_enumerate_lines_match_words(case):
    """enumerate lists c.words() in order, or exits 3 above the cap."""
    n, triples = case
    gens = [dict(zip(("f2", "u", "u2"), map(polyf2.to_text, t)))
            for t in triples]
    spec = json.dumps({"n": n, "generators": gens})
    c = CyclicCode.from_generators(n, [RingWord(n, *t) for t in triples])
    for fmt, ref in (("dna", reference_dna), ("tokens", reference_tokens)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["enumerate", "--spec", spec, "--format", fmt,
                         "--cap", "13"])
        if c.dim > 13:
            assert (code, out.getvalue()) == (3, "")
        else:
            assert code == 0
            assert out.getvalue().splitlines() == [ref(w) for w in c.words()]


def test_dna_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        dna_to_word("ATG")  # odd length
    with pytest.raises(ValueError):
        dna_to_word("AAGC")  # unmapped codon
    with pytest.raises(ValueError):
        dna_to_word("")


def test_reference_catalog_contents():
    cat = reference_catalog()
    assert len(cat) == 28
    assert "ATGTTAGCTAGTATGC" in cat
    assert "CGGCCGGCCGGCCGGC" in cat
    assert "CGCGCGCGCGCGCGCG" in cat
    # round trip through the codec
    for s in cat:
        assert word_to_dna(dna_to_word(s)) == s


def test_cmd_table2():
    code, out, _ = run(["table2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 28
    assert sorted(payload["strings"]) == payload["strings"]
    assert set(payload["strings"]) == reference_catalog()


def test_cmd_check_example_both():
    code, out, _ = run(["check", "--spec", EXAMPLE_SPEC,
                        "--mode", "rc", "--method", "both"])
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert payload["agreement"] is True
    assert payload["theorem"]["case"] == "A"
    assert payload["oracle"]["satisfied"] is True


def test_cmd_check_odd_n_theorem():
    spec = json.dumps({"n": 5, "generators": [{"f2": "x+1"}]})
    code, out, _ = run(["check", "--spec", spec, "--mode",
                        "reversible", "--method", "theorem"])
    assert code == 1
    payload = json.loads(out)
    assert payload["theorem"]["hypothesis_ok"] is False
    assert payload["satisfied"] is False


def test_cmd_check_non_self_reciprocal_both():
    # (x^3+x+1)^2 (x+1)^2 divides x^14+1 but is not self-reciprocal; both
    # methods must come back negative.
    h = polyf2.mul(polyf2.from_text("x^3+x+1"), polyf2.from_text("x+1"))
    g = polyf2.mul(h, h)
    assert polyf2.divides(g, polyf2.xn1(14))
    assert not polyf2.is_self_reciprocal(g)
    spec = json.dumps({"n": 14, "generators": [{"f2": polyf2.to_text(g)}]})
    code, out, _ = run(["check", "--spec", spec, "--mode",
                        "reversible", "--method", "both"])
    assert code == 1
    payload = json.loads(out)
    assert payload["theorem"]["satisfied"] is False
    assert payload["oracle"]["satisfied"] is False
    assert payload["agreement"] is True


@pytest.mark.parametrize("mode", ["reversible", "rc"])
def test_cmd_check_search_family_witness(mode):
    # g = (x+1)^3 divides x^4+1, so <g + u> is a search candidate, but
    # it does not divide x^4 - 1 in R: its code is reversible and
    # rc-closed while no case of the criterion certifies it.
    spec = '{"n":4,"generators":[{"f2":"x^3+x^2+x+1","u":"1"}]}'
    code, out, _ = run(["check", "--spec", spec, "--mode", mode,
                        "--method", "both"])
    assert code == 1
    payload = json.loads(out)
    assert payload["oracle"]["satisfied"] is True
    assert payload["theorem"]["satisfied"] is False
    assert payload["agreement"] is False


def test_cmd_check_bad_spec():
    code, _, err = run(["check", "--spec", '{"n": 0}'])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("spec", [
    '{"n": true, "generators": []}',
    '{"n": 8, "generators": [{"f2": 5}]}',
    '{"n": 8, "generators": [{"f2": "1", "u2": null}]}',
    '{"n": 8, "generators": [{"f2": "x^1_0"}]}',
    '{"n": 8, "generators": [{"f2": "x^\\u0663"}]}',
])
def test_bad_spec_fields_are_input_errors(spec):
    code, out, err = run(["distance", "--spec", spec])
    assert code == 2
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize("text", ["[1]", '"spec"', "8"])
def test_spec_file_not_an_object(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(["distance", "--spec", str(path)])
    assert code == 2
    assert "input error" in err


def test_deeply_nested_spec_is_an_input_error(tmp_path):
    # Nesting past the JSON parser's recursion limit exits 2 with one
    # JSON line on stderr, in process and as a fresh interpreter.
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_text('{"n": 4, "x": ' + "[" * depth + "]" * depth + "}",
                    encoding="utf-8")
    argv = ["canonical", "--spec", str(path)]
    code, out, err = run(argv)
    fresh = subprocess_cli(argv)
    for code, out, err in ((code, out, err),
                           (fresh.returncode, fresh.stdout, fresh.stderr)):
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "input error"


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_spec_file_is_an_input_error(tmp_path, kind):
    # The reader's own error text is the detail of the one stderr line.
    if kind == "directory":
        path = tmp_path
        detail = f"[Errno 21] Is a directory: '{path}'"
    else:
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff{}")
        detail = ("'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte")
    code, out, err = run(["distance", "--spec", str(path)])
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "input error", "detail": detail}) + "\n"


# Non-ASCII digits: Arabic-Indic 3, fullwidth 3, superscript 3 and
# Devanagari 2.  int() takes all but the superscript; the polynomial
# parser takes none.
ODD_DIGITS = ["٣", "３", "³", "२"]


@st.composite
def hostile_polynomials(draw):
    """Polynomial text: duplicate terms, stray whitespace, non-ASCII
    digits, huge exponents and malformed terms."""
    term = st.one_of(
        st.sampled_from(["1", "x", "x^2", "x^3", "x^5", "x^7", "0"]),
        st.sampled_from(ODD_DIGITS).map(lambda d: "x^" + d),
        st.sampled_from([10 ** 5, 1 << 16, (1 << 16) + 1, 10 ** 30]).map(
            lambda e: f"x^{e}"),
        st.just("x^" + "9" * 5000),
        st.sampled_from(["", "x^", "x^-1", "x^1_0", "X^2", "x**2", "x^01",
                         "x ^ 2", "\tx", "x^2\n"]))
    terms = draw(st.lists(term, max_size=5))
    sep = draw(st.sampled_from(["+", " + ", "+ ", "\t+", "++"]))
    pad = st.sampled_from(["", " ", "  ", "\t", "\n"])
    return draw(pad) + sep.join(terms) + draw(pad)


def wrong_types(depth):
    """JSON values of the types no spec field takes, lists nested to
    the given depth included."""
    return st.one_of(st.none(), st.booleans(), st.integers(-2, 10 ** 6),
                     st.floats(allow_nan=False), st.text(max_size=4),
                     st.just([]), st.just({}),
                     st.just(json.loads("[" * depth + "]" * depth)))


def mostly(good, bad):
    """Draws from good three times in four, so that most specs get past
    the first field and hostile values reach every later stage."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


VALID_POLYNOMIALS = ["0", "1", "x", "x+1", "x^2+1", "x^3+x^2+x+1", "x^4+1",
                     "x^3+x+1", "x^5+x", "x^2"]


@st.composite
def hostile_specs(draw):
    """Spec text: wrong types for n, generators and the layer fields,
    hostile polynomial text, deep nesting and malformed JSON."""
    kind = draw(mostly(st.just("object"), st.sampled_from(
        ["nested", "not an object", "broken"])))
    if kind == "nested":
        depth = draw(st.sampled_from([10, 900, 1100, 5000, 200_000]))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
        field = draw(st.sampled_from(["x", "generators", "n"]))
        return (f'{{"n": 4, "{field}": ' + opener * depth + "1"
                + closer * depth + "}")
    if kind == "not an object":
        return draw(st.sampled_from(["[1]", '"spec"', "8", "null"]))
    if kind == "broken":
        return draw(st.sampled_from(['{"n": 4,', '{"n": 4}}', "{", "{n: 4}",
                                     '{"n": 4, "generators": [}']))
    layer = mostly(st.sampled_from(VALID_POLYNOMIALS),
                   st.one_of(hostile_polynomials(), wrong_types(3)))
    entry = mostly(st.dictionaries(st.sampled_from(["f2", "u", "u2", "f3"]),
                                   layer, max_size=4),
                   wrong_types(2))
    spec = {}
    if draw(st.integers(0, 9)):
        spec["n"] = draw(mostly(st.sampled_from([1, 2, 3, 4, 6, 8]),
                                st.one_of(st.integers(-2, 0),
                                          st.sampled_from([1025, 10 ** 30]),
                                          wrong_types(2))))
    if draw(st.integers(0, 9)):
        spec["generators"] = draw(mostly(st.lists(entry, max_size=3),
                                         wrong_types(2)))
    return draw(st.sampled_from(["", " ", "\n"])) + json.dumps(spec)


def flag(name, values):
    """Zero or one occurrence of an argv option, in either spelling."""
    return st.one_of(st.just([]), st.tuples(values, st.booleans()).map(
        lambda t: [f"{name}={t[0]}"] if t[1] else [name, str(t[0])]))


@st.composite
def hostile_argv(draw):
    """argv that argparse accepts, for each of the seven commands, with
    drawn options in drawn order."""
    command = draw(st.sampled_from(["table2", "check", "search", "dual",
                                    "distance", "enumerate", "canonical"]))
    cap = st.integers(-3, 16)
    options = {
        "table2": [],
        "check": [flag("--mode", st.sampled_from(["rc", "reversible"])),
                  flag("--method", st.sampled_from(["theorem", "oracle",
                                                    "both"])),
                  flag("--cap", cap)],
        "search": [flag("--min-distance", st.integers(-2, 8)),
                   flag("--require", st.sampled_from(["rc", "reversible"])),
                   flag("--cap", cap)],
        "dual": [flag("--flavor", st.sampled_from(["euclidean",
                                                   "hermitian"]))],
        "distance": [flag("--cap", cap)],
        "enumerate": [flag("--format", st.sampled_from(["tokens", "dna"]))],
        "canonical": [],
    }[command]
    parts = [draw(o) for o in options]
    if command == "search":
        # A bounded budget; n past the divisor cap exits 3 at once.
        n = mostly(st.sampled_from([2, 4, 6, 8, 10, 12]), st.sampled_from(
            [-2, 0, 3, 31, 33, 10 ** 6, *ODD_DIGITS[:2]]))
        parts += [["--n", str(draw(n))],
                  ["--max-configs", str(draw(st.integers(-5, 300)))]]
    elif command == "enumerate":
        # Always capped: the default cap lists up to 2^24 lines.
        parts.append(["--cap", str(draw(st.integers(-1, 10)))])
    if command not in ("table2", "search"):
        parts.append(["--spec", draw(hostile_specs())])
    parts = draw(st.permutations(parts))
    return [command] + [arg for part in parts for arg in part]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(hostile_argv())
@example(["canonical", "--spec", '{"n": 4, "x": ' + "[" * 200_000
          + "]" * 200_000 + "}"])
@example(["check", "--spec", '{"n": 4, "generators": [{"f2": "x^٣"}]}'])
@example(["search", "--n", "３"])
def test_hostile_input_exits_cleanly(argv):
    """Every command, on hostile specs and options, exits 0 to 3 with
    stderr empty or one JSON error line, and raises nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    text = err.getvalue()
    if text:
        [line] = text.splitlines()
        assert "error" in json.loads(line)
    assert "Traceback" not in out.getvalue() + text


def test_cmd_check_cap():
    spec = json.dumps({"n": 8, "generators": [{"f2": "1"}]})
    code, _, err = run(["check", "--spec", spec, "--method",
                        "oracle", "--cap", "5"])
    assert code == 3
    assert "cap exceeded" in err


@pytest.mark.parametrize("command", ["dual", "canonical", "check",
                                     "distance", "enumerate"])
def test_spec_length_bound(command):
    # The zero code stays under every dimension cap, so only the length
    # bound can reject it.
    assert cli.MAX_LENGTH == 1024
    spec = json.dumps({"n": 1025, "generators": []})
    code, out, err = run([command, "--spec", spec])
    assert code == 3
    assert out == ""
    assert "cap exceeded" in err


def test_spec_degree_bound():
    # x^3000000 would be built as a 3-million-bit int; the parser
    # refuses the term before that.
    spec = json.dumps({"n": 8, "generators": [{"f2": "x^3000000"}]})
    start = time.perf_counter()
    code, out, err = run(["canonical", "--spec", spec])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_many_generators_at_the_degree_bound():
    # Each layer is reduced modulo x^n + 1 by folding, so terms at the
    # degree bound cost microseconds, not one step per degree.
    gen = {"f2": "x^65536", "u": "x^65535", "u2": "x^65534"}
    one = json.dumps({"n": 8, "generators": [gen]})
    many = json.dumps({"n": 8, "generators": [gen] * 200})
    code, expected, _ = run(["canonical", "--spec", one])
    assert code == 0
    start = time.perf_counter()
    code, out, _ = run(["canonical", "--spec", many])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == expected


def test_cmd_distance_example():
    code, out, _ = run(["distance", "--spec", EXAMPLE_SPEC])
    assert code == 0
    assert json.loads(out)["min_distance"] == 4


def test_cmd_distance_zero_code():
    code, out, _ = run(["distance", "--spec", ZERO_SPEC])
    assert code == 0
    assert json.loads(out)["min_distance"] is None


def test_cmd_enumerate_zero_code_dna():
    code, out, _ = run(["enumerate", "--spec", ZERO_SPEC,
                        "--format", "dna"])
    assert code == 0
    assert out.splitlines() == ["GCGCGCGC"]


def test_cmd_enumerate_tokens():
    spec = json.dumps({"n": 2, "generators": [{"u2": "x+1"}]})
    code, out, _ = run(["enumerate", "--spec", spec])
    assert code == 0
    assert sorted(out.splitlines()) == ["0,0", "u2,u2"]


def test_cmd_enumerate_dna_round_trip():
    code, out, _ = run(["enumerate", "--spec", EXAMPLE_SPEC,
                        "--format", "dna"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 64
    for s in lines:
        assert word_to_dna(dna_to_word(s)) == s


def test_cmd_canonical_example():
    code, out, _ = run(["canonical", "--spec", EXAMPLE_SPEC])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == 1
    assert payload["g"] == "x^6+x^4+x^2+1"
    assert payload["p1"] == "x^5+x"
    assert payload["p2"] == "x^4+x^2"


def test_cmd_dual_example():
    code, out, _ = run(["dual", "--spec", EXAMPLE_SPEC,
                        "--flavor", "euclidean"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] * 64 == 8 ** 8
    assert payload["flavor"] == "euclidean"


def test_cmd_dual_hermitian():
    code, out, _ = run(["dual", "--spec", EXAMPLE_SPEC,
                        "--flavor", "hermitian"])
    assert code == 0
    json.loads(out)


def test_cmd_search_n2_exhaustive():
    code, out, _ = run(["search", "--n", "2", "--require", "rc"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary["truncated"] is False
    hits = lines[:-1]
    assert hits
    from dnacyclic.code import CyclicCode
    for h in hits:
        gens = [RingWord.from_polys(2, polyf2.from_text(h["g"]),
                                    polyf2.from_text(h["p1"]),
                                    polyf2.from_text(h["p2"]))]
        if h["a2"] is not None:
            gens.append(RingWord.from_polys(2, 0, 0, polyf2.from_text(h["a2"])))
        c = CyclicCode.from_generators(2, gens)
        assert c.is_rc_closed()
        assert c.contains(u2_all_ones(2))
        assert c.min_hamming_distance() == h["min_distance"]


def test_cmd_search_min_distance_filter():
    code, out, _ = run(["search", "--n", "4", "--require",
                        "reversible", "--min-distance", "2"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    hits = lines[:-1]
    assert all(h["min_distance"] >= 2 for h in hits)
    dists = [h["min_distance"] for h in hits]
    assert dists == sorted(dists, reverse=True)


def test_cmd_search_rediscovers_example():
    code, out, _ = run(["search", "--n", "8", "--require", "rc"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    hits = lines[:-1]
    match = [h for h in hits if h["g"] == "x^6+x^4+x^2+1"
             and h["p1"] == "x^5+x" and h["p2"] == "x^4+x^2"
             and h["a2"] is None]
    assert match
    assert match[0]["min_distance"] == 4
    assert match[0]["cardinality"] == 64


@pytest.mark.parametrize("argv, sha1, exit_code", [
    (argv, sha1, exit_code) for argv, exit_code, sha1 in pins("search")])
def test_search_stdout_is_pinned(argv, sha1, exit_code):
    code, out, _ = run(argv)
    assert code == exit_code
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("argv, sha1, exit_code", [
    (argv, sha1, exit_code) for argv, exit_code, sha1 in pins("enumerate")])
def test_enumerate_stdout_is_pinned(argv, sha1, exit_code):
    code, out, _ = run(argv)
    assert code == exit_code
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("spec, flavor, sha1", [
    pytest.param(spec, flavor, sha1, id=f"{flavor}-{sha1}")
    for (_, _, spec, _, flavor), _, sha1 in pins("dual")])
def test_dual_stdout_is_pinned_at_the_length_bound(spec, flavor, sha1):
    code, out, _ = run(["dual", "--spec", spec, "--flavor", flavor])
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("flavor, sha1", [
    (flavor, sha1) for (_, _, _, _, flavor), _, sha1 in pins("dual_odd")])
def test_dual_stdout_is_pinned_at_odd_length(flavor, sha1):
    code, out, _ = run(["dual", "--spec", ODD_LONG_SPEC, "--flavor", flavor])
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("argv, sha1, exit_code", [
    pytest.param(argv, sha1, exit_code, id=f"{argv[0]}-{sha1[:10]}")
    for argv, exit_code, sha1 in pins("report")])
def test_report_stdout_is_pinned(argv, sha1, exit_code):
    code, out, _ = run(argv)
    assert code == exit_code
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


# Text with non-ASCII characters, quotes, backslashes, control
# characters and a lone surrogate, all of which the writer escapes.
REPORT_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800é😀')),
    max_size=6)

REPORT_LEAVES = st.one_of(
    REPORT_TEXT, st.booleans(), st.none(), st.integers(),
    st.sampled_from([0, -1, 2 ** 64, -(2 ** 64) - 1, 10 ** 40]),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
    st.sampled_from([[], (), {}]))

# Types json.dumps rejects.
UNSERIALIZABLE = st.sampled_from([b"", bytearray(b"x"), set(), frozenset(),
                                  1j, object()])


def report_trees(leaves):
    """Dicts with str keys, lists and tuples nested over the leaves,
    empty ones at every depth."""
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(REPORT_TEXT, kids, max_size=4)), max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(report_trees(REPORT_LEAVES))
def test_report_writer_matches_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(report_trees(st.one_of(REPORT_LEAVES, UNSERIALIZABLE)))
def test_report_writer_raises_where_json_dumps_does(obj):
    try:
        expected = json.dumps(obj, indent=2, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            cli._dumps(obj)
    else:
        assert cli._dumps(obj) == expected


# json.dumps writes these keys as strings; the writer takes str keys
# only and raises rather than print something else.
@pytest.mark.parametrize("obj", [{1: "a"}, {None: 1}, {True: 0},
                                 {"a": {2.5: []}}, {"a": 1, 2: 3}])
def test_report_writer_rejects_keys_that_are_not_str(capsys, obj):
    with pytest.raises(TypeError):
        cli._emit(obj)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec, sha1", [
    (spec, sha1) for (_, _, spec), _, sha1 in pins("socles")])
def test_distance_stdout_is_pinned_for_large_socles(spec, sha1):
    code, out, _ = run(["distance", "--spec", spec])
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_distance_keeps_the_cap_and_the_zero_code():
    # The cap still applies to the whole code's dimension, 24 here.
    spec = '{"n":32,"generators":[{"u2":"x^8+1"}]}'
    code, out, err = run(["distance", "--spec", spec, "--cap", "23"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "cap exceeded"
    code, out, _ = run(["distance", "--spec", ZERO_SPEC])
    assert code == 0
    assert '"min_distance": null' in out


def test_search_calls_the_module_checkers(monkeypatch):
    """search calls the constraints checkers as they stand when it runs.

    Wrappers put on the module attributes after import must see one
    checker call per candidate and one build per certified candidate.
    """
    checks = []
    codes = []

    def counted(fn, log):
        def wrapper(*args):
            result = fn(*args)
            log.append(result)
            return result
        return wrapper

    for name in ("check_rc_single", "check_rc_double"):
        monkeypatch.setattr(constraints, name,
                            counted(getattr(constraints, name), checks))
    build = CyclicCode.from_generators.__func__
    monkeypatch.setattr(CyclicCode, "from_generators",
                        classmethod(counted(build, codes)))
    code, out, _ = run(["search", "--n", "6", "--require", "rc"])
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert len(checks) == summary["configs"] == 8792
    assert sum(v.satisfied for v in checks) == len(codes) == 1329
    assert len({c.rows for c in codes}) == summary["hits"] == 89


@pytest.mark.parametrize("require", ["rc", "reversible"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_search_matches_certificate_loop(n, require):
    """search gives the hits of a plain loop over the public checkers."""
    candidates = 0
    first = {}
    for g, p1, p2, a2 in search_candidates(n):
        candidates += 1
        v = verdict(require, n, g, p1, p2, a2)
        if not v.satisfied:
            continue
        c = candidate_code(n, g, p1, p2, a2)
        if c.rows in first:
            continue
        first[c.rows] = {
            "n": n, "g": polyf2.to_text(g),
            "p1": polyf2.to_text(p1), "p2": polyf2.to_text(p2),
            "a2": None if a2 is None else polyf2.to_text(a2),
            "case": v.case, "dim": c.dim,
            "cardinality": c.cardinality,
            "min_distance": c.min_hamming_distance()}
    code, out, _ = run(["search", "--n", str(n), "--require", require])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary, hits = lines[-1], lines[:-1]
    assert (sorted(json.dumps(h, sort_keys=True) for h in hits)
            == sorted(json.dumps(h, sort_keys=True) for h in first.values()))
    assert len(hits) == len(first) == summary["hits"]
    assert summary["configs"] == candidates
    assert summary["truncated"] is False


@st.composite
def search_windows(draw):
    """(n, require, --max-configs, --cap or None, --min-distance).

    Small budgets come up often: the first-seen candidates of distinct
    codes crowd the start of the walk, where stopping one candidate
    early or late changes the output most often.
    """
    n = draw(st.sampled_from([2, 4, 6]))
    total = sum(1 for _ in search_candidates(n))
    budget = draw(st.one_of(st.integers(0, min(total + 1, 60)),
                            st.integers(0, total + 1)))
    return (n, draw(st.sampled_from(["rc", "reversible"])), budget,
            draw(st.one_of(st.none(), st.integers(4, 12))),
            draw(st.integers(0, 4)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(search_windows())
@example((6, "rc", 8792, None, 0))
@example((6, "reversible", 8791, 8, 2))
@example((4, "rc", 313, None, 0))
def test_search_truncation_windows_match_reference(case):
    """search prints the bytes of a loop of one candidate at a time, for
    every --max-configs window, with or without a --cap."""
    n, require, budget, cap, min_distance = case
    argv = ["search", "--n", str(n), "--require", require,
            "--max-configs", str(budget), "--min-distance", str(min_distance)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert (out.getvalue(), code) == reference_search(n, require, budget, cap,
                                                      min_distance)


def test_cmd_search_truncation_flag():
    code, out, _ = run(["search", "--n", "4", "--max-configs", "3"])
    assert code == 3
    summary = json.loads(out.splitlines()[-1])
    assert summary["truncated"] is True


def test_spec_file_input(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(EXAMPLE_SPEC, encoding="utf-8")
    code, out, _ = run(["distance", "--spec", str(path)])
    assert code == 0
    assert json.loads(out)["min_distance"] == 4


def test_missing_spec_file():
    code, _, err = run(["distance", "--spec", "/nonexistent.json"])
    assert code == 2
    assert "input error" in err


def subprocess_cli(argv):
    return subprocess.run([sys.executable, "-m", "dnacyclic.cli", *argv],
                          capture_output=True, text=True, env=fresh_env())


def test_main_reuse_in_process(monkeypatch):
    # One process, one parser: options given to one call must not leak
    # into the defaults of the next, and an argparse failure must leave
    # the parser usable.  The calls alternate between the two parse
    # paths: plain argv read off the option table, and the full parser
    # for a missing option, an unknown command or arguments left over.
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap alike
    calls = [
        ["search", "--n", "4", "--cap", "5", "--min-distance", "2"],
        ["distance", "--spec", EXAMPLE_SPEC],
        ["check", "--mode", "rc"],
        ["check", "--spec", EXAMPLE_SPEC, "stray"],
        ["nosuch"],
        ["check", "--spec", EXAMPLE_SPEC, "--method", "oracle"],
        ["search", "--n", "4"],
        ["enumerate", "--spec", ZERO_SPEC, "--format", "dna"],
    ]
    for argv in calls:
        code, out, err = run(argv)
        fresh = subprocess_cli(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
    assert cli._build_parser() is cli._build_parser()


COMMANDS = ("table2", "check", "search", "dual", "distance", "enumerate",
            "canonical")

# Single argv words: every command's options, whole, abbreviated and with
# =value, values good and bad, help, the end of options and strays.  The
# empty word, " -x", "-2", "-x y" and the full-width digit "３" sit at
# the edges of what the option-table reader accepts as a value.  No
# search length above 4 can be drawn, so every drawn call is quick.
ARGV_WORDS = (
    "--spec", "--sp", f"--spec={ZERO_SPEC}", "--mode", "--me", "--method",
    "--cap", "--cap=-1", "--n", "--n=4", "--n=3", "--min-distance",
    "--require", "--max-c", "--flavor", "--format", EXAMPLE_SPEC, ZERO_SPEC,
    "{bad", "rc", "reversible", "theorem", "oracle", "nope", "hermitian",
    "dna", "2", "4", "-1", "x", "-h", "--help", "--he", "--", "-x", "stray",
    "", " -x", "-2", "-x y", "３",
)

# Option and value pairs, so that many drawn argv parse, and one option
# given twice, where the last value counts.
ARGV_PAIRS = (
    ("--spec", EXAMPLE_SPEC), ("--spec", ZERO_SPEC), ("--mode", "reversible"),
    ("--method", "theorem"), ("--method", "oracle"), ("--cap", "3"),
    ("--n", "4"), ("--n", "2"), ("--min-distance", "2"),
    ("--require", "reversible"), ("--max-configs", "40"),
    ("--flavor", "hermitian"), ("--format", "dna"),
    ("--cap", "5", "--cap", "2"),
)


@st.composite
def word_argv(draw):
    """argv, mostly ones argparse rejects: a command, an unknown one or a
    top-level flag, then drawn words and option pairs."""
    head = draw(st.sampled_from(
        COMMANDS * 2 + ("nosuch", "Check", "-h", "--", "--he")))
    chunks = draw(st.lists(st.one_of(
        st.sampled_from(ARGV_PAIRS).map(list),
        st.sampled_from(ARGV_WORDS).map(lambda w: [w])), max_size=5))
    return [head] + [word for chunk in chunks for word in chunk]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(hostile_argv(), word_argv()))
@example([])
@example(["-h"])
@example(["--help"])
@example(["check", "-h"])
@example(["search", "--help"])
@example(["search", "--n=4"])
@example(["search", "--n", "4", "--max-c", "5"])
@example(["search", "--n", "4", "--n", "2", "--max-configs", "9"])
@example(["check", "--spec", EXAMPLE_SPEC, "--mode", "rc", "--mode",
          "reversible"])
@example(["--", "check", "--spec", EXAMPLE_SPEC])
@example(["check", "--", "--spec", EXAMPLE_SPEC])
@example(["check", "--spec", EXAMPLE_SPEC, "--"])
@example(["enumerate", "--spec", ZERO_SPEC, "--format", "dna", "--", "x"])
@example(["check", "--spec", EXAMPLE_SPEC, "stray"])
@example(["table2", "stray"])
@example(["check", "--spec", EXAMPLE_SPEC, "--method", "nope"])
@example(["dual", "--spec", EXAMPLE_SPEC, "--flavor", "nope"])
@example(["check"])
@example(["check", f"--spec={EXAMPLE_SPEC}"])
@example(["check", "--sp", EXAMPLE_SPEC])
@example(["nosuch"])
@example(["distance", "--spec", "-x"])
@example(["search", "--n", "-2"])
def test_direct_dispatch_matches_full_parser(argv):
    # main reads plain argv straight off the option table; with that
    # reader switched off every call takes the full parser instead.
    # Both must print the same bytes and exit alike, and an argv the
    # reader takes must give the namespace argparse gives.
    assert tuple(cli._COMMANDS) == COMMANDS
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == vars(cli._build_parser().parse_args(argv))
    with_reader = run(argv)
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        full = run(argv)
    assert with_reader == full


def test_cli_import_leaves_numpy_unloaded():
    probe = "import sys, dnacyclic.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True, env=fresh_env())
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("argv, lines_read", [
    # 32,768 lines outgrow the pipe buffer, so the writer is blocked when
    # the reader leaves after one line.
    (["enumerate", "--spec", ODD_SPEC, "--format", "dna"], 1),
    # A short report is still buffered when the reader leaves; it fails
    # at the flush, not at the write.
    (["dual", "--spec", EXAMPLE_SPEC], 0),
])
def test_closed_stdout_pipe_exits_quietly(argv, lines_read):
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)  # a pipe's stdout is block-buffered
    proc = subprocess.Popen([sys.executable, "-m", "dnacyclic.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
