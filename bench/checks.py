"""Correctness gate: digests for recorded inputs, invariants for all.

Every op's outcome is checked against ``ref`` (the benchmark's own GF(2)
algebra), never against the package:

* search: each hit is a distinct code with the stated dimension that
  really is reversible / rc-closed; the summary counts the hits.
* analyze: oracle verdicts equal the linear closure test, a certificate
  is never a false positive, ``--method both`` reports agreement
  faithfully, the distance is at most the lightest basis row, and
  enumeration lists exactly the 2^dim codewords of the code.
* structure: dim(C) + dim(dual) = 3n (one less for a Hermitian dual when
  u^2 * all-ones is not in C), the canonical presentation rebuilds the
  same code, and sum / intersection have the right span and dimension.

Ops whose key was recorded in the expected-digest file must in addition
reproduce the recorded exit code and stdout digest.  For search the
digest leaves out the summary's ``configs`` count.
"""

from __future__ import annotations

import hashlib
import json

import ref

_CODON = ("GC", "AT", "GT", "TG", "CG", "TA", "CA", "AC")
_ELEMENT_OF = {c: e for e, c in enumerate(_CODON)}


def op_id(op):
    return hashlib.sha256(op.key.encode()).hexdigest()[:16]


def _ref_of(n, words):
    return ref.Code(n, [(w.f1, w.f2, w.f3) for w in words])


def digest(op, exit_code, out):
    if not op.argv:
        body = repr((out.dim, _ref_of(op.n, out.generators).canonical_rows()))
    elif op.kind == "search":
        lines = out.splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        summary.pop("configs", None)
        body = "\n".join(lines[:-1] + [json.dumps(summary, sort_keys=True)])
    else:
        body = out
    return hashlib.sha256(f"{exit_code}\n{body}".encode()).hexdigest()


def check(op, exit_code, out, expected):
    """Problems found with one op's outcome; empty when it is correct."""
    problems = []
    want = expected.get(op_id(op))
    if want is not None and want != [exit_code, digest(op, exit_code, out)]:
        problems.append("exit code or stdout differs from the recorded digest")
    try:
        problems += _CHECKS[op.kind](op, exit_code, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _search(op, exit_code, out):
    n = int(op.argv[op.argv.index("--n") + 1])
    require = op.argv[op.argv.index("--require") + 1]
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    hits = [json.loads(line) for line in lines[:-1]]
    problems = []
    if exit_code != 0 or summary.get("truncated") is not False:
        problems.append(f"search exit {exit_code}, truncated "
                        f"{summary.get('truncated')}")
    if summary.get("hits") != len(hits):
        problems.append("summary hit count differs from the hit lines")
    seen = set()
    order = [(-h["min_distance"], -h["cardinality"]) for h in hits]
    if order != sorted(order):
        problems.append("hits are not sorted by (distance, cardinality)")
    for h in hits:
        words = [(ref.from_text(h["g"]), ref.from_text(h["p1"]),
                  ref.from_text(h["p2"]))]
        if h["a2"] is not None:
            words.append((0, 0, ref.from_text(h["a2"])))
        code = ref.Code(n, words)
        closed = code.is_rc_closed() if require == "rc" else code.is_reversible()
        rows = code.canonical_rows()
        if (code.dim != h["dim"] or h["cardinality"] != 1 << code.dim
                or not closed or rows in seen
                or not 1 <= h["min_distance"] <= code.weight_bound()):
            problems.append(f"hit {h} is wrong")
            break
        seen.add(rows)
    return problems


def _distance(op, exit_code, out):
    d = json.loads(out)["min_distance"]
    if exit_code != 0 or not 1 <= d <= op.code.weight_bound():
        return [f"distance {d} (exit {exit_code}) out of range"]
    return []


def _check(op, exit_code, out):
    mode = op.argv[op.argv.index("--mode") + 1]
    report = json.loads(out)
    truth = op.code.is_rc_closed() if mode == "rc" else op.code.is_reversible()
    problems = []
    oracle, theorem = report["oracle"], report["theorem"]
    if oracle is not None and oracle["satisfied"] != truth:
        problems.append(f"oracle says {oracle['satisfied']}, closure is {truth}")
    if theorem is not None and theorem["satisfied"] and not truth:
        problems.append("certificate gives a false positive")
    if oracle is not None and theorem is not None:
        # Certificates are exact only on their structural family, so they
        # may miss a closed code; the report must say so.
        agree = (theorem["satisfied"] == oracle["satisfied"]
                 if theorem["hypothesis_ok"] else None)
        if report["agreement"] is not agree:
            problems.append(f"agreement {report['agreement']}, expected {agree}")
    want_exit = 1 if report["agreement"] is False or not report["satisfied"] else 0
    if exit_code != want_exit:
        problems.append(f"exit {exit_code}, expected {want_exit}")
    return problems


def _enumerate(op, exit_code, out):
    n, code = op.n, op.code
    lines = out.splitlines()
    if exit_code != 0 or len(lines) != 1 << code.dim or len(set(lines)) != len(lines):
        return [f"{len(lines)} codewords listed for dim {code.dim}"]
    for line in lines:
        if len(line) != 2 * n:
            return [f"codeword {line!r} has the wrong length"]
        f = [0, 0, 0]
        for i in range(n):
            e = _ELEMENT_OF[line[2 * i:2 * i + 2]]
            for k in range(3):
                f[k] |= (e >> k & 1) << i
        if not code.contains(*f):
            return [f"codeword {line!r} is not in the code"]
    return []


def _dual(op, exit_code, out):
    report = json.loads(out)
    n, code = op.n, op.code
    want = 3 * n - code.dim
    if (op.argv[op.argv.index("--flavor") + 1] == "hermitian"
            and not code.contains(0, 0, (1 << n) - 1)):
        want -= 1
    if exit_code != 0 or report["dim"] != want or report["cardinality"] != 1 << want:
        return [f"dual dim {report['dim']} (exit {exit_code}), expected {want}"]
    return []


def _canonical(op, exit_code, out):
    p = {k: ref.from_text(v) if isinstance(v, str) else v
         for k, v in json.loads(out).items()}
    words = []
    if p["g"] or p["p1"] or p["p2"]:
        words.append((p["g"], p["p1"], p["p2"]))
    if p["a1"] or p["q"]:
        words.append((0, p["a1"], p["q"]))
    if p["a2"]:
        words.append((0, 0, p["a2"]))
    if exit_code != 0 or not ref.Code(op.n, words).same_span(op.code):
        return [f"presentation {p} does not rebuild the code"]
    return []


def _sum(op, exit_code, result):
    if result.dim != op.code.dim or not _ref_of(op.n, result.generators).same_span(op.code):
        return ["sum has the wrong span"]
    return []


def _intersect(op, exit_code, result):
    a, b = (ref.Code(op.n, t) for t in op.pair)
    want = a.dim + b.dim - op.code.dim
    gens = [(w.f1, w.f2, w.f3) for w in result.generators]
    if (result.dim != want or ref.Code(op.n, gens).dim != want
            or not all(a.contains(*g) and b.contains(*g) for g in gens)):
        return [f"intersection dim {result.dim}, expected {want}"]
    return []


_CHECKS = {
    "search": _search,
    "distance": _distance,
    "check": _check,
    "enumerate": _enumerate,
    "dual": _dual,
    "canonical": _canonical,
    "sum": _sum,
    "intersect": _intersect,
}
