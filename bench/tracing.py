"""Outside-in tracing of the package's layers.

The tracer wraps public module functions and class attributes of the
package from the benchmark's side and puts the originals back when it
is closed; the package itself carries no tracing code.  Three kinds of
wrapper keep the cost in proportion to how hot a function is:

* SPAN: coarse functions.  Each call is a span (id, parent id, name,
  start, end) kept in memory and written out at the end of the run.
* TIMED: hot but still timed (the DNA codec).  Busy time is added up,
  no span is kept.
* COUNT: hot small functions; only the number of calls is kept.

Self time is a call's duration minus the time of the timed calls made
inside it, so the self times of all groups add up to the traced time
without double counting.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

SPAN, TIMED, COUNT, GENERATOR = "span", "timed", "count", "generator"

# (module, class or None, attribute, group, kind)
TARGETS = (
    ("cli", None, "main", "cli.main", SPAN),
    ("cli", None, "word_to_dna", "cli.word_to_dna", TIMED),
    ("constraints", None, "check_reversible_single", "constraints", SPAN),
    ("constraints", None, "check_reversible_double", "constraints", SPAN),
    ("constraints", None, "check_rc_single", "constraints", SPAN),
    ("constraints", None, "check_rc_double", "constraints", SPAN),
    ("code", "CyclicCode", "from_generators", "code.from_generators", SPAN),
    ("code", "CyclicCode", "contains", "code.contains", COUNT),
    ("code", "CyclicCode", "min_hamming_distance", "code.oracle", SPAN),
    ("code", "CyclicCode", "is_reversible", "code.oracle", SPAN),
    ("code", "CyclicCode", "is_complement_closed", "code.oracle", SPAN),
    ("code", "CyclicCode", "is_rc_closed", "code.oracle", SPAN),
    ("code", "CyclicCode", "words", "code.oracle", GENERATOR),
    ("code", "CyclicCode", "canonical_presentation", "code.canonical", SPAN),
    ("code", "CyclicCode", "sum_with", "code.sum_intersect", SPAN),
    ("code", "CyclicCode", "intersect_with", "code.sum_intersect", SPAN),
    ("dual", None, "dual_code", "dual.dual_code", SPAN),
    ("dual", None, "verify_dual_divisibility", "dual.verify", SPAN),
    ("polyr", "RingWord", "shift", "polyr.shift", COUNT),
    ("polyr", "RingWord", "__mul__", "polyr.mul", COUNT),
    ("polyr", "RingWord", "__init__", "polyr.words_built", COUNT),
    ("polyf2", None, "divrem", "polyf2.divrem", COUNT),
    ("polyf2", None, "mul", "polyf2.mul", COUNT),
    ("polyf2", None, "gcd", "polyf2.gcd", COUNT),
    ("ring", None, "to_codon", "ring.to_codon", COUNT),
)


class Tracer:
    """Spans, busy times and counters of one traced pass."""

    def __init__(self, package):
        self.package = package
        self.spans = []                # (id, parent id, name, start, end)
        self.stack = [[0, "", 0.0]]    # frames: [span id, group, child time]
        self.calls = Counter()
        self.busy = defaultdict(float)  # self time per group
        self.counts = Counter()         # derived counters (rows, words, ...)
        self.funnels = {}               # search op key -> funnel counters
        self.op_key = None
        self.factor = 1.0               # host-speed scale of the busy times
        self.missing = []
        self._next_id = 1
        self._saved = []

    # -- patching ---------------------------------------------------------

    def install(self):
        for mod_name, cls_name, attr, group, kind in TARGETS:
            name = f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}"
            module = getattr(self.package, mod_name, None)
            owner = getattr(module, cls_name, None) if cls_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._wrap(fn, group, name, kind)
            setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
            self._saved.append((owner, attr, raw))
        return self

    def close(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()

    def _wrap(self, fn, group, name, kind):
        if kind == COUNT:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[group] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == GENERATOR:
            return self._wrap_generator(fn, group)
        return self._timed(fn, group, name, record=kind == SPAN,
                          hook=_HOOKS.get(group))

    def _timed(self, fn, group, name, record=True, hook=None):
        """fn wrapped so that each call adds to the group's busy time."""
        stack, spans, calls, busy = self.stack, self.spans, self.calls, self.busy
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[2] += dur
                calls[group] += 1
                busy[group] += dur - frame[2]
                if record:
                    spans.append((sid, parent[0], name, start, end))
            if hook is not None:
                hook(tracer, parent[1], args, result)
            return result
        return wrapper

    def _wrap_generator(self, fn, group):
        """A code's word stream: time spent inside the generator counts."""
        stack, calls, busy, counts = self.stack, self.calls, self.busy, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(code, *args, **kwargs):
            calls[group] += 1
            counts["code.oracle.words"] += code.cardinality
            inner = fn(code, *args, **kwargs)

            def stream():
                while True:
                    parent = stack[-1]
                    frame = [0, group, 0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - start
                        stack.pop()
                        parent[2] += dur
                        busy[group] += dur - frame[2]
                    yield item
            return stream()
        return wrapper

    # -- per-op bookkeeping ------------------------------------------------

    def funnel(self):
        return self.funnels.setdefault(
            self.op_key, {"candidates": 0, "certified": 0, "rejected": 0,
                          "distinct": set()})


def _constraints_hook(tracer, parent_group, args, verdict):
    if parent_group == "constraints":
        return  # an rc check calling its reversibility check
    tracer.counts["constraints.checks"] += 1
    tracer.counts["constraints.satisfied"] += bool(verdict.satisfied)
    if parent_group == "cli.main" and tracer.op_key.startswith("search"):
        f = tracer.funnel()
        f["candidates"] += 1
        f["rejected"] += not verdict.satisfied


def _from_generators_hook(tracer, parent_group, args, code):
    tracer.counts["code.from_generators.rows"] += code.dim
    if parent_group == "cli.main" and tracer.op_key.startswith("search"):
        f = tracer.funnel()
        f["certified"] += 1
        f["distinct"].add(code)


def _oracle_hook(tracer, parent_group, args, result):
    tracer.counts["code.oracle.words"] += args[0].cardinality


_HOOKS = {
    "constraints": _constraints_hook,
    "code.from_generators": _from_generators_hook,
    "code.oracle": _oracle_hook,
}


def write_spans(path, spans):
    """Spans as tab-separated lines; times in ns from the first span."""
    t0 = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{round((start - t0) * 1e9)}"
                     f"\t{round((end - t0) * 1e9)}\n")
