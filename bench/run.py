"""Benchmark of the dnacyclic package: three workloads, one process, one thread.

    python3 bench/run.py --workload {search,analyze,structure} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` there and exits with code 2, printing no result, if that is
missing.  Ops are built from the seed by ``workloads`` and checked by
``checks``; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it carries
run metadata (Python, numpy, nproc, sample counts, search funnels).

``--trace 0`` reports the end-to-end metrics with tracing off:

* setup_s      median time for a fresh interpreter to import dnacyclic.cli
* wall_s       median time of one pass over the workload's op list
* op_ms_p50/90 per-op latency over every timed pass (count in metadata)
* peak_rss_mb  peak resident memory of this process

Every op's time is scaled to a reference host speed by ``hostspeed``
(the machine this was tuned on swings by up to 2x), and a pass's time
is the sum of its ops' scaled times; raw medians are in the metadata.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``PER_LAYER``; spans of the last traced pass are
written to ``bench/out/spans-<workload>.tsv``.

``--record`` runs one checked pass and stores each op's exit code and
stdout digest in the expected-digest file (``--expected``); the
committed ``expected_seed0.json`` was recorded with seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected_seed0.json"
SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "constraints.checks": "count",
    "constraints.self_s": "s",
    "constraints.satisfied_ratio": "ratio",
    "search.candidates": "count",
    "search.certified": "count",
    "search.distinct": "count",
    "search.useful_ratio": "ratio",
    "code.from_generators.calls": "count",
    "code.from_generators.self_s": "s",
    "code.from_generators.rows": "rows",
    "code.contains.calls": "count",
    "code.oracle.calls": "count",
    "code.oracle.self_s": "s",
    "code.oracle.words": "words_computed",
    "code.canonical.calls": "count",
    "code.canonical.self_s": "s",
    "code.sum_intersect.calls": "count",
    "code.sum_intersect.self_s": "s",
    "dual.dual_code.calls": "count",
    "dual.dual_code.self_s": "s",
    "dual.verify.self_s": "s",
    "polyr.shift.calls": "count",
    "polyr.mul.calls": "count",
    "polyr.words_built": "count",
    "polyf2.divrem.calls": "count",
    "polyf2.mul.calls": "count",
    "polyf2.gcd.calls": "count",
    "ring.to_codon.calls": "count",
    "cli.word_to_dna.calls": "count",
    "cli.word_to_dna.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}

# The search funnel of `search --n 6 --require rc` at the baseline:
# candidates, certified, distinct codes.
N6_RC_KEY = "search --n 6 --require rc"
N6_RC_FUNNEL = (8792, 1329, 89)


class Runner:
    """Executes ops, times them and judges every outcome."""

    def __init__(self, package, expected):
        self.package = package
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}   # op key -> (exit code, digest, passed) of its first outcome

    def execute(self, op):
        try:
            if op.argv:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = self.package.cli.main(list(op.argv))
                    except SystemExit as exc:
                        code = exc.code
                return code, out.getvalue()
            word = self.package.polyr.RingWord.from_polys
            build = self.package.code.CyclicCode.from_generators
            a, b = (build(op.n, [word(op.n, *t) for t in triples])
                    for triples in op.pair)
            return 0, a.sum_with(b) if op.kind == "sum" else a.intersect_with(b)
        except Exception:  # an op that crashes is a failed op, not a dead run
            return None, traceback.format_exc()

    def run_pass(self, ops, speed, tracer=None):
        """Run every op once; returns its raw seconds and host-speed factor."""
        outcomes, latencies, marks = [], [], []
        clock = time.perf_counter
        for op in ops:
            if tracer is not None:
                tracer.op_key = op.key
            k = len(speed.samples)
            t = clock()
            outcomes.append(self.execute(op))
            latencies.append(clock() - t)
            marks.append((k, len(speed.samples)))
        factors = [speed.factor(*m) for m in marks]
        for op, (code, out) in zip(ops, outcomes):
            extra = funnel_problems(tracer, op, out) if tracer else []
            self.judge(op, code, out, extra)
        return latencies, factors

    def judge(self, op, code, out, extra=()):
        self.attempted += 1
        problems = list(extra)
        if code is None:
            problems.append("op raised:\n" + out)
        else:
            d = checks.digest(op, code, out)
            if op.key not in self.first:
                found = checks.check(op, code, out, self.expected)
                self.first[op.key] = (code, d, not found)
                problems += found
            elif self.first[op.key] != (code, d, True):
                problems.append("outcome differs from its first pass or failed")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.key[:120]}: {'; '.join(problems)[:2000]}")


def funnel_problems(tracer, op, out):
    """The traced search funnel must add up and match the stdout summary."""
    if op.kind != "search" or not isinstance(out, str) or not out:
        return []
    f = tracer.funnels.get(op.key)
    if f is None:
        return ["no search funnel was traced"]
    problems = []
    cand, cert, dist = f["candidates"], f["certified"], len(f["distinct"])
    if cert + f["rejected"] != cand:
        problems.append(f"certified {cert} + rejected {f['rejected']} "
                        f"!= candidates {cand}")
    if dist != json.loads(out.splitlines()[-1]).get("hits"):
        problems.append(f"{dist} distinct codes traced, summary differs")
    if op.key == N6_RC_KEY and (cand, cert, dist) != N6_RC_FUNNEL:
        problems.append(f"funnel {(cand, cert, dist)} != {N6_RC_FUNNEL}")
    return problems


def import_package():
    """The package from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "dnacyclic" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import dnacyclic
    import dnacyclic.cli  # noqa: F401  (loads every layer module)
    if Path(dnacyclic.__file__).resolve().parent != SRC / "dnacyclic":
        print(f"bench: dnacyclic came from {dnacyclic.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return dnacyclic


def measure_setup(speed):
    """Fresh-interpreter import times of dnacyclic.cli, raw and scaled by
    the host speed probed just before each; the first is a warm-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import dnacyclic.cli"]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        k = len(speed.samples)
        for _ in range(3):
            speed.probe()
        factor = speed.factor(k, pad=0)
        t = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t)
        scaled.append(raw[-1] * factor)
    return raw[1:], scaled[1:]


def load_expected(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))["ops"]
    except FileNotFoundError:
        return {}


def quantile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def record(runner, ops, path):
    runner.run_pass(ops, hostspeed.HostSpeed())
    if runner.failed:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    path = Path(path)
    data = {"ops": load_expected(path)}
    for op in ops:
        code, digest, _ = runner.first[op.key]
        data["ops"][checks.op_id(op)] = [code, digest]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(data["ops"].items())]
    path.write_text('{"ops": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    return 0


def layer_metrics(tracers, untraced, traced):
    last = tracers[-1]
    calls, counts = last.calls, last.counts

    def busy(group):
        return statistics.median(t.busy.get(group, 0.0) * t.factor
                                 for t in tracers)

    def ratio(a, b):
        return a / b if b else 0.0

    funnels = [f for key, f in last.funnels.items() if key.startswith("search")]
    distinct = sum(len(f["distinct"]) for f in funnels)
    return {
        "constraints.checks": counts["constraints.checks"],
        "constraints.self_s": busy("constraints"),
        "constraints.satisfied_ratio": ratio(counts["constraints.satisfied"],
                                             counts["constraints.checks"]),
        "search.candidates": sum(f["candidates"] for f in funnels),
        "search.certified": sum(f["certified"] for f in funnels),
        "search.distinct": distinct,
        "search.useful_ratio": ratio(distinct, calls["code.from_generators"])
        if funnels else 0.0,
        "code.from_generators.calls": calls["code.from_generators"],
        "code.from_generators.self_s": busy("code.from_generators"),
        "code.from_generators.rows": counts["code.from_generators.rows"],
        "code.contains.calls": calls["code.contains"],
        "code.oracle.calls": calls["code.oracle"],
        "code.oracle.self_s": busy("code.oracle"),
        "code.oracle.words": counts["code.oracle.words"],
        "code.canonical.calls": calls["code.canonical"],
        "code.canonical.self_s": busy("code.canonical"),
        "code.sum_intersect.calls": calls["code.sum_intersect"],
        "code.sum_intersect.self_s": busy("code.sum_intersect"),
        "dual.dual_code.calls": calls["dual.dual_code"],
        "dual.dual_code.self_s": busy("dual.dual_code"),
        "dual.verify.self_s": busy("dual.verify"),
        "polyr.shift.calls": calls["polyr.shift"],
        "polyr.mul.calls": calls["polyr.mul"],
        "polyr.words_built": calls["polyr.words_built"],
        "polyf2.divrem.calls": calls["polyf2.divrem"],
        "polyf2.mul.calls": calls["polyf2.mul"],
        "polyf2.gcd.calls": calls["polyf2.gcd"],
        "ring.to_codon.calls": calls["ring.to_codon"],
        "cli.word_to_dna.calls": calls["cli.word_to_dna"],
        "cli.word_to_dna.self_s": busy("cli.word_to_dna"),
        "trace.overhead_ratio": statistics.median(traced)
        / statistics.median(untraced),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "analyze",
                                                         "structure"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure for this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes instead of the real workload")
    p.add_argument("--expected", default=str(EXPECTED),
                   help="expected-digest file to check against or record into")
    p.add_argument("--record", action="store_true",
                   help="record digests of one pass into --expected and exit")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    package = import_package()
    ops = workloads.build(args.workload, args.seed, args.tiny)
    runner = Runner(package, {} if args.record else load_expected(args.expected))
    if args.record:
        return record(runner, ops, args.expected)

    speed = hostspeed.HostSpeed()
    setup_raw, setup = ([], []) if args.trace else measure_setup(speed)
    runner.run_pass(workloads.build(args.workload, args.seed, tiny=True), speed)

    raw_walls, raw_latencies, walls, latencies = [], [], [], []
    traced, tracers = [], []
    start = time.perf_counter()
    with speed:
        while not walls or time.perf_counter() - start < args.seconds:
            lat, factors = runner.run_pass(ops, speed)
            scaled = [x * f for x, f in zip(lat, factors)]
            raw_walls.append(sum(lat))
            raw_latencies += lat
            walls.append(sum(scaled))
            latencies += scaled
            if args.trace:
                with tracing.Tracer(package) as tracer:
                    lat, factors = runner.run_pass(ops, speed, tracer)
                tracer.factor = statistics.median(factors)
                traced.append(sum(x * f for x, f in zip(lat, factors)))
                tracers.append(tracer)

    fail_ratio = runner.failed / runner.attempted
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "ops_per_pass": len(ops), "pass_walls_raw": raw_walls,
        "op_samples": len(latencies), "setup_s_samples_raw": setup_raw,
        "host_loop_us": statistics.median(speed.samples) * 1e6,
        "host_loop_samples": len(speed.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": fail_ratio, "problems": runner.problems,
    }
    if args.workload == "analyze":
        meta["vector_share"] = sum(
            op.code.dim >= workloads.VECTOR_MIN_DIM for op in ops) / len(ops)
    if args.trace:
        last = tracers[-1]
        metrics = layer_metrics(tracers, walls, traced)
        metrics["fail_ratio"] = fail_ratio
        meta["traced_passes"] = len(traced)
        meta["untraced_targets"] = last.missing
        meta["funnels"] = {k: {**f, "distinct": len(f["distinct"])}
                           for k, f in last.funnels.items()}
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"spans-{args.workload}.tsv", last.spans)
        units = PER_LAYER
    else:
        ms = [x * 1000 for x in latencies]
        raw_ms = [x * 1000 for x in raw_latencies]
        meta["raw"] = {"setup_s": statistics.median(setup_raw),
                       "wall_s": statistics.median(raw_walls),
                       "op_ms_p50": statistics.median(raw_ms),
                       "op_ms_p90": quantile(raw_ms, 0.9)}
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": quantile(ms, 0.9),
            "peak_rss_mb": meta["peak_rss_mb"],
        }
        units = END_TO_END
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
