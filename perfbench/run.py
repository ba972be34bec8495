#!/usr/bin/env python3
"""
The affcox benchmark.

    python3 perfbench/run.py --workload canon-long --seed 1 --seconds 35 --trace 0

Run it from the root of the repository; it imports the library from
`src/` and reads and writes nothing outside the repository (results go to
`perfbench/out/`).  `--workload all` runs the three workloads one after
another in the same process.

One closed-loop caller issues each operation only after the previous one
returned; there are no threads.  Every output is judged by the window
oracle outside the timed region.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics over --seconds seconds of wall
time (and at least MIN_OPS operations), after set-up probes and a warm-up;
its timings are rescaled to the reference machine speed (clock.py).
--trace 1 runs the workload's first few rounds, a fixed set of operations,
twice: untraced, then with the per-layer wrappers of tracer.py on, and
reports the layer metrics.  The counts in a traced run depend on the seed alone.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "affcox" / "__init__.py").is_file():
    sys.exit("error: the affcox sources are not at %s" % SRC)
sys.path[:0] = [str(SRC), str(HERE)]

import clock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import RUN, WORKLOADS, check, fresh_draws, rounds  # noqa: E402

MIN_OPS = 1000      # so that p99 has at least ten samples beyond it
MAX_STRETCH = 3     # ...unless that would take MAX_STRETCH times --seconds
SETUP_PROBES = 15   # fresh interpreters per run; setup_s is their median
WARMUP_S = 1.0      # whole rounds run before timing starts
PROBE_GAP = 0.02    # seconds between calibration probes
CHUNK_PROBES = 16   # probes per rescaling chunk

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("canonical.validate_block.calls", "count"),
    ("canonical.validate_block.pairs", "count"),
    ("canonical._table.calls", "count"),
    ("canonical._exchange.calls", "count"),
    ("canonical.left_mul_block.calls", "count"),
    ("canonical.left_mul_block.self_s", "s"),
    ("canonical.left_mul_block.total_s", "s"),
    ("canonical.left_mul_block.share", "ratio"),
    ("canonical.left_mul.calls", "count"),
    ("canonical.left_mul.per_op", "ratio"),
    ("canonical.canonicalize.calls", "count"),
    ("canonical.canonicalize.total_s", "s"),
    ("canonical.canonicalize.slope_l", "log-log"),
    ("canonical.mul.total_s", "s"),
    ("canonical.inverse.total_s", "s"),
    ("canonical.right_descents.total_s", "s"),
    ("canonical.left_descents.total_s", "s"),
    ("finite.finite_left_insert.calls", "count"),
    ("finite.finite_left_insert.total_s", "s"),
    ("finite.finite_left_insert.share", "ratio"),
    ("finite.right_insert.calls", "count"),
    ("finite.right_insert.per_left_insert", "ratio"),
    ("finite.slope_n", "log-log"),
    ("hecke.hecke_left_mul_gen.calls", "count"),
    ("hecke.hecke_left_mul_gen.self_s", "s"),
    ("hecke.left_mul_per_term", "ratio"),
    ("hecke.hecke_mul.total_s", "s"),
    ("hecke.hr_embed.total_s", "s"),
    ("tower.embed.total_s", "s"),
    ("tower.preimage.total_s", "s"),
    ("tower.is_in_image.total_s", "s"),
    ("blocks.enumerate_blocks.total_s", "s"),
    ("blocks.items", "count"),
    ("words.is_reduced.calls", "count"),
    ("perms.to_permutation.calls", "count"),
    ("perms.right_mul.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.build_parser.total_s", "s"),
    ("trace.op_total_s", "s"),
    ("trace.ops_per_s_ratio", "ratio"),
)

FAILED = object()  # stands for the output of an operation that raised


def run_ops(ops, tracer=None, after=None):
    """Run operations in order, one at a time.  Returns (latencies,
    outputs, errors).  `after(latency)` is called after each operation,
    outside the timed region; the run stops early once it returns True."""
    lat, outs, errors = [], [], []
    for op in ops:
        fn = RUN[op.kind]
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out = fn(*op.args)
        except Exception as exc:  # any failure of the library is a result
            out = FAILED
            errors.append("%s: %s" % (op.kind, type(exc).__name__))
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
            tracer.spans.append((len(tracer.spans), op.kind, t0, t1))
        lat.append(t1 - t0)
        outs.append(out)
        if after is not None and after(t1 - t0):
            break
    return lat, outs, errors


def count_failures(ops, outs):
    return sum(1 for op, out in zip(ops, outs) if out is FAILED or not check(op, out))


def setup_probe(name, seed):
    """(rescaled, raw) seconds a fresh interpreter takes to import every
    affcox module and build the workload's round 0 with the library
    (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


class Meter:
    """Collects the latencies of the timed loop, runs the calibration
    probe every PROBE_GAP seconds between operations, and decides when the
    run has lasted long enough.

    Latencies are kept in chunks of CHUNK_PROBES probes (about a third of
    a second); when a chunk closes, its latencies are rescaled by
    clock.factor of its own probes."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.scaled, self.raw = array("d"), array("d")
        self.factors = []
        self.chunk, self.probes = [], []
        self.t0 = self.last = perf_counter()

    def __call__(self, latency):
        self.chunk.append(latency)
        now = perf_counter()
        if now - self.last >= PROBE_GAP:
            self.probes.append(clock.probe())
            self.last = perf_counter()
            if len(self.probes) >= CHUNK_PROBES:
                self.close_chunk()
        return self.done()

    def done(self):
        spent = perf_counter() - self.t0
        n = len(self.raw) + len(self.chunk)
        return (spent >= self.seconds and n >= MIN_OPS) or spent >= MAX_STRETCH * self.seconds

    def close_chunk(self):
        while len(self.probes) < 3:
            self.probes.append(clock.probe())
        f = clock.factor(self.probes)
        self.factors.append(f)
        self.scaled.extend(t * f for t in self.chunk)
        self.raw.extend(self.chunk)
        self.chunk, self.probes = [], []


def timed_run(name, seed, seconds):
    """Set-up probes, a warm-up, then the untraced closed loop: whole
    rounds until `seconds` of wall time have passed and at least MIN_OPS
    operations are done (the last round is cut where the time runs out).
    Every operation's output is checked, the warm-up's included."""
    setup = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    fresh = fresh_draws(name, seed)
    gen = rounds(name, fresh)
    attempted = failed = 0
    errors = []

    def run_round(ops, after=None):
        nonlocal attempted, failed
        lat, outs, errs = run_ops(ops, after=after)
        attempted += len(outs)
        failed += count_failures(ops, outs)
        errors.extend(errs[:20 - len(errors)])

    t0 = perf_counter()
    while perf_counter() - t0 < WARMUP_S:
        run_round(next(gen))
    meter = Meter(seconds)
    while not meter.done():
        run_round(next(gen), after=meter)
    meter.close_chunk()
    return meter, setup, attempted, failed, errors, fresh.repeats


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_figures(lat):
    lat = sorted(lat)
    return len(lat) / sum(lat), 1e3 * percentile(lat, 0.5), 1e3 * percentile(lat, 0.99)


def end_to_end(name, seed, seconds):
    """Throughput and latency percentiles over every timed operation of the
    run, each latency rescaled to the reference machine speed (clock.py);
    set-up time is the median of SETUP_PROBES rescaled probes.  The raw
    wall-clock figures go to the results file beside them."""
    meter, setup, attempted, failed, errors, repeats = timed_run(name, seed, seconds)
    ops_per_s, p50, p99 = latency_figures(meter.scaled)
    raw_ops_per_s, raw_p50, raw_p99 = latency_figures(meter.raw)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "op_p99_ms": p99,
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    factors = sorted(meter.factors)
    extra = {
        "samples": len(meter.scaled),
        "fail_frac": failed / attempted,
        "raw": {
            "ops_per_s": raw_ops_per_s,
            "op_p50_ms": raw_p50,
            "op_p99_ms": raw_p99,
            "setup_s": statistics.median(r for _, r in setup),
        },
        "setup_probes": setup,
        "speed_factor": {"min": factors[0], "median": statistics.median(factors),
                         "max": factors[-1], "chunks": len(factors)},
        "repeated_inputs": repeats,
        "errors": errors,
    }
    return attempted, failed, metrics, extra


def slope(points):
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def family_slope(ops, lat, family):
    """Median over groups (ranks) of the log-log slope of time against x."""
    groups = {}
    for op, t in zip(ops, lat):
        tag = op.spec.tag
        if tag is not None and tag[0] == family:
            groups.setdefault(tag[1], []).append((tag[2], t))
    slopes = [slope(pts) for pts in groups.values() if len(pts) > 1]
    return statistics.median(slopes) if slopes else 0.0


def traced(name, seed):
    gen = rounds(name, fresh_draws(name, seed))
    ops = [op for _ in range(WORKLOADS[name].trace_rounds) for op in next(gen)]
    base, outs, errors = run_ops(ops)
    failed = count_failures(ops, outs)
    with Tracer() as tr:
        lat, outs, errs = run_ops(ops, tracer=tr)
    failed += count_failures(ops, outs)
    st = tr.stats
    op_time = sum(lat)

    def share(fn):
        return st[fn].total_s / op_time

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for fn, s in st.items():
        metrics[fn + ".calls"] = s.calls
        metrics[fn + ".total_s"] = s.total_s
        metrics[fn + ".self_s"] = s.self_s
    metrics.update({
        "canonical.validate_block.pairs": st["canonical.validate_block"].quantity,
        "canonical.left_mul_block.share": share("canonical.left_mul_block"),
        "canonical.left_mul.per_op": st["canonical.left_mul"].calls / len(ops),
        "canonical.canonicalize.slope_l": family_slope(ops, base, "ck"),
        "finite.finite_left_insert.share": share("finite.finite_left_insert"),
        "finite.right_insert.per_left_insert": ratio(
            tr.nested[("finite.right_insert", "finite.finite_left_insert")],
            st["finite.finite_left_insert"].calls),
        "finite.slope_n": family_slope(ops, base, "w0aw0"),
        "hecke.left_mul_per_term": ratio(
            tr.nested[("canonical.left_mul", "hecke.hecke_left_mul_gen")],
            st["hecke.hecke_left_mul_gen"].quantity),
        "blocks.items": st["blocks.enumerate_blocks"].quantity,
        "trace.op_total_s": op_time,
        "trace.ops_per_s_ratio": sum(base) / op_time,
    })
    extra = {
        "samples": len(ops),
        "untraced_op_total_s": sum(base),
        "counts": tr.counts(),
        "spans": tr.spans,
        "errors": (errors + errs)[:20],
    }
    return 2 * len(ops), failed, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            ap.error("unknown workload %r (choose from %s or all)"
                     % (name, ", ".join(WORKLOADS)))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seed": args.seed,
        "trace": args.trace,
    }
    attempted = failed = 0
    result_metrics = {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        if args.trace:
            n_att, n_fail, metrics, extra = traced(name, args.seed)
        else:
            n_att, n_fail, metrics, extra = end_to_end(name, args.seed, args.seconds)
        attempted += n_att
        failed += n_fail
        shown = {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()}
        print("%s: %d operations, %d failed (fail_frac %.4g)"
              % (name, extra["samples"], n_fail, n_fail / n_att))
        for k, v in shown.items():
            print("  %-40s %14.6g %s" % (k, v["value"], v["unit"]))
        record = dict(facts, workload=name, attempted=n_att, failed=n_fail,
                      metrics=shown, all_metrics=metrics, **extra)
        path = OUT / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(record, indent=1))
        prefix = "" if len(names) == 1 else name + "."
        result_metrics.update({prefix + k: v for k, v in shown.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
