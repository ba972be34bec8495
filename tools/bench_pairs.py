#!/usr/bin/env python3
"""
Alternating A/B pairs of the affcox benchmark: a parent commit against the
working tree, recorded in one JSON file.

    python3 tools/bench_pairs.py --parent HEAD --seed 7777 \\
        --pairs canon-wide=10 --pairs canon-long=3 --pairs element-ops=3 \\
        --claim canon-wide:ops_per_s --out BENCH_35.json

Run it from the root of the repository.  It exports the parent commit by
`git archive`, and the working tree (every tracked or untracked file that
git does not ignore), into a temporary directory, and runs
`perfbench/run.py --trace 0` in each copy, one process per run.  In pair k
of a workload the parent runs first when k is even and the change when k
is odd.  Every run lasts BENCHMARK.json's run_seconds.  Neither copy holds
bytecode and the runs write none (PYTHONDONTWRITEBYTECODE=1), so every
interpreter compiles the sources, as in a fresh checkout.  Before the
pairs, each copy replays the change's CLI output corpus
(tests/cli_corpus.json) with its own tools/cli_corpus.py; after them, one
`--trace 1` run per side and workload at seed 1 compares the count
metrics, which depend on the seed alone.

The output holds, per workload and end-to-end metric of BENCHMARK.json,
each pair's values, each side's median and quartiles, the pairs the change
won and whether the change's median is worse than the parent's by more
than the metric's bound; the failed operation counts of every run; the
argv of the corpus whose output differs in each copy, and whether the
outputs are equal (none differs in either); whether the traced counts are
equal; and, for a --claim, whether the change won at
least nine tenths of the pairs by a median gap wider than the parent's
interquartile range.  The file is rewritten after every run, so a cut
session keeps the pairs it finished.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEED = 1


# --- the two trees ----------------------------------------------------------

def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(parent, dest):
    """The parent commit and the working tree, as dest/parent and dest/change."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", parent))) as tar:
        tar.extractall(dest / "parent", filter="data")
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / os.fsdecode(name)
        if name and src.is_file():  # a tracked file deleted in the tree is skipped
            target = dest / "change" / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, target)
    return {side: dest / side for side in SIDES}


def last_json_line(argv, tree, env):
    """The last line of the stdout of argv, run in `tree`, as JSON."""
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s: %s exited %d: %s"
                           % (tree.name, " ".join(argv[1:]), done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def perfbench(trees, env):
    """A runner: run(side, workload, seed, seconds, trace) is the last line of
    `perfbench/run.py`'s stdout in that side's tree, as JSON."""
    def run(side, workload, seed, seconds, trace):
        return last_json_line(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)], trees[side], env)
    return run


# the tree's own tools/cli_corpus.py replays the corpus file argv[1] names
REPLAY = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("cli_corpus", "tools/cli_corpus.py")
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)
with open(sys.argv[1]) as f:
    print(json.dumps(corpus.differing(json.load(f))))
"""


def replayer(trees, env):
    """A replay: replay(side) is the list of argv of the change's CLI
    output corpus whose output differs in that side's tree."""
    corpus = str(trees["change"] / "tests" / "cli_corpus.json")
    return lambda side: last_json_line([sys.executable, "-c", REPLAY, corpus], trees[side], env)


# --- the pairs --------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(parent, change, better, bound):
    """One workload's metric over its pairs, parent -> change."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    worse = -sign * (cm - pm) / pm if pm else 0.0
    return {
        "parent": parent, "change": change,
        "parent_median": pm, "parent_quartiles": [p1, p3],
        "change_median": cm, "change_quartiles": [c1, c3],
        "change_better_pairs": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "relative_change": (cm - pm) / pm if pm else 0.0,
        "within_bound": worse <= bound,
        "beyond_parent_iqr": sign * (cm - pm) > p3 - p1,
    }


def measure(run, plan, seed, seconds, metrics, claim=None, save=None, replay=None):
    """Replay the output corpus on each side (`replay`, if given), run the
    pairs of `plan` ((workload, pairs) in turn), then one traced run per
    side and workload; `metrics` maps each end-to-end metric to its
    (better, bound).  `save(record)` is called after every run."""
    record = {"order": [], "failed_operations": {}, "attempted": {}, "runs": {},
              "metrics": {}, "traced": {}}

    def note():
        if save is not None:
            save(record)

    if replay is not None:
        record["outputs_differing"] = {side: replay(side) for side in SIDES}
        record["outputs_equal"] = not any(record["outputs_differing"].values())
        note()

    for workload, pairs in plan:
        values = record["runs"][workload] = {m: {s: [] for s in SIDES} for m in metrics}
        failed = record["failed_operations"][workload] = {s: [] for s in SIDES}
        attempted = record["attempted"][workload] = {s: [] for s in SIDES}
        for k in range(pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                out = run(side, workload, seed, seconds, 0)
                record["order"].append([workload, k, side])
                print("%s pair %d %s: %d failed, ops_per_s %.6g"
                      % (workload, k, side, out["failed"],
                         out["metrics"]["ops_per_s"]["value"]), file=sys.stderr)
                failed[side].append(out["failed"])
                attempted[side].append(out["attempted"])
                for m in metrics:
                    values[m][side].append(out["metrics"][m]["value"])
                note()
        record["metrics"][workload] = {
            m: summary(values[m]["parent"], values[m]["change"], *metrics[m]) for m in metrics}
    for workload, _ in plan:
        outs = {side: run(side, workload, TRACE_SEED, seconds, 1) for side in SIDES}
        counts = {side: {k: v["value"] for k, v in outs[side]["metrics"].items()
                         if v["unit"] == "count"} for side in SIDES}
        record["traced"][workload] = {
            "counts_equal": counts["parent"] == counts["change"],
            "differing": sorted(k for k in set(counts["parent"]) | set(counts["change"])
                                if counts["parent"].get(k) != counts["change"].get(k)),
            "failed": [outs[side]["failed"] for side in SIDES],
            "nonzero_counts": {k: v for k, v in counts["change"].items() if v},
        }
        note()
    record["within_bounds"] = all(s["within_bound"] for w in record["metrics"].values()
                                  for s in w.values())
    failed = [n for f in record["failed_operations"].values() for side in SIDES for n in f[side]]
    failed += [n for t in record["traced"].values() for n in t["failed"]]
    record["no_failed_operations"] = not any(failed)
    record["traced_counts_equal"] = all(t["counts_equal"] for t in record["traced"].values())
    if claim is not None:
        workload, metric = claim
        s = record["metrics"][workload][metric]
        record["claim"] = {
            "workload": workload, "metric": metric,
            "met": 10 * s["change_better_pairs"] >= 9 * len(s["parent"]) and s["beyond_parent_iqr"],
        }
    note()
    return record


# --- the command ------------------------------------------------------------

def plan_item(text):
    workload, _, pairs = text.partition("=")
    if not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError("expected WORKLOAD=PAIRS, got %r" % text)
    return workload, int(pairs)


def claim_item(text):
    workload, _, metric = text.partition(":")
    if not metric:
        raise argparse.ArgumentTypeError("expected WORKLOAD:METRIC, got %r" % text)
    return workload, metric


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--pairs", type=plan_item, action="append", required=True,
                    metavar="WORKLOAD=PAIRS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--claim", type=claim_item, metavar="WORKLOAD:METRIC")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    if args.claim is not None and (args.claim[1] not in metrics
                                   or args.claim[0] not in dict(args.pairs)):
        ap.error("the claim must name a paired workload and an end-to-end metric")
    head = {
        "parent_commit": git("rev-parse", args.parent).decode().strip(),
        "change": "the working tree over %s%s" % (
            git("rev-parse", "HEAD").decode().strip(),
            " with uncommitted changes" if git("status", "--porcelain") else ""),
        "command": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None
                                                              else argv),
        "seed": args.seed, "seconds": seconds, "trace_seed": TRACE_SEED,
        "bytecode": "none: every run compiles the sources (PYTHONDONTWRITEBYTECODE=1)",
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }

    def save(record):
        args.out.write_text(json.dumps({**head, **record}, indent=1) + "\n")

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = export(args.parent, Path(tmp))
        record = measure(perfbench(trees, env), args.pairs, args.seed, seconds, metrics,
                         args.claim, save, replayer(trees, env))
    ok = record["within_bounds"] and record["no_failed_operations"]
    print("%s: within bounds %s, failed operations none %s, outputs equal %s, "
          "traced counts equal %s%s"
          % (args.out, record["within_bounds"], record["no_failed_operations"],
             record["outputs_equal"], record["traced_counts_equal"],
             ", claim met %s" % record["claim"]["met"] if "claim" in record else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
