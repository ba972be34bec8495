"""The A/B pair script `tools/bench_pairs.py` on a stub runner: the order
of its runs, and what it records of them, the output replay included."""

import importlib.util
import json
import os
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "bench_pairs.py")
METRICS = {"ops_per_s": ("higher", 0.25), "op_p50_ms": ("lower", 0.25)}


def load(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def stub(calls, counts):
    """perfbench's last line: the change 10% faster on "fast" (p50 10%
    lower), 50% slower on "slow"; one failed operation in the parent's
    third run on "slow"; traced counts from `counts`."""
    def run(side, workload, seed, seconds, trace):
        calls.append((side, workload, seed, trace))
        k = sum(1 for c in calls if c[:2] == (side, workload) and c[3] == trace) - 1
        if trace:
            metrics = {name: {"value": n, "unit": "count"} for name, n in counts[side].items()}
            metrics["trace.op_total_s"] = {"value": 0.5 + k, "unit": "s"}
            return {"failed": 0, "attempted": 10, "metrics": metrics}
        speed = {"fast": 1.1, "slow": 0.5}[workload] if side == "change" else 1.0
        ops = 1000 * speed + k  # k: a drift the medians must see through
        return {"failed": int(side == "parent" and workload == "slow" and k == 2),
                "attempted": 100,
                "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                            "op_p50_ms": {"value": 1000 / ops, "unit": "ms"}}}
    return run


def stub_replay(calls, differing):
    """The corpus replay: the argv `differing` names for each side."""
    def replay(side):
        calls.append((side, "replay"))
        return differing[side]
    return replay


def test_pairs_alternate_and_are_summarized(monkeypatch, tmp_path):
    bp = load(monkeypatch)
    calls, saved = [], []
    counts = {"parent": {"a.calls": 3, "b.calls": 0}, "change": {"a.calls": 3, "b.calls": 0}}
    record = bp.measure(stub(calls, counts), [("fast", 10), ("slow", 3)], 7, 35, METRICS,
                        claim=("fast", "ops_per_s"), save=saved.append,
                        replay=stub_replay(calls, {"parent": [], "change": []}))
    # the corpus replays on each side before the pairs
    assert calls[:2] == [("parent", "replay"), ("change", "replay")]
    assert record["outputs_differing"] == {"parent": [], "change": []}
    assert record["outputs_equal"] is True
    del calls[:2]
    # pair k: the parent first when k is even; then one traced run per side
    timed = [c for c in calls if c[3] == 0]
    assert [side for side, w, _, _ in timed if w == "fast"] == \
        ["parent", "change", "change", "parent"] * 5
    assert all(seed == 7 for _, _, seed, _ in timed)
    assert [c for c in calls if c[3] == 1] == [
        ("parent", "fast", 1, 1), ("change", "fast", 1, 1),
        ("parent", "slow", 1, 1), ("change", "slow", 1, 1)]
    assert record["order"][:4] == [["fast", 0, "parent"], ["fast", 0, "change"],
                                   ["fast", 1, "change"], ["fast", 1, "parent"]]
    assert len(saved) == 1 + 2 * 13 + 2 + 1  # after the replay, every run and at the end
    fast = record["metrics"]["fast"]["ops_per_s"]
    assert fast["parent_median"] == 1004.5 and fast["change_median"] == 1104.5
    assert fast["parent_quartiles"] == [1002.25, 1006.75]
    assert fast["change_better_pairs"] == 10 and fast["within_bound"]
    assert record["metrics"]["fast"]["op_p50_ms"]["change_better_pairs"] == 10
    slow = record["metrics"]["slow"]
    assert slow["ops_per_s"]["change_better_pairs"] == 0
    assert not slow["ops_per_s"]["within_bound"] and not slow["op_p50_ms"]["within_bound"]
    assert record["failed_operations"]["slow"] == {"parent": [0, 0, 1], "change": [0, 0, 0]}
    assert (record["within_bounds"], record["no_failed_operations"]) == (False, False)
    assert record["claim"] == {"workload": "fast", "metric": "ops_per_s", "met": True}
    assert record["traced_counts_equal"]
    assert record["traced"]["fast"]["nonzero_counts"] == {"a.calls": 3}
    json.dumps(record)


def test_unequal_traced_counts_and_a_missed_claim_show(monkeypatch):
    bp = load(monkeypatch)
    counts = {"parent": {"a.calls": 3, "b.calls": 1}, "change": {"a.calls": 3, "b.calls": 2}}
    calls = []
    record = bp.measure(stub(calls, counts), [("slow", 1)], 7, 35, METRICS,
                        claim=("slow", "ops_per_s"),
                        replay=stub_replay(calls, {"parent": ["len -n 2 a"], "change": []}))
    assert record["outputs_differing"] == {"parent": ["len -n 2 a"], "change": []}
    assert record["outputs_equal"] is False
    assert record["traced"]["slow"]["differing"] == ["b.calls"]
    assert not record["traced_counts_equal"]
    assert record["claim"]["met"] is False
    assert record["metrics"]["slow"]["ops_per_s"]["parent_quartiles"] == [1000, 1000]


def test_each_tree_replays_the_changes_corpus_with_its_own_tool(monkeypatch, tmp_path):
    # the real replay, in a subprocess per tree, on two stub trees whose
    # tools/cli_corpus.py differ; the corpus is the change's
    bp = load(monkeypatch)
    trees = {side: tmp_path / side for side in bp.SIDES}
    for side, tree in trees.items():
        (tree / "tools").mkdir(parents=True)
        (tree / "tools" / "cli_corpus.py").write_text(
            "def differing(corpus):\n    return %s\n"
            % ("sorted(corpus)" if side == "parent" else "[]"))
    (trees["change"] / "tests").mkdir()
    (trees["change"] / "tests" / "cli_corpus.json").write_text('{"len -n 2 a": "0"}')
    replay = bp.replayer(trees, {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert replay("parent") == ["len -n 2 a"]
    assert replay("change") == []
