"""
Checks of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

1. The oracle's window rules agree with the length formula and with the
   letter substitution of the embedding on small balls.
2. A deliberately wrong output, and an operation that raises, are each
   counted as a failure.
3. Two traced runs with the same seed give identical operation counts,
   and a traced run reports every per-layer metric.
4. Without the library sources the benchmark exits non-zero and prints
   no result.
5. Latencies are rescaled by the reference probe time over the chunk's
   mean probe time, and the raw latencies are kept unchanged.
"""

import json
import shutil
import subprocess
import sys

import run  # sets up the import paths (and needs src/ to exist)

from affcox import canonical, perms, tower
from affcox.words import Word

import clock
import oracle as o
import workloads as wl


def check_oracle_rules():
    for n in (2, 3):
        for w, _ in perms.bfs_enumerate(n, 6):
            up = set(o.right_ascents(w))
            lw = perms.perm_length(w)
            want = {s for s in range(n + 1) if perms.perm_length(perms.right_mul(w, s)) > lw}
            assert up == want, (w, up, want)
    n = 3
    image = set()
    for _, letters in perms.bfs_reduced_words(n - 1, 6).items():
        sub = tower.substitute_word(Word(n - 1, letters)).letters
        w = perms.to_permutation(sub, n)
        if perms.perm_length(w) <= 6:
            image.add(w)
    stabilizer = {w for w, _ in perms.bfs_enumerate(n, 6) if o.in_embedding_image(w)}
    assert image == stabilizer, (len(image), len(stabilizer))


def first_round(name, seed=7):
    return next(wl.rounds(name, wl.fresh_draws(name, seed)))


def check_failures_counted():
    ops = [op for op in first_round("canon-long") if op.spec.tag is None][:20]
    wrong, raising = ops[3].args[0], ops[5].args[0]
    original = canonical.canonicalize

    def broken(w):
        if w is wrong:
            return original(Word(w.n, w.letters[1:]))
        if w is raising:
            raise RecursionError("deliberate")
        return original(w)

    canonical.canonicalize = broken
    try:
        lat, outs, errors = run.run_ops(ops)
    finally:
        canonical.canonicalize = original
    assert run.count_failures(ops, outs) == 2, errors
    assert errors == ["canonicalize: RecursionError"], errors
    lat, outs, errors = run.run_ops(ops)
    assert run.count_failures(ops, outs) == 0

    ops = first_round("element-ops")
    target = next(op for op in ops if op.kind == "is_in_image").args[0]
    original = tower.is_in_image
    tower.is_in_image = lambda e: (not original(e)) if e is target else original(e)
    try:
        lat, outs, errors = run.run_ops(ops)
    finally:
        tower.is_in_image = original
    assert run.count_failures(ops, outs) == 1 and not errors


def check_counts_repeat():
    for name, work in list(wl.WORKLOADS.items()):
        wl.WORKLOADS[name] = work._replace(trace_rounds=1)
        try:
            first = run.traced(name, 3)
            second = run.traced(name, 3)
        finally:
            wl.WORKLOADS[name] = work
        assert first[1] == 0 and second[1] == 0, (name, first[3]["errors"])
        assert first[3]["counts"] == second[3]["counts"], name
        missing = [k for k, _ in run.PER_LAYER if k not in first[2]]
        assert not missing, missing


def check_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "canon-long",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def check_rescaling():
    meter = run.Meter(seconds=60)
    meter.chunk = [0.001, 0.002, 0.003]
    # probes twice as slow as the reference: the machine is in a slow phase
    meter.probes = [clock.REF_S * 1.5, clock.REF_S * 2.5]
    meter.close_chunk()  # tops the probes up to three with real ones
    assert list(meter.raw) == [0.001, 0.002, 0.003]
    f = meter.factors[0]
    assert 0.1 < f < 0.7, f
    assert all(abs(s - r * f) < 1e-15 for s, r in zip(meter.scaled, meter.raw))
    assert not meter.chunk and not meter.probes
    assert clock.factor([clock.REF_S] * 4) == 1.0


def main():
    for check in (check_oracle_rules, check_failures_counted,
                  check_counts_repeat, check_bare_directory, check_rescaling):
        check()
        print("%s: ok" % check.__name__)
    print(json.dumps({"selftest": "ok"}))


if __name__ == "__main__":
    main()
