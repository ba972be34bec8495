"""The benchmark against the library: its tracer patches library functions
by name, so every name it lists must exist, or `perfbench/run.py --trace 1`
fails at install; and its selftest builds and judges every workload's
operations, so a library signature change that breaks them fails here."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def load_tracer(monkeypatch):
    # read only: leave no bytecode beside the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_targets_resolve(monkeypatch):
    tracer = load_tracer(monkeypatch)
    traced = set()
    for short, names in tracer.TARGETS.items():
        mod = importlib.import_module("affcox." + short)
        for name in names:
            assert callable(getattr(mod, name, None)), "affcox.%s.%s" % (short, name)
            traced.add("%s.%s" % (short, name))
    assert set(tracer.QUANTITIES) <= traced, set(tracer.QUANTITIES) - traced
    nested = {name for pair in tracer.NESTED for name in pair}
    assert nested <= traced, nested - traced


def test_perfbench_selftest_passes():
    # read only: leave no bytecode beside the benchmark's sources; the
    # selftest writes and removes only perfbench/out/bare
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"selftest": "ok"}
