"""The benchmark's tracer patches library functions by name: every name it
lists must exist, or `perfbench/run.py --trace 1` fails at install."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


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
