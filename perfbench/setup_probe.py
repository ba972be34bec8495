"""
One set-up measurement in a fresh interpreter, as run.py starts it:

    python3 perfbench/setup_probe.py <workload> <seed>

prints the seconds spent importing every affcox module plus building the
first round of the workload's inputs with the library's constructors,
first rescaled to the reference machine speed (clock.py), then raw.
Drawing the inputs on the oracle side is not counted.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import clock  # noqa: E402  (calls nothing in affcox)

for _ in range(5):  # warm the probe up before its timed calls
    clock.probe()
before = [clock.probe() for _ in range(8)]

t0 = perf_counter()
import affcox.cli  # noqa: E402,F401  (imports every library module)
t1 = perf_counter()

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
specs = workloads.WORKLOADS[name].round(workloads.fresh_draws(name, seed), 0)
t2 = perf_counter()
workloads.build(specs)
t3 = perf_counter()
raw = (t1 - t0) + (t3 - t2)

after = [clock.probe() for _ in range(8)]
print(repr(raw * clock.factor(before + after)), repr(raw))
