"""Running the library in a fresh interpreter, for the tests whose checks
must hold there: under `python -O`, or with a small recursion limit."""

import os
import subprocess
import sys

import affcox


def run_python(code, *flags, timeout=60):
    """The stdout of `python <flags> -c code` on this package, which must
    exit 0 (its stderr is the failure message otherwise)."""
    src = os.path.dirname(os.path.dirname(affcox.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
