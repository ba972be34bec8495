"""Running the library in a fresh interpreter, for the tests whose checks
must hold there: under `python -O`, or with a small recursion limit; and
recording which of its functions an operation calls, for the count tests."""

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


def record_calls(monkeypatch, *names):
    """The list of `names`, in the order their functions are called: each
    name ('_peel', or 'perms.inverse' where modules define it twice) is
    one function of the package, patched at every binding of it in the
    loaded affcox modules, matched by identity, so a call through any
    import of it is recorded."""
    modules = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("affcox")]
    calls = []
    for name in names:
        owner, _, attr = name.rpartition(".")
        fns = ({getattr(sys.modules["affcox." + owner], attr)} if owner else
               {vars(m)[attr] for m in modules if attr in vars(m)})
        assert len(fns) == 1, "%s names %d functions" % (name, len(fns))
        fn, = fns
        recorded = lambda *args, name=name, fn=fn: calls.append(name) or fn(*args)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, binding, recorded)
    return calls
