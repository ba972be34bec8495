"""
Per-layer tracing from outside the library.

The library's modules call each other through module globals (`_table`,
`fin.finite_left_insert`, `c.left_mul`, ...), so replacing those globals
with counting wrappers at run time sees every call without touching the
library's source.  `Tracer.install` swaps each target function, in every
affcox module that holds it, for a wrapper; `Tracer.remove` puts the
originals back.

A wrapper does nothing but call through unless the tracer is active, which
the benchmark turns on only around timed operations.  While active it
accumulates, per function: calls, inclusive time (outermost calls only, so
recursion is not counted twice) and self time (inclusive time minus the
time of wrapped functions it called, tracked with a stack).  No span is
stored per inner call; spans are kept per operation only.
"""

import sys
from time import perf_counter

TARGETS = {
    "canonical": (
        "validate_block", "_table", "_exchange", "left_mul_block", "left_mul",
        "canonicalize", "mul", "inverse", "right_descents", "left_descents",
    ),
    "finite": ("finite_left_insert", "right_insert"),
    "hecke": ("hecke_left_mul_gen", "hecke_mul", "hr_embed"),
    "tower": ("embed", "preimage", "is_in_image"),
    "blocks": ("enumerate_blocks",),
    "words": ("is_reduced",),
    "perms": ("to_permutation", "right_mul"),
    "cli": ("main", "build_parser"),
}

# work quantities beyond the call count: name -> (quantity, f(args, result))
QUANTITIES = {
    "canonical.validate_block": ("pairs", lambda args, res: len(args[0])),
    "hecke.hecke_left_mul_gen": ("terms", lambda args, res: len(args[1].terms)),
    "blocks.enumerate_blocks": ("items", lambda args, res: len(res.items)),
}

# (inner, outer): count calls of inner made while outer is running
NESTED = (
    ("finite.right_insert", "finite.finite_left_insert"),
    ("canonical.left_mul", "hecke.hecke_left_mul_gen"),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "quantity", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.quantity = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}
        self.nested = {pair: 0 for pair in NESTED}
        self.spans = []  # (op index, kind, start, end), one per operation
        self._stack = []
        self._saved = []

    def install(self):
        for short, names in TARGETS.items():
            mod = sys.modules["affcox." + short]
            for name in names:
                self._patch(getattr(mod, name), "%s.%s" % (short, name))
        return self

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, fn, name):
        wrapper = self._wrap(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "affcox" and not modname.startswith("affcox."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, name):
        st = self.stats[name] = Stat()
        stack = self._stack
        quantity = QUANTITIES.get(name, (None, None))[1]
        stats = self.stats
        outers = [outer for inner, outer in NESTED if inner == name]
        nested = self.nested

        def wrapper(*args, **kw):
            if not self.active:
                return fn(*args, **kw)
            for outer in outers:
                if stats[outer].depth:
                    nested[(name, outer)] += 1
            st.depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dt = perf_counter() - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - stack.pop()
                if not st.depth:
                    st.total_s += dt
                if stack:
                    stack[-1] += dt
            if quantity is not None:
                st.quantity += quantity(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counts(self):
        """The deterministic part: call counts, work quantities, nesting."""
        out = {}
        for name, st in self.stats.items():
            out[name + ".calls"] = st.calls
            if name in QUANTITIES:
                out["%s.%s" % (name, QUANTITIES[name][0])] = st.quantity
        for (inner, outer), calls in self.nested.items():
            out["%s.calls_in.%s" % (inner, outer)] = calls
        return out
