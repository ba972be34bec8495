"""The package's modules import only down the layers of ROADMAP.md:
perms < words < finite < canonical < {blocks, tower} < hecke < cli.
Each module's intra-package imports are read from its source with `ast`.
The boundary between checked input and the unchecked interior is pinned
here too: who calls the unchecked decoder, and what canonicalize checks."""

import ast
import os
import random
import sys

import affcox
from affcox import canonical as c
from affcox import perms
from affcox.words import Word

PKG = os.path.dirname(affcox.__file__)
LAYER = {"perms": 0, "words": 1, "finite": 2, "canonical": 3,
         "blocks": 4, "tower": 4, "hecke": 5, "cli": 6}


def imports(name):
    """(module, names) for each relative import of module `name`;
    `from . import x` is (x, ()) and `from .x import y` is (x, (y,))."""
    with open(os.path.join(PKG, name + ".py")) as f:
        tree = ast.parse(f.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.append((node.module, tuple(a.name for a in node.names)))
            else:
                out.extend((a.name, ()) for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            absolute = [node.module] if isinstance(node, ast.ImportFrom) else [
                a.name for a in node.names]
            assert not any(m and m.split(".")[0] == "affcox" for m in absolute), name
    return out


def test_every_module_has_a_layer():
    modules = {f[:-3] for f in os.listdir(PKG) if f.endswith(".py")}
    assert modules - {"__init__"} == set(LAYER)


def test_imports_point_down_the_layers():
    for name, layer in LAYER.items():
        for dep, _ in imports(name):
            assert LAYER[dep] < layer, "%s imports %s" % (name, dep)


def test_hecke_keys_by_element_without_importing_it():
    deps = imports("hecke")
    assert "words" not in {dep for dep, _ in deps}
    assert ("canonical", ("Element",)) not in deps


def test_each_shared_rule_is_defined_in_one_module():
    # one decoder of any window, W(A_n) windows included, and one
    # generator order; nested definitions count too
    owners = {}
    for name in LAYER:
        with open(os.path.join(PKG, name + ".py")) as f:
            for node in ast.walk(ast.parse(f.read())):
                if isinstance(node, ast.FunctionDef):
                    owners.setdefault(node.name, set()).add(name)
    assert owners["from_window"] == {"canonical"}
    assert owners["generators"] == {"perms"}


def callers(target):
    """'module.function' for each top-level function of the package whose
    body calls `target`, by name or as an attribute (c._peel)."""
    out = set()
    for name in LAYER:
        with open(os.path.join(PKG, name + ".py")) as f:
            tree = ast.parse(f.read())
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call)
                    and target in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    for node in ast.walk(fn)):
                out.add("%s.%s" % (name, fn.name))
    return out


def test_only_library_built_windows_reach_the_unchecked_peel():
    # from_window checks a window from outside and peels it; the others
    # peel windows they built themselves
    assert callers("_peel") == {
        "canonical.from_window", "canonical.canonicalize", "canonical.mul",
        "canonical.inverse", "hecke._fold", "hecke.gen_basis"}


def test_canonicalize_checks_nothing_again(monkeypatch):
    """A Word was checked when it was made, so canonicalize calls no letter,
    rank or window rule: every binding of them in the package is counted."""
    rng = random.Random(26)
    words = []
    for n in (2, 3, 6, 12, 24):
        words.append(Word(n, perms.random_reduced_word(n, 200, rng)))
        words.append(Word(n, [rng.randrange(n + 1) for _ in range(200)]))
    calls = []
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("affcox"):
            for name in ("check_letters", "check_letter", "check_rank", "is_window"):
                orig = getattr(module, name, None)
                if orig is not None:
                    monkeypatch.setattr(module, name, lambda *args, name=name, orig=orig:
                                        calls.append(name) or orig(*args))
    elements = [c.canonicalize(w) for w in words]
    assert calls == []
    assert c.from_window(c.window(elements[0])) == elements[0]
    assert calls == ["is_window"]  # the counters are live
