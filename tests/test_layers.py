"""The package's modules import only down the layers of ROADMAP.md:
perms < words < finite < canonical < {blocks, tower} < hecke < cli.
Each module's intra-package imports are read from its source with `ast`."""

import ast
import os

import affcox

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
