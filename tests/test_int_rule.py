"""The integer test is `type(v) is int`, as in `perms.check_letter`: no
`isinstance(v, int)` in the library, since a bool passes it."""

import ast
import glob
import os

import affcox


def _names_int(node):
    if isinstance(node, ast.Tuple):
        return any(_names_int(elt) for elt in node.elts)
    return isinstance(node, ast.Name) and node.id == "int"


def test_library_has_no_isinstance_int():
    sources = sorted(glob.glob(os.path.join(os.path.dirname(affcox.__file__), "*.py")))
    assert sources
    found = []
    for path in sources:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and _names_int(node.args[1])]
    assert found == []
