"""Library invariants raise InvariantError, never a bare `assert`, so they
survive `python -O`."""

import ast
import glob
import os

import affcox


def test_library_has_no_assert_statement():
    sources = sorted(glob.glob(os.path.join(os.path.dirname(affcox.__file__), "*.py")))
    assert sources
    found = []
    for path in sources:
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
