"""Every `affcox` command returns what it shows, and `cli.main` prints it:
the only `print` calls in cli.py are in `main` and in `_selfcheck`, which
prints its status lines before it fails."""

import ast

from affcox import cli


def _prints(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "print"]


def test_cli_prints_only_in_main_and_selfcheck():
    with open(cli.__file__) as f:
        tree = ast.parse(f.read(), cli.__file__)
    allowed = [line for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and fn.name in ("main", "_selfcheck") for line in _prints(fn)]
    assert allowed and sorted(allowed) == sorted(_prints(tree))
