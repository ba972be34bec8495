"""The integer test is `type(v) is int`, as in `perms.check_letter`, or
its one-pass form over many values, a type set compared with `{int}`, as
in `perms.check_letters`: no `isinstance(v, int)` in the library, since a
bool passes it, and the test itself is written only inside the named rule
functions, which every other function calls."""

import ast
import glob
import os

import affcox

# module -> the functions that state an input rule with `type(v) is int`
RULES = {
    "perms": {"check_rank", "check_letter", "check_letters", "check_count", "is_window"},
    "finite": {"int_pairs", "_check_sigma", "hprefix_ok"},
    "blocks": {"_check_appendix_args"},
    "canonical": {"from_json"},
    "hecke": {"_lp_ok"},
}


def _trees():
    sources = sorted(glob.glob(os.path.join(os.path.dirname(affcox.__file__), "*.py")))
    assert sources
    for path in sources:
        with open(path) as f:
            yield os.path.basename(path), ast.parse(f.read(), path)


def _names_int(node):
    if isinstance(node, ast.Tuple):
        return any(_names_int(elt) for elt in node.elts)
    return isinstance(node, ast.Name) and node.id == "int"


def _is_type_int_test(node):
    """`type(...) is int`, `type(...) is not int`, or a type set compared
    with `{int}` (`set(map(type, xs)) <= {int}`)."""
    if not isinstance(node, ast.Compare):
        return False
    if any(isinstance(side, ast.Set) and any(_names_int(elt) for elt in side.elts)
           for side in [node.left, *node.comparators]):
        return True
    return (isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(_names_int(right) for right in node.comparators))


def test_library_has_no_isinstance_int():
    found = []
    for name, tree in _trees():
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and _names_int(node.args[1])]
    assert found == []


def test_int_test_only_in_rule_functions():
    found = []
    for name, tree in _trees():
        allowed = RULES.get(name[:-3], set())
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(stmt)
                      if _is_type_int_test(node) and owner not in allowed]
    assert found == []
