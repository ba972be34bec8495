"""The package's modules import only down the layers of ROADMAP.md:
perms < words < finite < canonical < {blocks, tower} < hecke < cli.
Each module's intra-package imports are read from its source with `ast`.
The boundary between checked input and the unchecked interior is pinned
here too: who calls the unchecked decoder, and what canonicalize checks.
So is the library's surface: a public function or class that nothing in
the package uses stays only for a stated reason."""

import ast
import os
import random

import affcox
from affcox import canonical as c
from affcox import hecke as hk
from affcox import words
from affcox.words import Word
from harness import record_calls
from oracles import finite_word, random_reduced_word

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


def is_call_to(func, target):
    """Whether a call of `func` calls `target`, a name ('_peel') called by
    name or as an attribute (c._peel), or 'Class.method', called as an
    attribute of that name (Element._trusted, c.Element._trusted)."""
    owner, _, name = target.rpartition(".")
    if name not in (getattr(func, "id", None), getattr(func, "attr", None)):
        return False
    value = getattr(func, "value", None)
    return not owner or owner in (getattr(value, "id", None), getattr(value, "attr", None))


def callers(target):
    """'module.function' for each top-level function, and 'module.Class.method'
    for each method, of the package whose body calls `target` (`is_call_to`)."""
    out = set()
    for name in LAYER:
        with open(os.path.join(PKG, name + ".py")) as f:
            tree = ast.parse(f.read())
        fns = [(name, fn) for fn in tree.body]
        fns += [("%s.%s" % (name, cls.name), fn) for cls in tree.body
                if isinstance(cls, ast.ClassDef) for fn in cls.body]
        for owner, fn in fns:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and is_call_to(node.func, target)
                    for node in ast.walk(fn)):
                out.add("%s.%s" % (owner, fn.name))
    return out


def test_the_scan_sees_methods():
    assert callers("check_letters") == {"words.Word._check"}


def test_one_rule_builds_every_resource_limit():
    # every size guard raises perms.past_limit, the only RuntimeError the
    # package builds, module-level code included
    built = 0
    for name in LAYER:
        with open(os.path.join(PKG, name + ".py")) as f:
            built += sum(isinstance(node, ast.Call) and is_call_to(node.func, "RuntimeError")
                         for node in ast.walk(ast.parse(f.read())))
    assert built == 1
    assert callers("RuntimeError") == {"perms.past_limit"}
    assert callers("past_limit") == {
        "perms.check_rank", "perms.bfs_reduced_words", "finite.finite_shapes",
        "canonical.from_window", "blocks._walk", "blocks.appendix_blocks", "hecke._fold"}


def test_only_library_built_windows_reach_the_unchecked_peel():
    # the peel runs only when a form is read, on the window of an Element:
    # one the library built, or one from_window checked
    assert callers("_peel") == {"canonical._form"}


def test_no_module_has_a_global_statement():
    # no process-wide state that every test would have to reset: no
    # function rebinds a module-level name
    for name in os.listdir(PKG):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name)) as f:
                tree = ast.parse(f.read())
            assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), name


def test_only_forms_the_library_checked_skip_the_element_checks():
    # an Element is its window: each of these passes the window it built
    # or mapped, or that from_window checked, and decodes nothing; left_mul
    # and the listings make their forms by the checked constructor, the
    # only encoder (cli's `blocks` prints its blocks from their pairs,
    # building no Element)
    assert callers("Element._trusted") == {
        "canonical.canonicalize", "canonical.from_window", "canonical.mul",
        "canonical.inverse", "canonical.coset_rep", "tower.embed", "tower.preimage",
        "hecke.gen_basis", "hecke._fold"}
    assert callers("_encode") == {"canonical.Element._check"}
    # Hecke sums, scalings and folds of checked Hecke elements, and the
    # certificate's lower terms, a sub-sum of the fold's own
    assert callers("HeckeElement._trusted") == {
        "hecke.scale", "hecke.add", "hecke._fold", "hecke.triangularity_certificate"}
    # words the library spells from checked forms: a canonical word or a
    # block's (`_spell`), the x4 family's word included
    assert callers("Word._trusted") == {"canonical._spell"}
    assert callers("_trusted") == callers("Element._trusted") | callers(
        "HeckeElement._trusted") | callers("Word._trusted")
    # Element._check and the m = 2 case list raise one error for a bad block
    assert callers("validate_block") == {"canonical._check_block", "blocks.appendix_blocks"}
    assert callers("_check_block") == {
        "canonical.Element._check", "canonical.affine_descent_cases_m2"}
    # the m <= 2 case lists check their input, then run the table unchecked
    assert callers("_deficiency") == {
        "canonical.deficiency_m1", "canonical.affine_descent_cases_m2"}


def test_one_base_makes_every_checked_value():
    # perms.Checked holds the only __new__, _make and _trusted among the
    # package's classes, and exactly the three value types build on it
    defined, built_on = set(), set()
    for name in LAYER:
        with open(os.path.join(PKG, name + ".py")) as f:
            tree = ast.parse(f.read())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            owner = "%s.%s" % (name, cls.name)
            for node in cls.body:
                names = [node.name] if isinstance(node, ast.FunctionDef) else [
                    t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
                defined |= {(owner, m) for m in names if m in ("__new__", "_make", "_trusted")}
            if any("Checked" in (getattr(b, "id", None), getattr(b, "attr", None))
                   for b in cls.bases):
                built_on.add(owner)
    assert defined == {("perms.Checked", m) for m in ("__new__", "_make", "_trusted")}
    assert built_on == {"words.Word", "canonical.Element", "hecke.HeckeElement"}


def test_only_named_callers_reach_the_judges_fold():
    # perms is the window model, the independent judge; outside it, its
    # fold serves only the test oracle of finite_left_insert that perfbench
    # traces (right_insert), the letter check of g_s (gen_basis) and the
    # brick identities, never a library hot path
    assert callers("right_mul") == {
        "finite.right_insert", "hecke.gen_basis",
        "perms.bfs_reduced_words", "perms.to_permutation"}
    assert callers("to_permutation") == {
        "finite.brick_identities_check", "perms._product_order", "perms.check_relations"}
    # the Hecke step moves two window entries on letters a Word checked
    assert callers("move") == {"perms.right_mul", "hecke._step"}


ELEMENT_RULES = ("validate_block", "validate_finite", "int_pairs")


def test_canonicalize_checks_nothing_again(monkeypatch):
    """A Word or an Element was checked when it was made, so canonicalize,
    mul, inverse, left_descents and hecke_mul call no letter, rank, window
    or element rule, and hr_embed only the rank check of the identity
    window one rank up: every binding of them in the package is counted."""
    rng = random.Random(26)
    words = []
    for n in (2, 3, 6, 12, 24):
        words.append(Word(n, random_reduced_word(n, 200, rng)))
        words.append(Word(n, [rng.randrange(n + 1) for _ in range(200)]))
    short = [c.canonicalize(Word(n, random_reduced_word(n, 8, rng))) for n in (2, 3)]
    assert all(e.pairs for e in short)  # a check per pair would show
    calls = record_calls(monkeypatch, "check_letters", "check_letter", "check_rank",
                         "is_window", *ELEMENT_RULES)
    elements = [c.canonicalize(w) for w in words]
    for e in elements:
        c.mul(e, e)
        c.inverse(e)
        c.left_descents(e)
    assert calls == []
    # element_word spells each right-factor term's word unchecked, and
    # hr_embed builds the identity window one rank up
    for e in short:
        g = hk.basis(e)
        assert calls == ["check_rank"]  # a HeckeElement checks itself when it is made
        del calls[:]
        hk.hecke_mul(g, g)
        assert calls == []
        hk.hr_embed(g)
        assert calls == ["check_rank"]
        del calls[:]
    del calls[:]
    assert c.from_window(elements[0].window) == elements[0]
    assert calls == ["is_window", "check_rank"]  # the counters are live
    del calls[:]
    e = elements[0]
    c.Element(e.n, e.pairs, e.bricks)
    assert calls == ["check_rank", "int_pairs", "int_pairs", "validate_block",
                     "validate_finite", "check_rank"]


def test_element_word_makes_one_word(monkeypatch):
    """element_word reads the letters of the pairs and of the bricks into
    one list and makes one Word of them, unchecked: the Element was checked
    when it was made."""
    e = c.canonicalize(Word(4, (4, 0, 4, 3, 1, 0, 2, 1, 3)))
    assert e.pairs and e.bricks
    want = c.block_word(e.pairs, 4).letters + finite_word(e.bricks, 4).letters
    calls = []
    orig = words.check_letters
    monkeypatch.setattr(words, "check_letters", lambda *args: calls.append(args) or orig(*args))
    w = c.element_word(e)
    assert calls == []
    assert type(w) is Word and w == Word(4, want)


# Public names with no consumer in the package, each kept for the statement
# of the paper it reproduces or for the benchmark file that reads it.  Test
# oracles and test input generators live in tests/oracles.py instead.
UNCONSUMED = {
    "canonical.affine_descent_cases_m2": "the case list deciding a in R(w) "
        "at affine length 2 (the right descent set); perfbench/workloads.py",
    "canonical.block_left_descents": "the left descent set of a one-pair "
        "block, L(h(j,i) a)",
    "canonical.coset_rep": "the block is the minimal-length representative "
        "of the right W(A_n)-coset",
    "canonical.deficiency_m1": "the four deficient cases at affine length 1: "
        "when h(j1,i1) a h(j,i) a is not reduced, and its hat partner",
    "canonical.from_window": "every element has one canonical form, read off "
        "its window; the one checked decoder of a window from outside",
    "canonical.left_mul": "the left-multiplication trichotomy; "
        "perfbench/tracer.py and perfbench/workloads.py",
    "finite.h_times_floor": "the three-case rule h(j',i') . |j,n| = "
        "h(j,i) . |u,n-1|",
    "finite.peel_h": "the factorization x = h(r,i) . p with p in "
        "<sigma_2, ..., sigma_{n-1}>, lengths adding",
    "finite.right_insert": "perfbench/tracer.py",
    "hecke.gen_inverse": "g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1, by the "
        "quadratic relation",
    "hecke.hecke_left_mul_gen": "perfbench/tracer.py",
    "hecke.triangularity_certificate": "the Hecke arrow is triangular: "
        "A_w g_{R(w)} plus shorter terms; perfbench/workloads.py",
    "tower.substitute_word": "the embedding on words, a to sigma_n a sigma_n; "
        "perfbench/workloads.py",
    "words.is_reduced": "the reflection-sequence criterion for reduced "
        "words; perfbench/tracer.py",
    "words.word": "perfbench/workloads.py builds its input words with it",
}


def consumers():
    """(public, consumed): the public top-level functions and classes of
    the package as 'module.name', and those that another top-level
    definition or module-level code refers to.  A reference is resolved
    through its module's own imports (`c.x`, `fin.x`, `from .m import x`),
    and a name bound inside a function (an argument or an assignment)
    refers to nothing outside it."""
    trees, defs, aliases, imported = {}, {}, {}, {}
    for name in LAYER:
        with open(os.path.join(PKG, name + ".py")) as f:
            trees[name] = tree = ast.parse(f.read())
        defs[name] = {node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        aliases[name], imported[name] = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        imported[name][a.asname or a.name] = (node.module, a.name)
                    else:
                        aliases[name][a.asname or a.name] = a.name

    def resolve(module, attr):
        while attr not in defs[module] and attr in imported[module]:
            module, attr = imported[module][attr]
        return "%s.%s" % (module, attr)

    consumed = set()
    for name, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            local = {n.arg for n in ast.walk(top) if isinstance(n, ast.arg)} | {
                n.id for n in ast.walk(top)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id not in local and (
                        node.id in defs[name] or node.id in imported[name]):
                    ref = resolve(name, node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases[name]):
                    ref = resolve(aliases[name][node.value.id], node.attr)
                else:
                    continue
                if ref != "%s.%s" % (name, owner):
                    consumed.add(ref)
    public = {"%s.%s" % (name, d) for name in LAYER for d in defs[name]
              if not d.startswith("_")}
    return public, consumed


def test_every_public_name_has_a_consumer_or_a_reason():
    public, consumed = consumers()
    assert public - consumed - set(UNCONSUMED) == set()
    # each entry names a public definition that still has no consumer
    assert set(UNCONSUMED) <= public - consumed
    assert all(UNCONSUMED.values())
    # the scan is live: a cli.COMMANDS row (c.mul), `from .m import x`
    # (words.Word), and one name in two modules (inverse)
    assert {"canonical.mul", "words.Word", "canonical.inverse", "perms.inverse"} <= consumed
