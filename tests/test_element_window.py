"""An Element carries its window.  By every route that makes one, the field
equals the judge's window, the window model's fold of the element's
canonical word; and the encoder (`canonical._encode`) runs only for forms
built from outside, never inside an operation on existing Elements."""

import argparse
import copy
import pickle
import random

from affcox import blocks as bl
from affcox import canonical as c
from affcox import cli
from affcox import hecke as hk
from affcox import perms
from affcox import tower
from affcox.words import Word
from oracles import random_reduced_word


def judge(e):
    return perms.to_permutation(c.element_word(e).letters, e.n)


def holds(e, *where):
    assert type(e) is c.Element and type(e.window) is tuple, where
    assert e.window == judge(e), where


def coxeter_power(n, k):
    """c^k, c = sigma_1 ... sigma_n a: a reduced word of affine length k."""
    return c.canonicalize(Word(n, (tuple(range(1, n + 1)) + (perms.AFFINE,)) * k))


def elements():
    """Reduced and cancelling words at n 2-30, and c^k with m up to 10^4."""
    rng = random.Random(36)
    out = []
    for n in (2, 3, 4, 5, 8, 13, 21, 30):
        for _ in range(3):
            out.append(c.canonicalize(Word(n, random_reduced_word(n, rng.randint(0, 150), rng))))
        out.append(c.canonicalize(Word(n, [rng.randrange(n + 1)
                                           for _ in range(rng.randint(0, 300))])))
        out.append(c.identity_element(n))
    out += [coxeter_power(2, 10 ** 4), coxeter_power(3, 10 ** 3), coxeter_power(10, 200),
            coxeter_power(30, 40)]
    return out


ELEMENTS = elements()


def test_made_from_outside():
    """The constructor, the text and JSON readers, _make and _replace,
    pickle and copy: each encodes from the pairs and bricks, and a window
    passed in, wrong or not, is recomputed."""
    assert max(len(e.pairs) for e in ELEMENTS) == 10 ** 4
    for e in ELEMENTS:
        n, pairs, bricks = e[:3]
        wrong = (0,) * (n + 1)
        forged = c.Element._trusted(n, pairs, bricks, wrong)
        routes = {
            "Element": c.Element(n, pairs, bricks),
            "keywords": c.Element(n=n, pairs=pairs, bricks=bricks),
            "parse_element": c.parse_element(c.format_element(e), n),
            "from_json": c.from_json(c.to_json(e), n),
            "_make": c.Element._make((n, pairs, bricks)),
            "_make(window)": c.Element._make((n, pairs, bricks, wrong)),
            "_replace(window)": e._replace(window=wrong),
            "pickle": pickle.loads(pickle.dumps(forged)),
            "copy": copy.copy(forged),
            "deepcopy": copy.deepcopy(forged),
        }
        for route, made in routes.items():
            holds(made, route, n)
            assert made == e, route


def test_made_by_the_operations():
    """canonicalize, mul, inverse, from_window, left_mul, coset_rep, embed
    and preimage: each stores a window it was given or mapped."""
    by_rank = {}
    for e in ELEMENTS:
        by_rank.setdefault(e.n, []).append(e)
    for n, group in by_rank.items():
        for e, f in zip(group, group[1:] + group[:1]):
            holds(e, "canonicalize", n)
            holds(c.mul(e, f), "mul", n)
            holds(c.inverse(e), "inverse", n)
            holds(c.from_window(judge(e)), "from_window", n)
            holds(c.from_window(list(judge(e))), "from_window(list)", n)
            holds(c.coset_rep(e), "coset_rep", n)
            if len(e.pairs) <= 300:  # left_mul is O(m) per letter
                for s in c.generators(n):
                    holds(c.left_mul(s, e), "left_mul", s, n)
            img = tower.embed(e)
            holds(img, "embed", n)
            holds(tower.preimage(img), "preimage", n)
            if tower.is_in_image(e):
                holds(tower.preimage(e), "preimage", n)


def test_made_by_the_hecke_fold():
    """The terms of products, of the rank-raising arrow and of g_s."""
    rng = random.Random(3636)
    for n in (2, 3, 4):
        for _ in range(6):
            u, v = (c.canonicalize(Word(n, random_reduced_word(n, rng.randint(0, 6), rng)))
                    for _ in "uv")
            for h in (hk.hecke_mul(hk.basis(u), hk.basis(v)), hk.hr_embed(hk.basis(u)),
                      hk.gen_basis(rng.choice(c.generators(n)), n)):
                for term in h.terms:
                    holds(term, "hecke", n)


def test_made_by_the_block_listings():
    """reference_blocks and appendix_blocks.  The CLI's blocks listing makes
    no Element: it prints, from the pairs, the lines and JSON of the
    checked Elements of its blocks, in sort_key's order."""
    for n, max_len in ((2, 9), (3, 7), (5, 5)):
        for e in bl.reference_blocks(n, max_len):
            holds(e, "reference_blocks", n)
    for n in (2, 3):
        for e in bl.appendix_blocks(n):
            holds(e, "appendix_blocks", n)
    for n, m in ((2, 3), (4, 2)):
        elems = sorted((c.Element(n, p, ()) for p in bl.enumerate_blocks(n, m).items),
                       key=c.sort_key)
        assert len(elems) > 10 and len({c.length(e) for e in elems}) > 3
        args = argparse.Namespace(rank=n, m=m, max_len=None, count_only=False, json=False)
        assert cli._blocks(args)[1].split("\n") == [
            "%s  l=%d" % (c.format_element(e), c.length(e)) for e in elems]
        args.json = True
        assert cli._blocks(args)[0] == [cli.element_json(e) for e in elems]


def test_operations_on_elements_never_encode(monkeypatch):
    """mul, inverse, both descent sets, the tower and the Hecke products on
    existing Elements read their windows: the encoder runs zero times.
    Making an Element from outside encodes it once, and a listing of blocks
    once per block; the CLI's listing encodes none."""
    rng = random.Random(3637)
    small = [c.canonicalize(Word(n, random_reduced_word(n, 6, rng))) for n in (2, 3, 4)]
    lifted = [tower.embed(e) for e in ELEMENTS]
    hecke = [(hk.basis(c.inverse(e)), hk.basis(e)) for e in small]
    calls = []
    orig = c._encode
    monkeypatch.setattr(c, "_encode", lambda *args: calls.append(args) or orig(*args))
    for e, f in zip(ELEMENTS, ELEMENTS[1:]):
        if e.n == f.n:
            c.mul(e, f)
        c.inverse(e)
        c.left_descents(e)
        c.right_descents(e)
        c.coset_rep(e)
        tower.is_in_image(e)
        tower.preimage(e)
        tower.embed(e)
    for e in lifted:
        tower.is_in_image(e)
        tower.preimage(e)
    for g, h in hecke:
        hk.hecke_mul(g, h)
        hk.hr_embed(h)
    for e in small:
        hk.triangularity_certificate(e)
        for s in c.generators(e.n):
            c.left_mul(s, e)
    c.from_window(ELEMENTS[0].window)
    c.canonicalize(Word(3, (1, 0, 2, 3, 0)))
    assert calls == []
    # the counter is live: a form from outside is encoded once
    e = small[1]
    c.Element(e.n, e.pairs, e.bricks)
    assert calls == [e[:3]]
    del calls[:]
    listing = bl.reference_blocks(3, 6)
    assert len(calls) == len(listing) > 0
    del calls[:]
    for json in (False, True):
        cli._blocks(argparse.Namespace(rank=3, m=3, max_len=None, count_only=False, json=json))
    assert calls == []  # the CLI's listing prints from the pairs
