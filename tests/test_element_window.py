"""An Element is its window.  By every route that makes one, the window
equals the judge's window, the window model's fold of the element's
canonical word; the encoder (`canonical._encode`) runs only in the checked
constructor, and the decoder (`canonical._peel`) only when a form is read,
never inside an operation on existing Elements."""

import argparse
import copy
import pickle
import random

import pytest

from affcox import blocks as bl
from affcox import canonical as c
from affcox import cli
from affcox import hecke as hk
from affcox import perms
from affcox import tower
from affcox.words import Word
from harness import record_calls
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


def test_made_from_outside(monkeypatch):
    """The constructor, the text and JSON readers, _make, pickle and copy:
    each runs the checked constructor once, the one encoder, which encodes
    from the pairs and bricks.  _replace and a four-field _make pass fields
    where the constructor takes (n, pairs, bricks): each raises TypeError
    and encodes nothing."""
    assert c.Element._fields == ("n", "window")
    assert max(len(e.pairs) for e in ELEMENTS) == 10 ** 4
    encodes = record_calls(monkeypatch, "_encode")
    for e in ELEMENTS:
        n, pairs, bricks = e.n, e.pairs, e.bricks
        routes = {
            "Element": lambda: c.Element(n, pairs, bricks),
            "keywords": lambda: c.Element(n=n, pairs=pairs, bricks=bricks),
            "parse_element": lambda: c.parse_element(c.format_element(e), n),
            "from_json": lambda: c.from_json(c.to_json(e), n),
            "_make": lambda: c.Element._make((n, pairs, bricks)),
            "pickle": lambda: pickle.loads(pickle.dumps(e)),
            "copy": lambda: copy.copy(e),
            "deepcopy": lambda: copy.deepcopy(e),
        }
        for route, make in routes.items():
            del encodes[:]
            made = make()
            assert len(encodes) == 1, route
            holds(made, route, n)
            assert made == e and (made.pairs, made.bricks) == (pairs, bricks), route
        del encodes[:]
        for route in (lambda: e._replace(window=(0,) * (n + 1)), lambda: e._replace(n=n),
                      lambda: c.Element._make((n, pairs, bricks, e.window))):
            with pytest.raises(TypeError):
                route()
        assert encodes == []


def test_made_by_the_operations():
    """canonicalize, mul, inverse, from_window, coset_rep, embed and
    preimage store a window they were given or mapped, and left_mul the
    window its checked constructor encoded."""
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
    """canonicalize, mul, inverse, both descent sets, coset_rep, the tower
    and g_s on existing Elements build windows: the decoder and the
    encoder run zero times, and the Hecke products decode only the word of
    each right-factor term.  A form made by the checked constructor is
    encoded once, and reading it back is one decode; left_mul decodes
    the form it multiplies, left_mul and a listing of blocks encode once
    per form they make, and the CLI's listing encodes none."""
    rng = random.Random(3637)
    words = [Word(n, random_reduced_word(n, 6, rng)) for n in (2, 3, 4)]
    small = [c.canonicalize(w) for w in words]
    lifted = [tower.embed(e) for e in ELEMENTS]
    hecke = [(hk.basis(c.inverse(e)), hk.basis(e)) for e in small]
    calls = record_calls(monkeypatch, "_peel", "_encode")
    for w in words:
        c.canonicalize(w)
    for e, f in zip(ELEMENTS, ELEMENTS[1:]):
        if e.n == f.n:
            c.mul(e, f)
        c.inverse(e)
        c.left_descents(e)
        c.right_descents(e)
        c.coset_rep(e)
        c.affine_length(e)
        tower.is_in_image(e)
        tower.preimage(e)
        tower.embed(e)
    for e in lifted:
        tower.is_in_image(e)
        tower.preimage(e)
    for n in (2, 3):
        for s in c.generators(n):
            hk.gen_basis(s, n)
    c.from_window(ELEMENTS[0].window)
    c.canonicalize(Word(3, (1, 0, 2, 3, 0)))
    assert calls == []
    for g, h in hecke:  # h has one term, whose word each product reads
        hk.hecke_mul(g, h)
        hk.hr_embed(h)
    assert calls == ["_peel"] * 2 * len(hecke)
    del calls[:]
    # the certificate reads the lengths of its terms: it decodes, and
    # encodes nothing
    for e in small:
        hk.triangularity_certificate(e)
    assert "_peel" in calls and "_encode" not in calls
    del calls[:]
    # the counters are live: a form from outside is encoded once, and
    # reading it back is one decode, the same form
    e = c.Element(3, ((4, 0), (3, 1)), ((1, 2),))
    assert calls == ["_encode"]
    assert c.sort_key(e) == (6, ((4, 0), (3, 1)), ((1, 2),))
    assert calls == ["_encode", "_peel"]
    del calls[:]
    c.format_element(c.inverse(e))
    assert calls == ["_peel"]
    del calls[:]
    for s in c.generators(3):
        c.left_mul(s, e)
    assert calls == ["_peel", "_encode"] * 4
    del calls[:]
    listing = bl.reference_blocks(3, 6)
    assert calls == ["_encode"] * len(listing) and listing
    del calls[:]
    for json in (False, True):
        cli._blocks(argparse.Namespace(rank=3, m=3, max_len=None, count_only=False, json=json))
    assert calls == []  # the CLI's listing prints from the pairs
