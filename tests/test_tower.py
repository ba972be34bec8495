"""The rank-raising embedding: formula vs substitution, membership, preimage."""

import random

import pytest

from affcox import canonical as c
from affcox import perms
from affcox import tower
from affcox.words import Word
from oracles import embed_window, random_reduced_word, tower_form


def rank2_elements(max_len):
    for win, letters in perms.bfs_reduced_words(2, max_len).items():
        yield c.canonicalize(Word(2, letters))


def test_embed_examples():
    a3 = c.Element(2, ((3, 0),), ())
    img = tower.embed(a3)
    assert img == c.Element(3, ((3, 0),), ((3, 3),))
    assert c.element_word(img).letters == (3, 0, 3)  # sigma_3 a_4 sigma_3

    w = c.Element(2, ((2, 1), (2, 1)), ())
    img = tower.embed(w)
    assert img.pairs == ((2, 1), (2, 2))
    assert img.bricks == ((3, 3),)
    assert c.length(w) == 6 and c.length(img) == 10

    s1 = c.Element(2, (), ((1, 1),))
    assert tower.embed(s1) == c.Element(3, (), ((1, 1),))


def test_embed_matches_substitution_exhaustively():
    for win, letters in perms.bfs_reduced_words(2, 8).items():
        e = c.canonicalize(Word(2, letters))
        img = tower.embed(e)
        img_word = tower.substitute_word(Word(2, letters))
        assert img == c.canonicalize(img_word), e
        assert c.affine_length(img) == c.affine_length(e)
        assert (perms.affine_length(perms.to_permutation(img_word.letters, 3))
                == perms.affine_length(win) == c.affine_length(e))
        assert c.length(img) == c.length(e) + 2 * c.affine_length(e)
        assert tower.is_in_image(img)
        assert tower.preimage(img) == e


def test_embed_injective():
    seen = {}
    for e in rank2_elements(7):
        img = tower.embed(e)
        assert img not in seen
        seen[img] = e


def test_embed_homomorphism_sampled():
    rng = random.Random(41)
    elems = list(rank2_elements(5))
    for _ in range(60):
        u, v = rng.choice(elems), rng.choice(elems)
        assert tower.embed(c.mul(u, v)) == c.mul(tower.embed(u), tower.embed(v))


def test_is_in_image_examples():
    assert not tower.is_in_image(c.Element(3, ((4, 0),), ()))  # bare a_4
    assert tower.is_in_image(c.Element(3, ((3, 0),), ((3, 3),)))
    assert tower.is_in_image(c.identity_element(3))
    assert not tower.is_in_image(c.identity_element(2))  # no rank-1 source
    assert tower.preimage(c.Element(3, ((4, 0),), ())) is None
    assert tower.preimage(c.identity_element(3)) == c.identity_element(2)


def test_is_in_image_matches_search():
    """Membership by the window (e fixes n+1) == membership by exhaustive
    search over the images of short rank-2 elements."""
    image = set()
    for e in rank2_elements(6):
        if c.length(e) + 2 * c.affine_length(e) <= 6:
            image.add(tower.embed(e))
    for win, letters in perms.bfs_reduced_words(3, 6).items():
        e = c.canonicalize(Word(3, letters))
        assert tower.is_in_image(e) == (e in image), e


def test_finite_parts_count_per_block():
    """At rank 3, for every block with m <= 3, the number of the 24 finite
    parts x with block . x in the image is 6 when n+1 is a value of the
    block's oracle window, and 0 otherwise: x only permutes positions, so
    the count is that of the x with x(n+1) = the position of n+1, 3! = 6."""
    from affcox import blocks as bl
    from affcox import finite as fin

    n = 3
    shapes = fin.finite_shapes(n)
    assert len(shapes) == 24  # |W(A_3)|
    counts = set()
    for m in range(4):
        for pairs in bl.enumerate_blocks(n, m).items:
            block_win = perms.to_permutation(c.block_word(pairs, n).letters, n)
            hits = sum(1 for x in shapes if tower.is_in_image(c.Element(n, pairs, x)))
            assert hits == (6 if n + 1 in block_win else 0), (pairs, hits)
            counts.add(hits)
    assert counts == {0, 6}


def test_embed_rejects_bad_rank():
    # a rank-1 element is refused when it is made, before embed sees it
    with pytest.raises(ValueError, match="^rank must be an integer >= 2, got 1$"):
        tower.embed(c.Element(1, (), ()))


@pytest.mark.parametrize("e", [c.identity_element(perms.MAX_RANK),
                               c.Element(perms.MAX_RANK, ((perms.MAX_RANK + 1, 0),), ())],
                         ids=["identity", "a"])
def test_embed_refuses_a_rank_past_the_bound(e):
    """An element at perms.MAX_RANK has no image: embed refuses rank
    MAX_RANK + 1 before it builds a form, as hecke.hr_embed does."""
    from affcox import hecke as hk
    msg = "^rank %d is past the limit of %d$" % (perms.MAX_RANK + 1, perms.MAX_RANK)
    with pytest.raises(RuntimeError, match=msg):
        tower.embed(e)
    with pytest.raises(RuntimeError, match=msg):
        hk.hr_embed(hk.basis(e))


def test_the_closed_formula_is_the_decoded_image():
    """embed and preimage map windows and decode nothing: the decode of the
    image's window is the closed formula's form (oracles.tower_form), and
    the decode of the preimage's window is the source form."""
    for e in rank2_elements(6):
        img = tower.embed(e)
        assert c._peel(img.window) == tower_form(e), e
        pre = tower.preimage(img)
        assert pre == e and c._peel(pre.window) == (e.pairs, e.bricks), e


@pytest.mark.parametrize("seed", range(4))
def test_tower_laws_on_long_words(seed):
    """Source ranks 2-29, words up to ~1,000 letters: embed against the
    residue map on the oracle window, which keeps L and adds 2L to l."""
    rng = random.Random(1200 + seed)
    for n in range(2 + seed, 30, 4):
        letters = random_reduced_word(n, rng.randint(0, 1000), rng)
        win = perms.to_permutation(letters, n)
        e = c.from_window(win)
        img = tower.embed(e)
        img_win = embed_window(win)
        assert c._encode(n + 1, *tower_form(e)) == img.window == img_win, (n, letters)
        assert c._peel(img.window) == tower_form(e), (n, letters)
        assert perms.affine_length(img_win) == perms.affine_length(win)
        assert perms.perm_length(img_win) == len(letters) + 2 * perms.affine_length(win)
        assert tower.is_in_image(img)
        assert tower.preimage(img) == e


@pytest.mark.parametrize("seed", range(4))
def test_is_in_image_is_the_stabilizer_of_n_plus_1(seed):
    """Random rank-n elements (rarely members), and members built from a
    random rank-(n-1) window by the residue map, not by embed."""
    rng = random.Random(1300 + seed)
    for n in range(3 + seed, 31, 4):
        letters = tuple([rng.randrange(n + 1) for _ in range(rng.randint(0, 1500))])
        win = perms.to_permutation(letters, n)
        e = c.from_window(win)
        assert tower.is_in_image(e) == (win[n] == n + 1), (n, letters)
        assert (tower.preimage(e) is None) == (win[n] != n + 1)
        letters = tuple([rng.randrange(n) for _ in range(rng.randint(0, 1500))])
        src = perms.to_permutation(letters, n - 1)
        member = c.from_window(embed_window(src))
        assert tower.is_in_image(member)
        assert tower.preimage(member) == c.from_window(src), (n, letters)
