"""Property checks of the two exact engines against the window model, at
ranks 2..30 on words of up to 2,000 letters: random reduced words
(`perms.random_reduced_word` with a drawn seed) and cancelling words
(uniform random letters).  Derandomized and without an example database,
so every run checks the same inputs."""

import random

from hypothesis import given, settings, strategies as st

from affcox import canonical as c
from affcox import finite as fin
from affcox import perms
from affcox import tower
from affcox.words import Word
from oracles import embed_window, letter_fold, ranked_level_code

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
RANKS = st.integers(2, 30)


@st.composite
def words(draw, n):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(0, 2000))
    if draw(st.booleans()):
        return Word(n, perms.random_reduced_word(n, size, rng))
    return Word(n, tuple(rng.randrange(n + 1) for _ in range(size)))


def decoded(w):
    """The element of a word, by its window: the decoder's side."""
    return c.from_window(perms.to_permutation(w.letters, w.n))


@PROPERTY
@given(RANKS.flatmap(words))
def test_letter_fold_is_the_decoder(w):
    """canonicalize against the letter engine and against the window model:
    the canonical word has the word's window, and perm_length letters."""
    e = c.canonicalize(w)
    assert letter_fold(w) == e
    win = perms.to_permutation(w.letters, w.n)
    letters = c.element_word(e).letters
    assert perms.to_permutation(letters, w.n) == win
    assert len(letters) == perms.perm_length(win)


@PROPERTY
@given(RANKS.flatmap(words))
def test_canonicalize_is_the_decoded_window(w):
    """canonicalize's in-place fold and the window model's fold, each
    decoded, are two independent paths to one element."""
    assert c.canonicalize(w) == decoded(w)


@PROPERTY
@given(RANKS.flatmap(words))
def test_level_code_reads_relative_order(w):
    """The decoder's x: the level code of the affine window itself equals
    that of its ranks, a permutation window."""
    win = perms.to_permutation(w.letters, w.n)
    assert fin.level_code(win) == ranked_level_code(win)


@PROPERTY
@given(RANKS.flatmap(words))
def test_left_mul_is_the_window_step(w):
    e, n = decoded(w), w.n
    win = c.window(e)
    for s in c.generators(n):
        assert c.left_mul(s, e) == c.from_window(
            perms.compose(perms.right_mul(perms.identity(n), s), win)), s


@PROPERTY
@given(RANKS.flatmap(words))
def test_window_round_trip_and_lengths(w):
    e = c.canonicalize(w)
    win = c.window(e)
    assert c.from_window(win) == e
    assert c.length(e) == perms.perm_length(win)
    assert c.affine_length(e) == perms.affine_length(win)


@PROPERTY
@given(RANKS.flatmap(lambda n: st.tuples(words(n), words(n), words(n))))
def test_mul_is_associative_and_inverse_an_involution(ws):
    u, v, x = map(decoded, ws)
    assert c.mul(c.mul(u, v), x) == c.mul(u, c.mul(v, x))
    assert c.inverse(c.inverse(u)) == u


@PROPERTY
@given(st.integers(2, 29).flatmap(lambda n: st.tuples(words(n), words(n))))
def test_embed_is_a_homomorphism(ws):
    u, v = map(decoded, ws)
    assert tower.embed(c.mul(u, v)) == c.mul(tower.embed(u), tower.embed(v))


@PROPERTY
@given(st.integers(2, 29).flatmap(words))
def test_embed_is_the_residue_extension(w):
    e = decoded(w)
    assert tuple(c.window(tower.embed(e))) == embed_window(c.window(e))
