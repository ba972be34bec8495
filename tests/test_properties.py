"""Property checks of the two exact engines against the window model, at
ranks 2..30 on words of up to 2,000 letters: random reduced words
(`oracles.random_reduced_word` with a drawn seed) and cancelling words
(uniform random letters); of the reflection value pairs against the
window model's reflections; and of the whole-word letter rule against the
per-letter one, on words with hostile letters.  Derandomized and without
an example database, so every run checks the same inputs."""

import random

from hypothesis import example, given, settings, strategies as st

from affcox import canonical as c
from affcox import finite as fin
from affcox import perms
from affcox import tower
from affcox import words as wd
from affcox.words import Word
from oracles import (
    embed_window, letter_fold, pair_peel, random_reduced_word, ranked_level_code,
    reflection_windows,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
RANKS = st.integers(2, 30)


@st.composite
def words(draw, n, max_size=2000):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(0, max_size))
    if draw(st.booleans()):
        return Word(n, random_reduced_word(n, size, rng))
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
    that of its ranks, a permutation window, and finite_window of it gives
    those ranks back."""
    win = perms.to_permutation(w.letters, w.n)
    assert fin.level_code(win) == ranked_level_code(win)
    rank = {v: k for k, v in enumerate(sorted(win), 1)}
    assert fin.finite_window(fin.level_code(win), w.n) == tuple(rank[v] for v in win)


@PROPERTY
@given(RANKS.flatmap(words))
def test_level_walk_sorts_the_window(w):
    """The decoder's one walk: the list it leaves is the sorted window, and
    its bricks are the level code by ranks."""
    win = perms.to_permutation(w.letters, w.n)
    bricks, u = fin.level_walk(win)
    assert u == sorted(win)
    assert bricks == ranked_level_code(win) == fin.level_code(win)


@PROPERTY
@given(RANKS.flatmap(words))
def test_run_peel_is_the_pair_peel(w):
    """The decoder's runs of equal pairs, continued by comparisons, against
    the peel one pair at a time."""
    win = c.word_window(w)
    assert c._peel(win) == pair_peel(win)


@PROPERTY
@given(RANKS.flatmap(words))
def test_left_mul_is_the_window_step(w):
    e, n = decoded(w), w.n
    win = e.window
    for s in c.generators(n):
        assert c.left_mul(s, e) == c.from_window(
            perms.compose(perms.right_mul(perms.identity(n), s), win)), s


@PROPERTY
@given(RANKS.flatmap(words))
def test_window_round_trip_and_lengths(w):
    e = c.canonicalize(w)
    win = c._encode(*e[:3])
    assert win == e.window
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
    img = tower.embed(e)
    assert c._encode(*img[:3]) == img.window == embed_window(e.window)


def hostile_letters(n):
    """A bool, a float equal to a valid letter, out-of-range and huge ints,
    None, a str and an unhashable list."""
    return [True, False, 1.0, -1, n + 1, 10 ** 30, None, "1", [1]]


@st.composite
def hostile_words(draw):
    """A rank, and a word of valid letters with up to 3 hostile ones
    inserted at drawn places."""
    n = draw(RANKS)
    letters = draw(st.lists(st.integers(0, n), max_size=40))
    for bad in draw(st.lists(st.sampled_from(hostile_letters(n)), max_size=3)):
        letters.insert(draw(st.integers(0, len(letters))), bad)
    return n, letters


def first_bad_letter(check, *args):
    """The ValueError message of check(*args), or None if it passes."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def letter_loop(letters, n):
    for s in letters:
        perms.check_letter(s, n)


@PROPERTY
@given(hostile_words())
@example((3, []))
@example((3, [1, True]))
@example((3, [True, 1]))
@example((3, [2, 1.0, 0]))
@example((3, [0, -1]))
@example((3, [1, 4]))
@example((3, [10 ** 30]))
@example((3, [None, 1]))
@example((3, [2, "1"]))
@example((3, [1, [1]]))
def test_check_letters_is_the_letter_loop(case):
    """perms.check_letters accepts exactly the words whose every letter
    passes check_letter, and otherwise raises the first bad letter's
    message; so do the Word constructor that calls it, `words.word`, and
    canonicalize's window fold on the Word built inside the checked call."""
    n, letters = case
    want = first_bad_letter(letter_loop, letters, n)
    assert first_bad_letter(perms.check_letters, letters, n) == want
    assert first_bad_letter(Word, n, letters) == want
    assert first_bad_letter(wd.word, n, letters) == want
    assert first_bad_letter(lambda: c.word_window(Word(n, letters))) == want


def equality_pattern(xs):
    """For each entry, the index of its first occurrence: two lists have
    the same pattern exactly when their entries are equal at the same
    pairs of indices."""
    first = {}
    return [first.setdefault(x, k) for k, x in enumerate(xs)]


@PROPERTY
@given(RANKS.flatmap(lambda n: words(n, 300)))
@example(Word(2, ()))
def test_reflection_pairs_name_the_reflection_windows(w):
    """reflection_sequence's value pair (x, y) names t_j: t_j(x) = y with
    1 <= x <= n+1 and x < y, and two pairs are equal exactly when the
    window model's reflections are (words of up to 300 letters)."""
    pairs, wins = wd.reflection_sequence(w), reflection_windows(w)
    assert len(pairs) == len(wins) == len(w)
    for (x, y), win in zip(pairs, wins):
        assert 1 <= x <= w.n + 1 and x < y and win[x - 1] == y
    assert equality_pattern(pairs) == equality_pattern(wins)
