"""Validation gates on the window-notation oracle.

These tests pin the chosen affine-transposition convention and prove, at
small rank, that the positional action realizes exactly the type ~A_n
Coxeter relations and that the inversion-count formula equals BFS distance.
Everything downstream trusts this module.
"""

import random

import pytest

from affcox import perms
from affcox.perms import (
    AFFINE,
    bfs_enumerate,
    bfs_reduced_words,
    check_length_formula,
    check_relations,
    compose,
    count_reduced_words,
    identity,
    inverse,
    is_window,
    perm_length,
    random_reduced_word,
    right_mul,
    to_permutation,
)


# -- frozen regression windows (derived once, then fixed) --------------------

def test_identity_window():
    assert to_permutation((), 2) == (1, 2, 3)
    assert identity(3) == (1, 2, 3, 4)


def test_sigma1_window():
    assert to_permutation((1,), 2) == (2, 1, 3)


def test_affine_generator_window_frozen():
    # regression values for the chosen convention (positions 0,1 swapped
    # periodically): recomputing must always give these exact windows
    assert to_permutation((AFFINE,), 2) == (0, 2, 4)
    assert to_permutation((AFFINE,), 3) == (0, 2, 3, 5)


def test_rank_validation():
    with pytest.raises(ValueError):
        identity(1)
    with pytest.raises(ValueError):
        right_mul((1, 2, 3), 3)  # sigma_3 does not exist at n=2


# -- mandatory gate 1: exact Coxeter relations at n = 2, 3 -------------------

@pytest.mark.parametrize("n", [2, 3])
def test_coxeter_relations_exhaustive(n):
    assert check_relations(n) == []


# -- mandatory gate 2: length formula == BFS distance, l <= 8, n = 2, 3 ------

@pytest.mark.parametrize("n", [2, 3])
def test_length_formula_vs_bfs(n):
    assert check_length_formula(n, 8) == []


# -- group-law properties ----------------------------------------------------

def _random_word(n, k, rng):
    return tuple(rng.randrange(0, n + 1) for _ in range(k))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_homomorphism(n):
    rng = random.Random(7 * n)
    for _ in range(200):
        u = _random_word(n, rng.randrange(0, 9), rng)
        v = _random_word(n, rng.randrange(0, 9), rng)
        assert to_permutation(u + v, n) == compose(
            to_permutation(u, n), to_permutation(v, n)
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_and_apply(n):
    rng = random.Random(11 * n)
    for _ in range(100):
        w = to_permutation(_random_word(n, rng.randrange(0, 12), rng), n)
        assert compose(w, inverse(w)) == identity(n)
        assert compose(inverse(w), w) == identity(n)
        # compose extends w by periodicity, w(k + n+1) = w(k) + n+1: moving
        # n+1 between two entries of v moves it between the same entries
        # of w.v, and composing with a reads w(0) and w(n+2)
        v = to_permutation(_random_word(n, rng.randrange(0, 12), rng), n)
        shifted = (v[0] + n + 1, v[1] - n - 1) + v[2:]
        wv, ws = compose(w, v), compose(w, shifted)
        assert ws == (wv[0] + n + 1, wv[1] - n - 1) + wv[2:]
        assert compose(w, to_permutation((AFFINE,), n)) == right_mul(w, AFFINE)


@pytest.mark.parametrize("n", [2, 3])
def test_length_at_most_letter_count(n):
    rng = random.Random(13 * n)
    for _ in range(200):
        word = _random_word(n, rng.randrange(0, 10), rng)
        assert perm_length(to_permutation(word, n)) <= len(word)


# -- enumeration -------------------------------------------------------------

def test_bfs_small_counts():
    assert len(bfs_enumerate(2, 0)) == 1
    assert len(bfs_enumerate(2, 1)) == 4  # identity + the three generators


def test_bfs_growth_frozen():
    # level sizes recorded as regression data (infinite group, linear /
    # quadratic growth)
    from collections import Counter

    c2 = Counter(d for _, d in bfs_enumerate(2, 12))
    assert [c2[k] for k in range(13)] == [
        1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36,
    ]
    c3 = Counter(d for _, d in bfs_enumerate(3, 9))
    assert [c3[k] for k in range(10)] == [
        1, 4, 10, 20, 34, 52, 74, 100, 130, 164,
    ]


def test_bfs_windows_valid_and_distinct():
    items = bfs_enumerate(2, 7)
    windows = [w for w, _ in items]
    assert len(set(windows)) == len(windows)
    assert all(is_window(w) for w in windows)


def test_bfs_guard(monkeypatch):
    monkeypatch.setattr(perms, "MAX_STATES", 50)
    with pytest.raises(RuntimeError):
        bfs_enumerate(2, 40)


def test_bfs_reduced_words_are_geodesic():
    words = bfs_reduced_words(2, 8)
    for w, word in words.items():
        assert to_permutation(word, 2) == w
        assert perm_length(w) == len(word)


def test_count_reduced_words_small():
    assert count_reduced_words(identity(2)) == 1
    assert count_reduced_words(to_permutation((1,), 2)) == 1
    # longest element of the finite parabolic <s1,s2>: two reduced words
    assert count_reduced_words(to_permutation((1, 2, 1), 2)) == 2


def test_count_reduced_words_needs_no_recursion():
    # c^400 has one reduced word, 1200 letters deep: past the default
    # recursion limit
    assert count_reduced_words(to_permutation((1, 2, 0) * 400, 2)) == 1


# -- the reduced-word sampler ------------------------------------------------

def perm_length_sampler(n, size, rng):
    """The oracle for random_reduced_word: a drawn letter is kept when the
    inversion count of the whole window grows."""
    letters, w = [], identity(n)
    while len(letters) < size:
        s = rng.randrange(0, n + 1)
        ws = right_mul(w, s)
        if perm_length(ws) > len(letters):
            letters.append(s)
            w = ws
    return tuple(letters)


@pytest.mark.parametrize("n", [2, 5, 30])
def test_random_reduced_word_matches_length_oracle(n):
    # one comparison per draw accepts exactly the letters the inversion
    # count accepts, so the same seed gives the same word
    for seed in range(3):
        got = random_reduced_word(n, 400, random.Random(seed))
        assert got == perm_length_sampler(n, 400, random.Random(seed))
        assert perm_length(to_permutation(got, n)) == len(got) == 400
