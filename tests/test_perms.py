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
    identity,
    inverse,
    is_window,
    perm_length,
    right_mul,
    to_permutation,
)
from oracles import count_reduced_words, random_reduced_word


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


@pytest.mark.parametrize("n", [perms.MAX_RANK + 1, 10 ** 8, 10 ** 100])
def test_a_rank_past_the_bound_is_a_resource_limit(n):
    # the bound is far above every rank the tests and the benchmark use
    assert perms.MAX_RANK >= 1000
    perms.check_rank(perms.MAX_RANK)
    with pytest.raises(RuntimeError, match="^rank %d is past the limit of %d$"
                       % (n, perms.MAX_RANK)):
        perms.check_rank(n)
    # the ValueErrors below the bound keep their message
    for bad in (1, 1.5, True, -(10 ** 100)):
        with pytest.raises(ValueError, match="^rank must be an integer >= 2, got "):
            perms.check_rank(bad)


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


def _power(w, k):
    """The window of w^k (k >= 0), by squaring with compose."""
    out = identity(len(w) - 1)
    while k:
        if k & 1:
            out = compose(out, w)
        w, k = compose(w, w), k >> 1
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 9, 30])
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
    # the judge of inverse that does not use it: every letter is an
    # involution, so the reversed word spells w^{-1}
    for _ in range(4):
        word = _random_word(n, rng.randrange(100, 400), rng)
        w = to_permutation(word, n)
        assert inverse(w) == to_permutation(word[::-1], n)
        assert compose(w, inverse(w)) == identity(n)
    # c^k for the Coxeter element c = sigma_1 ... sigma_n a, of affine
    # length k: c^{-k} is the k-th power of the reversed word, and the
    # fold judges the words of up to 4 * 10^4 letters
    c = perms.generators(n)
    c_inv = to_permutation(c[::-1], n)
    lowest = 0
    for k in (1, 2, 7, 100, 10 ** 4):
        w = _power(to_permutation(c, n), k)
        assert perms.affine_length(w) == k
        assert inverse(w) == _power(c_inv, k)
        assert compose(w, inverse(w)) == identity(n)
        if k * len(c) <= 40_000:
            assert inverse(to_permutation(c * k, n)) == to_permutation(c[::-1] * k, n)
        lowest = min(lowest, min(w), min(inverse(w)))
    assert lowest < -(10 ** 4)  # windows with negative entries, far from 1..n+1


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
    # the bound is a count: an int >= 0 (perms.check_count)
    for bad in (1.5, -1, True):
        with pytest.raises(ValueError, match="max length must be an int >= 0"):
            bfs_enumerate(2, bad)
    with pytest.raises(ValueError, match="max length must be an int >= 0"):
        check_length_formula(2, 2.0)


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


@pytest.mark.parametrize("w", [(1.0, 2, 3), (True, 2, 3), (1, 2.0, 3.0)])
def test_is_window_needs_int_entries(w):
    # each passes both invariants by value, since 1.0 == True == 1
    assert not is_window(w)


def test_bfs_windows_valid_and_distinct():
    items = bfs_enumerate(2, 7)
    windows = [w for w, _ in items]
    assert len(set(windows)) == len(windows)
    assert all(is_window(w) for w in windows)


def test_bfs_guard(monkeypatch):
    """The enumeration refuses as soon as it holds one element past
    MAX_STATES, not once a whole level past it is built: at n = 10 the
    ball of radius 3 holds 364 elements and that of radius 4 holds 1,365,
    where a check after each level would first refuse."""
    monkeypatch.setattr(perms, "MAX_STATES", 50)
    with pytest.raises(RuntimeError, match="^element count 51 is past the limit of 50$"):
        bfs_enumerate(2, 40)
    monkeypatch.setattr(perms, "MAX_STATES", 1_000)
    with pytest.raises(RuntimeError, match="^element count 1001 is past the limit of 1000$"):
        bfs_reduced_words(10, 8)
    assert len(bfs_reduced_words(10, 3)) == 364


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


@pytest.mark.parametrize("size", [1.5, True, -3, "2"])
def test_random_reduced_word_rejects_a_size_that_is_not_a_count(size):
    with pytest.raises(ValueError, match="size must be an int >= 0"):
        random_reduced_word(2, size, random.Random(0))
