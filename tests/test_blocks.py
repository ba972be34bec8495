"""Affine-block enumeration and the coset decomposition."""

import math
import os
import subprocess
import sys

import pytest

import affcox
from affcox import blocks as bl
from affcox import canonical as c
from affcox import finite as fin
from affcox import perms
from affcox.words import Word


def test_frozen_counts():
    assert len(bl.enumerate_blocks(2, 0).items) == 1
    assert len(bl.enumerate_blocks(2, 1).items) == 6
    assert len(bl.enumerate_blocks(2, 2).items) == 12
    # the closed formula for these is checked in test_counts_by_affine_length
    assert [len(bl.enumerate_blocks(2, m).items) for m in range(6)] == [1, 6, 12, 18, 24, 30]
    assert [len(bl.enumerate_blocks(3, m).items) for m in range(6)] == [1, 12, 42, 92, 162, 252]


def blocks_of_affine_length(n, m):
    """The closed count of blocks of affine length m >= 1 (blocks docstring):
    N = n+1 translation coordinates summing to 0, p of them positive and q
    negative, the positive ones summing to m."""
    N = n + 1
    return sum(
        math.factorial(N) // (math.factorial(p) * math.factorial(q) * math.factorial(N - p - q))
        * math.comb(m - 1, p - 1) * math.comb(m - 1, q - 1)
        for p in range(1, N) for q in range(1, N - p + 1)
    )


@pytest.mark.parametrize("n,max_m", [(2, 8), (3, 8), (4, 8), (5, 5), (6, 5), (8, 3)])
def test_counts_by_affine_length(n, max_m):
    for m in range(1, max_m + 1):
        assert len(bl.enumerate_blocks(n, m).items) == blocks_of_affine_length(n, m), m


def _bott_series(n, max_len):
    """Coefficients of prod_{k=1..n} 1/(1 - t^k) up to t^max_len."""
    coeffs = [1] + [0] * max_len
    for k in range(1, n + 1):
        for l in range(k, max_len + 1):
            coeffs[l] += coeffs[l - k]
    return coeffs


@pytest.mark.parametrize("n,max_len", [(2, 24), (3, 18), (4, 14), (5, 12), (6, 10)])
def test_counts_by_length_follow_bott(n, max_len):
    # Bott (1956): the minimal coset representatives of W(~A_n)/W(A_n)
    # have Poincare series prod_{k=1..n} 1/(1 - t^k)
    counts = [1] + [0] * max_len  # the empty block
    for e in bl.reference_blocks(n, max_len):
        counts[c.length(e)] += 1
    assert counts == _bott_series(n, max_len)


def level_filter_blocks(n, max_len):
    """The oracle for reference_blocks: whole affine-length levels from
    enumerate_blocks, filtered by length, until a level keeps nothing."""
    out = []
    m = 1
    while True:
        level = [c.Element(n, pairs, ()) for pairs in bl.enumerate_blocks(n, m).items]
        level = [e for e in level if c.length(e) <= max_len]
        if not level:
            break
        out.extend(level)
        m += 1
    return sorted(out, key=c.sort_key)


@pytest.mark.parametrize("n,max_len", [(2, 24), (3, 18), (4, 14), (6, 10), (8, 10)])
def test_reference_blocks_equal_level_filter(n, max_len):
    assert bl.reference_blocks(n, max_len) == level_filter_blocks(n, max_len)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_m1_count_formula(n):
    fam = bl.enumerate_blocks(n, 1)
    assert len(fam.items) == (n + 1) * n
    assert set(fam.items) == {
        ((j, i),) for j in range(1, n + 2) for i in range(0, n)
    }


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_items_valid_distinct_ordered(n, m):
    fam = bl.enumerate_blocks(n, m)
    assert fam.rank == n and fam.affine_length == m
    assert len(set(fam.items)) == len(fam.items)
    assert list(fam.items) == sorted(fam.items)
    for pairs in fam.items:
        assert c.validate_block(pairs, n)
        assert len(pairs) == m


@pytest.mark.parametrize("n,radius", [(2, 10), (3, 8)])
def test_blocks_match_bfs_census(n, radius):
    """Within the BFS radius, blocks of affine length m are exactly the
    elements with L = m and R = {a}."""
    census = {}  # m -> set of pair tuples
    for win, letters in perms.bfs_reduced_words(n, radius).items():
        e = c.canonicalize(Word(n, letters))
        if e.bricks == () and e.pairs:
            census.setdefault(len(e.pairs), set()).add(e.pairs)
    assert census
    for m in range(1, max(census) + 1):
        fam = {
            pairs
            for pairs in bl.enumerate_blocks(n, m).items
            if c.length(c.Element(n, pairs, ())) <= radius
        }
        assert fam == census.get(m, set()), (n, m)
    # the discovered representatives have right descent set exactly {a}
    for m, reps in census.items():
        for pairs in reps:
            assert c.right_descents(c.Element(n, pairs, ())) == {perms.AFFINE}


def test_coset_rep_examples():
    e = c.identity_element(2)
    assert c.coset_rep(e) == e
    full = c.make_element(3, ((4, 0), (3, 1)), ((1, 1),))
    rep = c.coset_rep(full)
    assert rep.pairs == full.pairs and rep.bricks == ()
    assert c.length(rep) <= c.length(full)


def test_coset_rep_is_unique_minimum():
    n = 2
    all_finite = [
        (), ((1, 1),), ((2, 2),), ((1, 2),), ((2, 2), (1, 1)), ((1, 2), (1, 1)),
    ]
    finite_wins = [
        perms.to_permutation(fin.finite_word(b, n).letters, n)
        for b in all_finite
    ]
    assert len(set(finite_wins)) == 6  # all of W(A_2)
    for win, letters in perms.bfs_reduced_words(n, 9).items():
        e = c.canonicalize(Word(n, letters))
        rep = c.coset_rep(e)
        assert c.mul(rep, c.Element(n, (), e.bricks)) == e
        coset_lens = sorted(
            perms.perm_length(perms.compose(win, x)) for x in finite_wins
        )
        assert c.length(rep) == coset_lens[0]
        assert coset_lens[1] > coset_lens[0]


def test_guards(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(bl, "MAX_ITEMS", 5)
        with pytest.raises(RuntimeError):
            bl.enumerate_blocks(2, 10)
    with pytest.raises(ValueError):
        bl.enumerate_blocks(2, -1)
    with pytest.raises(ValueError):
        bl.enumerate_blocks(1, 0)
    for n, max_core in ((2, -1), (3, -1), (4, 2), (1, 0)):
        for fn in (bl.appendix_blocks, bl.appendix_threshold):
            with pytest.raises(ValueError):
                fn(n, max_core)


def test_deep_blocks_need_no_recursion():
    # 6m blocks at n = 2; m = 250 is deeper than a recursion limit of 200
    code = "\n".join([
        "import sys",
        "from affcox import blocks as bl, canonical as c",
        "sys.setrecursionlimit(200)",
        "items = bl.enumerate_blocks(2, 250).items",
        "assert list(items) == sorted(set(items))",
        "assert all(len(p) == 250 and c.validate_block(p, 2) for p in items)",
        "print(len(items))",
    ])
    src = os.path.dirname(os.path.dirname(affcox.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1500\n"
