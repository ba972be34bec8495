"""Affine-block enumeration and the coset decomposition."""

import math

import pytest

from affcox import blocks as bl
from affcox import canonical as c
from affcox import cli
from affcox import perms
from affcox.words import Word
from harness import run_python
from oracles import finite_word


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


@pytest.mark.parametrize("n,m,max_len", [(2, 5, 12), (2, 5, 16), (2, 3, 0), (3, 4, 14),
                                         (4, 3, 9), (6, 3, 10), (8, 2, 10)])
def test_length_bound_equals_level_filter(n, m, max_len):
    fam = bl.enumerate_blocks(n, m, max_len=max_len)
    assert fam.rank == n and fam.affine_length == m
    assert fam.items == tuple(p for p in bl.enumerate_blocks(n, m).items
                              if c.length(c.Element(n, p, ())) <= max_len)


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
    full = c.Element(3, ((4, 0), (3, 1)), ((1, 1),))
    rep = c.coset_rep(full)
    assert rep.pairs == full.pairs and rep.bricks == ()
    assert c.length(rep) <= c.length(full)


def test_coset_rep_is_unique_minimum():
    n = 2
    all_finite = [
        (), ((1, 1),), ((2, 2),), ((1, 2),), ((2, 2), (1, 1)), ((1, 2), (1, 1)),
    ]
    finite_wins = [
        perms.to_permutation(finite_word(b, n).letters, n)
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
        with pytest.raises(RuntimeError, match="^block count 6 is past the limit of 5$"):
            bl.enumerate_blocks(2, 10)
        # 3 entries at max core 0, but its bound of 7 is refused before any is
        # built: appendix_blocks checks each member's pairs as it builds it
        built = []
        m.setattr(c, "validate_block", lambda *args: built.append(args))
        with pytest.raises(RuntimeError,
                           match="^appendix listing bound 7 is past the limit of 5$"):
            bl.appendix_blocks(2, 0)
        assert built == []
        with pytest.raises(RuntimeError, match="^block count 6 is past the limit of 5$"):
            bl.reference_blocks(2, 8)  # 24 blocks
        # the bounds are ints >= 0, checked before the walk starts: a float
        # depth would never match, and the walk would grow without end
        walked = []
        m.setattr(bl, "_extensions", lambda *args: walked.append(args) or iter(()))
        for m_, max_len in ((-1, None), (1.5, None), (True, None), (None, None),
                            (2, -1), (2, 1.5), (2, True)):
            with pytest.raises(ValueError):
                bl.enumerate_blocks(2, m_, max_len=max_len)
        for max_len in (-1, 1.5, True, None):
            with pytest.raises(ValueError):
                bl.reference_blocks(2, max_len)
        assert walked == []
    with pytest.raises(ValueError):
        bl.enumerate_blocks(1, 0)
    # max_core takes the walk's bound rule: an int, not a bool, >= 0
    for n, max_core in ((2, -1), (3, -1), (2, 1.5), (3, 1.5), (2, True), (4, 2), (1, 0),
                        (2.0, 1), (3.0, 1)):
        for fn in (bl.appendix_blocks, bl.appendix_threshold):
            with pytest.raises(ValueError):
                fn(n, max_core)
    # the rank is an int: 2.0 == 2 would find the rank-2 families
    with pytest.raises(ValueError, match=r"^appendix listings exist for ranks 2 and 3 only$"):
        bl.appendix_threshold(2.0, 1)
    with pytest.raises(ValueError, match=r"^max core exponent must be an int >= 0, got -1$"):
        bl.appendix_blocks(2, -1)
    for max_len in (-1, 1.5, True):
        with pytest.raises(ValueError, match="max length"):
            bl.appendix(2, 2, max_len)


def test_appendix_families_are_disjoint(monkeypatch):
    """A block that two families list is a bug in the data, never dropped."""
    monkeypatch.setattr(bl, "_FAMILIES", {**bl._FAMILIES, 2: bl._FAMILIES[2] * 2})
    with pytest.raises(perms.InvariantError, match="listing families overlap"):
        bl.appendix_blocks(2, 1)


def test_malformed_family_is_an_invariant_error(monkeypatch, capsys):
    """A family member that breaks the pairwise inequalities is a bug in the
    data: an InvariantError, and exit 3 from the CLI, not bad input."""
    (cores, *rest), *others = bl._FAMILIES[2]
    bad = (((2, 2),) + cores[1:], *rest)  # i = 2 > n - 1 at rank 2
    monkeypatch.setattr(bl, "_FAMILIES", {**bl._FAMILIES, 2: (bad, *others)})
    with pytest.raises(perms.InvariantError, match=r"invalid block \(\(2, 2\),\)"):
        bl.appendix_blocks(2, 1)
    assert cli.main(["appendix", "-n", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ") and err.count("\n") == 1, err


def test_appendix_cuts_and_checks():
    listing, thr, gen, ref = bl.appendix(2, 2, 3)
    # every m = 2 block has l >= 4; the check runs on the whole capped listing
    assert [c.format_element(e) for e in listing] == [
        "h(3,0) a |", "h(2,0) a |", "h(3,1) a |", "h(1,0) a |", "h(2,1) a |"]
    assert (thr, gen, ref) == (8, 24, 24)
    assert bl.appendix(3, 1) == (bl.appendix_blocks(3, 1), 7, 30, 30)


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
    assert run_python(code, timeout=120) == "1500\n"
