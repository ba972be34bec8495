"""Independent routes to what the library computes, for the tests to judge
it by: slower, but built from other parts of the engine."""

from affcox import canonical as c
from affcox import finite as fin


def letter_fold(w):
    """The canonical form of a word by the letter engine: its letters folded
    right to left through `left_mul` from the identity, one left
    multiplication per letter.  The oracle of `canonicalize`."""
    e = c.identity_element(w.n)
    for s in reversed(w.letters):
        e = c.left_mul(s, e)
    return e


def embed_window(win):
    """The residue map on windows, the oracle of `tower.embed`: w(k) = r + n q
    (1 <= r <= n) goes to r + (n+1) q, and n+1 is appended."""
    n = len(win)
    out = []
    for v in win:
        q, r = divmod(v - 1, n)
        out.append(r + 1 + (n + 1) * q)
    return tuple(out) + (n + 1,)


def ranked_level_code(win):
    """The level code of a window by its ranks: `finite.level_code` of the
    rank of each entry in sorted(win), a permutation of 1..n+1.  The oracle
    of "the level code reads only relative order" on the distinct ints of
    an affine window."""
    rank = {v: k for k, v in enumerate(sorted(win), 1)}
    return fin.level_code([rank[v] for v in win])
