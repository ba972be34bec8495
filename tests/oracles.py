"""Independent routes to what the library computes, for the tests to judge
it by: slower, but built from other parts of the engine.  Also the tests'
input generators, which no library path calls."""

from affcox import canonical as c
from affcox import finite as fin
from affcox.perms import (
    check_count, compose, descends, identity, inverse, perm_length, right_mul,
)
from affcox.words import Word


def letter_fold(w):
    """The canonical form of a word by the letter engine: its letters folded
    right to left through `left_mul` from the identity, one left
    multiplication per letter.  The oracle of `canonicalize`."""
    e = c.identity_element(w.n)
    for s in reversed(w.letters):
        e = c.left_mul(s, e)
    return e


def reflection_windows(w):
    """The windows of t_j = (s_1...s_{j-1}) s_j (s_1...s_{j-1})^{-1},
    j = 1..r, by the window model's fold and group law.  The oracle of
    `words.reflection_sequence`, which names each t_j by a value pair."""
    prefix = identity(w.n)
    out = []
    for s in w.letters:
        nxt = right_mul(prefix, s)
        out.append(compose(nxt, inverse(prefix)))  # prefix . s . prefix^{-1}
        prefix = nxt
    return out


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


def count_reduced_words(w):
    """
    Number of reduced words for the element with window w, the oracle of
    acceptance criterion 7 (each truncation of a rigid chain has exactly
    one): every reduced word ends in some s with l(ws) < l(w), so the
    count is the sum of the counts of those ws.  Depth first on an explicit stack (no recursion
    limit), each element counted once.
    """
    counts, below = {}, {}
    stack = [w]
    while stack:
        x = stack[-1]
        if x in counts:
            stack.pop()
        elif x in below:  # every element below x is counted by now
            stack.pop()
            counts[x] = sum(counts[v] for v in below.pop(x))
        else:
            l = perm_length(x)
            down = [v for v in (right_mul(x, s) for s in range(len(x)))
                    if perm_length(v) < l]
            if down:
                below[x] = down
                stack.extend(down)
            else:  # the identity
                counts[x] = 1
    return counts[w]


def finite_word(bricks, n):
    """The word |i_1,j_1| ... |i_s,j_s| of the bricks of x in W(A_n), the
    letters straight from the definition of a brick."""
    return Word(n, (s for i, j in bricks for s in fin.floor_word(i, j)))


def is_extremal(bricks, n):
    """Both sigma_1 and sigma_n occur in x: the paper's extremal elements,
    the definition behind the closed form `finite.h_is_extremal`."""
    s = fin.support(bricks)
    return 1 in s and n in s


def random_reduced_word(n, size, rng):
    """A random reduced word of `size` letters, grown letter by letter: a
    drawn letter is kept unless it `descends` (w . s is then shorter than w).
    For sampling long elements, which random words (mostly cancelling) do
    not reach."""
    letters, w = [], identity(n)
    check_count("size", size)
    while len(letters) < size:
        s = rng.randrange(0, n + 1)
        if not descends(w, s):
            w = right_mul(w, s)
            letters.append(s)
    return tuple(letters)
