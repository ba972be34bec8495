"""Independent routes to what the library computes, for the tests to judge
it by: slower, but built from other parts of the engine.  Also the tests'
input generators, which no library path calls."""

import contextlib
import io
from bisect import bisect_left
from itertools import chain

from affcox import canonical as c
from affcox import cli
from affcox import finite as fin
from affcox.perms import (
    InvariantError, affine_length, check_count, compose, descends, identity, inverse,
    perm_length, right_mul,
)
from affcox.words import Word


def letter_fold(w):
    """The element of a word by the letter engine: its letters folded right
    to left from the identity through `left_mul_block`, one left
    multiplication per letter, an absorbed letter going into the bricks by
    `finite_left_insert`, as in `left_mul`; the form it reaches is made an
    Element once, by the checked constructor.  (`left_mul` makes each step
    an Element, which checks and encodes its whole form.)  The oracle of
    `canonicalize` and of the decoder."""
    n, pairs, bricks = w.n, (), ()
    for s in reversed(w.letters):
        out = c.left_mul_block(s, pairs, n)
        if isinstance(out, c.Absorbed):
            bricks = fin.finite_left_insert(bricks, out.v, n)
        else:
            pairs = out.pairs
    return c.Element(n, pairs, bricks)


def pair_peel(win):
    """The canonical form (pairs, bricks) of the element with window `win`
    by the right peel one pair at a time: two bisections and four list
    moves per pair, with the decoder's junction checks and messages.  The
    oracle of `canonical._peel`, which continues a run of equal pairs
    without bisecting."""
    nn = len(win)
    n = nn - 1
    u = sorted(win)
    bricks = fin.level_code(win)
    pairs, last, run_ok = [], None, False
    pop, insert = u.pop, u.insert
    for _ in range(affine_length(u)):
        # the two ends move: u(1) + (n+1) to position j, u(n+1) - (n+1) next to i
        low, high = pop(0) + nn, pop() - nn
        i, below = bisect_left(u, high), bisect_left(u, low)
        insert(below, low)
        if high < low:
            insert(i, high)
            j = below + 2
        else:
            insert(i + 1, high)
            j = below + 1
        pair = (j, i)
        # each distinct junction once: every change of pair, and the
        # self-junction (p, p) once per run of equal pairs
        if pair != last or not run_ok:
            if last is not None and not c._junction_ok(pair, last, n):
                raise InvariantError("right peel of %r gave %r before %r" % (win, pair, last))
            run_ok, last = pair == last, pair
        pairs.append(pair)
    if u[n] != nn:  # u stays sorted: the identity is the one with u(n+1) = n+1
        raise InvariantError("right peel of %r ended at %r, not the identity" % (win, u))
    if last is not None and not c._junction_ok(None, last, n):
        raise InvariantError("right peel of %r gave the first pair %r" % (win, last))
    pairs.reverse()
    return tuple(pairs), bricks


def tower_form(e):
    """The form (pairs, bricks) of e's image under the rank-raising
    embedding, by the closed formula of the tower module: at the image rank
    n, with s = max{k : n - k - i_k > 0} (1-based, 1 <= s <= n - 1), every
    j_k is kept, i_k is raised by 1 for k > s, and the bricks gain
    |n - s + 1, n| on the left; a form with no pairs is its own image.  The
    oracle of `tower.embed` and, read backwards, of `tower.preimage`."""
    n = e.n + 1
    pairs, bricks = e.pairs, e.bricks
    if not pairs:
        return pairs, bricks
    s = max([k for k, (_, i) in enumerate(pairs, start=1) if n - k - i > 0], default=0)
    if not 1 <= s <= n - 1:
        raise InvariantError("split index %d outside 1..%d" % (s, n - 1))
    return (tuple((j, i + 1 if k > s else i) for k, (j, i) in enumerate(pairs, start=1)),
            ((n - s + 1, n),) + bricks)


def argparse_namespace(argv):
    """vars() of the Namespace that the subparser of the command argv[0]
    gives argv[1:] with no word left over, or None where argparse prints
    help or a usage error or leaves words over (`main` then exits 0 or 2):
    the argparse-only parse, the oracle of `cli._read`."""
    _, tables = cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = tables[argv[0]].parser.parse_known_args(argv[1:])
        except SystemExit:
            return None
    return None if extra else vars(args)


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


def int_pairs_rule(field, seq):
    """The pair rule in one expression: a list or tuple whose items all pass
    `finite.is_pair`, and whose entries are all of type int.  The oracle
    of `finite.int_pairs`, which reads the items in one pass."""
    if (isinstance(seq, (list, tuple)) and all(map(fin.is_pair, seq))
            and set(map(type, chain.from_iterable(seq))) <= {int}):
        return tuple((a, b) for a, b in seq)
    raise ValueError("%s must be a list of integer pairs, got %r" % (field, seq))


def finite_word(bricks, n):
    """The word |i_1,j_1| ... |i_s,j_s| of the bricks of x in W(A_n), the
    letters straight from the definition of a brick."""
    return Word(n, (s for i, j in bricks for s in fin.floor_word(i, j)))


def is_extremal(bricks, n):
    """Both sigma_1 and sigma_n occur in x: the paper's extremal elements,
    the definition behind the closed form `finite.h_is_extremal`."""
    s = fin.support(bricks)
    return 1 in s and n in s


def random_block(n, m, rng):
    """A random block of m pairs: each pair is drawn from those that may
    follow the last one (`canonical._junction_ok`), and repeats the last
    one with probability `rng.random()` drawn once per block when it may,
    so that runs of equal pairs are long as well as short."""
    check_count("m", m)
    stay = rng.random()
    pairs, prev = [], None
    for _ in range(m):
        if prev is None or not (rng.random() < stay and c._junction_ok(prev, prev, n)):
            prev = rng.choice([(j, i) for j in range(1, n + 2) for i in range(n)
                               if c._junction_ok(prev, (j, i), n)])
        pairs.append(prev)
    return tuple(pairs)


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
