"""
Affine permutations in window notation: the independent ground-truth model.

W(~A_n) acts on Z by bijections w with w(k + n+1) = w(k) + n+1 and
sum_{k=1}^{n+1} (w(k) - k) = 0.  Such a bijection is stored as its *window*
(w(1), ..., w(n+1)), a tuple of n+1 integers with pairwise distinct residues
mod n+1.

Letters of a word are plain ints: 1..n for sigma_i, and AFFINE = 0 for the
affine generator a_{n+1}.  Right multiplication acts on positions:

    w . sigma_i : swap window entries i, i+1          (1 <= i <= n)
    w . a       : new w(1) = w(n+1) - (n+1),  new w(n+1) = w(1) + (n+1)

i.e. a is the periodic transposition of positions 0 and 1.  This is one of
the two natural conventions; it is pinned by the regression windows in the
tests and validated against the full set of Coxeter relations at n = 2, 3.

Length is the affine inversion count

    l(w) = sum_{1 <= i < j <= n+1} | floor((w(j) - w(i)) / (n+1)) |

(Python's // is the mathematical floor, so the formula transcribes directly);
it is validated against BFS distance from the identity.

It owns the input rules, each testing an integer as `type(v) is int` (or
a type set as a subset of {int}): letter (`check_letter`, and
`check_letters` for a whole word), rank (`check_rank`), count
(`check_count`) and window (`is_window`).  A word's and a window's rules
are paid once, at the library's boundary: a words.Word runs `check_rank`
and `check_letters` when it is made, and canonical.from_window runs
`is_window` on a window from outside.  The window arithmetic takes
windows already checked or built by the library and checks only the
letters and ranks it is given.
`to_permutation` and `right_mul` are the judge's fold, one checked letter
and one new tuple at a time: the tests and the benchmark's oracle call
them, and no library hot path does (canonical.word_window and
words.reflection_sequence fold a word's window in place).  Outside perms,
finite.right_insert (the tests' oracle of finite_left_insert),
hecke.gen_basis (g_s's letter check) and finite.brick_identities_check
are their only callers, as tests/test_layers.py pins.  `right_mul` is the
letter check and then `move`, the unchecked move of two window entries,
which the Hecke step (hecke._step) calls on letters it took from a Word.
"""

AFFINE = 0  # the letter a_{n+1}
MAX_STATES = 5_000_000  # bfs_reduced_words raises RuntimeError past this many


class InvariantError(AssertionError):
    """An engine invariant failed: a bug, never a property of the input.
    Raised explicitly, so the checks survive `python -O`.  Defined here, in
    the lowest module, so every layer raises the same class."""


def check_rank(n):
    if type(n) is not int or n < 2:
        raise ValueError("rank must be an integer >= 2, got %r" % (n,))


def check_letter(s, n):
    """The one letter rule: a ValueError unless s is an int that is AFFINE
    or a sigma index 1..n."""
    if not (type(s) is int and (s == AFFINE or 1 <= s <= n)):
        raise ValueError("letter %r invalid at rank %d" % (s, n))


def check_letters(letters, n):
    """The letter rule for a whole word: one pass over the letters' types
    and one subset test against {0..n}.  If either fails, `check_letter`
    runs over the letters in word order, so the first bad letter raises."""
    if not (set(map(type, letters)) <= {int} and set(letters) <= set(range(n + 1))):
        for s in letters:
            check_letter(s, n)


def check_count(what, v):
    """The one count rule, for every bound and size: an int >= 0, not a bool,
    checked before a walk starts, which could otherwise grow without end."""
    if not (type(v) is int and v >= 0):
        raise ValueError("%s must be an int >= 0, got %r" % (what, v))


def generators(n):
    """The generators in their one order: sigma_1, ..., sigma_n, then a."""
    return tuple(range(1, n + 1)) + (AFFINE,)


def identity(n):
    """Identity window (1, 2, ..., n+1)."""
    check_rank(n)
    return tuple(range(1, n + 2))


def is_window(w):
    """The one window rule: a list or tuple of 3+ ints, distinct residues
    mod n+1, normalized sum."""
    if not isinstance(w, (list, tuple)) or len(w) < 3 or not set(map(type, w)) <= {int}:
        return False
    nn = len(w)
    if len({v % nn for v in w}) != nn:
        return False
    return sum(w) == nn * (nn + 1) // 2


def move(w, s):
    """Window of w . s for a letter s already checked: two entries move."""
    if s == AFFINE:
        nn = len(w)
        return (w[-1] - nn,) + w[1:-1] + (w[0] + nn,)
    return w[: s - 1] + (w[s], w[s - 1]) + w[s + 1 :]


def right_mul(w, letter):
    """Window of w . s for a single letter s, checked."""
    check_letter(letter, len(w) - 1)
    return move(w, letter)


def to_permutation(word, n):
    """Fold a word (left to right) into a window, starting at the identity."""
    w = identity(n)
    for letter in word:
        w = right_mul(w, letter)
    return w


def compose(u, v):
    """Window of the product u.v, i.e. the map k -> u(v(k)), with u
    extended to all of Z by periodicity: u(k + q(n+1)) = u(k) + q(n+1)."""
    nn = len(u)
    if nn != len(v):
        raise ValueError("rank mismatch: windows of size %d and %d" % (nn, len(v)))
    out = []
    for vk in v:
        q, r = divmod(vk - 1, nn)
        out.append(u[r] + q * nn)
    return tuple(out)


def inverse(w):
    """Window of w^{-1}."""
    nn = len(w)
    by_residue = {w[j] % nn: j + 1 for j in range(nn)}
    out = []
    for k in range(1, nn + 1):
        j = by_residue[k % nn]
        out.append(j + (k - w[j - 1]) // nn * nn)
    return tuple(out)


def perm_length(w):
    """Affine inversion count (equals BFS distance from the identity)."""
    nn = len(w)
    total = 0
    for i in range(nn):
        wi = w[i]
        for j in range(i + 1, nn):
            total += abs((w[j] - wi) // nn)
    return total


def affine_length(w):
    """L(w) = sum_k max(0, lambda_k) over the translation coordinates
    lambda_k = floor((w(k) - 1) / (n+1)): the number of a's in the
    canonical form (canonical.from_window peels exactly this many pairs)."""
    nn = len(w)
    return sum([(v - 1) // nn for v in w if v > nn])


def bfs_enumerate(n, max_len):
    """
    All group elements of length <= max_len as a list of (window, length),
    sorted by (length, window): a view of `bfs_reduced_words`, whose guard
    it shares.
    """
    words = bfs_reduced_words(n, max_len)
    items = ((w, len(word)) for w, word in words.items())
    return sorted(items, key=lambda t: (t[1], t[0]))


def bfs_reduced_words(n, max_len):
    """
    Dict window -> one reduced word, for every element of length <= max_len.
    The word recorded is the BFS discovery word, hence of minimal length.
    """
    check_rank(n)
    check_count("max length", max_len)
    letters = generators(n)
    start = identity(n)
    words = {start: ()}
    frontier = [start]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            base = words[w]
            for s in letters:
                v = right_mul(w, s)
                if v not in words:
                    words[v] = base + (s,)
                    nxt.append(v)
        if len(words) > MAX_STATES:
            raise RuntimeError("enumeration guard exceeded (%d states)" % len(words))
        frontier = nxt
    return words


def descends(w, s):
    """Whether s is a right descent of the window w, l(w s) < l(w), by one
    comparison: sigma_k iff w(k) > w(k+1), a iff w(n+1) - (n+1) > w(1)."""
    if s == AFFINE:
        return w[-1] - len(w) > w[0]
    return w[s - 1] > w[s]


# --- oracle self-validation -------------------------------------------------
#
# The two checks below are the mandatory gates on the chosen realization:
# exact Coxeter relations at small rank, and length formula == BFS distance.
# They return a list of violation strings (empty means pass) so the CLI
# selfcheck can print a report and the tests can assert emptiness.


def _product_order(s, t, n, cap=10):
    """Order of the product st in the group, up to cap."""
    st = to_permutation((s, t), n)
    acc = st
    for k in range(1, cap + 1):
        if perm_length(acc) == 0:
            return k
        acc = compose(acc, st)
    return None


def check_relations(n):
    """Exact Coxeter relations of type ~A_n: involutions, braid on diagram
    edges (the cycle a - s1 - s2 - ... - sn - a), commutation elsewhere."""
    check_rank(n)
    bad = []
    gens = [AFFINE] + list(range(1, n + 1))
    for s in gens:
        if perm_length(to_permutation((s, s), n)) != 0:
            bad.append("generator %d is not an involution at n=%d" % (s, n))
    # diagram adjacency in the cycle 0-1-2-...-n-0
    def adjacent(s, t):
        d = abs(s - t)
        if s == AFFINE or t == AFFINE:
            other = s + t
            return other in (1, n)
        return d == 1
    for a in gens:
        for b in gens:
            if a >= b:
                continue
            want = 3 if adjacent(a, b) else 2
            got = _product_order(a, b, n)
            if got != want:
                bad.append(
                    "product order of (%d,%d) at n=%d is %s, want %d"
                    % (a, b, n, got, want)
                )
    return bad


def check_length_formula(n, max_len=8):
    """BFS distance equals perm_length for every element of length <= max_len."""
    bad = []
    for w, d in bfs_enumerate(n, max_len):
        f = perm_length(w)
        if f != d:
            bad.append("window %r: BFS %d vs formula %d" % (w, d, f))
    return bad
