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
"""

AFFINE = 0  # the letter a_{n+1}


class InvariantError(AssertionError):
    """An engine invariant failed: a bug, never a property of the input.
    Raised explicitly, so the checks survive `python -O`.  Defined here, in
    the lowest module, so every layer raises the same class."""


def check_rank(n):
    if not isinstance(n, int) or n < 2:
        raise ValueError("rank must be an integer >= 2, got %r" % (n,))


def identity(n):
    """Identity window (1, 2, ..., n+1)."""
    check_rank(n)
    return tuple(range(1, n + 2))


def is_window(w):
    """Both window invariants: distinct residues mod n+1, normalized sum."""
    nn = len(w)
    if nn < 3:
        return False
    if len({v % nn for v in w}) != nn:
        return False
    return sum(w) == nn * (nn + 1) // 2


def right_mul(w, letter):
    """Window of w . s for a single letter s."""
    nn = len(w)
    if letter == AFFINE:
        return (w[-1] - nn,) + w[1:-1] + (w[0] + nn,)
    i = letter
    if not 1 <= i <= nn - 1:
        raise ValueError("letter %r out of range for rank %d" % (letter, nn - 1))
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


def to_permutation(word, n):
    """Fold a word (left to right) into a window, starting at the identity."""
    w = identity(n)
    for letter in word:
        w = right_mul(w, letter)
    return w


def apply_perm(w, k):
    """Value w(k) for any integer k, via periodicity."""
    nn = len(w)
    q, r = divmod(k - 1, nn)
    return w[r] + q * nn


def compose(u, v):
    """Window of the product u.v, i.e. the map k -> u(v(k))."""
    if len(u) != len(v):
        raise ValueError("rank mismatch: windows of size %d and %d" % (len(u), len(v)))
    return tuple([apply_perm(u, vk) for vk in v])


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


def bfs_enumerate(n, max_len, max_states=5_000_000):
    """
    All group elements of length <= max_len as a list of (window, length),
    sorted by (length, window): a view of `bfs_reduced_words`, whose guard
    it shares.
    """
    words = bfs_reduced_words(n, max_len, max_states)
    items = ((w, len(word)) for w, word in words.items())
    return sorted(items, key=lambda t: (t[1], t[0]))


def bfs_reduced_words(n, max_len, max_states=5_000_000):
    """
    Dict window -> one reduced word, for every element of length <= max_len.
    The word recorded is the BFS discovery word, hence of minimal length.
    """
    check_rank(n)
    letters = tuple(range(1, n + 1)) + (AFFINE,)
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
        if len(words) > max_states:
            raise RuntimeError(
                "enumeration guard exceeded (%d states)" % len(words)
            )
        frontier = nxt
    return words


def random_reduced_word(n, size, rng):
    """A random reduced word of `size` letters, grown letter by letter: a
    drawn letter is kept when it lengthens the window.  For sampling long
    elements, which random words (mostly cancelling) do not reach."""
    check_rank(n)
    letters, w = [], identity(n)
    while len(letters) < size:
        s = rng.randrange(0, n + 1)
        ws = right_mul(w, s)
        if perm_length(ws) > len(letters):
            letters.append(s)
            w = ws
    return tuple(letters)


def count_reduced_words(w):
    """
    Number of reduced words for the element with window w: every reduced
    word ends in some s with l(ws) < l(w), so the count is the sum of the
    counts of those ws.  Depth first on an explicit stack (no recursion
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
