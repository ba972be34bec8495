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
MAX_STATES = 5_000_000  # bfs_reduced_words raises RuntimeError past this many


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
        raise ValueError("letter %r invalid at rank %d" % (letter, nn - 1))
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


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


def random_reduced_word(n, size, rng):
    """A random reduced word of `size` letters, grown letter by letter: a
    drawn letter is kept unless it `descends` (w . s is then shorter than w).
    For sampling long elements, which random words (mostly cancelling) do
    not reach."""
    check_rank(n)
    nn = n + 1
    letters, w = [], list(range(1, nn + 1))
    while len(letters) < size:
        s = rng.randrange(0, nn)
        if descends(w, s):
            continue
        if s == AFFINE:
            w[0], w[n] = w[n] - nn, w[0] + nn
        else:
            w[s - 1], w[s] = w[s], w[s - 1]
        letters.append(s)
    return tuple(letters)


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
