"""
The finite group W(A_n) (the symmetric group on n+1 points) in its
descending-brick canonical form.

An element x of W(A_n) is the element of W(~A_n) with no pairs,
canonical.Element(n, (), bricks), and its window is a window with affine
length L = 0 (perms.affine_length): its products, inverses and words are
`canonical`'s operations on that element, and this module holds only the
brick layer.  Its functions take a brick tuple and the rank, `(bricks, n)`,
as the block layer takes `(pairs, n)`, and return brick tuples.

A brick |i,j| is the ascending run sigma_i sigma_{i+1} ... sigma_j
(empty when i = j+1); a brick ]i,j[ written here as ceil(i,j) is the
descending run sigma_i sigma_{i-1} ... sigma_j (empty when i = j-1).
Every x in W(A_n) factors uniquely as

    x = |i_1,j_1| |i_2,j_2| ... |i_s,j_s|,   n >= j_1 > j_2 > ... > j_s >= 1,
                                             j_t >= i_t >= 1,

and this expression is reduced.  The shapes are the level code of the
permutation, which is the definition used here.  Write x(p) for the
window value at position p (x . sigma_p swaps positions p and p+1).  The
brick on level j starts at

    i_j = rank of x(j+1) among x(1), ..., x(j+1),

and is absent when that rank is j+1 (Bjorner & Brenti, Combinatorics of
Coxeter Groups, Sec. 8.3).  Level j has j+1 choices, so the (n+1)! shapes
code W(A_n) bijectively.  `level_walk` reads the ranks off any distinct
ints, each by one bisection into the sorted prefix, where it then inserts
the entry, so one pass returns the bricks and the ints sorted (the sorted
window is the block's window in canonical's decoder); `level_code` is its
bricks alone.  `finite_window` replays the bricks (|i,j| moves the entry
at position i to position j+1).  Both are O(n^2) in list moves.  Right
insertion x . sigma_k swaps the positions k and k+1, so only the bricks
on levels k-1 and k move.  Left insertion sigma_k . x swaps the values k
and k+1, so only the rank at the later of their positions, q, changes,
i.e. the brick on level q-1:

    k before k+1  ->  start - 1 (length + 1; an absent brick becomes |q-1,q-1|)
    k+1 before k  ->  start + 1 (length - 1; the brick drops once start > q-1)

The positions of k and k+1 come from pushing each value through the
bricks' inverses in tuple order (for |i,j|: i goes to j+1, i < v <= j+1
goes to v-1, any other v stays), so left insertion is O(#bricks) and
decodes nothing.

The h-elements h(r,i) = |r,n| ceil(i,1) (h(n+1,0) = 1) and their
interaction with bricks and with the parabolic P = <sigma_2..sigma_{n-1}>
live here too, as do the exhaustive two- and three-brick identity checks.
"""

from bisect import bisect_left
from typing import NamedTuple

from . import perms
from .perms import InvariantError, check_rank, compose, inverse, right_mul, to_permutation


class HPrefix(NamedTuple):
    """h(r, i) as `peel_h` and `h_times_floor` return it; the h functions
    below take any (r, i) pair."""
    r: int
    i: int


def is_pair(p):
    """A list or tuple of two: the shape of a caller's pair, brick or h-prefix."""
    return isinstance(p, (list, tuple)) and len(p) == 2


def int_pairs(field, seq):
    """`seq` as a tuple of integer pairs, the one structure-and-type rule for
    a caller's pairs or bricks, read in one pass: a list or tuple whose
    items each pass `is_pair` with two int entries; a ValueError naming
    `field` otherwise."""
    if isinstance(seq, (list, tuple)):
        out = []
        for p in seq:
            if not is_pair(p):
                break
            a, b = p
            if type(a) is not int or type(b) is not int:
                break
            out.append((a, b))
        else:
            return tuple(out)
    raise ValueError("%s must be a list of integer pairs, got %r" % (field, seq))


def validate_finite(bricks, n):
    """The canonical-shape invariants, on int entries (`int_pairs`)."""
    check_rank(n)
    prev_j = n + 1
    for i, j in bricks:
        if not (1 <= i <= j <= n and j < prev_j):
            return False
        prev_j = j
    return True


def floor_word(i, j):
    """Letters of |i,j| (empty when i = j+1)."""
    return tuple(range(i, j + 1))


def ceil_word(i, j):
    """Letters of ceil(i,j) = sigma_i sigma_{i-1} ... sigma_j (empty when i = j-1)."""
    return tuple(range(i, j - 1, -1))


def finite_window(bricks, n):
    """Window (x(1), ..., x(n+1)) of a canonical shape with int entries: each
    brick |i,j| in turn moves the entry at position i to position j+1."""
    check_rank(n)
    win = list(range(1, n + 2))
    for i, j in bricks:
        win.insert(j, win.pop(i - 1))
    return tuple(win)


def level_walk(win):
    """The bricks of the relative order of any distinct ints, and those ints
    sorted, unchecked, in one pass: the brick on level j starts at the rank
    of x(j+1) among x(1..j+1), read off the sorted prefix by one bisection,
    and x(j+1) is inserted there, so the prefix ends as the sorted list."""
    seen, bricks = [], []
    for j, v in enumerate(win):
        k = bisect_left(seen, v)
        seen.insert(k, v)
        if k < j:  # x(j+1) is not the largest so far: a brick (k+1, j)
            bricks.append((k + 1, j))
    bricks.reverse()
    return tuple(bricks), seen


def level_code(win):
    """The bricks of the relative order of any distinct ints, unchecked:
    the bricks of `level_walk`, without its sorted list."""
    return level_walk(win)[0]


def _check_sigma(k, n):
    check_rank(n)
    if not (type(k) is int and 1 <= k <= n):
        raise ValueError("sigma index %r out of range at rank %d" % (k, n))


def right_insert(bricks, k, n):
    """The bricks of x . sigma_k, by window; the oracle beside
    finite_left_insert in the tests."""
    _check_sigma(k, n)
    return level_code(right_mul(finite_window(bricks, n), k))


def finite_length(bricks):
    return sum(j - i + 1 for i, j in bricks)


def finite_shapes(n):
    """All (n+1)! canonical brick shapes at rank n, by length, then bricks;
    the resource limit (perms.past_limit) past perms.MAX_STATES shapes (from
    n = 10 on), before any is built: the count is multiplied up level by
    level, as the listing builds them, and refused at the first level past
    the limit."""
    check_rank(n)
    count = 1
    for j in range(n, 0, -1):
        count *= j + 1
        if count > perms.MAX_STATES:
            raise perms.past_limit("finite shape count", count, perms.MAX_STATES)
    shapes = [()]
    for j in range(n, 0, -1):  # the level code: |i,j| with 1 <= i <= j, or none
        shapes = [s + b for s in shapes for b in [((i, j),) for i in range(1, j + 1)] + [()]]
    return sorted(shapes, key=lambda s: (finite_length(s), s))


def finite_left_insert(bricks, k, n):
    """The bricks of sigma_k . x: the one brick entry on level q-1 moves
    (see the module docstring), in O(#bricks) with no refold."""
    _check_sigma(k, n)
    # positions x^{-1}(k), x^{-1}(k+1): push both values through the
    # bricks' inverses in tuple order
    p, p1 = k, k + 1
    for i, j in bricks:
        if p == i:
            p = j + 1
        elif i < p <= j + 1:
            p -= 1
        if p1 == i:
            p1 = j + 1
        elif i < p1 <= j + 1:
            p1 -= 1
    level = max(p, p1) - 1
    step = -1 if p < p1 else 1  # k before k+1: the length grows
    for t, (i, j) in enumerate(bricks):
        if j == level:
            i += step
            moved = ((i, j),) if i <= j else ()
            return bricks[:t] + moved + bricks[t + 1:]
        if j < level:
            break
    else:
        t = len(bricks)
    if step != -1:
        raise InvariantError("no brick on level %d to shorten in %r" % (level, bricks))
    return bricks[:t] + ((level, level),) + bricks[t:]


def support(bricks):
    """Generator indices occurring in x (exact, since the form is reduced)."""
    out = set()
    for i, j in bricks:
        out.update(range(i, j + 1))
    return out


def in_parabolic(bricks, n):
    """x lies in P = <sigma_2, ..., sigma_{n-1}>, the parabolic factor of
    `peel_h`."""
    return all(2 <= k <= n - 1 for k in support(bricks))


# --- h(r, i) ----------------------------------------------------------------

def hprefix_ok(h, n):
    """Inequality (1): the range of an h-prefix h(r,i), and of a block's
    first pair (canonical._junction_ok): ints, 1 <= r <= n+1, 0 <= i <= n-1."""
    r, i = h
    return type(r) is int and type(i) is int and 1 <= r <= n + 1 and 0 <= i <= n - 1


def check_hprefix(h, n):
    """The rank, then the h-prefix at that rank (`check_hprefix_at`)."""
    check_rank(n)
    check_hprefix_at(h, n)


def check_hprefix_at(h, n):
    """A pair (`is_pair`) passing `hprefix_ok`, which trusts its shape, at a
    rank n the caller has already checked."""
    if not is_pair(h):
        raise ValueError("an h-prefix is a pair (r, i), got %r" % (h,))
    if not hprefix_ok(h, n):
        raise ValueError("invalid h(%r,%r) at rank %d" % (h[0], h[1], n))


def h_word(h, n):
    """Letters of h(r,i) = |r,n| ceil(i,1)."""
    check_hprefix(h, n)
    r, i = h
    return floor_word(r, n) + ceil_word(i, 1)


def h_element(h, n):
    """Canonical bricks of h(r,i): the run |r,n| on level n (absent when
    r = n+1) followed by single-letter bricks on levels i, i-1, ..., 1."""
    check_hprefix(h, n)
    r, i = h
    top = ((r, n),) if r <= n else ()
    return top + tuple((k, k) for k in range(i, 0, -1))


def h_is_extremal(h, n):
    """h(r,i) extremal <=> (i >= 1 or r = 1) and r <= n."""
    r, i = h
    return r <= n and (i >= 1 or r == 1)


def peel_h(bricks, n):
    """
    The paper's factorization x = h(r,i) . p with p in P, unique, lengths
    adding; the case list at affine length 2 is keyed by this h(r,i).
    Returns (h, the bricks of p).

    Since p fixes 1 and n+1, the outer values determine the prefix:
    r = x(n+1), and x(1) is i+1 or i+2 according to i+1 < r or not.
    A ValueError unless bricks is a canonical shape.
    """
    check_rank(n)
    bricks = int_pairs("bricks", bricks)
    if not validate_finite(bricks, n):
        raise ValueError("invalid finite canonical form: %r" % (bricks,))
    win = finite_window(bricks, n)
    r = win[n]  # x(n+1)
    v = win[0]  # x(1)
    if v == r:
        raise InvariantError("x(1) == x(n+1) == %d in %r" % (v, bricks))
    i = v - 1 if v < r else v - 2
    h = HPrefix(r, i)
    if not hprefix_ok(h, n):
        raise InvariantError("peel_h(%r) gave %r" % (bricks, h))
    p = level_code(compose(inverse(finite_window(h_element(h, n), n)), win))
    if not in_parabolic(p, n):
        raise InvariantError("peel_h(%r): %r . %r with p outside P" % (bricks, h, p))
    if finite_length(p) + len(h_word(h, n)) != finite_length(bricks):
        raise InvariantError("peel_h(%r): lengths of %r . %r do not add" % (bricks, h, p))
    return h, p


def h_times_floor(j_prev, i_prev, j, n):
    """
    The paper's three-case rule, stated here for the tests to check
    exhaustively against the window oracle: resolve h(j_prev, i_prev) .
    |j, n| as h(j', i') . |u, n-1| with u >= 2 (requires j > 1 and the
    pair inequalities against the preceding pair):

        j_prev > j > i_prev+1         ->  (j,   i_prev),   u = j_prev - 1
        j_prev > i_prev+1 >= j > 1    ->  (j-1, i_prev-1), u = j_prev - 1
        i_prev+1 >= j_prev >= j > 1   ->  (j-1, i_prev),   u = j_prev
    """
    check_hprefix((j_prev, i_prev), n)
    check_hprefix((j, 0), n)
    if j <= 1:
        raise ValueError("h_times_floor needs j > 1, got %d" % j)
    if j > j_prev:
        raise ValueError("pair inequality j <= j_prev violated")
    if j_prev > i_prev + 1:
        if j > i_prev + 1:
            if j >= j_prev:
                raise ValueError("pair inequality j < j_prev violated")
            out, u = HPrefix(j, i_prev), j_prev - 1
        else:
            out, u = HPrefix(j - 1, i_prev - 1), j_prev - 1
    else:
        out, u = HPrefix(j - 1, i_prev), j_prev
    if u < 2:
        raise InvariantError("h_times_floor(%d, %d, %d): u = %d < 2" % (j_prev, i_prev, j, u))
    if not hprefix_ok(out, n):
        raise InvariantError("h_times_floor(%d, %d, %d) gave %r" % (j_prev, i_prev, j, out))
    return out, u


# --- the brick identity families, instantiated exhaustively -----------------

def brick_identities_check(n):
    """
    Instantiate every two-brick and three-brick identity over its stated
    parameter range at rank n; report (as strings) any instance where the
    sides differ in the oracle, or where the letter counts disagree with
    the identity's nature (counts equal for the non-collapsing identities;
    a drop of exactly 2a, resp. 2, for the collapsing ones).
    """
    check_rank(n)
    bad = []

    def check(name, lhs, rhs, drop):
        if to_permutation(lhs, n) != to_permutation(rhs, n):
            bad.append("%s: sides differ (%r vs %r)" % (name, lhs, rhs))
        if len(lhs) - len(rhs) != drop:
            bad.append(
                "%s: letter count drop %d, expected %d"
                % (name, len(lhs) - len(rhs), drop)
            )

    F, C = floor_word, ceil_word
    # two-brick family
    for a in range(0, n + 1):
        for b in range(1, n + 2):
            if 1 < b <= a + 1 <= n + 1:
                check("2b-1 a=%d b=%d" % (a, b),
                      C(a, 1) + F(b, n), F(b - 1, n) + C(a - 1, 1), 0)
            if b > a + 1:
                check("2b-2 a=%d b=%d" % (a, b),
                      C(a, 1) + F(b, n), F(b, n) + C(a, 1), 0)
    for a in range(0, n + 1):
        check("2b-3 a=%d" % a, C(a, 1) + F(1, n), F(a + 1, n), 2 * a)
    for a in range(1, n + 2):
        for b in range(1, n + 1):
            if a > b:
                check("2b-4 a=%d b=%d" % (a, b),
                      F(a, n) + F(b, n), F(b, n) + F(a - 1, n - 1), 0)
            if a <= b and a <= n:
                check("2b-5 a=%d b=%d" % (a, b),
                      F(a, n) + F(b, n), F(b + 1, n) + F(a, n - 1), 2)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a < b:
                check("2b-6 a=%d b=%d" % (a, b),
                      C(a, 1) + C(b, 1), C(b, 1) + C(a + 1, 2), 0)
            if a >= b:
                check("2b-7 a=%d b=%d" % (a, b),
                      C(a, 1) + C(b, 1), C(b - 1, 1) + C(a, 2), 2)
    # three-brick family
    for a in range(0, n):
        for b in range(1, n + 2):
            for c in range(1, n + 1):
                lhs = F(b, n) + C(a, 1) + F(c, n)
                if c > a + 1 and b > c:
                    check("3b-A a=%d b=%d c=%d" % (a, b, c), lhs,
                          F(c, n) + C(a, 1) + F(b - 1, n - 1), 0)
                if c > a + 1 and b == c:
                    check("3b-B a=%d b=%d c=%d" % (a, b, c), lhs,
                          F(b + 1, n) + C(a, 1) + F(b, n - 1), 2)
                if 1 < c <= a + 1 < b:
                    check("3b-C a=%d b=%d c=%d" % (a, b, c), lhs,
                          F(c - 1, n) + C(a - 1, 1) + F(b - 1, n - 1), 0)
                if 1 < c <= b <= a + 1:
                    check("3b-D a=%d b=%d c=%d" % (a, b, c), lhs,
                          F(c - 1, n) + C(a, 1) + F(b, n - 1), 0)
    return bad
