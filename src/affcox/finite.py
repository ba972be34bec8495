"""
The finite group W(A_n) (the symmetric group on n+1 points) in its
descending-brick canonical form.

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
code W(A_n) bijectively.  `from_window` reads the ranks off a window and
`finite_window` replays the bricks (|i,j| moves the entry at position i
to position j+1), both in O(n^2).  Products, inverses and words are
window operations followed by one decode.  Right insertion x . sigma_k
swaps the positions k and k+1, so only the bricks on levels k-1 and k
move.  Left insertion sigma_k . x swaps the values k and k+1, so only the
rank at the later of their positions, q, changes, i.e. the brick on
level q-1:

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
from itertools import permutations
from typing import NamedTuple

from .perms import (
    AFFINE, InvariantError, check_rank, compose, inverse, right_mul, to_permutation,
)
from .words import Word


class FiniteElement(NamedTuple):
    n: int
    bricks: tuple  # ((i, j), ...) with strictly descending j


class HPrefix(NamedTuple):
    r: int
    i: int


def finite_identity(n):
    check_rank(n)
    return FiniteElement(n, ())


def validate_finite(bricks, n):
    """The canonical-shape invariants."""
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


def finite_window(x):
    """Window (x(1), ..., x(n+1)): each brick |i,j| in turn moves the entry
    at position i to position j+1."""
    win = list(range(1, x.n + 2))
    for i, j in x.bricks:
        win.insert(j, win.pop(i - 1))
    return tuple(win)


def from_window(win):
    """The brick form of a permutation window, by its level code: the brick
    on level j starts at the rank of x(j+1) among x(1..j+1), read off a
    sorted prefix by bisection."""
    n = len(win) - 1
    if sorted(win) != list(range(1, n + 2)):
        raise ValueError("not a window of W(A_n): %r" % (win,))
    seen, starts = [], []
    for v in win:
        k = bisect_left(seen, v)
        seen.insert(k, v)
        starts.append(k + 1)
    return FiniteElement(n, tuple([(starts[j], j) for j in range(n, 0, -1) if starts[j] <= j]))


def right_insert(x, k):
    """Canonical form of x . sigma_k."""
    if not 1 <= k <= x.n:
        raise ValueError("sigma index %r out of range at rank %d" % (k, x.n))
    return from_window(right_mul(finite_window(x), k))


def canonicalize_finite(w):
    """Canonical form of a sigma-word (no affine letters allowed)."""
    if AFFINE in w.letters:
        raise ValueError("affine letter in a finite word")
    return from_window(to_permutation(w.letters, w.n))


def finite_word(x):
    return Word(x.n, tuple(s for i, j in x.bricks for s in floor_word(i, j)))


def finite_length(x):
    return sum(j - i + 1 for i, j in x.bricks)


def finite_shapes(n):
    """All (n+1)! canonical brick shapes at rank n, by length, then bricks."""
    check_rank(n)
    shapes = [from_window(p).bricks for p in permutations(range(1, n + 2))]
    return sorted(shapes, key=lambda s: (finite_length(FiniteElement(n, s)), s))


def finite_mul(x, y):
    if x.n != y.n:
        raise ValueError("rank mismatch: %d vs %d" % (x.n, y.n))
    return from_window(compose(finite_window(x), finite_window(y)))


def finite_inverse(x):
    return from_window(inverse(finite_window(x)))


def finite_left_insert(x, k):
    """Canonical form of sigma_k . x: the one brick entry on level q-1 moves
    (see the module docstring), in O(#bricks) with no refold."""
    n = x.n
    if not 1 <= k <= n:
        raise ValueError("sigma index %r out of range at rank %d" % (k, n))
    # positions x^{-1}(k), x^{-1}(k+1): push both values through the
    # bricks' inverses in tuple order
    p, p1 = k, k + 1
    for i, j in x.bricks:
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
    bricks = x.bricks
    for t, (i, j) in enumerate(bricks):
        if j == level:
            i += step
            moved = ((i, j),) if i <= j else ()
            return FiniteElement(n, bricks[:t] + moved + bricks[t + 1:])
        if j < level:
            break
    else:
        t = len(bricks)
    if step != -1:
        raise InvariantError("no brick on level %d to shorten in %r" % (level, bricks))
    return FiniteElement(n, bricks[:t] + ((level, level),) + bricks[t:])


def support(x):
    """Generator indices occurring in x (exact, since the form is reduced)."""
    out = set()
    for i, j in x.bricks:
        out.update(range(i, j + 1))
    return out


def is_extremal(x):
    """Both sigma_1 and sigma_n occur in x."""
    s = support(x)
    return 1 in s and x.n in s


def in_parabolic(x):
    """x lies in P = <sigma_2, ..., sigma_{n-1}>."""
    return all(2 <= k <= x.n - 1 for k in support(x))


# --- h(r, i) ----------------------------------------------------------------

def check_hprefix(h, n):
    if not (1 <= h.r <= n + 1 and 0 <= h.i <= n - 1):
        raise ValueError("invalid h(%d,%d) at rank %d" % (h.r, h.i, n))


def h_word(h, n):
    """Letters of h(r,i) = |r,n| ceil(i,1)."""
    check_hprefix(h, n)
    return floor_word(h.r, n) + ceil_word(h.i, 1)


def h_element(h, n):
    """Canonical bricks of h(r,i): the run |r,n| on level n (absent when
    r = n+1) followed by single-letter bricks on levels i, i-1, ..., 1."""
    check_hprefix(h, n)
    top = ((h.r, n),) if h.r <= n else ()
    return FiniteElement(n, top + tuple((k, k) for k in range(h.i, 0, -1)))


def h_is_extremal(h, n):
    """h(r,i) extremal <=> (i >= 1 or r = 1) and r <= n."""
    return h.r <= n and (h.i >= 1 or h.r == 1)


def peel_h(x):
    """
    The unique factorization x = h(r,i) . p with p in P; lengths add.

    Since p fixes 1 and n+1, the outer values determine the prefix:
    r = x(n+1), and x(1) is i+1 or i+2 according to i+1 < r or not.
    """
    n = x.n
    win = finite_window(x)
    r = win[n]  # x(n+1)
    v = win[0]  # x(1)
    if v == r:
        raise InvariantError("x(1) == x(n+1) == %d in %r" % (v, x))
    i = v - 1 if v < r else v - 2
    h = HPrefix(r, i)
    check_hprefix(h, n)
    p = from_window(compose(inverse(finite_window(h_element(h, n))), win))
    if not in_parabolic(p):
        raise InvariantError("peel_h(%r): %r . %r with p outside P" % (x, h, p))
    if finite_length(p) + len(h_word(h, n)) != finite_length(x):
        raise InvariantError("peel_h(%r): lengths of %r . %r do not add" % (x, h, p))
    return h, p


def h_times_floor(j_prev, i_prev, j, n):
    """
    Resolve h(j_prev, i_prev) . |j, n| as h(j', i') . |u, n-1| with u >= 2,
    by the three-case rule (requires j > 1 and the pair inequalities
    against the preceding pair):

        j_prev > j > i_prev+1         ->  (j,   i_prev),   u = j_prev - 1
        j_prev > i_prev+1 >= j > 1    ->  (j-1, i_prev-1), u = j_prev - 1
        i_prev+1 >= j_prev >= j > 1   ->  (j-1, i_prev),   u = j_prev
    """
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
    check_hprefix(out, n)
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
