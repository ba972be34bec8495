"""
The independent judge: the affine-permutation window model of W(~A_n)
(Bjorner & Brenti, GTM 231, section 8.3), as implemented by affcox.perms,
plus the definitions the benchmark needs on top of it.

Nothing here calls the canonical-form engine.  An element in canonical
coordinates (pairs, bricks) is expanded to letters straight from the
definitions h(j,i) = sigma_j ... sigma_n . sigma_i ... sigma_1 and
|i,j| = sigma_i ... sigma_j, and judged by its window.
"""

from affcox.perms import (
    AFFINE,
    compose,
    identity,
    inverse,
    perm_length,
    right_mul,
    to_permutation,
)


def letters_of(n, pairs, bricks):
    """The word h(j_1,i_1) a ... h(j_m,i_m) a . |bricks| as a letter tuple."""
    out = []
    for j, i in pairs:
        out.extend(range(j, n + 1))
        out.extend(range(i, 0, -1))
        out.append(AFFINE)
    for i, j in bricks:
        out.extend(range(i, j + 1))
    return tuple(out)


def window_of(e):
    return to_permutation(letters_of(e.n, e.pairs, e.bricks), e.n)


def right_ascents(w):
    """Letters s with l(ws) > l(w), read off the window: sigma_i iff
    w(i) < w(i+1), and a iff w(n+1) - (n+1) < w(1)."""
    nn = len(w)
    out = [i for i in range(1, nn) if w[i - 1] < w[i]]
    if w[-1] - nn < w[0]:
        out.append(AFFINE)
    return out


def pair_ok(prev, pair, n):
    """The pairwise inequalities (1)-(5) of the normal form, for `pair`
    following `prev` (prev is None for the first pair)."""
    j, i = pair
    if prev is None:
        return 1 <= j <= n + 1 and 0 <= i <= n - 1
    jp, ip = prev
    if not ((i == 0 and j == 1) or (1 <= i <= n - 1 and 1 <= j <= n)):
        return False
    if not (j <= jp and i >= ip):
        return False
    if jp > ip + 1 and not j < jp:
        return False
    return not (j > i + 1 and not i > ip)


def legal_next(prev, n):
    return [
        (j, i)
        for j in range(1, n + 2)
        for i in range(0, n)
        if pair_ok(prev, (j, i), n)
    ]


def bricks_ok(bricks, n):
    prev = n + 1
    for i, j in bricks:
        if not (1 <= i <= j <= n and j < prev):
            return False
        prev = j
    return True


def is_canonical_of(e, n, window):
    """e is the normal form of the element with this window: it has rank n,
    its pairs and bricks have the canonical shape, its word is reduced and
    its window is `window`.  The normal form is unique, so this pins e."""
    if e.n != n or not bricks_ok(e.bricks, n):
        return False
    prev = None
    for pair in e.pairs:
        if not pair_ok(prev, pair, n):
            return False
        prev = pair
    letters = letters_of(n, e.pairs, e.bricks)
    w = to_permutation(letters, n)
    return w == window and len(letters) == perm_length(w)


def length_of(e):
    return perm_length(window_of(e))


def right_descents_of(w):
    lw = perm_length(w)
    return {s for s in range(len(w)) if perm_length(right_mul(w, s)) < lw}


def left_descents_of(w):
    n = len(w) - 1
    lw = perm_length(w)
    return {
        s
        for s in range(n + 1)
        if perm_length(compose(right_mul(identity(n), s), w)) < lw
    }


def in_embedding_image(w):
    """The image of W(~A_{n-1}) -> W(~A_n) is the stabilizer of n+1."""
    n = len(w) - 1
    return n >= 3 and w[n] == n + 1


def hecke_at_q1(h):
    """Specialize a Hecke element at q = 1: window -> summed coefficient,
    zero entries dropped.  At q = 1 the algebra is the group algebra."""
    out = {}
    for e, poly in h.terms.items():
        w = window_of(e)
        out[w] = out.get(w, 0) + sum(poly.values())
    return {w: v for w, v in out.items() if v}

