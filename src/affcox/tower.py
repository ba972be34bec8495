"""
The rank-raising embedding W(~A_{n-1}) -> W(~A_n) fixing sigma_1..sigma_{n-1}
and sending the affine letter to sigma_n a sigma_n (a now the higher-rank
affine letter).  On canonical forms it is a closed formula: with

    s = max { k : 1 <= k <= m and n - k - i_k > 0 }     (ambient rank n)

every j_k is kept, i_k is raised by 1 exactly for k > s, and the finite
part picks up the run |t, n| on the left, t = n - s + 1.  Since i_k is
nondecreasing by (3), n - k - i_k falls strictly with k, so the k with
n - k - i_k > 0 form an initial segment, and s <= n - 1 because i_k >= 0.

The image is the stabilizer of n+1 at rank n.  For x = r + n q with
1 <= r <= n, phi(x) = r + (n+1) q is an order-preserving bijection from Z
onto Z minus the class of n+1, with phi(x + n) = phi(x) + n+1.  So
conjugation by phi (fixing that class) carries the period-n bijections
onto the period-(n+1) ones fixing n+1, and it is the letter map: sigma_i
(i < n) still swaps i and i+1, and a, the swap of n q and n q + 1, becomes
the swap of (n+1) q - 1 and (n+1) q + 1, which is sigma_n a sigma_n.  On
windows w(k) = r + n q goes to r + (n+1) q and n+1 is appended: the sum
of w(k) - k stays 0 (the q sum to 0, as the r run over 1..n), each
translation coordinate lambda_k = floor((w(k) - 1) / n) = q is kept and
the new entry has lambda = 0, so the affine length sum_k max(0, lambda_k)
is preserved.  The length grows by 2L: each pair's canonical.pair_length
gains 1, the i_k with k > s gain m - s, and |t, n| adds s.  The preimage
undoes the formula with the same split index.

Both maps carry the element's stored window (canonical.Element.window)
across in O(n), with no encode: with q = floor((v - 1) / n), phi(v) =
v + q, so `embed` maps each entry v to v + floor((v - 1) / n) and appends
n+1; with N = n+1 the image period, the inverse of phi takes
v = r + N q (1 <= r <= n, so floor((v - 1) / N) = q) to v - q, so
`preimage` maps each entry but the last, the fixed n+1, to
v - floor((v - 1) / N).  Membership reads the stored window's last entry.
"""

from typing import Optional

from . import canonical as c
from . import finite as fin
from .canonical import Element
from .perms import AFFINE, InvariantError, check_rank
from .words import Word


def _shift(pairs, n, step):
    """(s, the pairs with each i_k moved by step for k > s): the split index
    s = max{k : n - k - i_k > 0}, 1-based, at ambient rank n, and step +1
    for embed, -1 for preimage.  The k = 1 term must be positive and s at
    most n - 1."""
    s = max([k for k, (_, i) in enumerate(pairs, start=1) if n - k - i > 0], default=0)
    if not 1 <= s <= n - 1:
        raise InvariantError("split index %d outside 1..%d" % (s, n - 1))
    return s, tuple((j, i + step if k > s else i) for k, (j, i) in enumerate(pairs, start=1))


def _check_image(pairs, bricks, n):
    """The closed formula must land on a canonical form at rank n."""
    if not c.validate_block(pairs, n):
        raise InvariantError("invalid block %r at rank %d" % (pairs, n))
    if not fin.validate_finite(bricks, n):
        raise InvariantError("invalid bricks %r at rank %d" % (bricks, n))


def embed(e) -> Element:
    """Image of a rank-(n-1) element at rank n, by the closed formula; n
    must pass check_rank, as hecke.hr_embed's rank-n identity does."""
    n = e.n + 1
    check_rank(n)
    # phi(r + n q) = r + (n+1) q on the source window (period n), n+1 appended
    win = (*[v + (v - 1) // n for v in e.window], n + 1)
    if not e.pairs:  # a W(A_{n-1}) form is a W(A_n) form
        return Element._trusted(n, (), e.bricks, win)
    s, pairs = _shift(e.pairs, n, 1)
    bricks = ((n - s + 1, n),) + e.bricks
    _check_image(pairs, bricks, n)
    return Element._trusted(n, pairs, bricks, win)


def substitute_word(w):
    """The letter map at the word level: the test oracle for embed."""
    n = w.n + 1
    letters = []
    for s in w.letters:
        if s == AFFINE:
            letters.extend((n, AFFINE, n))
        else:
            letters.append(s)
    return Word(n, letters)


def is_in_image(e) -> bool:
    """e fixes n+1, read off its stored window (false below rank 3: there
    is no rank-1 source)."""
    return e.n >= 3 and e.window[e.n] == e.n + 1


def preimage(e) -> Optional[Element]:
    if not is_in_image(e):
        return None
    n = e.n
    # phi^{-1}(r + (n+1) q) = r + n q on the window (period n+1) without n+1
    win = tuple([v - (v - 1) // (n + 1) for v in e.window[:-1]])
    if not e.pairs:
        return Element._trusted(n - 1, (), e.bricks, win)  # e fixes n+1: no level-n brick
    s, pairs = _shift(e.pairs, n, -1)
    t = n - s + 1
    if not (e.bricks and e.bricks[0] == (t, n)):
        raise InvariantError("%r fixes %d but does not start with |%d, %d|"
                             % (e, n + 1, t, n))
    bricks = e.bricks[1:]
    _check_image(pairs, bricks, n - 1)
    return Element._trusted(n - 1, pairs, bricks, win)
