"""
The rank-raising embedding W(~A_{n-1}) -> W(~A_n) fixing sigma_1..sigma_{n-1}
and sending the affine letter to sigma_n a sigma_n (a now the higher-rank
affine letter).  On canonical forms it is a closed formula: with

    s = max { k : 1 <= k <= m and n - k - i_k > 0 }     (ambient rank n)

every j_k is kept, i_k is raised by 1 exactly for k > s, and the finite
part picks up the run |t, n| on the left, t = n - s + 1.  Since i_k is
nondecreasing by (3), n - k - i_k falls strictly with k, so the k with
n - k - i_k > 0 form an initial segment, and s <= n - 1 because i_k >= 0.
The affine length is preserved and the length grows by exactly 2L.

Membership in the image is three literal conditions on the canonical form
(ranges of the first pair, the break inequality at s+1, and the finite
part factoring as |t, n| . y with y one rank down); the preimage undoes
the formula with the split index that the membership test found.
"""

from typing import Optional

from . import canonical as c
from . import finite as fin
from .canonical import Element
from .perms import AFFINE, InvariantError, check_rank
from .words import Word


def _split_index(pairs, n):
    """s = max{k : n - k - i_k > 0}, 1-based, at ambient rank n; the k = 1
    term must be positive and s at most n - 1."""
    ks = [k for k, (_, i) in enumerate(pairs, start=1) if n - k - i > 0]
    if not ks:
        raise InvariantError("no split index: first pair out of range for this rank")
    s = max(ks)
    if s > n - 1:
        raise InvariantError("split index %d exceeds rank %d" % (s, n - 1))
    return s


def _check_image(pairs, bricks, n):
    """The closed formula must land on a canonical form at rank n."""
    if not c.validate_block(pairs, n):
        raise InvariantError("invalid block %r at rank %d" % (pairs, n))
    if not fin.validate_finite(bricks, n):
        raise InvariantError("invalid bricks %r at rank %d" % (bricks, n))


def embed(e) -> Element:
    """Image of a rank-(n-1) element at rank n, by the closed formula."""
    check_rank(e.n)
    n = e.n + 1
    if not e.pairs:
        return Element(n, (), e.bricks)
    s = _split_index(e.pairs, n)
    pairs = tuple(
        (j, i + 1 if k > s else i)
        for k, (j, i) in enumerate(e.pairs, start=1)
    )
    bricks = ((n - s + 1, n),) + e.bricks
    _check_image(pairs, bricks, n)
    return Element(n, pairs, bricks)


def substitute_word(w):
    """The letter map at the word level: the test oracle for embed."""
    n = w.n + 1
    letters = []
    for s in w.letters:
        if s == AFFINE:
            letters.extend((n, AFFINE, n))
        else:
            letters.append(s)
    return Word(n, tuple(letters))


def _image_split(e) -> Optional[int]:
    """The three membership conditions at ambient rank e.n (none hold below
    3): the split index s when e is in the image, 0 when it is in the image
    with an empty block, None when it is not."""
    n = e.n
    if n < 3:
        return None
    if not e.pairs:
        return 0 if not e.bricks or e.bricks[0][1] <= n - 1 else None
    j1, i1 = e.pairs[0]
    if not (j1 <= n and i1 < n - 1):
        return None
    s = _split_index(e.pairs, n)
    if s < len(e.pairs):
        _, i_next = e.pairs[s]  # pair s+1, 1-based
        if not (n - (s + 1) - i_next < 0):
            return None
    t = n - s + 1
    return s if e.bricks and e.bricks[0] == (t, n) else None


def is_in_image(e) -> bool:
    """The three membership conditions at ambient rank e.n (false below 3)."""
    return _image_split(e) is not None


def preimage(e) -> Optional[Element]:
    s = _image_split(e)
    if s is None:
        return None
    n = e.n
    if not s:
        return Element(n - 1, (), e.bricks)
    pairs = tuple(
        (j, i - 1 if k > s else i)
        for k, (j, i) in enumerate(e.pairs, start=1)
    )
    bricks = e.bricks[1:]
    _check_image(pairs, bricks, n - 1)
    return Element(n - 1, pairs, bricks)
