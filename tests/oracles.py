"""Independent routes to what the library computes, for the tests to judge
it by: slower, but built from other parts of the engine."""

from affcox import canonical as c


def letter_fold(w):
    """The canonical form of a word by the letter engine: its letters folded
    right to left through `left_mul` from the identity, one left
    multiplication per letter.  The oracle of `canonicalize`."""
    e = c.identity_element(w.n)
    for s in reversed(w.letters):
        e = c.left_mul(s, e)
    return e
