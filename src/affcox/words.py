"""
Words over the generator alphabet of W(~A_n), parsing/printing, and the
reflection-sequence reducedness test.

A letter is an int: 1..n for sigma_i, 0 (perms.AFFINE) for a_{n+1}.  A Word
pins its rank; operations never coerce across ranks.  A Word is checked
when it is made (`Word`), and no route makes an unchecked one, so the
rank and letter rules of perms are paid once per word, at that boundary.

Text syntax: whitespace- or '*'-separated tokens, `s<k>` for sigma_k and `a`
for the affine generator, e.g. "s1 a s2" or "s1*a*s2".

Reducedness is decided by the reflection-sequence criterion: with
t_j = (s_1...s_{j-1}) s_j (s_1...s_{j-1})^{-1}, the word s_1...s_r is
reduced iff the t_j are pairwise distinct.  When it is not (but the proper
prefix is), the *hat partner* of the last letter is the unique j < r with
t_j = t_r; deleting positions j and r-1 (0-based) leaves the same group
element.
"""

import re
from typing import NamedTuple, Optional

from .perms import (
    AFFINE, InvariantError, check_letters, check_rank, compose, identity, inverse,
    right_mul,
)


class _Fields(NamedTuple):
    n: int
    letters: tuple


class Word(_Fields):
    """A word at rank n, checked once, when it is made: `check_rank`, then
    the letters as a tuple (any iterable is read once) and `check_letters`.
    Every route to a Word goes through `__new__`: the constructor, `_make`
    and so `_replace`, and pickle and copy (by `__getnewargs__`).  So code
    that takes a Word need not check it again."""
    __slots__ = ()

    def __new__(cls, n, letters):
        check_rank(n)
        letters = tuple(letters)
        check_letters(letters, n)
        return tuple.__new__(cls, (n, letters))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make skips __new__, and compares len() with the
        # field count, which __len__ (the letter count) breaks
        return cls(*iterable)

    def __len__(self):
        return len(self.letters)


def word(n, letters):
    """Build a Word; the checks are `Word`'s."""
    return Word(n, letters)


INDEX = "[0-9]+"  # an index in either text syntax: ASCII decimal digits
_TOKEN = re.compile(r"^s(%s)$" % INDEX)


def parse_word(text, n):
    check_rank(n)
    letters = []
    for tok in text.replace("*", " ").split():
        if tok == "a":
            letters.append(AFFINE)
            continue
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError("malformed token %r" % tok)
        k = int(m.group(1))
        if not 1 <= k <= n:
            raise ValueError("index out of range: s%d at rank %d" % (k, n))
        letters.append(k)
    return Word(n, letters)


def format_word(w):
    return " ".join("a" if s == AFFINE else "s%d" % s for s in w.letters)


def reflection_sequence(w):
    """Windows of t_j = (s_1...s_{j-1}) s_j (s_1...s_{j-1})^{-1}, j = 1..r."""
    prefix = identity(w.n)
    out = []
    for s in w.letters:
        nxt = right_mul(prefix, s)
        # t = prefix . s . prefix^{-1}
        out.append(compose(nxt, inverse(prefix)))
        prefix = nxt
    return out


def is_reduced(w):
    ts = reflection_sequence(w)
    return len(set(ts)) == len(ts)


def hat_partner(w) -> Optional[int]:
    """
    For w = s_1...s_r with reduced proper prefix: the 0-based position j of
    the unique earlier letter with t_j = t_r, or None when w is reduced.
    A ValueError if the proper prefix is not reduced.
    """
    if len(w.letters) == 0:
        return None
    ts = reflection_sequence(w)
    if len(set(ts[:-1])) != len(ts) - 1:
        raise ValueError("proper prefix is not reduced")
    last = ts[-1]
    hits = [j for j in range(len(ts) - 1) if ts[j] == last]
    if not hits:
        return None
    if len(hits) != 1:
        raise InvariantError("hat partner not unique: %r" % (hits,))
    return hits[0]
