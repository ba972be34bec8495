"""
Words over the generator alphabet of W(~A_n), parsing/printing, and the
reflection-sequence reducedness test.

A letter is an int: 1..n for sigma_i, 0 (perms.AFFINE) for a_{n+1}.  A Word
pins its rank; operations never coerce across ranks.  A Word is checked
when it is made (`Word`), and no route makes an unchecked one but
`Word._trusted`, for the words the library spells from checked values, so
the rank and letter rules of perms are paid once per word, at that boundary.

Text syntax: whitespace- or '*'-separated tokens, `s<k>` for sigma_k and `a`
for the affine generator, e.g. "s1 a s2" or "s1*a*s2".

Reducedness is decided by the reflection-sequence criterion: with
t_j = (s_1...s_{j-1}) s_j (s_1...s_{j-1})^{-1}, the word s_1...s_r is
reduced iff the t_j are pairwise distinct.  When it is not (but the proper
prefix is), the *hat partner* of the last letter is the unique j < r with
t_j = t_r; deleting positions j and r-1 (0-based) leaves the same group
element.  A reflection of W(~A_n) is the periodic swap of two values, so
the pair its letter swaps names t_j (Bjorner & Brenti, GTM 231, Sec. 8.3).
"""

import re
from typing import NamedTuple, Optional

from .perms import AFFINE, Checked, check_letters, check_rank


class _Fields(NamedTuple):
    n: int
    letters: tuple


class Word(Checked, _Fields):
    """A word at rank n, checked by every route (perms.Checked): `check_rank`,
    then the letters as a tuple (any iterable is read once) and
    `check_letters`.  So code that takes a Word need not check it again."""
    __slots__ = ()

    @staticmethod
    def _check(n, letters):
        check_rank(n)
        letters = tuple(letters)
        check_letters(letters, n)
        return n, letters

    def __len__(self):
        return len(self.letters)


def word(n, letters):
    """Build a Word; the checks are `Word`'s."""
    return Word(n, letters)


INDEX = "[0-9]+"  # an index in either text syntax: ASCII decimal digits
_TOKEN = re.compile(r"^s(%s)$" % INDEX)


def parse_word(text, n):
    check_rank(n)
    if not isinstance(text, str):
        raise ValueError("text must be a str, got %r" % (text,))
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


def format_word(letters):
    """The text of a word's letters (`w.letters`, or checked letters such as
    a descent set's): `parse_word` reads it back."""
    return " ".join(["a" if s == AFFINE else "s%d" % s for s in letters])


def reflection_sequence(w):
    """t_1, ..., t_r as value pairs (x, y), x < y, shifted to 1 <= x <= n+1,
    off one in-place fold: t_j swaps the values at positions s_j, s_j + 1
    of the prefix's window (for a: 0 and 1, with w(0) = w(n+1) - (n+1))."""
    nn = w.n + 1
    win = list(range(nn + 1))  # win[k] = w(k); win[0] is a sentinel slot
    out = []
    for s in w.letters:
        if s:
            win[s], win[s + 1] = x, y = win[s + 1], win[s]
        else:  # s is AFFINE
            x, y = win[nn] - nn, win[1]
            win[1], win[nn] = x, y + nn
        shift = (min(x, y) - 1) // nn * nn
        out.append((min(x, y) - shift, max(x, y) - shift))
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
    ts = reflection_sequence(w)
    first = {t: j for j, t in enumerate(ts[:-1])}
    if len(first) < len(ts) - 1:
        raise ValueError("proper prefix is not reduced")
    return first.get(ts[-1]) if ts else None
