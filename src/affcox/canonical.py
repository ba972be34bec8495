"""
The canonical reduced expression for elements of W(~A_n):

    w  =  h(j_1,i_1) a h(j_2,i_2) a ... h(j_m,i_m) a . x

with x in W(A_n) in its descending-brick form, and the index pairs
(j_s, i_s) subject to the pairwise inequalities

    (1)  1 <= j_1 <= n+1  and  0 <= i_1 <= n-1
    (2)  for s >= 2: (i_s = 0 and j_s = 1)
                     or (1 <= i_s <= n-1 and 1 <= j_s <= n)
    (3)  for s >= 2: j_s <= j_{s-1}  and  i_s >= i_{s-1}
    (4)  j_{s-1} > i_{s-1}+1  implies  j_s < j_{s-1}
    (5)  j_s > i_s+1          implies  i_s > i_{s-1}

The pair part ("affine block") is the minimal-length representative of the
right W(A_n)-coset; m is the affine length; the total length is

    l(w) = l(x) + m + sum_s (n+1 - j_s + i_s).

The letter engine multiplies by one generator on the left: s . w_a for a
block w_a, the empty one included, either *absorbs* (s w_a = w_a sigma_v,
length +1, block unchanged) or yields a new block differing in exactly one
prepended/dropped pair or one entry by +-1.  `left_mul_block` checks the
letter (perms.check_letter) and runs one left-to-right loop over the pairs:
the absorbed index v is carried through the base table (the paper's two
tables, for j > i+1 and j <= i+1, as one rule) until a pair changes.  Only
the two junctions beside the changed pair are then checked; if they hold,
the new block is spliced once and returned.  A broken right junction is
restored by exactly one of four exchange rules (an absorption, with a new
index), and the loop goes on past both pairs, so one letter may fire
several exchange rules.  Every input block is valid, so these local checks
imply all five inequalities; one letter costs O(m) time and no Python
stack.  A sigma enters the loop at the first pair.  The a case prepends
(n+1,0) to the empty block or before an extremal prefix, drops a leading
trivial prefix, or braids one sigma into the loop at the second pair.

The letter engine is the paper's left multiplication (`left_mul`, the
left-multiplication trichotomy).  Folding a word's letters right-to-left
through it from the identity also reaches the word's canonical form, each
step moving the length by exactly 1, at O(m) per letter.  The tests keep
that fold as their oracle of `canonicalize`, which decodes the word's
window instead: the form is unique, so any exact route reaches it.

The element operations go through windows (perms), and an Element
carries its own: the field `window`, a tuple of n+1 ints.  Only a form
built from outside is encoded (`_encode`, O(m + #bricks) list moves, one
pair or brick at a time): by Element._check, after its rules, and by the
block listings of blocks (reference_blocks, appendix_blocks); cli's
`blocks` prints its blocks from their pairs.  Every other form keeps a
window it already has: the peel the window it decoded, coset_rep the
sorted window, left_mul the window with two residue classes of values
moved, and the tower's maps theirs (tower), each in O(n).  `from_window`
decodes any window.  With N = n+1 and u = sorted(window of w), the
window of the block is u (the minimal coset representative is the
one with increasing window, Bjorner & Brenti, GTM 231, Sec. 8.3), and x is
the level code of the window itself: w = u . x acts as k -> u(x(k)) with u
increasing, so w's entries have the relative order of x's.  One walk over
the window gives both (finite.level_walk): it reads each level's rank off
the sorted prefix by bisection and inserts the entry there, so it ends
holding u, and nothing sorts the window again.  The block is then peeled
off u from the right, one run of equal pairs at a time.  One step peels
the last pair (j,i):

    u . (h(j,i) a)^{-1}  =  u . a sigma_1 ... sigma_i sigma_n ... sigma_j

puts u(N) - N at position i+1 (at i+2 when i+1 >= j, where the second
run carries it one step on), puts u(1) + N at position j, and keeps the
entries u(2..n) in their order.  Why the last pair is the one that leaves
this window sorted: if u is a nonempty block ending in (j,i), its prefix
without the last pair obeys the same inequalities, so it is a block, a
minimal coset representative, and its window is sorted.  Different (j,i)
put the two moved values at different positions, and only one arrangement
of the fixed multiset {u(1)+N, u(2), ..., u(n), u(N)-N} is sorted.  So
the sorted arrangement names the last pair:

    i = #{k in 2..n : u(k) < u(N) - N}
    j = 1 + #{k in 2..n : u(k) < u(1) + N} + [u(N) - N < u(1) + N]

two bisections, O(n) per pair with the list edits, and no tables or
exchange rules.  A run of equal pairs goes on without them.  Call the pair
narrow when u(1) + N < u(N) - N (then j <= i+1) and wide otherwise; a wide
pair never repeats, since by (4) a wide pair is followed by a smaller j.
After a narrow step, the new sorted window u[0..n] (0-based) is a bottom
u[0:j] (the entries of u(2..n) below u(1) + N, then u(1) + N), an unmoved
middle u[j:i+1] and a top u[i+1:] (u(N) - N, then the entries above it).
The old u(2..n) lie strictly between the old u(1) and u(N), so the bottom
and the top each span less than N.  The next step peels the same pair
exactly when

    u[0] + N < u[j]  and  u[n] - N > u[i]     (a middle, j <= i)
    u[0] + N < u[n] - N                       (no middle, j = i+1).

If so, u[1:j] lies below u[0] + N (the bottom spans less than N), u[i+1:n]
above u[n] - N (the top spans less than N), and the middle between them,
so the counts give j and i again and the pair is narrow.  If not, then
with a middle u[j] joins the count below u[0] + N or u[i] leaves the
count below u[n] - N, and with none the pair is wide: another pair.  The
repeat moves u[0] + N to slot j-1 and u[n] - N to slot i+1, two list
moves with the middle unmoved, and the new bottom and top again span less
than N (u[1] > u[0] and u[n-1] < u[n]).  So the same two comparisons,
against the same middle, decide each further step: a run of r equal pairs
costs two bisections, then two comparisons and two moves per repeat.

The peel makes exactly L(w) = perms.affine_length(w) steps, a count taken
on u apart from the walk, ending at the identity: a sorted window with
u(1) >= 1 or u(N) <= N is the identity (N distinct residues summing to
N(N+1)/2), so every other peel lowers
sum_k max(0, floor((u(k) - 1)/N)) by exactly 1, and that sum is 0 only at
the identity.  Each distinct junction of the peeled pairs is still
checked with `_junction_ok`, once per run of equal pairs: the change into
the run and its self-junction (p, p), which the rest of the run repeats
(redundant for a correct peel; a check dropped would only repeat a pure
function on the same arguments).  A peel that does not end at the
identity raises InvariantError instead of returning a wrong form.

So canonicalize(w) peels the window of its word, which `word_window`
folds into one list in place (O(l), with no call to perms.to_permutation),
mul(u, v) the composition of the two stored windows, inverse(u) the
inverse of u's, right descents are one comparison each on the stored
window (perms.descends), and left descents the same on its inverse,
L(w) = R(w^{-1}); none of them calls left_mul or encodes a window.

One checked boundary, an unchecked interior.  Plain data is checked once,
where it enters, by the rules of perms:
  - a words.Word checks its rank and letters when it is made (`Word`,
    words.word, words.parse_word, and every copy of one); the words the
    library spells from checked forms skip it by `Word._trusted`;
  - an Element checks its rank, pairs and bricks when it is made, by every
    route: `Element` (so parse_element), `_make`/`_replace`, pickle, copy,
    and encodes its window from them, never trusting one passed in;
  - `from_window` checks a window (perms.is_window) and refuses one whose
    rank is past perms.MAX_RANK or whose affine length is past MAX_PAIRS
    (a RuntimeError), then peels it;
  - `left_mul_block` (so `left_mul`) checks a rank and a letter;
  - the m <= 2 case lists, `deficiency_m1` and `affine_descent_cases_m2`,
    check a rank, pairs and prefix once (the latter its block by Element's
    rules and messages, building no Element), then call `_deficiency`,
    the m = 1 table unchecked.
Everything else takes a Word or an Element, already checked, and checks
nothing again: `canonicalize` folds its Word's window (`word_window`) and
peels it with `_peel`, the decoder without the window check, as `mul`,
`inverse`, hecke._decode (the fold's table of decoded windows) and
hecke.gen_basis peel the windows they built.
`_peel` keeps the engine's own invariants (InvariantError, which survives
python -O).  Forms the library built and checked itself (the peel, left_mul,
coset_rep, the tower, the listings of blocks) skip the checks by
`Element._trusted`, which stores the window each passes.
"""

import re
from bisect import bisect_left
from typing import NamedTuple

from . import perms
from .perms import (AFFINE, Checked, InvariantError, check_letter, check_rank, compose,
                    generators, is_window)
from . import finite as fin
from .words import INDEX, Word, hat_partner

# from_window raises RuntimeError past this affine length (pairs in the
# block): a decode builds one pair per unit of L, ~0.25 s per 10^6 pairs
# (CPython 3.11 on one x86 core)
MAX_PAIRS = 2_000_000


class _Fields(NamedTuple):
    n: int
    pairs: tuple   # ((j, i), ...) — the affine block
    bricks: tuple  # ((i, j), ...) — the finite part x, levels j descending
    window: tuple  # (w(1), ..., w(n+1)), the element's window


class Element(Checked, _Fields):
    """A canonical form at rank n, checked by every route (perms.Checked),
    with its window."""
    __slots__ = ()

    @staticmethod
    def _check(n, pairs, bricks, window=None):
        """The rules, then the window encoded from the checked pairs and
        bricks: a window passed in (by _make, _replace, pickle or copy) is
        never trusted."""
        check_rank(n)
        pairs = fin.int_pairs("pairs", pairs)
        bricks = fin.int_pairs("bricks", bricks)
        _check_block(pairs, n)
        if not fin.validate_finite(bricks, n):
            raise ValueError("invalid finite canonical form: %r" % (bricks,))
        return n, pairs, bricks, _encode(n, pairs, bricks)


class Absorbed(NamedTuple):
    v: int  # s . w_a = w_a . sigma_v


class NewBlock(NamedTuple):
    pairs: tuple


class DescentCase(NamedTuple):
    case: str      # "1".."4" (deficient), "x1".."x4", or "0"
    position: int  # 0-based hat-partner position in the tested word


def identity_element(n):
    return Element(n, (), ())


make_element = Element  # the name perfbench/workloads.py builds its inputs by


def _junction_ok(prev, pair, n):
    """
    The pairwise inequalities, on int entries, for `pair` following `prev`
    in a block, or for `pair` as the first pair when prev is None: (1)
    (finite.hprefix_ok, the h-prefix range) for a first pair, (2)-(5) otherwise.
    """
    if prev is None:
        return fin.hprefix_ok(pair, n)
    j, i = pair
    jp, ip = prev
    return (
        ((i == 0 and j == 1) or (1 <= i <= n - 1 and 1 <= j <= n))
        and j <= jp and i >= ip
        and (jp <= ip + 1 or j < jp)
        and (j <= i + 1 or i > ip)
    )


def validate_block(pairs, n):
    """The five pairwise inequalities, over the whole block of int pairs."""
    prev = None
    for pair in pairs:
        if not _junction_ok(prev, pair, n):
            return False
        prev = pair
    return True


def _check_block(pairs, n):
    """A ValueError unless the int pairs form a block (`validate_block`):
    the one error of Element._check and the case list for a bad block."""
    if not validate_block(pairs, n):
        raise ValueError("pairwise inequalities violated: %r" % (pairs,))


def block_word(pairs, n):
    """The word of a block: element_word with no bricks."""
    return _spell(n, pairs, ())


def element_word(e):
    """The canonical reduced word of e as one Word: h(j,i) a = |j,n|
    ceil(i,1) a for each pair, then |i,j| for each brick.  e was checked
    when it was made, so its letters are too: `Word._trusted`."""
    return _spell(e.n, e.pairs, e.bricks)


def _spell(n, pairs, bricks):
    letters = []
    for j, i in pairs:
        letters += fin.floor_word(j, n)
        letters += fin.ceil_word(i, 1)
        letters.append(AFFINE)
    for i, j in bricks:
        letters += fin.floor_word(i, j)
    return Word._trusted(n, tuple(letters))


def pair_length(pair, n):
    """Letters of h(j,i) a: n + 1 - j in |j,n|, i in ceil(i,1), and the a;
    at least 1, since j <= n + 1 and i >= 0."""
    j, i = pair
    return n + 2 - j + i


def block_length(pairs, n):
    """Letters of a block's word: the sum of its pair lengths."""
    return sum(pair_length(p, n) for p in pairs)


def length(e):
    return fin.finite_length(e.bricks) + block_length(e.pairs, e.n)


def affine_length(e):
    return len(e.pairs)


def coset_rep(e):
    """Same block, trivial finite part: the minimal-length representative
    of the right W(A_n)-coset of e, as the normal form states; its window
    is e's, sorted."""
    return Element._trusted(e.n, e.pairs, (), tuple(sorted(e.window)))


# --- the base table: sigma_u . (h(j,i) a) ----------------------------------
#
# The paper's two seven-row tables, A for j > i+1 and B for j <= i+1 (B
# extended to the pair (1,0), where it is checked), are one rule: the two
# regimes differ only in the letter that moves i (sigma_i in A, sigma_{i+1}
# in B) and in the bounds of the absorptions.  The j rows come first, as
# row order had it at the boundaries u = i+1 = j-1 (A) and u = i+1 = j (B).

def _table(u, j, i, n):
    """Outcome of sigma_u . (h(j,i) a): ('absorb', v) or ('pair', (j', i')).
    Each branch is tagged with the rows of the paper's tables it covers."""
    if not 1 <= u <= n:
        raise InvariantError("table index u=%d out of range at n=%d" % (u, n))
    if u == j - 1:  # A5, B2
        return ("pair", (j - 1, i))
    if u == j:  # A6, B3
        return ("pair", (j + 1, i))
    wide = j > i + 1
    a = i if wide else i + 1
    if u == a:  # A2, B5
        return ("pair", (j, i - 1))
    if u == a + 1:  # A3, B6
        return ("pair", (j, i + 1))
    lo, hi = (i, j) if wide else (j - 1, i + 2)
    if u < lo:  # A1, B1
        return ("absorb", u + 1)
    if u < hi:  # A4, B4: lo < u < hi
        return ("absorb", u)
    return ("absorb", u - 1)  # A7, B7: u > hi


def block_left_descents(j, i, n):
    """The paper's left descent set of a one-pair block, L(h(j,i) a):
    {sigma_i, sigma_j} when j > i+1, else {sigma_j, sigma_{i+1}} (indices
    clipped to the existing generators)."""
    cand = (i, j) if j > i + 1 else (j, i + 1)
    return {s for s in cand if 1 <= s <= n}


# --- the four exchange rules ------------------------------------------------

def _exchange(left, right, n):
    """
    Resolve a violated junction h(r,u) a h(s,v) a by the one exchange rule
    whose guard holds, returning ((A, B), t) with

        h(r,u) a h(s,v) a = h(A) a h(B) a sigma_t      (letter counts equal).

    The only caller is `left_mul_block`, where a table row turned a pair
    (j,i) of a valid block into left = (r,u), and right = (s,v) is the
    unchanged next pair; the caller checks that (A, B) is the original two
    pairs.  Rows giving (j+1,i) or (j,i-1) leave the right junction valid,
    so (r,u) is (j-1,i) or (j,i+1), and exactly one guard holds:

      after (j-1,i):  E4 needs v < i, which (3) forbids; E2 needs v = i
          with s > i+1, which (5) at (j,i),(s,v) forbids; and E1
          (s >= r > u+1) and E6 (r < s <= u+1) exclude each other.
      after (j,i+1):  E1 needs s = j > i+2, which (4) forbids; E6 needs
          s > j; and E2 (s > u+1) and E4 (s <= v+1 <= u) exclude each other.

    E3 and E5, the other identities of acceptance criterion 2, never apply:

      E3  v+1 < s <= u+1:  s > v+1 forces v > i by (5) at (j,i),(s,v), so
          s >= i+3 > u+1.
      E5  r <= u+1 < s:  s > r with s <= j forces (r,u) = (j-1,i) and
          s = j, and r <= u+1 < s then gives j = i+2, where (4) already
          demanded s < j.
    """
    r, u = left
    s, v = right
    if r > u + 1 and s >= r:  # E1
        return ((s + 1, u), (r, v)), 1
    if s > u + 1 and u >= v:  # E2
        return ((r, v - 1), (s, u)), n
    if s <= v + 1 and v < u:  # E4
        return ((r, v), (s, u - 1)), n
    if r < s <= u + 1:  # E6
        return ((s, u), (r + 1, v)), 1
    raise InvariantError("junction %r %r: no exchange rule applies" % (left, right))


def left_mul_block(s, pairs, n):
    """
    s . w_a for a valid block, the empty one included: Absorbed(v) meaning
    s w_a = w_a sigma_v (length +1, block unchanged), or NewBlock (length
    +-1, differing from pairs by one dropped/prepended pair or one entry
    moved by 1).  A ValueError unless n is a rank and s a letter at it.

    a prepends (n+1,0) to the empty block or before an extremal prefix and
    drops a leading trivial prefix; any other prefix takes one braid,
        a |j1,n| a       = |j1,n| a sigma_n         (i1 = 0, 2 <= j1 <= n)
        a ceil(i1,1) a   = ceil(i1,1) a sigma_1     (j1 = n+1, i1 >= 1)
    and the loop starts at k = 1 with that sigma, where sigma_s starts at
    k = 0 with v = s.  It carries the absorbed index v left to right (on
    the empty block sigma_u comes back as Absorbed(u)).  At the first pair
    that changes, only its two junctions can break, since the rest of the
    block is untouched and was valid.  The junction on its left always
    holds.  A broken junction on its right is restored by an exchange rule,
    whose index the loop carries on past both pairs; otherwise the new pair
    is spliced in and the loop ends.
    """
    check_rank(n)
    check_letter(s, n)
    v, k, m = s, 0, len(pairs)
    if s == AFFINE:
        if not pairs or fin.h_is_extremal(pairs[0], n):
            return NewBlock(((n + 1, 0),) + pairs)
        j1, i1 = pairs[0]
        if (j1, i1) == (n + 1, 0):  # a . a h(j_2,i_2) a ... is the tail block
            return NewBlock(pairs[1:])
        v, k = (n if i1 == 0 else 1), 1
    while k < m:
        j, i = pairs[k]
        kind, out = _table(v, j, i, n)
        if kind == "absorb":
            v = out
            k += 1
            continue
        if not _junction_ok(pairs[k - 1] if k else None, out, n):
            raise InvariantError("junction violation left of the changed pair: "
                                 "%r at %d in %r" % (out, k, pairs))
        if k + 1 < m and not _junction_ok(out, pairs[k + 1], n):
            restored, v = _exchange(out, pairs[k + 1], n)
            if restored != pairs[k:k + 2]:
                raise InvariantError("exchange at %r %r gave %r, not the original %r"
                                     % (out, pairs[k + 1], restored, pairs[k:k + 2]))
            k += 2
            continue
        return NewBlock(pairs[:k] + (out,) + pairs[k + 1:])
    return Absorbed(v)


# --- element-level operations ----------------------------------------------

def left_mul(s, e):
    """s . e for a single generator s by one left_mul_block call, which
    checks the letter; length moves by exactly 1.  s acts on values: it
    swaps each value = s with the next one (mod n+1), so the window of
    s . e is e's with those values moved, in O(n)."""
    n = e.n
    out = left_mul_block(s, e.pairs, n)
    nn = n + 1
    up, down = s, (s + 1) % nn
    win = tuple([v + 1 if v % nn == up else v - 1 if v % nn == down else v for v in e.window])
    if isinstance(out, Absorbed):
        return Element._trusted(n, e.pairs, fin.finite_left_insert(e.bricks, out.v, n), win)
    return Element._trusted(n, out.pairs, e.bricks, win)


def canonicalize(w):
    """Canonical form of an arbitrary Word (reduced or not): the word's
    window (`word_window`), peeled, in O(l + n^2 + m n) for l letters and
    affine length m.  The Word was checked when it was made, and the window
    is the library's own, so nothing is checked again."""
    return _peel(word_window(w))


def word_window(w):
    """The window of a Word as a list, folded in place from the identity in
    O(l + n), unchecked: the Word's rank and letters were checked when it
    was made.  sigma_s swaps entries s and s+1, and a sets w(1), w(n+1) to
    w(n+1) - (n+1), w(1) + (n+1), as perms.right_mul does on tuples."""
    n, letters = w.n, w.letters
    nn = n + 1
    win = list(range(nn + 1))  # win[k] = w(k); win[0] is a sentinel slot
    for s in letters:
        if s:
            win[s], win[s + 1] = win[s + 1], win[s]
        else:  # s is AFFINE
            win[1], win[nn] = win[nn] - nn, win[1] + nn
    del win[0]
    return win


def _encode(n, pairs, bricks):
    """The window of the form (pairs, bricks) at rank n, in O(m + #bricks)
    list moves: each pair h(j,i) a moves entry j to position n+1 (sigma_j
    ... sigma_n), then entry i+1 to position 1 (sigma_i ... sigma_1), then
    a sets w(1), w(n+1) to w(n+1) - (n+1), w(1) + (n+1); each brick moves
    as in finite.finite_window.  Only forms built from outside the
    element operations are encoded: Element._check and the block listings
    of blocks."""
    nn = n + 1
    win = list(range(1, nn + 1))
    pop, insert = win.pop, win.insert
    for j, i in pairs:
        insert(n, pop(j - 1))
        insert(0, pop(i))
        win[0], win[n] = win[n] - nn, win[0] + nn
    for i, j in bricks:
        insert(j, pop(i - 1))
    return tuple(win)


def from_window(win):
    """
    The canonical form of the element with window `win`: the one checked
    decoder, for windows from outside the library.  A ValueError if win is
    not a window (perms.is_window); a RuntimeError, before anything is
    built, if its rank is past perms.MAX_RANK (check_rank) or its affine
    length (perms.affine_length, the number of pairs the form would hold)
    past MAX_PAIRS; otherwise `_peel(win)`.
    """
    if not is_window(win):
        raise ValueError("not a window of W(~A_n): %r" % (win,))
    check_rank(len(win) - 1)
    m = perms.affine_length(win)
    if m > MAX_PAIRS:
        raise RuntimeError("window of affine length %d is past the limit of %d pairs"
                           % (m, MAX_PAIRS))
    return _peel(win)


def _peel(win):
    """
    The canonical form of the element with window `win`, in O(n^2 + m n),
    unchecked: win is a window the library built (word_window, compose,
    perms.inverse, a Hecke step) or one `from_window` checked.  The form
    keeps win as its window, a tuple: only word_window's list and a window
    from outside are copied into one.  One walk,
    `finite.level_walk`, gives x, the level code of win itself, and u, the
    sorted window it inserted each entry into; the peel count is
    perms.affine_length(u).  The block is peeled off u from the right,
    one run of equal pairs at a time (see the module docstring for why
    each step's pair is the last one, and why a run goes on): a pair
    (j, i) is found by two bisections, where i and j count the entries
    u(2..n) below u(n+1) - (n+1) and below u(1) + (n+1);
    a narrow pair (j <= i+1) repeats while two comparisons hold, each
    repeat two list moves; exactly L(w) peels, ending at the identity.
    Junctions are checked once per run (the change into it, and its
    self-junction).  An InvariantError if a peeled pair breaks a junction
    or the peel does not end at the identity.
    """
    win = tuple(win)
    nn = len(win)
    n = nn - 1
    bricks, u = fin.level_walk(win)
    pairs, last = [], None
    pop, insert = u.pop, u.insert
    left = perms.affine_length(u)
    while left > 0:
        # the two ends move: u(1) + (n+1) to position j, u(n+1) - (n+1) next to i
        low, high = pop(0) + nn, pop() - nn
        i, below = bisect_left(u, high), bisect_left(u, low)
        insert(below, low)
        k = 1
        if high < low:  # wide, j > i+1: by (4) the pair does not repeat
            insert(i, high)
            j = below + 2
        else:  # narrow: the run goes on while two comparisons hold
            top = i + 1
            insert(top, high)
            j = below + 1
            if j < top:  # the middle u[j:top] stays put
                lo, hi = u[j] - nn, u[i] + nn
                while k < left and u[0] < lo and u[n] > hi:
                    insert(below, pop(0) + nn)
                    insert(top, pop() - nn)
                    k += 1
            else:
                span = 2 * nn
                while k < left and u[n] - u[0] > span:
                    insert(below, pop(0) + nn)
                    insert(top, pop() - nn)
                    k += 1
        left -= k
        pair = (j, i)
        # each distinct junction once: the change into the run, and its
        # self-junction (p, p)
        if last is not None and not _junction_ok(pair, last, n):
            raise InvariantError("right peel of %r gave %r before %r" % (win, pair, last))
        if k > 1 and not _junction_ok(pair, pair, n):
            raise InvariantError("right peel of %r gave %r before %r" % (win, pair, pair))
        last = pair
        pairs += [pair] * k
    if u[n] != nn:  # u stays sorted: the identity is the one with u(n+1) = n+1
        raise InvariantError("right peel of %r ended at %r, not the identity" % (win, u))
    if last is not None and not _junction_ok(None, last, n):
        raise InvariantError("right peel of %r gave the first pair %r" % (win, last))
    pairs.reverse()
    return Element._trusted(n, tuple(pairs), bricks, win)


def mul(u, v):
    """u . v: the composed windows, decoded."""
    if u.n != v.n:
        raise ValueError("rank mismatch: %d vs %d" % (u.n, v.n))
    return _peel(compose(u.window, v.window))


def inverse(u):
    """u^{-1}: the inverse window, decoded."""
    return _peel(perms.inverse(u.window))


def right_descents(e):
    """{s : l(e s) < l(e)}, one comparison per generator on the window."""
    win = e.window
    return {s for s in generators(e.n) if perms.descends(win, s)}


def left_descents(e):
    """{s : l(s e) < l(e)} = R(e^{-1}), off the inverse window."""
    win = perms.inverse(e.window)
    return {s for s in generators(e.n) if perms.descends(win, s)}


def sort_key(e):
    """The canonical total ordering: length, then pairs, then bricks."""
    return (length(e), e.pairs, e.bricks)


# --- special-case descent predicates (affine length 1 and 2) ----------------

def deficiency_m1(first, second, n):
    """
    Reducedness of h(j1,i1) a h(j,i) a for a valid first pair and a
    non-identity prefix h(j,i): None when the word is reduced (so in
    particular whenever h(j,i) is extremal); otherwise the matching
    deficient case "1".."4" with the 0-based hat-partner position of the
    final a — always a letter inside h(j1,i1).  A ValueError unless n is a
    rank, first a valid first pair and second an h-prefix but the identity.
    """
    check_rank(n)
    if not (fin.is_pair(first) and _junction_ok(None, first, n)):
        raise ValueError("invalid first pair %r at rank %d" % (first, n))
    fin.check_hprefix_at(second, n)
    if tuple(second) == (n + 1, 0):
        raise ValueError("second prefix must not be the identity")
    return _deficiency(first, second, n)


def _deficiency(first, second, n):
    """`deficiency_m1`'s table, unchecked: n is a rank, first an int pair
    in the range (1) and second an h-prefix other than the identity."""
    j1, i1 = first
    j, i = second
    if j == n + 1 and 1 <= i <= i1:  # sigma_i, the i-th letter from the end of h(j1,i1)
        return DescentCase("1", pair_length(first, n) - 1 - i)
    if i == 0 and 1 < j <= n and j1 <= j and i1 < j - 1:
        return DescentCase("2", j - j1)
    if i == 0 and 2 < j <= n and j1 < j and i1 >= j - 1:
        return DescentCase("3", (j - 1) - j1)
    if (j, i) == (2, 0) and j1 == 1 and i1 >= 1:
        return DescentCase("4", 0)
    return None


def affine_descent_cases_m2(pairs, x_prefix, n):
    """
    For a block of exactly two pairs and a finite part with h-prefix
    x_prefix: decide a in R(w) by the case list, returning the matching
    case with its hat-partner position inside element_word, or None.

    The non-extremal prefixes inherit the four deficient cases with
    (j_1,i_1) replaced by (j_2,i_2); the extremal prefixes h(n,i)
    contribute three tabulated extra cases; the trivial prefix always has
    a in R (pure-block descent), hat partner the block's second a.

    One further family of extremal prefixes — |r,n| sigma_1 for
    3 <= r <= n, outside the tabulated guards — also puts a in R(w).
    Its guards do not close into a two-parameter table, so it is decided
    directly on the word and reported as case "x4", hat partner extracted
    the same way (it always lands inside h(j_1,i_1)).  Every other extremal
    prefix is None: none puts a in R(w) for any 2-pair block at n = 2..10.
    A ValueError unless n is a rank, pairs a block and x_prefix an h-prefix,
    checked in Element's order and with its messages, and nothing is encoded.
    A block's second pair obeys (2), so the range (1), and the prefix is
    then neither extremal nor trivial: the m = 1 table runs unchecked.
    """
    check_rank(n)
    pairs = fin.int_pairs("pairs", pairs)
    _check_block(pairs, n)
    if len(pairs) != 2:
        raise ValueError("the case list applies to blocks with exactly 2 pairs")
    fin.check_hprefix_at(x_prefix, n)
    (_, i1), (j2, i2) = pairs
    r, i = x_prefix
    h1 = pair_length(pairs[0], n) - 1  # letters of h(j1,i1), before its a
    if (r, i) == (n + 1, 0):
        return DescentCase("0", h1 + pair_length(pairs[1], n))
    if fin.h_is_extremal(x_prefix, n):
        if (r, i) == (n, 1) and j2 > 1 and 1 <= i2 < n - 1:
            return DescentCase("x1", h1)
        if r == n and i >= 2 and i <= i2 < n - 1 and i < j2 and i1 >= i - 1:
            return DescentCase("x2", h1 - (i - 1))
        if r == n and 1 <= i <= i2 < n - 1 and i >= j2 and i1 >= i:
            return DescentCase("x3", h1 - i)
        return _residual_m2(pairs, x_prefix, n) if i == 1 and r >= 3 else None
    case = _deficiency(pairs[1], x_prefix, n)
    if case is None:
        return None
    return DescentCase(case.case, h1 + 1 + case.position)


def _residual_m2(pairs, x_prefix, n):
    """Word-level decision for the x4 family, the extremal prefixes
    |r,n| sigma_1 (3 <= r <= n) that the tables miss.  The proper prefix,
    block . h(r,1), is a minimal coset representative times a reduced
    W(A_n) word, hence reduced, so one reflection sequence decides:
    hat_partner is None exactly when the word is reduced.  Both were
    checked by the case list: the prefix's letters are spelled unchecked."""
    r, i = x_prefix
    letters = (block_word(pairs, n).letters + fin.floor_word(r, n) + fin.ceil_word(i, 1)
               + (AFFINE,))
    pos = hat_partner(Word._trusted(n, letters))
    return None if pos is None else DescentCase("x4", pos)


# --- text and JSON syntax ---------------------------------------------------

def format_element(e):
    return format_form(e.pairs, e.bricks)


def format_form(pairs, bricks):
    """The text of the form (pairs, bricks): of an Element, or of a block
    listed without one (cli's `blocks`)."""
    if not pairs and not bricks:
        return "1"
    left = " ".join("h(%d,%d) a" % (j, i) for j, i in pairs)
    right = " ".join("[%d,%d]" % (i, j) for i, j in bricks)
    return (left + " | " + right).strip()


_H_PAIR = re.compile(r"h\((%s),(%s)\)" % (INDEX, INDEX))
_BRICK = re.compile(r"\[(%s),(%s)\]" % (INDEX, INDEX))


def _index_pair(tok, pattern, shape):
    """The two integers of a token such as h(3,1) or [2,2], each written as
    words.INDEX, the digits of both text syntaxes: one match of `pattern`."""
    m = pattern.fullmatch(tok)
    if m is None:
        raise ValueError("expected %s, got %r" % (shape, tok))
    return int(m[1]), int(m[2])


def parse_element(text, n):
    """Canonical-form text: `h(j,i) a` tokens, then `[i,j]` tokens, with an
    optional bar between them ("h(3,0) a | [1,1]", "h(3,0) a [1,1]")."""
    check_rank(n)
    if not isinstance(text, str):
        raise ValueError("text must be a str, got %r" % (text,))
    text = text.strip()
    if text == "1":
        return identity_element(n)
    left_text, bar, right_text = text.partition("|")
    pairs = []
    toks = left_text.split()
    k = 0
    # before a bar every token is a pair; without one, pairs run to the first brick
    while k < len(toks) and (bar or not toks[k].startswith("[")):
        j, i = _index_pair(toks[k], _H_PAIR, "h(j,i)")
        if k + 1 >= len(toks) or toks[k + 1] != "a":
            raise ValueError("h(%d,%d) must be followed by a" % (j, i))
        pairs.append((j, i))
        k += 2
    bricks = [_index_pair(tok, _BRICK, "[i,j]") for tok in toks[k:] + right_text.split()]
    return Element(n, pairs, bricks)


def to_json(e):
    return form_json(e.pairs, e.bricks)


def form_json(pairs, bricks):
    """The JSON object of the form (pairs, bricks), as `format_form`."""
    return {
        "pairs": [[j, i] for j, i in pairs],
        "bricks": [[i, j] for i, j in bricks],
    }


def from_json(obj, n):
    """The element of `to_json`, a missing field empty.  The lengths `l` and
    `L` of the CLI's JSON output must be the element's; other keys, and
    anything but a JSON object (a dict), raise."""
    if not isinstance(obj, dict):
        raise ValueError("element JSON must be an object, got %r" % (obj,))
    unknown = sorted(set(obj) - {"pairs", "bricks", "l", "L"})
    if unknown:
        raise ValueError("unknown key(s) in element JSON: %s" % ", ".join(map(repr, unknown)))
    e = Element(n, obj.get("pairs", ()), obj.get("bricks", ()))
    for key, want in (("l", length(e)), ("L", affine_length(e))):
        if key in obj and not (type(obj[key]) is int and obj[key] == want):
            raise ValueError("%s=%r, but the element has %s=%d" % (key, obj[key], key, want))
    return e
