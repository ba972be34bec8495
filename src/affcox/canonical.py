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
block w_a either *absorbs* (s w_a = w_a sigma_v, length +1, block unchanged) or
yields a new block differing in exactly one prepended/dropped pair or one
entry by +-1.  The sigma case is one left-to-right scan over the pairs:
the absorbed index v is carried through the two base tables (the j > i+1
and j <= i+1 regimes) until a pair changes.  Only the two junctions beside
the changed pair are then checked; if they hold, the new block is spliced
once and returned.  The junction on the right may break: exactly one of
four exchange rules then reproduces the original two pairs (an absorption,
with a new index), and the scan goes on past them, so one letter may fire
several exchange rules.  Every input block is valid, so these local checks
imply all five inequalities; one letter costs O(m) time and no Python
stack.  The a case drops a leading trivial prefix, prepends (n+1,0)
before an extremal prefix, or braids one sigma into the tail, which the
same scan then carries.

Words canonicalize by folding letters right-to-left through left_mul from
the identity — valid for arbitrary (even non-reduced) input words, each
step moving the length by exactly 1.  This letter fold is the paper's
engine and stays the path of `canonicalize`, the Hecke algebra and the
left-multiplication trichotomy.

The element operations go through windows (perms) instead.  `window(e)`
encodes e by one in-place pass over its canonical word, and
`from_window` decodes any window.  With N = n+1 and u = sorted(window of
w), the window of the block is u (the minimal coset representative is the
one with increasing window, Bjorner & Brenti, GTM 231, Sec. 8.3), and x
is the level code of the ranks of w's entries in u, since w = u . x acts
as k -> u(x(k)).  The block is then peeled off u from the right, one pair
at a time:

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
exchange rules.  The peel ends at the identity, the only sorted window
with u(N) = N.  The junction test adds nothing to a correct peel; each
peeled pair is still checked against the one after it with
`_junction_ok` (O(m) in all), and each peel must shorten an upper bound
on l(u), so an engine bug raises InvariantError instead of returning a
wrong form or looping.

So mul(u, v) decodes the composed windows, inverse(u) the inverse
window, right descents are one comparison each on the window (sigma_k
iff w(k) > w(k+1), a iff w(N) - N > w(1)), and left descents the same on
the inverse window, L(w) = R(w^{-1}); none of them calls left_mul.
canonicalize could decode the window of its word too (about 12x the
operations per second on perfbench's canon-long workload), but it stays
the letter fold, which is what the paper describes: perfbench stores
every per-operation latency, so more operations per run read there as a
larger peak RSS, past the benchmark's bound.
"""

from bisect import bisect_left
from typing import NamedTuple

from . import perms
from .perms import AFFINE, InvariantError, check_rank, compose, is_window
from . import finite as fin
from .finite import FiniteElement, HPrefix
from .words import Word, hat_partner, is_reduced


class Element(NamedTuple):
    n: int
    pairs: tuple   # ((j, i), ...) — the affine block
    bricks: tuple  # finite part, as in finite.FiniteElement


class Absorbed(NamedTuple):
    v: int  # s . w_a = w_a . sigma_v


class NewBlock(NamedTuple):
    pairs: tuple


class DescentCase(NamedTuple):
    case: str      # "1".."4" (deficient), "x1".."x3", or "0"
    position: int  # 0-based hat-partner position in the tested word


def identity_element(n):
    check_rank(n)
    return Element(n, (), ())


def _int_pairs(field, seq):
    """`seq` as a tuple of integer pairs; a ValueError naming `field` if it
    is not a list of them."""
    try:
        out = tuple((a, b) for a, b in seq)
    except (TypeError, ValueError):
        out = None
    if out is None or not all(isinstance(v, int) for pair in out for v in pair):
        raise ValueError("%s must be a list of integer pairs, got %r" % (field, seq))
    return out


def make_element(n, pairs, bricks):
    check_rank(n)
    pairs = _int_pairs("pairs", pairs)
    bricks = _int_pairs("bricks", bricks)
    if not validate_block(pairs, n):
        raise ValueError("pairwise inequalities violated: %r" % (pairs,))
    if not fin.validate_finite(bricks, n):
        raise ValueError("invalid finite canonical form: %r" % (bricks,))
    return Element(n, pairs, bricks)


def _junction_ok(prev, pair, n):
    """
    The pairwise inequalities for `pair` following `prev` in a block, or
    for `pair` as the first pair when prev is None: (1) for a first pair,
    (2)-(5) otherwise.
    """
    j, i = pair
    if prev is None:
        return 1 <= j <= n + 1 and 0 <= i <= n - 1
    jp, ip = prev
    return (
        ((i == 0 and j == 1) or (1 <= i <= n - 1 and 1 <= j <= n))
        and j <= jp and i >= ip
        and (jp <= ip + 1 or j < jp)
        and (j <= i + 1 or i > ip)
    )


def validate_block(pairs, n):
    """The five pairwise inequalities, over the whole block."""
    prev = None
    for pair in pairs:
        if not _junction_ok(prev, pair, n):
            return False
        prev = pair
    return True


def block_word(pairs, n):
    letters = []
    for j, i in pairs:
        letters.extend(fin.h_word(HPrefix(j, i), n))
        letters.append(AFFINE)
    return Word(n, tuple(letters))


def element_word(e):
    return Word(
        e.n,
        block_word(e.pairs, e.n).letters
        + fin.finite_word(FiniteElement(e.n, e.bricks)).letters,
    )


def length(e):
    n = e.n
    return (
        fin.finite_length(FiniteElement(n, e.bricks))
        + len(e.pairs)
        + sum(n + 1 - j + i for j, i in e.pairs)
    )


def affine_length(e):
    return len(e.pairs)


def finite_part(e):
    return FiniteElement(e.n, e.bricks)


def coset_rep(e):
    """Same block, trivial finite part — the minimal coset representative."""
    return Element(e.n, e.pairs, ())


# --- the two base tables: sigma_u . (h(j,i) a) ------------------------------
#
# Guards are evaluated literally, in row order, falling through; this makes
# the degenerate boundary rows at small rank resolve themselves, and extends
# table B formally to the pair (1,0) (where it is checked to be correct).

def _table(u, j, i, n):
    """Outcome of sigma_u . (h(j,i) a): ('absorb', v) or ('pair', (j', i'))."""
    if not 1 <= u <= n:
        raise InvariantError("table index u=%d out of range at n=%d" % (u, n))
    if j > i + 1:
        if 1 <= u < i:
            return ("absorb", u + 1)
        if u == i:
            return ("pair", (j, i - 1))
        if u == i + 1 < j - 1:
            return ("pair", (j, i + 1))
        if i + 1 < u < j - 1:
            return ("absorb", u)
        if u == j - 1 >= i + 1:
            return ("pair", (j - 1, i))
        if u == j:
            return ("pair", (j + 1, i))
        if j < u <= n:
            return ("absorb", u - 1)
    else:
        if 1 <= u < j - 1:
            return ("absorb", u + 1)
        if u == j - 1:
            return ("pair", (j - 1, i))
        if u == j:
            return ("pair", (j + 1, i))
        if j < u < i + 1:
            return ("absorb", u)
        if u == i + 1 > j:
            return ("pair", (j, i - 1))
        if u == i + 2:
            return ("pair", (j, i + 1))
        if i + 2 < u <= n:
            return ("absorb", u - 1)
    raise InvariantError("no table row for u=%d, (j,i)=(%d,%d), n=%d" % (u, j, i, n))


def block_left_descents(j, i, n):
    """L(h(j,i) a): {sigma_i, sigma_j} when j > i+1, else {sigma_j, sigma_{i+1}}
    (indices clipped to the existing generators)."""
    cand = (i, j) if j > i + 1 else (j, i + 1)
    return {s for s in cand if 1 <= s <= n}


# --- the four exchange rules ------------------------------------------------

def _exchange(left, right, n):
    """
    Resolve a violated junction h(r,u) a h(s,v) a by the unique applicable
    exchange rule, returning ((A, B), t) with

        h(r,u) a h(s,v) a = h(A) a h(B) a sigma_t      (letter counts equal).

    Guards are evaluated in order; candidates that are not a legal two-pair
    block are discarded (this extends the rules across the v = 0 boundary,
    where only one rule survives).  Exactly one candidate must remain.

    The only caller is `_scan`, where a table row turned a pair (j,i) of a
    valid block into left = (r,u), so (r,u) is one of (j,i-1), (j,i+1),
    (j-1,i), (j+1,i), and right = (s,v) is the unchanged next pair.  Two
    more identities of acceptance criterion 2, E3 and E5, never apply there:

      E3  v+1 < s <= u+1:  s > v+1 forces v > i by (5) at (j,i),(s,v), so
          s >= i+3 > u+1.
      E5  r <= u+1 < s:  s > r with s <= j forces (r,u) = (j-1,i) and
          s = j, and r <= u+1 < s then gives j = i+2, where (4) already
          demanded s < j.
    """
    r, u = left
    s, v = right
    cands = []
    if r > u + 1 and s >= r:  # E1
        cands.append(((( s + 1, u), (r, v)), 1))
    if s > u + 1 and u >= v:  # E2
        cands.append((((r, v - 1), (s, u)), n))
    if s <= v + 1 and v < u:  # E4
        cands.append((((r, v), (s, u - 1)), n))
    if r < s <= u + 1:  # E6
        cands.append((((s, u), (r + 1, v)), 1))
    cands = [((A, B), t) for (A, B), t in cands
             if _junction_ok(None, A, n) and _junction_ok(A, B, n)]
    if len(cands) != 1:
        raise InvariantError("junction %r %r: %d exchange candidates %r"
                             % (left, right, len(cands), cands))
    return cands[0]


def left_mul_block(s, pairs, n):
    """
    s . w_a for a nonempty block: Absorbed(v) meaning s w_a = w_a sigma_v
    (length +1, block unchanged), or NewBlock (length +-1, differing from
    pairs by one dropped/prepended pair or one entry moved by 1).
    """
    if not pairs:
        raise ValueError("left_mul_block needs a nonempty block")
    if s != AFFINE:
        return _scan(s, pairs, 0, n)
    j1, i1 = pairs[0]
    if (j1, i1) == (n + 1, 0):
        # a . a h(j_2,i_2) a ... reduces to the tail block
        return NewBlock(pairs[1:])
    if fin.h_is_extremal(HPrefix(j1, i1), n):
        return NewBlock(((n + 1, 0),) + pairs)
    # non-extremal, non-trivial prefix: one braid pushes a sigma into the tail
    #   a |j1,n| a       = |j1,n| a sigma_n         (i1 = 0, 2 <= j1 <= n)
    #   a ceil(i1,1) a   = ceil(i1,1) a sigma_1     (j1 = n+1, i1 >= 1)
    return _scan(n if i1 == 0 else 1, pairs, 1, n)


def _scan(v, pairs, k, n):
    """
    sigma_v . pairs[k:] with pairs[:k] held fixed, for a valid block.

    Carries the absorbed index left to right.  At the first pair that
    changes, only its two junctions can break, since the rest of the block
    is untouched and was valid.  The junction on its left always holds.
    A broken junction on its right is restored by an exchange rule, whose
    index the scan carries on past both pairs; otherwise the new pair is
    spliced in and the scan ends.
    """
    m = len(pairs)
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
    """s . e for a single generator s; length moves by exactly 1."""
    n = e.n
    if not (s == AFFINE or 1 <= s <= n):
        raise ValueError("letter %r invalid at rank %d" % (s, n))
    if not e.pairs:
        if s == AFFINE:
            return Element(n, ((n + 1, 0),), e.bricks)
        x = fin.finite_left_insert(FiniteElement(n, e.bricks), s)
        return Element(n, (), x.bricks)
    out = left_mul_block(s, e.pairs, n)
    if isinstance(out, Absorbed):
        x = fin.finite_left_insert(FiniteElement(n, e.bricks), out.v)
        return Element(n, e.pairs, x.bricks)
    return Element(n, out.pairs, e.bricks)


def canonicalize(w):
    """Canonical form of an arbitrary word (reduced or not), folding its
    letters right-to-left through left_mul from the identity: one left
    multiplication per letter."""
    e = identity_element(w.n)
    for s in reversed(w.letters):
        e = left_mul(s, e)
    return e


def window(e):
    """The window of e as a list, in one in-place pass over its canonical
    word: sigma_k swaps entries k and k+1; a sets w(1), w(n+1) to
    w(n+1) - (n+1), w(1) + (n+1)."""
    n = e.n
    nn = n + 1
    win = list(range(1, nn + 1))
    for s in element_word(e).letters:
        if s == AFFINE:
            win[0], win[n] = win[n] - nn, win[0] + nn
        else:
            win[s - 1], win[s] = win[s], win[s - 1]
    return win


def from_window(win):
    """
    The canonical form of the element with window `win`, in O(n^2 + m n):
    x is the level code of the ranks of win in u = sorted(win), and the
    block is peeled off u from the right, pair (j, i) by pair, where i and
    j count the entries u(2..n) below u(n+1) - (n+1) and below u(1) + (n+1)
    (see the module docstring for why this pair is the last one).  A
    ValueError if win is not a window; an InvariantError if a peeled pair
    breaks a junction or a peel does not shorten u.
    """
    nn = len(win)
    n = nn - 1
    if not (all(isinstance(v, int) for v in win) and is_window(win)):
        raise ValueError("not a window of W(~A_n): %r" % (win,))
    u = sorted(win)
    rank = {v: k for k, v in enumerate(u, 1)}
    x = fin.from_window([rank[v] for v in win])
    # an upper bound on l(u): sum over k < k' of (u(k') - u(k)) / (n+1)
    budget = sum([(2 * k - n) * v for k, v in enumerate(u)]) // nn
    pairs, last = [], None
    pop, insert = u.pop, u.insert
    while u[n] != nn:  # the identity is the one sorted window with u(n+1) = n+1
        # the two ends move: u(1) + (n+1) to position j, u(n+1) - (n+1) next to i
        low, high = pop(0) + nn, pop() - nn
        i, below = bisect_left(u, high), bisect_left(u, low)
        insert(below, low)
        if high < low:
            insert(i, high)
            j = below + 2
        else:
            insert(i + 1, high)
            j = below + 1
        budget -= n + 2 - j + i
        pair = (j, i)
        if budget < 0 or (last is not None and not _junction_ok(pair, last, n)):
            raise InvariantError("right peel of %r gave %r before %r" % (win, pair, last))
        pairs.append(pair)
        last = pair
    if last is not None and not _junction_ok(None, last, n):
        raise InvariantError("right peel of %r gave the first pair %r" % (win, last))
    pairs.reverse()
    return Element(n, tuple(pairs), x.bricks)


def mul(u, v):
    """u . v: the composed windows, decoded."""
    if u.n != v.n:
        raise ValueError("rank mismatch: %d vs %d" % (u.n, v.n))
    return from_window(compose(window(u), window(v)))


def inverse(u):
    """u^{-1}: the inverse window, decoded."""
    return from_window(perms.inverse(window(u)))


def generators(n):
    return tuple(range(1, n + 1)) + (AFFINE,)


def _window_descents(win):
    """R(w) off the window: sigma_k iff w(k) > w(k+1), a iff
    w(n+1) - (n+1) > w(1)."""
    n = len(win) - 1
    out = {k for k in range(1, n + 1) if win[k - 1] > win[k]}
    if win[n] - (n + 1) > win[0]:
        out.add(AFFINE)
    return out


def right_descents(e):
    """{s : l(e s) < l(e)}, one comparison per generator on the window."""
    return _window_descents(window(e))


def left_descents(e):
    """{s : l(s e) < l(e)} = R(e^{-1}), off the inverse window."""
    return _window_descents(perms.inverse(window(e)))


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
    final a — always a letter inside h(j1,i1).
    """
    j1, i1 = first
    j, i = second.r, second.i
    if (j, i) == (n + 1, 0):
        raise ValueError("second prefix must not be the identity")
    floor_len = n - j1 + 1  # letters of |j1,n|
    if j == n + 1 and 1 <= i <= i1:
        return DescentCase("1", floor_len + (i1 - i))
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
    the same way (it always lands inside h(j_1,i_1)).
    """
    if len(pairs) != 2:
        raise ValueError("the case list applies to blocks with exactly 2 pairs")
    (j1, i1), (j2, i2) = pairs
    r, i = x_prefix.r, x_prefix.i
    h1_len = n - j1 + 1 + i1
    h2_len = n - j2 + 1 + i2
    if (r, i) == (n + 1, 0):
        return DescentCase("0", h1_len + 1 + h2_len)
    if fin.h_is_extremal(x_prefix, n):
        if (r, i) == (n, 1) and j2 > 1 and 1 <= i2 < n - 1:
            return DescentCase("x1", h1_len)
        if r == n and i >= 2 and i <= i2 < n - 1 and i < j2 and i1 >= i - 1:
            return DescentCase("x2", (n - j1 + 1) + (i1 - (i - 1)))
        if r == n and 1 <= i <= i2 < n - 1 and i >= j2 and i1 >= i:
            return DescentCase("x3", (n - j1 + 1) + (i1 - i))
        return _residual_m2(pairs, x_prefix, n)
    case = deficiency_m1((j2, i2), x_prefix, n)
    if case is None:
        return None
    return DescentCase(case.case, (h1_len + 1) + case.position)


def _residual_m2(pairs, x_prefix, n):
    """Word-level decision for the extremal prefixes the tables miss."""
    letters = (
        block_word(pairs, n).letters
        + fin.h_word(x_prefix, n)
        + (AFFINE,)
    )
    w = Word(n, letters)
    if is_reduced(w):
        return None
    return DescentCase("x4", hat_partner(w))


# --- text and JSON syntax ---------------------------------------------------

def format_element(e):
    if not e.pairs and not e.bricks:
        return "1"
    left = " ".join("h(%d,%d) a" % (j, i) for j, i in e.pairs)
    right = " ".join("[%d,%d]" % (i, j) for i, j in e.bricks)
    return (left + " | " + right).strip()


def _index_pair(tok, opening, closing, shape):
    """The two integers of a token such as h(3,1) or [2,2]."""
    if tok.startswith(opening) and tok.endswith(closing):
        parts = tok[len(opening):-len(closing)].split(",")
        if len(parts) == 2:
            try:
                return int(parts[0]), int(parts[1])
            except ValueError:
                pass
    raise ValueError("expected %s, got %r" % (shape, tok))


def parse_element(text, n):
    check_rank(n)
    text = text.strip()
    if text in ("", "1", "|"):
        return identity_element(n)
    if "|" in text:
        left_text, _, right_text = text.partition("|")
    else:
        left_text, right_text = text, ""
    pairs = []
    toks = left_text.split()
    k = 0
    while k < len(toks):
        j, i = _index_pair(toks[k], "h(", ")", "h(j,i)")
        if k + 1 >= len(toks) or toks[k + 1] != "a":
            raise ValueError("h(%d,%d) must be followed by a" % (j, i))
        pairs.append((j, i))
        k += 2
    bricks = []
    for tok in right_text.split():
        bricks.append(_index_pair(tok, "[", "]", "[i,j]"))
    return make_element(n, pairs, bricks)


def to_json(e):
    return {
        "pairs": [[j, i] for j, i in e.pairs],
        "bricks": [[i, j] for i, j in e.bricks],
    }


def from_json(obj, n):
    return make_element(n, obj.get("pairs", ()), obj.get("bricks", ()))
