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

Everything is driven by a left-multiplication engine: s . w_a for a block
w_a either *absorbs* (s w_a = w_a sigma_v, length +1, block unchanged) or
yields a new block differing in exactly one prepended/dropped pair or one
entry by +-1.  The sigma case is one left-to-right scan over the pairs:
the absorbed index v is carried through the two base tables (the j > i+1
and j <= i+1 regimes) until a pair changes.  Only the two junctions beside
the changed pair are then checked; if they hold, the new block is spliced
once and returned.  The junction on the right may break: exactly one of
six exchange rules then reproduces the original two pairs (an absorption,
with a new index), and the scan goes on past them, so one letter may fire
several exchange rules.  Every input block is valid, so these local checks
imply all five inequalities; one letter costs O(m) time and no Python
stack.  The a case drops a leading trivial prefix, prepends (n+1,0)
before an extremal prefix, or braids one sigma into the tail, which the
same scan then carries.

Words canonicalize by folding letters right-to-left through left_mul from
the identity — valid for arbitrary (even non-reduced) input words, each
step moving the length by exactly 1.  The element operations fold onto
what they already hold: mul(u, v) folds the canonical word of u onto v
(l(u) steps), inverse folds the reversed canonical word (l(u) steps), and
right descents come from R(w) = L(w^{-1}) (l(w) + n + 1 steps).
"""

from typing import NamedTuple, Optional

from .perms import AFFINE, InvariantError, check_rank
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


def make_element(n, pairs, bricks):
    check_rank(n)
    pairs = tuple((int(j), int(i)) for j, i in pairs)
    bricks = tuple((int(i), int(j)) for i, j in bricks)
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


# --- the six exchange rules -------------------------------------------------

def _exchange(left, right, n):
    """
    Resolve a violated junction h(r,u) a h(s,v) a by the unique applicable
    exchange rule, returning ((A, B), t) with

        h(r,u) a h(s,v) a = h(A) a h(B) a sigma_t      (letter counts equal).

    Guards are evaluated in order; candidates that are not a legal two-pair
    block are discarded (this extends the rules across the v = 0 boundary,
    where only one rule survives).  Exactly one candidate must remain.
    """
    r, u = left
    s, v = right
    cands = []
    if r > u + 1 and s >= r:
        cands.append(((( s + 1, u), (r, v)), 1))
    if s > u + 1 and u >= v:
        cands.append((((r, v - 1), (s, u)), n))
    if v + 1 < s <= u + 1:
        cands.append((((r, v - 1), (s - 1, u - 1)), n))
    if s <= v + 1 and v < u:
        cands.append((((r, v), (s, u - 1)), n))
    if r <= u + 1 < s:
        cands.append((((s + 1, u + 1), (r + 1, v)), 1))
    if r < s <= u + 1:
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


def fold(letters, e):
    """The product letters . e, folding the letters right-to-left through
    left_mul: one left multiplication per letter."""
    for s in reversed(letters):
        e = left_mul(s, e)
    return e


def canonicalize(w):
    """Canonical form of an arbitrary word (reduced or not)."""
    return fold(w.letters, identity_element(w.n))


def mul(u, v):
    """u . v, folding the canonical word of u onto v: l(u) steps."""
    if u.n != v.n:
        raise ValueError("rank mismatch: %d vs %d" % (u.n, v.n))
    return fold(element_word(u).letters, v)


def inverse(u):
    return canonicalize(Word(u.n, element_word(u).letters[::-1]))


def generators(n):
    return tuple(range(1, n + 1)) + (AFFINE,)


def right_descents(e):
    """{s : l(e s) < l(e)}, as R(e) = L(e^{-1})."""
    return left_descents(inverse(e))


def left_descents(e):
    """{s : l(s e) < l(e)}: one left multiplication per generator."""
    le = length(e)
    return {s for s in generators(e.n) if length(left_mul(s, e)) < le}


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
