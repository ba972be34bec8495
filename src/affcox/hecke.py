"""
The Hecke algebra of W(~A_n) over integer Laurent polynomials in q: the
free module on basis {g_w}, with the defining right relations (Humphreys,
Reflection Groups and Coxeter Groups, ch. 7)

    g_w g_s = g_{ws}                    if s not in R(w),
    g_w g_s = q g_{ws} + (q-1) g_w      if s in R(w),

so that g_{s_1 ... s_k} = g_{s_1} ... g_{s_k} for reduced words.  The
generators are invertible, by the quadratic relation g_s^2 = q g_1 +
(q-1) g_s: g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1, so g_w g_s^{-1} =
g_{ws} if s in R(w), else q^{-1} g_{ws} + (q^{-1}-1) g_w.

Every product is one fold (`_fold`): for each term p g_x of the right
factor, the terms of the left factor, scaled once by p, take the steps
g_s or g_s^{-1} of x on the right, left to right, and the results are
added into one sum.  For `hecke_mul` the steps are the canonical reduced
word of x; for `hr_embed` the left factor is g_1 and the steps are the
same word one rank up, with a sent to g_{sigma_n} g_a g_{sigma_n}^{-1}.
So a product costs l(x) steps per right-factor term x, each over the
terms reached so far from the left factor's.  Multiplying by one
generator, or by its inverse, is the product with `gen_basis(s)` or
`gen_inverse(s)`, and `gen_basis` decodes the window of s, so no Hecke
operation calls the letter engine.  `hecke_left_mul_gen(s, h)` = g_s . h
folds the words of h's terms onto g_s, so its cost grows with them; no
workload calls it, and it stays only while the benchmark's tracer names
it (ROADMAP item 10).

The fold runs on windows (perms), not on canonical forms.  Its terms are
keyed by window tuples: each term of the left factor starts from the
window its Element carries (`canonical.Element.window`, never encoded
here), and each surviving term of the sum is decoded by `_decode`, the
unchecked peel (`canonical._peel`: the windows are the fold's own, and
each decoded term keeps its key as its window; `canonical.from_window`
checks only windows from outside) behind one table from window to
Element.  The peel is a pure function of the window, so a window seen
before is read from the table and not peeled again; the table holds at
most MAX_DECODED windows and is emptied when full.  The fold refuses a
product once the terms it holds pass MAX_TERMS (perms.past_limit, the
resource-limit RuntimeError).  One step
g_w . g_s is the move of two window entries to ws (`perms.move`, the move
of `perms.right_mul` without its letter check: the letters come from a
Word) and one comparison, s in R(w) (`perms.descends`).  So a step costs
no left multiplication and no length.  Multiplying by q or q^{-1} shifts
exponents.

The rank-raising arrow sends g_{sigma_i} to itself and the affine
generator to g_{sigma_n} g_a g_{sigma_n}^{-1} one rank up; on a basis
element e_w it produces A_w g_{R_n(w)} plus terms that are strictly
shorter and of no larger affine length, with A_w a single power of q —
the triangularity that makes the arrow faithful.

Laurent polynomials are bare dicts {exponent: coefficient} with no zero
entries (`_lp_ok`, run by `scale` on its scalar); Hecke elements map
Elements to non-empty ones, checked when a HeckeElement is made, by every
route.  Sums, scalings and folds of checked ones skip it (`_trusted`), and
the fold runs no rule: `canonical.element_word` spells words unchecked.
"""

from typing import NamedTuple, Optional, Tuple

from . import canonical as c
from . import tower
from .perms import (AFFINE, Checked, InvariantError, check_rank, descends, identity, move,
                    past_limit, right_mul)


# --- Laurent polynomials ----------------------------------------------------

LP_ONE = {0: 1}


def lp_add(p1, p2):
    out = dict(p1)
    for e, co in p2.items():
        s = out.get(e, 0) + co
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lp_power_of_q(p) -> Optional[int]:
    """The exponent k when p = q^k, else nothing."""
    if len(p) == 1:
        (e, co), = p.items()
        if co == 1:
            return e
    return None


def format_poly(p):
    if not p:
        return "0"
    parts = []
    # q-terms by descending exponent, any constant last: "q^-1 - 1", "q - 1"
    for e in sorted(p, key=lambda e: (e == 0, -e)):
        co = p[e]
        mag = abs(co)
        if e == 0:
            body = str(mag)
        else:
            qpart = "q" if e == 1 else "q^%d" % e
            body = qpart if mag == 1 else "%d*%s" % (mag, qpart)
        if not parts:
            parts.append(body if co > 0 else "-" + body)
        else:
            parts.append(("+ " if co > 0 else "- ") + body)
    return " ".join(parts)


# --- Hecke elements ---------------------------------------------------------

def _lp_ok(p):
    """The Laurent-polynomial rule: int exponents to non-zero ints; {} is 0."""
    return isinstance(p, dict) and all(
        type(e) is int and type(co) is int and co for e, co in p.items())


def _check_terms(terms, n):
    """The terms rule of a HeckeElement: a dict from Elements of rank n to
    non-empty Laurent polynomials (`_lp_ok`)."""
    if not isinstance(terms, dict):
        raise ValueError("terms must be a dict, got %r" % (terms,))
    for w, p in terms.items():
        if not (isinstance(w, c.Element) and w.n == n):
            raise ValueError("term %r is not an Element of rank %d" % (w, n))
        if not (_lp_ok(p) and p):
            raise ValueError("coefficient of %r must be a non-empty dict of int "
                             "exponents to non-zero ints, got %r" % (w, p))


class _Fields(NamedTuple):
    n: int
    terms: dict  # Element -> Laurent polynomial, no zero polynomials


class HeckeElement(Checked, _Fields):
    """A Hecke element at rank n, checked by every route (perms.Checked): the
    rank, every key an Element of rank n, every value a non-empty polynomial (`_lp_ok`)."""
    __slots__ = ()

    @staticmethod
    def _check(n, terms):
        check_rank(n)
        _check_terms(terms, n)
        return n, terms


def _put(out, key, p):
    """out[key] += p; the polynomials stored are never changed in place."""
    acc = out.get(key)
    out[key] = p if acc is None else lp_add(acc, p)


def unit(n):
    """The unit g_1 of the algebra."""
    return basis(c.identity_element(n))


def basis(e):
    return HeckeElement(e.n, {e: dict(LP_ONE)})


def gen_basis(s, n):
    """g_s, peeled from the window of s (right_mul checks the letter)."""
    return basis(c._peel(right_mul(identity(n), s)))


def scale(h, p):
    if not _lp_ok(p):
        raise ValueError("scalar %r is not a dict of int exponents to non-zero ints" % (p,))
    terms = {w: lp_mul(pw, p) for w, pw in h.terms.items()}
    return HeckeElement._trusted(h.n, {w: pw for w, pw in terms.items() if pw})


def add(h1, h2):
    if h1.n != h2.n:
        raise ValueError("rank mismatch: %d vs %d" % (h1.n, h2.n))
    out = dict(h1.terms)
    for w, p in h2.terms.items():
        _put(out, w, p)
    return HeckeElement._trusted(h1.n, {w: dict(p) for w, p in out.items() if p})


def gen_inverse(s, n):
    """g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1, the inverse the generators
    have by the quadratic relation (module docstring)."""
    return add(scale(gen_basis(s, n), {-1: 1}), scale(unit(n), {-1: 1, 0: -1}))


def _step(s, terms, inverse):
    """h . g_s, or h . g_s^{-1} when `inverse`, on window-keyed terms: per
    term, the move to ws and one comparison, whether s is in R(w).  A sum
    that cancels stays, as an empty polynomial, for `_fold` to drop."""
    shift = -1 if inverse else 1
    out = {}
    for win, p in terms.items():
        ws = move(win, s)
        if descends(win, s) == inverse:
            _put(out, ws, p)
        else:
            qp = {e + shift: co for e, co in p.items()}
            _put(out, ws, qp)
            _put(out, win, lp_add(qp, {e: -co for e, co in p.items()}))
    return out


# _fold refuses (perms.past_limit) once the terms it holds pass this many.  A
# term keeps 1.0-1.5 KB and takes about 75 us to build (n = 3, l = 150:
# 127,956 terms, 248 MB max RSS, 9.6 s on one x86 core).  So the cap
# admits products four times the largest measured and stops one at about
# 1 GB and 40 s.
MAX_TERMS = 500_000

# The Element decoded from each window the fold produced, emptied when it
# holds MAX_DECODED entries.  Products at small rank keep landing on the
# same windows: on the benchmark's element-ops Hecke operations (n 2-4),
# 66%, 78% and 90% of decodes found their window in a table of 1,024,
# 2,048 and 4,096 entries.  An entry keeps about 475 B, so this table is
# about 1 MB, some 4% of that workload's peak RSS, whose bound is 10%.
MAX_DECODED = 2_048
_decoded = {}


def _decode(win):
    """The Element with window `win`, a tuple the fold built: peeled
    (canonical._peel) on the first sight of win, read from `_decoded` after.
    The peel is a pure function of the window, whose length fixes the
    rank, and an Element is immutable, so a stored entry is what a second
    peel would return; a peel that raises stores nothing."""
    e = _decoded.get(win)
    if e is None:
        if len(_decoded) >= MAX_DECODED:
            _decoded.clear()
        e = _decoded[win] = c._peel(win)
    return e


def _fold(n, start, h, steps):
    """start . h: for each term p g_x of h, the window-keyed terms `start`
    scaled by p after the (letter, inverse) steps(x), applied in order on
    the right, added into one sum; the resource limit (perms.past_limit)
    once the terms held pass MAX_TERMS.  Each surviving window is the
    fold's own, so it is decoded without a window check (`_decode`: peeled
    once, then kept in a table of at most MAX_DECODED windows, emptied
    when full)."""
    out = {}
    for x, p in h.terms.items():
        acc = {win: lp_mul(pw, p) for win, pw in start.items()}
        for s, inverse in steps(x):
            acc = _step(s, acc, inverse)
            if len(acc) + len(out) > MAX_TERMS:
                raise past_limit("Hecke term count", len(acc) + len(out), MAX_TERMS)
        for win, pw in acc.items():
            _put(out, win, pw)
    return HeckeElement._trusted(n, {_decode(win): p for win, p in out.items() if p})


def hecke_left_mul_gen(s, h):
    """g_s . h: the product with g_s, h's words folded onto g_s."""
    return hecke_mul(gen_basis(s, h.n), h)


def hecke_mul(u, v):
    """u . v: the stored windows of u's terms, times each basis term of v
    by its canonical reduced word, one step per letter, left to right."""
    if u.n != v.n:
        raise ValueError("rank mismatch: %d vs %d" % (u.n, v.n))
    start = {w.window: p for w, p in u.terms.items()}
    return _fold(u.n, start, v, _word_steps)


def _word_steps(x):
    """The steps of g_x: its canonical reduced word, left to right."""
    return ((s, False) for s in c.element_word(x).letters)


def _raised_steps(x):
    """The steps of the image of g_x one rank up, left to right: sigma_i
    fixed, a to g_{sigma_n} g_a g_{sigma_n}^{-1} (n the new rank)."""
    n = x.n + 1
    for s in c.element_word(x).letters:
        if s == AFFINE:
            yield from ((n, False), (AFFINE, False), (n, True))
        else:
            yield s, False


def hr_embed(h):
    """The algebra arrow into rank n+1: sigma_i fixed, affine letter to
    g_{sigma_n} g_a g_{sigma_n}^{-1} (letters folded onto g_1, per basis
    word of h)."""
    n = h.n + 1
    return _fold(n, {identity(n): LP_ONE}, h, _raised_steps)


def triangularity_certificate(w) -> Tuple[dict, HeckeElement]:
    """
    hr_embed(e_w) = A_w g_{R(w)} + lower terms.  Certifies A_w is a single
    power of q and every lower term x has l(x) < l(R(w)) and L(x) <= L(w);
    a violation is an engine bug, not a result, hence an InvariantError.
    """
    img = hr_embed(basis(w))
    target = tower.embed(w)
    a_w = img.terms.get(target)
    if a_w is None:
        raise InvariantError("leading term missing")
    if lp_power_of_q(a_w) is None:
        raise InvariantError("A_w not a power of q: %r" % (a_w,))
    lower = HeckeElement._trusted(img.n, {x: p for x, p in img.terms.items() if x != target})
    lt, lw = c.length(target), c.affine_length(w)
    for x in lower.terms:
        if c.length(x) >= lt:
            raise InvariantError("lower term not shorter: %r" % (x,))
        if c.affine_length(x) > lw:
            raise InvariantError("affine length grew: %r" % (x,))
    return a_w, lower


def format_hecke(h):
    """One `coeff * [canonical form]` line per term, leading terms first."""
    if not h.terms:
        return "0"
    lines = []
    for w in sorted(h.terms, key=c.sort_key, reverse=True):
        lines.append("%s * [%s]" % (format_poly(h.terms[w]), c.format_element(w)))
    return "\n".join(lines)
