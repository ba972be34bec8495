"""
The Hecke algebra of W(~A_n) over integer Laurent polynomials in q: the
free module on basis {g_w}, with the defining left relations

    g_s g_w = g_{sw}                    if s not in L(w),
    g_s g_w = q g_{s w} + (q-1) g_w     if s in L(w),

so that g_{s_1 ... s_k} = g_{s_1} ... g_{s_k} for reduced words.  The
generators are invertible, by the quadratic relation g_s^2 = q g_1 +
(q-1) g_s: g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1, so g_s^{-1} g_w =
g_{sw} if s in L(w), else q^{-1} g_{sw} + (q^{-1}-1) g_w.

Every product is one fold (`_fold`): each term p g_w of the left factor
becomes a sequence of steps g_s or g_s^{-1} applied to the right factor,
and p times the result is added into one sum.  For `hecke_mul` the steps
are the canonical reduced word of w, right to left; for `hr_embed` the
same word one rank up, with a sent to g_{sigma_n} g_a g_{sigma_n}^{-1}.
Multiplying by one generator, or by its inverse, is the product with
`gen_basis(s)` or `gen_inverse(s)`, and `gen_basis` decodes the window of
s, so no Hecke operation calls the letter engine.

The fold runs on windows (perms), not on canonical forms.  Its terms are
keyed by window tuples: each term of the right factor is encoded once
(`canonical.window`) and each surviving term of the sum decoded once by
the unchecked peel (`canonical._peel`: the windows are the fold's own;
`canonical.from_window` checks only windows from outside).  One step
g_s . g_w is one O(n) pass over the window of w, with N = n+1:

  - sw acts on values, (sw)(k) = s(w(k)): the entry of residue class s
    mod N goes up by 1 and the entry of class s+1 goes down by 1.  With
    AFFINE = 0 the same rule covers a, the periodic transposition of 0
    and 1.
  - s is in L(w) iff w^{-1}(s) > w^{-1}(s+1).  Proof: L(w) = R(w^{-1}),
    and s is a right descent of a window v iff v(s) > v(s+1) (v(0) =
    v(N) - N).  The entry of class t at 0-based index k with value v gives
    w^{-1}(t) = k + 1 + t - v, by periodicity, so both positions come from
    the same pass.

So a step costs no left multiplication and no length.  Multiplying by q or
q^{-1} shifts exponents.

The rank-raising arrow sends g_{sigma_i} to itself and the affine
generator to g_{sigma_n} g_a g_{sigma_n}^{-1} one rank up; on a basis
element e_w it produces A_w g_{R_n(w)} plus terms that are strictly
shorter and of no larger affine length, with A_w a single power of q —
the triangularity that makes the arrow faithful.

Laurent polynomials are bare dicts {exponent: coefficient} with no zero
entries; Hecke elements map canonical Elements to such dicts.
"""

from typing import NamedTuple, Optional, Tuple

from . import canonical as c
from . import tower
from .perms import AFFINE, InvariantError, check_rank, identity, right_mul


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

class HeckeElement(NamedTuple):
    n: int
    terms: dict  # Element -> Laurent polynomial, no zero polynomials


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
    terms = {w: lp_mul(pw, p) for w, pw in h.terms.items()}
    return HeckeElement(h.n, {w: pw for w, pw in terms.items() if pw})


def add(h1, h2):
    if h1.n != h2.n:
        raise ValueError("rank mismatch: %d vs %d" % (h1.n, h2.n))
    out = dict(h1.terms)
    for w, p in h2.terms.items():
        _put(out, w, p)
    return HeckeElement(h1.n, {w: dict(p) for w, p in out.items() if p})


def gen_inverse(s, n):
    """g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1, the inverse the generators
    have by the quadratic relation (module docstring)."""
    return add(scale(gen_basis(s, n), {-1: 1}), scale(unit(n), {-1: 1, 0: -1}))


def _step(s, terms, nn, inverse):
    """g_s . h, or g_s^{-1} . h when `inverse`, on window-keyed terms at
    rank nn - 1: one pass per term finds the entries of residue classes s
    and s+1, which give both sw and whether s is in L(w)."""
    s1 = (s + 1) % nn
    shift = -1 if inverse else 1
    out = {}
    for win, p in terms.items():
        for k, v in enumerate(win):
            r = v % nn
            if r == s:
                ks, vs = k, v
            elif r == s1:
                kt, vt = k, v
        sw = list(win)
        sw[ks] = vs + 1
        sw[kt] = vt - 1
        sw = tuple(sw)
        # s in L(w) iff w^{-1}(s) > w^{-1}(s+1), and w^{-1}(t) = k + 1 + t - v
        if (ks - vs > kt - vt + 1) == inverse:
            _put(out, sw, p)
        else:
            qp = {e + shift: co for e, co in p.items()}
            _put(out, sw, qp)
            _put(out, win, lp_add(qp, {e: -co for e, co in p.items()}))
    return {win: p for win, p in out.items() if p}


def _fold(n, h, start, steps):
    """The sum over the terms p g_w of h of p times the window-keyed terms
    `start` after the (letter, inverse) steps(w), applied in order; each
    surviving window is the fold's own, so it is peeled (canonical._peel)
    once, at rank n, without a window check."""
    nn = n + 1
    out = {}
    for w, p in h.terms.items():
        acc = start
        for s, inverse in steps(w):
            acc = _step(s, acc, nn, inverse)
        for win, pw in acc.items():
            _put(out, win, lp_mul(pw, p))
    return HeckeElement(n, {c._peel(win): p for win, p in out.items() if p})


def hecke_left_mul_gen(s, h):
    """g_s . h: the product with g_s, one step per term of h."""
    return hecke_mul(gen_basis(s, h.n), h)


def hecke_mul(u, v):
    """u . v: each basis term of u expands into its canonical reduced word,
    folded onto the windows of v one step per letter, right to left."""
    if u.n != v.n:
        raise ValueError("rank mismatch: %d vs %d" % (u.n, v.n))
    start = {tuple(c.window(w)): p for w, p in v.terms.items()}
    return _fold(u.n, u, start, _word_steps)


def _word_steps(w):
    """The steps of g_w: its canonical reduced word, right to left."""
    return ((s, False) for s in reversed(c.element_word(w).letters))


def _raised_steps(w):
    """The steps of the image of g_w one rank up, right to left: sigma_i
    fixed, a to g_{sigma_n} g_a g_{sigma_n}^{-1} (n the new rank)."""
    n = w.n + 1
    for s in reversed(c.element_word(w).letters):
        if s == AFFINE:
            yield from ((n, True), (AFFINE, False), (n, False))
        else:
            yield s, False


def hr_embed(h):
    """The algebra arrow into rank n+1: sigma_i fixed, affine letter to
    g_{sigma_n} g_a g_{sigma_n}^{-1} (letters folded over each basis word)."""
    check_rank(h.n)
    n = h.n + 1
    return _fold(n, h, {identity(n): LP_ONE}, _raised_steps)


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
    lower = HeckeElement(img.n, {x: p for x, p in img.terms.items() if x != target})
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
