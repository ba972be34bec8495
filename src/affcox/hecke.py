"""
The Hecke algebra of W(~A_n) over integer Laurent polynomials in q: the
free module on basis {g_w}, with the defining left relations

    g_s g_w = g_{sw}                    if s not in L(w),
    g_s g_w = q g_{s w} + (q-1) g_w     if s in L(w),

so that g_{s_1 ... s_k} = g_{s_1} ... g_{s_k} for reduced words.  General
products expand the left factor into its canonical reduced word and fold.
The generators are invertible: g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1,
so g_s^{-1} g_w = g_{sw} if s in L(w), else q^{-1} g_{sw} + (q^{-1}-1) g_w.

The fold runs on windows (perms), not on canonical forms.  Its terms are
keyed by window tuples: each input term is encoded once
(`canonical.window`) and each surviving term decoded once
(`canonical.from_window`).  One step g_s . g_w is one O(n) pass over the
window of w, with N = n+1:

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
from .canonical import Element
from .perms import AFFINE, InvariantError, check_rank, identity
from .words import Word


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


def _sum(pairs):
    """Sum (key, poly) contributions into a dict with no zero polynomials."""
    terms = {}
    for w, p in pairs:
        acc = lp_add(terms.get(w, {}), p)
        if acc:
            terms[w] = acc
        else:
            terms.pop(w, None)
    return terms


def _collect(n, pairs):
    """Sum (Element, poly) contributions into a normalized HeckeElement."""
    return HeckeElement(n, _sum(pairs))


def unit(n):
    """The unit g_1 of the algebra."""
    return basis(c.identity_element(n))


def basis(e):
    return HeckeElement(e.n, {e: dict(LP_ONE)})


def gen_basis(s, n):
    return basis(c.canonicalize(Word(n, (s,))))


def scale(h, p):
    return _collect(h.n, ((w, lp_mul(pw, p)) for w, pw in h.terms.items()))


def add(h1, h2):
    if h1.n != h2.n:
        raise ValueError("rank mismatch: %d vs %d" % (h1.n, h2.n))
    return _collect(h1.n, list(h1.terms.items()) + list(h2.terms.items()))


def _check_letter(s, n):
    if not (s == AFFINE or 1 <= s <= n):
        raise ValueError("letter %r invalid at rank %d" % (s, n))


def _encode(h):
    """The terms of h keyed by window tuples."""
    return {tuple(c.window(w)): p for w, p in h.terms.items()}


def _decode(n, terms):
    """Window-keyed terms back to a HeckeElement, one decode per term; the
    result shares no polynomial with the steps' inputs."""
    return HeckeElement(n, {c.from_window(win): dict(p) for win, p in terms.items()})


def _put(out, win, p):
    """out[win] += p; the polynomials stored are never changed in place."""
    acc = out.get(win)
    out[win] = p if acc is None else lp_add(acc, p)


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


def hecke_left_mul_gen(s, h):
    """g_s . h by the defining relations, term by term."""
    _check_letter(s, h.n)
    return _decode(h.n, _step(s, _encode(h), h.n + 1, False))


def hecke_left_mul_gen_inv(s, h):
    """g_s^{-1} . h term by term: g_s^{-1} g_w = g_{sw} when s is in L(w),
    else q^{-1} g_{sw} + (q^{-1} - 1) g_w."""
    _check_letter(s, h.n)
    return _decode(h.n, _step(s, _encode(h), h.n + 1, True))


def _sum_scaled(n, folds):
    """The sum of p * terms over (p, window-keyed terms) pairs, decoded."""
    return _decode(n, _sum(
        (win, lp_mul(pw, p)) for p, terms in folds for win, pw in terms.items()))


def hecke_mul(u, v):
    """u . v: each basis term of u expands into its canonical reduced word,
    folded onto the windows of v one step per letter."""
    if u.n != v.n:
        raise ValueError("rank mismatch: %d vs %d" % (u.n, v.n))
    nn = u.n + 1
    start = _encode(v)

    def fold(w):
        acc = start
        for s in reversed(c.element_word(w).letters):
            acc = _step(s, acc, nn, False)
        return acc

    return _sum_scaled(u.n, ((p, fold(w)) for w, p in u.terms.items()))


def gen_inverse(s, n):
    """g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1, the inverse the generators
    have by the quadratic relation (module docstring)."""
    return hecke_left_mul_gen_inv(s, unit(n))


def hr_embed(h):
    """The algebra arrow into rank n+1: sigma_i fixed, affine letter to
    g_{sigma_n} g_a g_{sigma_n}^{-1} (letters folded over each basis word)."""
    check_rank(h.n)
    n = h.n + 1
    nn = n + 1
    one = {identity(n): LP_ONE}

    def fold(w):
        acc = one
        for s in reversed(c.element_word(w).letters):
            if s == AFFINE:
                acc = _step(n, acc, nn, True)
                acc = _step(AFFINE, acc, nn, False)
                acc = _step(n, acc, nn, False)
            else:
                acc = _step(s, acc, nn, False)
        return acc

    return _sum_scaled(n, ((p, fold(w)) for w, p in h.terms.items()))


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
    lower = _collect(img.n, ((x, p) for x, p in img.terms.items() if x != target))
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
