"""
The Hecke algebra of W(~A_n) over integer Laurent polynomials in q: the
free module on basis {g_w}, with the defining left relations

    g_s g_w = g_{sw}                    if s not in L(w),
    g_s g_w = q g_{s w} + (q-1) g_w     if s in L(w),

so that g_{s_1 ... s_k} = g_{s_1} ... g_{s_k} for reduced words.  General
products expand the left factor into its canonical reduced word and fold.
The generators are invertible: g_s^{-1} = q^{-1} g_s + (q^{-1} - 1) g_1.

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
from .perms import AFFINE, InvariantError, check_rank
from .words import Word


# --- Laurent polynomials ----------------------------------------------------

def lp(pairs):
    """Normalized Laurent polynomial from {exp: coeff}-like pairs."""
    out = {}
    for e, co in dict(pairs).items():
        if co:
            out[int(e)] = int(co)
    return out


LP_ONE = {0: 1}
LP_Q = {1: 1}
LP_Q_MINUS_1 = {1: 1, 0: -1}
LP_QINV = {-1: 1}
LP_QINV_MINUS_1 = {-1: 1, 0: -1}


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


def lp_eval_at_1(p):
    return sum(p.values())


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


def _collect(n, pairs):
    """Sum (Element, poly) contributions into a normalized HeckeElement."""
    terms = {}
    for w, p in pairs:
        acc = lp_add(terms.get(w, {}), p)
        if acc:
            terms[w] = acc
        else:
            terms.pop(w, None)
    return HeckeElement(n, terms)


def unit(n):
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


def hecke_left_mul_gen(s, h):
    """g_s . h by the defining relations, term by term."""
    n = h.n
    if not (s == AFFINE or 1 <= s <= n):
        raise ValueError("letter %r invalid at rank %d" % (s, n))
    out = []
    for w, p in h.terms.items():
        sw = c.left_mul(s, w)
        if c.length(sw) < c.length(w):
            out.append((sw, lp_mul(LP_Q, p)))
            out.append((w, lp_mul(LP_Q_MINUS_1, p)))
        else:
            out.append((sw, p))
    return _collect(n, out)


def hecke_mul(u, v):
    """u . v: expand each basis term of u into its reduced word and fold."""
    if u.n != v.n:
        raise ValueError("rank mismatch: %d vs %d" % (u.n, v.n))
    total = HeckeElement(u.n, {})
    for w, p in u.terms.items():
        acc = v
        for s in reversed(c.element_word(w).letters):
            acc = hecke_left_mul_gen(s, acc)
        total = add(total, scale(acc, p))
    return total


def gen_inverse(s, n):
    """q^{-1} g_s + (q^{-1} - 1) g_1."""
    check_rank(n)
    return add(
        scale(gen_basis(s, n), dict(LP_QINV)),
        scale(unit(n), dict(LP_QINV_MINUS_1)),
    )


def hr_embed(h):
    """The algebra arrow into rank n+1: sigma_i fixed, affine letter to
    g_{sigma_n} g_a g_{sigma_n}^{-1} (letters folded over each basis word)."""
    check_rank(h.n)
    n = h.n + 1
    ginv_n = gen_inverse(n, n)
    total = HeckeElement(n, {})
    for w, p in h.terms.items():
        acc = unit(n)
        for s in reversed(c.element_word(w).letters):
            if s == AFFINE:
                acc = hecke_mul(ginv_n, acc)
                acc = hecke_left_mul_gen(AFFINE, acc)
                acc = hecke_left_mul_gen(n, acc)
            else:
                acc = hecke_left_mul_gen(s, acc)
        total = add(total, scale(acc, p))
    return total


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
