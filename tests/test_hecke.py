"""Hecke algebra: defining relations, inverses, the rank-raising arrow."""

import copy
import pickle
import random
import sys

import pytest

from affcox import canonical as c
from affcox import hecke as hk
from affcox import perms
from affcox import tower
from affcox.words import Word
from oracles import random_reduced_word


# the coefficients of the defining relations, for the oracle folds below
LP_Q = {1: 1}
LP_Q_MINUS_1 = {1: 1, 0: -1}
LP_QINV = {-1: 1}
LP_QINV_MINUS_1 = {-1: 1, 0: -1}


def elem(n, *letters):
    return c.canonicalize(Word(n, tuple(letters)))


def collect(n, pairs):
    """The sum of (Element, poly) contributions, each checked as a Hecke
    element of its own and added into one dict, which makes one sum."""
    total = {}
    for w, p in pairs:
        hk.HeckeElement(n, {w: p})
        total[w] = hk.lp_add(total.get(w, {}), p)
    return hk.HeckeElement(n, {w: p for w, p in total.items() if p})


# --- Laurent polynomial layer -----------------------------------------------

def test_poly_arithmetic():
    p, q = LP_Q_MINUS_1, LP_QINV
    assert hk.lp_mul(p, q) == {0: 1, -1: -1}
    assert hk.lp_add(p, {0: 1}) == {1: 1}
    assert hk.lp_power_of_q({-3: 1}) == -3
    assert hk.lp_power_of_q({0: 2}) is None
    assert hk.lp_power_of_q({1: 1, 0: 1}) is None


def test_poly_format():
    assert hk.format_poly({-1: 1, 0: -1}) == "q^-1 - 1"
    assert hk.format_poly({1: 1, 0: -1}) == "q - 1"
    assert hk.format_poly({0: 1}) == "1"
    assert hk.format_poly({}) == "0"
    assert hk.format_poly({2: -3, 0: 2}) == "-3*q^2 + 2"


# --- defining relations -----------------------------------------------------

def test_quadratic_relation_example():
    g1 = hk.gen_basis(1, 2)
    sq = hk.hecke_mul(g1, g1)
    assert sq.terms == {
        c.identity_element(2): {1: 1},
        elem(2, 1): {1: 1, 0: -1},
    }


def test_length_additive_example():
    got = hk.hecke_mul(hk.gen_basis(2, 2), hk.gen_basis(perms.AFFINE, 2))
    assert got == hk.basis(elem(2, 2, 0))


@pytest.mark.parametrize("n", [2, 3])
def test_braid_relations_well_defined(n):
    """Both orders around every braid edge fold to the same element."""
    gens = list(range(1, n + 1)) + [perms.AFFINE]

    def fold(letters):
        acc = hk.unit(n)
        for s in reversed(letters):
            acc = hk.hecke_left_mul_gen(s, acc)
        return acc

    for s in gens:
        for t in gens:
            if s == t:
                continue
            order = perms._product_order(s, t, n)
            if order == 3:
                assert fold((s, t, s)) == fold((t, s, t)), (s, t)
            else:
                assert fold((s, t)) == fold((t, s)), (s, t)


def test_quadratic_relation_at_module_level():
    n = 2
    rng = random.Random(7)
    h = hk.add(
        hk.basis(elem(n, 1, 2, 0)),
        hk.scale(hk.basis(elem(n, 0, 1)), {1: 2, -1: 1}),
    )
    for s in (1, 2, perms.AFFINE):
        sh = hk.hecke_left_mul_gen(s, h)
        ssh = hk.hecke_left_mul_gen(s, sh)
        want = hk.add(hk.scale(h, LP_Q), hk.scale(sh, LP_Q_MINUS_1))
        assert ssh == want


# --- unit, associativity, inverses ------------------------------------------

def random_hecke(n, rng, max_terms=3, max_len=5):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        letters = tuple(rng.randrange(0, n + 1) for _ in range(rng.randint(0, max_len)))
        poly = {rng.randint(-2, 2): rng.choice([-2, -1, 1, 2])}
        terms.append((c.canonicalize(Word(n, letters)), poly))
    return collect(n, terms)


@pytest.mark.parametrize("n", [2, 3])
def test_unit_laws(n):
    rng = random.Random(n * 11)
    one = hk.unit(n)
    for _ in range(10):
        h = random_hecke(n, rng)
        assert hk.hecke_mul(one, h) == h
        assert hk.hecke_mul(h, one) == h


def test_associativity_sampled():
    """(a . b) . c = a . (b . c) on elements of up to four terms."""
    rng = random.Random(13)
    for n, terms, max_len in ((2, 3, 5), (2, 4, 8), (3, 4, 8)):
        for _ in range(8):
            a, b, cc = (random_hecke(n, rng, terms, max_len) for _ in range(3))
            lhs = hk.hecke_mul(a, hk.hecke_mul(b, cc))
            rhs = hk.hecke_mul(hk.hecke_mul(a, b), cc)
            assert lhs == rhs


def test_gen_inverse():
    n = 2
    for s in (1, 2, perms.AFFINE):
        gi = hk.gen_inverse(s, n)
        assert hk.hecke_mul(gi, hk.gen_basis(s, n)) == hk.unit(n)
        assert hk.hecke_mul(hk.gen_basis(s, n), gi) == hk.unit(n)
    gi = hk.gen_inverse(1, n)
    assert gi.terms == {
        elem(n, 1): {-1: 1},
        c.identity_element(n): {-1: 1, 0: -1},
    }


@pytest.mark.parametrize("n", [2, 3])
def test_left_mul_gen_inv(n):
    """The product with gen_inverse(s, n) is q^{-1} g_s h + (q^{-1} - 1) h,
    and g_s undoes it."""
    rng = random.Random(41 + n)
    for _ in range(6):
        h = random_hecke(n, rng)
        for s in c.generators(n):
            got = hk.hecke_mul(hk.gen_inverse(s, n), h)
            assert got == hk.add(hk.scale(hk.hecke_left_mul_gen(s, h), LP_QINV),
                                 hk.scale(h, LP_QINV_MINUS_1))
            assert hk.hecke_left_mul_gen(s, got) == h


def test_add_and_scale_cancel_to_zero():
    rng = random.Random(5)
    for n in (2, 3):
        h = random_hecke(n, rng)
        assert hk.add(h, hk.scale(h, {0: -1})).terms == {}
        assert hk.scale(h, {}).terms == {}


def test_scale_refuses_a_scalar_that_is_not_a_polynomial():
    # the Laurent-polynomial rule of a term's coefficient, {} allowed
    for p in ({0: 1.5}, {0.5: 1}, {True: 1}, {0: True}, {0: 0}, None, [(0, 1)]):
        with pytest.raises(ValueError) as exc:
            hk.scale(hk.unit(2), p)
        assert str(exc.value) == (
            "scalar %r is not a dict of int exponents to non-zero ints" % (p,))


def test_results_share_no_polynomial_with_inputs():
    """Every result owns its polynomials, and its inputs are unchanged."""
    rng = random.Random(23)
    for n in (2, 3):
        u, v = random_hecke(n, rng), random_hecke(n, rng)
        before = [(h, {w: dict(p) for w, p in h.terms.items()}) for h in (u, v)]
        results = [hk.add(u, v), hk.add(u, hk.HeckeElement(n, {})),
                   hk.scale(u, {0: 1}), hk.hecke_mul(u, v), hk.hecke_mul(hk.unit(n), v),
                   hk.hr_embed(u)]
        inputs = [id(p) for h in (u, v) for p in h.terms.values()]
        for r in results:
            assert not {id(p) for p in r.terms.values()} & set(inputs)
        for h, terms in before:
            assert h.terms == terms


def test_rank_mismatch():
    with pytest.raises(ValueError):
        hk.hecke_mul(hk.unit(2), hk.unit(3))
    with pytest.raises(ValueError):
        hk.add(hk.unit(2), hk.unit(3))


def test_left_mul_gen_rejects_letter_on_empty_element():
    # no term, so no word is read: g_s's letter check (gen_basis) is the only guard
    empty = hk.HeckeElement(2, {})
    for step in (hk.hecke_left_mul_gen,
                 lambda s, h: hk.hecke_mul(hk.gen_inverse(s, h.n), h)):
        with pytest.raises(ValueError, match="letter 7 invalid at rank 2"):
            step(7, empty)


def test_gen_basis_rejects_a_letter_that_is_not_an_int():
    for s in (1.0, True, 3):
        with pytest.raises(ValueError, match="invalid at rank 2"):
            hk.gen_basis(s, 2)


# a HeckeElement is checked when it is made, by every route; pickle and copy
# rebuild one made by _trusted, which only the library may call
HECKE_ROUTES = {
    "HeckeElement": hk.HeckeElement,
    "_make": lambda *fields: hk.HeckeElement._make(fields),
    "_replace": lambda n, terms: hk.unit(2)._replace(n=n, terms=terms),
    "copy": lambda *fields: copy.copy(hk.HeckeElement._trusted(*fields)),
    "deepcopy": lambda *fields: copy.deepcopy(hk.HeckeElement._trusted(*fields)),
    "pickle": lambda *fields: pickle.loads(pickle.dumps(hk.HeckeElement._trusted(*fields))),
}


def bad_hecke_elements():
    """(fields, message): a term of another rank (the rank-3 form of
    s3 a s1 at rank 2), coefficients that are not non-empty dicts of int
    exponents to non-zero ints, a key that is not an Element, bad ranks,
    and terms that are not a dict."""
    e3, s1 = elem(3, 3, 0, 1), elem(2, 1)
    coeff = ("coefficient of %r must be a non-empty dict of int exponents to "
             "non-zero ints, got %%r" % (s1,))
    out = [((2, {e3: {0: 1}}), "term %r is not an Element of rank 2" % (e3,)),
           ((2, {"s1": {0: 1}}), "term 's1' is not an Element of rank 2"),
           ((2, {(2, (), ()): {0: 1}}), "term (2, (), ()) is not an Element of rank 2"),
           ((1, {}), "rank must be an integer >= 2, got 1"),
           ((2.0, {}), "rank must be an integer >= 2, got 2.0"),
           ((2, [(s1, {0: 1})]), "terms must be a dict, got [(%r, {0: 1})]" % (s1,))]
    for p in ({0: 1.5}, {}, {0: 0}, {0.0: 1}, {0: True}, [(0, 1)]):
        out.append(((2, {s1: p}), coeff % (p,)))
    return out


def test_hecke_element_rejects_by_every_route():
    good = (2, {elem(2, 1): {1: 1, 0: -1}, c.identity_element(2): {-2: 3}})
    bad = bad_hecke_elements()
    for route, make in HECKE_ROUTES.items():
        h = make(*good)
        assert type(h) is hk.HeckeElement and h == good, route
        for fields, message in bad:
            with pytest.raises(ValueError) as exc:
                make(*fields)
            assert str(exc.value) == message, (route, fields)


# --- the window step against the letter engine -----------------------------

def oracle_left_mul_gen(s, h, inverse=False):
    """The Element-keyed step: one left_mul and two length sums per term,
    g_s g_w = g_{sw} or q g_{sw} + (q - 1) g_w, and for g_s^{-1}
    g_{sw} or q^{-1} g_{sw} + (q^{-1} - 1) g_w."""
    out = []
    for w, p in h.terms.items():
        sw = c.left_mul(s, w)
        if (c.length(sw) < c.length(w)) == inverse:
            out.append((sw, p))
        elif inverse:
            out.append((sw, hk.lp_mul(LP_QINV, p)))
            out.append((w, hk.lp_mul(LP_QINV_MINUS_1, p)))
        else:
            out.append((sw, hk.lp_mul(LP_Q, p)))
            out.append((w, hk.lp_mul(LP_Q_MINUS_1, p)))
    return collect(h.n, out)


def oracle_hecke_mul(u, v):
    total = hk.HeckeElement(u.n, {})
    for w, p in u.terms.items():
        acc = v
        for s in reversed(c.element_word(w).letters):
            acc = oracle_left_mul_gen(s, acc)
        total = hk.add(total, hk.scale(acc, p))
    return total


def oracle_hr_embed(h):
    n = h.n + 1
    total = hk.HeckeElement(n, {})
    for w, p in h.terms.items():
        acc = hk.unit(n)
        for s in reversed(c.element_word(w).letters):
            if s == perms.AFFINE:
                acc = oracle_left_mul_gen(n, acc, inverse=True)
                acc = oracle_left_mul_gen(perms.AFFINE, acc)
                acc = oracle_left_mul_gen(n, acc)
            else:
                acc = oracle_left_mul_gen(s, acc)
        total = hk.add(total, hk.scale(acc, p))
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_step_matches_right_mul_on_balls(n):
    """On one basis term, _step gives the window of ws, and g_s keeps a g_w
    term exactly when the judge's perm_length drops (s in R(w)), g_s^{-1}
    exactly when it rises."""
    for win in perms.bfs_reduced_words(n, 7):
        for s in c.generators(n):
            ws = perms.right_mul(win, s)
            descent = perms.perm_length(ws) < perms.perm_length(win)
            got = hk._step(s, {win: {0: 1}}, False)
            got_inv = hk._step(s, {win: {0: 1}}, True)
            if descent:
                assert got == {ws: {1: 1}, win: {1: 1, 0: -1}}
                assert got_inv == {ws: {0: 1}}
            else:
                assert got == {ws: {0: 1}}
                assert got_inv == {ws: {-1: 1}, win: {-1: 1, 0: -1}}


def random_reduced(n, length, rng):
    return c.canonicalize(Word(n, random_reduced_word(n, length, rng)))


def oracle_fold_cases():
    """50 (u, v) pairs at ranks 2-4, each with the oracle's u v and u's
    image one rank up."""
    rng = random.Random(2105)
    cases = []
    for _ in range(50):
        n = rng.randint(2, 4)
        u = hk.add(hk.basis(random_reduced(n, rng.randint(0, 12), rng)),
                   hk.scale(hk.basis(random_reduced(n, rng.randint(0, 12), rng)),
                            {rng.randint(-2, 2): rng.choice([-2, -1, 1, 3])}))
        v = random_hecke(n, rng, max_len=12)
        cases.append((u, v, oracle_hecke_mul(u, v).terms, oracle_hr_embed(u).terms))
    return cases


def test_products_match_oracle_fold():
    """The same products, terms and coefficients, from an empty decode
    table and again from the one the first pass filled."""
    cases = oracle_fold_cases()
    hk._decoded.clear()
    for _ in range(2):
        for u, v, product, image in cases:
            assert hk.hecke_mul(u, v).terms == product
            assert hk.hr_embed(u).terms == image


def test_the_decode_table_stays_within_its_cap(monkeypatch):
    """With room for 3 windows the table is emptied whenever it fills,
    never holds more than 3, and every product is unchanged."""
    cases = oracle_fold_cases()[:12]
    peel, sizes = c._peel, []

    def counted_peel(win):
        sizes.append(len(hk._decoded))
        return peel(win)
    monkeypatch.setattr(hk, "MAX_DECODED", 3)
    monkeypatch.setattr(c, "_peel", counted_peel)
    hk._decoded.clear()
    for u, v, product, image in cases:
        assert hk.hecke_mul(u, v).terms == product
        assert hk.hr_embed(u).terms == image
        assert len(hk._decoded) <= 3
    assert max(sizes) < 3 and sizes.count(0) > 1  # emptied before each store past 3


def test_the_fold_refuses_a_product_past_the_term_cap(monkeypatch):
    """g_{w^-1} g_w for w = s1 s2 a s1 holds at most 5 terms: the fold
    returns it under a cap of 5 and raises RuntimeError, the resource-limit
    class, once the terms it holds pass a cap of 3 or 4."""
    w = elem(2, 1, 2, 0, 1)
    u, v = hk.basis(c.inverse(w)), hk.basis(w)
    full = hk.hecke_mul(u, v)
    assert len(full.terms) == 5 and hk.MAX_TERMS >= 10 ** 5
    monkeypatch.setattr(hk, "MAX_TERMS", 5)
    assert hk.hecke_mul(u, v) == full
    for cap, held in ((4, 5), (3, 4)):
        monkeypatch.setattr(hk, "MAX_TERMS", cap)
        with pytest.raises(RuntimeError, match="^Hecke product holds %d terms, "
                           "past the limit of %d$" % (held, cap)):
            hk.hecke_mul(u, v)


def test_long_products_match_oracle_fold():
    """g_{w^-1} g_w keeps hundreds of terms for l(w) of 20 to 60."""
    rng = random.Random(7417)
    for n in (2, 2, 2, 3, 3, 3):
        w = random_reduced(n, rng.randint(20, 60), rng)
        u, v = hk.basis(c.inverse(w)), hk.basis(w)
        assert hk.hecke_mul(u, v).terms == oracle_hecke_mul(u, v).terms
        assert hk.hr_embed(v).terms == oracle_hr_embed(v).terms


@pytest.mark.parametrize("n", [2, 3])
def test_left_mul_gen_matches_oracle_step(n):
    """g_s . h folds the words of h's terms onto g_s; the oracle steps each
    term of h on the left."""
    rng = random.Random(3119 + n)
    for _ in range(6):
        h = random_hecke(n, rng, max_terms=4, max_len=8)
        for s in c.generators(n):
            assert hk.hecke_left_mul_gen(s, h) == oracle_left_mul_gen(s, h)


COUNTED = {"perms.inverse": perms.inverse, "perms.right_mul": perms.right_mul,
           "canonical.element_word": c.element_word, "canonical._peel": c._peel,
           "hecke.lp_mul": hk.lp_mul}


def count_calls(monkeypatch):
    """A dict of call counts, one per COUNTED function, through every
    binding of it in the package."""
    calls = dict.fromkeys(COUNTED, 0)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("affcox"):
            continue
        for name, value in list(vars(module).items()):
            for key, f in COUNTED.items():
                if value is f:
                    def counted(*args, key=key, f=f):
                        calls[key] += 1
                        return f(*args)
                    monkeypatch.setattr(module, name, counted)
    return calls


def test_product_costs_are_exact_counts(monkeypatch):
    """hecke_mul(u, v) multiplies |u| |v| polynomials, one per pair of
    terms; from an empty decode table it peels each term of the product
    once, and the same product again peels none.  Each product reads one
    word per right-factor term and inverts no window, and only g_s's letter
    check right-multiplies one (and peels it, outside the table)."""
    rng = random.Random(3137)
    cases = []
    for n in (2, 3):
        for _ in range(6):
            u, v = (random_hecke(n, rng, max_terms=4, max_len=8) for _ in range(2))
            cases.append((n, u, v, rng.choice(c.generators(n))))
    calls = count_calls(monkeypatch)
    for n, u, v, s in cases:
        runs = [(hk.hecke_mul, (u, v), len(u.terms), v, 0),
                (hk.hr_embed, (v,), 1, v, 0),
                (hk.hecke_left_mul_gen, (s, v), 1, v, 1)]
        for fn, args, left_terms, right, right_muls in runs:
            hk._decoded.clear()
            for repeat in (False, True):
                for key in calls:
                    calls[key] = 0
                out = fn(*args)
                assert calls == {
                    "perms.inverse": 0, "perms.right_mul": right_muls,
                    "canonical.element_word": len(right.terms),
                    "canonical._peel": (0 if repeat else len(out.terms)) + right_muls,
                    "hecke.lp_mul": left_terms * len(right.terms)}, (fn.__name__, repeat)


# --- q = 1 specialization ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_group_ring_at_q_equals_1(n):
    rng = random.Random(n * 5)
    for _ in range(12):
        a = tuple(rng.randrange(0, n + 1) for _ in range(rng.randint(0, 6)))
        b = tuple(rng.randrange(0, n + 1) for _ in range(rng.randint(0, 6)))
        u, v = elem(n, *a), elem(n, *b)
        prod = hk.hecke_mul(hk.basis(u), hk.basis(v))
        spec = {
            w: sum(p.values())
            for w, p in prod.terms.items()
            if sum(p.values())
        }
        assert spec == {c.mul(u, v): 1}


def test_degree_bound():
    n = 2
    rng = random.Random(3)
    for _ in range(20):
        letters = tuple(rng.randrange(0, n + 1) for _ in range(rng.randint(1, 8)))
        acc = hk.unit(n)
        for s in reversed(letters):
            acc = hk.hecke_left_mul_gen(s, acc)
        top = max(e for p in acc.terms.values() for e in p)
        assert top <= len(letters)


# --- the rank-raising arrow -------------------------------------------------

def test_hr_embed_frozen_example():
    a3 = elem(2, 0)
    img = hk.hr_embed(hk.basis(a3))
    lead = c.Element(3, ((3, 0),), ((3, 3),))  # sigma_3 a_4 sigma_3
    low = c.Element(3, ((3, 0),), ())          # sigma_3 a_4
    assert img.terms == {lead: {-1: 1}, low: {-1: 1, 0: -1}}


def test_hr_embed_fixes_finite_generators():
    assert hk.hr_embed(hk.gen_basis(1, 2)) == hk.gen_basis(1, 3)
    assert hk.hr_embed(hk.unit(2)) == hk.unit(3)


def test_hr_embed_homomorphism_sampled():
    rng = random.Random(19)
    for _ in range(10):
        a = tuple(rng.randrange(0, 3) for _ in range(rng.randint(0, 4)))
        b = tuple(rng.randrange(0, 3) for _ in range(rng.randint(0, 4)))
        u, v = hk.basis(elem(2, *a)), hk.basis(elem(2, *b))
        assert hk.hr_embed(hk.hecke_mul(u, v)) == hk.hecke_mul(
            hk.hr_embed(u), hk.hr_embed(v)
        )


def test_triangularity_examples():
    a_w, lower = hk.triangularity_certificate(elem(2, 0))
    assert a_w == {-1: 1}
    assert lower.terms == {c.Element(3, ((3, 0),), ()): {-1: 1, 0: -1}}

    a_w, lower = hk.triangularity_certificate(elem(2, 1))
    assert a_w == {0: 1}
    assert lower.terms == {}


def test_triangularity_exhaustive_small():
    for n, max_len in ((2, 14), (3, 10), (4, 8)):
        for win, letters in perms.bfs_reduced_words(n, max_len).items():
            w = c.canonicalize(Word(n, letters))
            a_w, lower = hk.triangularity_certificate(w)
            assert hk.lp_power_of_q(a_w) is not None
            target_len = c.length(tower.embed(w))
            for x in lower.terms:
                assert c.length(x) < target_len
                assert c.affine_length(x) <= c.affine_length(w)
                x_win = perms.to_permutation(c.element_word(x).letters, n + 1)
                assert perms.affine_length(x_win) <= perms.affine_length(win)


def test_format_hecke():
    img = hk.hr_embed(hk.basis(elem(2, 0)))
    text = hk.format_hecke(img)
    assert text.splitlines() == [
        "q^-1 * [h(3,0) a | [3,3]]",
        "q^-1 - 1 * [h(3,0) a |]",
    ]
    assert hk.format_hecke(hk.HeckeElement(2, {})) == "0"
