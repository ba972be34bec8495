"""Hecke algebra: defining relations, inverses, the rank-raising arrow."""

import random

import pytest

from affcox import canonical as c
from affcox import hecke as hk
from affcox import perms
from affcox import tower
from affcox.words import Word


def elem(n, *letters):
    return c.canonicalize(Word(n, tuple(letters)))


# --- Laurent polynomial layer -----------------------------------------------

def test_poly_arithmetic():
    p = hk.lp({1: 1, 0: -1})
    q = hk.lp({-1: 1})
    assert hk.lp_mul(p, q) == {0: 1, -1: -1}
    assert hk.lp_add(p, {0: 1}) == {1: 1}
    assert hk.lp({2: 0, 1: 3}) == {1: 3}
    assert hk.lp_eval_at_1(p) == 0
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
        want = hk.add(hk.scale(h, dict(hk.LP_Q)), hk.scale(sh, dict(hk.LP_Q_MINUS_1)))
        assert ssh == want


# --- unit, associativity, inverses ------------------------------------------

def random_hecke(n, rng, max_terms=3, max_len=5):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        letters = tuple(rng.randrange(0, n + 1) for _ in range(rng.randint(0, max_len)))
        poly = {rng.randint(-2, 2): rng.choice([-2, -1, 1, 2])}
        terms.append((c.canonicalize(Word(n, letters)), poly))
    return hk._collect(n, terms)


@pytest.mark.parametrize("n", [2, 3])
def test_unit_laws(n):
    rng = random.Random(n * 11)
    one = hk.unit(n)
    for _ in range(10):
        h = random_hecke(n, rng)
        assert hk.hecke_mul(one, h) == h
        assert hk.hecke_mul(h, one) == h


def test_associativity_sampled():
    n = 2
    rng = random.Random(13)
    for _ in range(8):
        a, b, cc = (random_hecke(n, rng) for _ in range(3))
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
    """g_s^{-1} applied term by term equals the general product with
    gen_inverse(s, n), and q^{-1} g_s h + (q^{-1} - 1) h."""
    rng = random.Random(41 + n)
    for _ in range(6):
        h = random_hecke(n, rng)
        for s in c.generators(n):
            got = hk.hecke_left_mul_gen_inv(s, h)
            assert got == hk.hecke_mul(hk.gen_inverse(s, n), h)
            assert got == hk.add(hk.scale(hk.hecke_left_mul_gen(s, h), dict(hk.LP_QINV)),
                                 hk.scale(h, dict(hk.LP_QINV_MINUS_1)))
            assert hk.hecke_left_mul_gen(s, got) == h


def test_rank_mismatch():
    with pytest.raises(ValueError):
        hk.hecke_mul(hk.unit(2), hk.unit(3))
    with pytest.raises(ValueError):
        hk.add(hk.unit(2), hk.unit(3))


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
            w: hk.lp_eval_at_1(p)
            for w, p in prod.terms.items()
            if hk.lp_eval_at_1(p)
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
    lead = c.make_element(3, ((3, 0),), ((3, 3),))  # sigma_3 a_4 sigma_3
    low = c.make_element(3, ((3, 0),), ())          # sigma_3 a_4
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
    assert lower.terms == {c.make_element(3, ((3, 0),), ()): {-1: 1, 0: -1}}

    a_w, lower = hk.triangularity_certificate(elem(2, 1))
    assert a_w == {0: 1}
    assert lower.terms == {}


def test_triangularity_exhaustive_small():
    for win, letters in perms.bfs_reduced_words(2, 5).items():
        w = c.canonicalize(Word(2, letters))
        a_w, lower = hk.triangularity_certificate(w)
        assert hk.lp_power_of_q(a_w) is not None
        target_len = c.length(tower.embed(w))
        for x in lower.terms:
            assert c.length(x) < target_len
            assert c.affine_length(x) <= c.affine_length(w)


def test_format_hecke():
    img = hk.hr_embed(hk.basis(elem(2, 0)))
    text = hk.format_hecke(img)
    assert text.splitlines() == [
        "q^-1 * [h(3,0) a | [3,3]]",
        "q^-1 - 1 * [h(3,0) a |]",
    ]
    assert hk.format_hecke(hk.HeckeElement(2, {})) == "0"
