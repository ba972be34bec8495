"""The finite canonical form, h-prefixes, and the brick identity families."""

import itertools
import math
import random

import pytest

from affcox import finite as fin
from affcox.finite import (
    FiniteElement,
    HPrefix,
    brick_identities_check,
    canonicalize_finite,
    ceil_word,
    finite_identity,
    finite_inverse,
    finite_left_insert,
    finite_length,
    finite_mul,
    finite_word,
    floor_word,
    h_element,
    h_is_extremal,
    h_times_floor,
    h_word,
    in_parabolic,
    is_extremal,
    peel_h,
    right_insert,
    support,
    validate_finite,
)
from affcox.perms import compose, inverse, perm_length, to_permutation
from affcox.words import Word, parse_word


def all_elements(n):
    """Every canonical shape at rank n — exactly (n+1)! of them."""
    def shapes(level, acc):
        if level == 0:
            yield tuple(acc)
            return
        for i in range(1, level + 1):
            yield from shapes(level - 1, acc + [(i, level)])
        yield from shapes(level - 1, acc)
    return [FiniteElement(n, br) for br in shapes(n, [])]


def test_braid_example():
    x = canonicalize_finite(parse_word("s2 s1 s2", 2))
    assert x.bricks == ((1, 2), (1, 1))


def test_identity_and_single_run():
    assert canonicalize_finite(Word(3, ())) == finite_identity(3)
    assert canonicalize_finite(Word(3, (1, 2, 3))).bricks == ((1, 3),)


def test_affine_letter_rejected():
    with pytest.raises(ValueError):
        canonicalize_finite(Word(2, (0,)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exhaustive_roundtrip_and_bijection(n):
    seen = set()
    for x in all_elements(n):
        assert validate_finite(x.bricks, n)
        w = finite_word(x)
        assert canonicalize_finite(w) == x
        win = to_permutation(w.letters, n)
        # the canonical word is reduced
        assert perm_length(win) == len(w.letters) == finite_length(x)
        seen.add(win)
    assert len(seen) == math.factorial(n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_insert_matches_oracle_everywhere(n):
    for x in all_elements(n):
        win = to_permutation(finite_word(x).letters, n)
        for k in range(1, n + 1):
            y = right_insert(x, k)
            assert to_permutation(finite_word(y).letters, n) == compose(
                win, to_permutation((k,), n)
            )
            z = finite_left_insert(x, k)
            assert to_permutation(finite_word(z).letters, n) == compose(
                to_permutation((k,), n), win
            )


def test_mul_and_inverse():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        u = canonicalize_finite(
            Word(n, tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(9))))
        )
        v = canonicalize_finite(
            Word(n, tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(9))))
        )
        uv = finite_mul(u, v)
        assert to_permutation(finite_word(uv).letters, n) == compose(
            to_permutation(finite_word(u).letters, n),
            to_permutation(finite_word(v).letters, n),
        )
        assert finite_mul(u, finite_identity(n)) == u
        assert finite_mul(u, finite_inverse(u)) == finite_identity(n)


# --- h(r, i) ----------------------------------------------------------------

def test_h_basics():
    # h(n+1, 0) is the identity
    assert h_word(HPrefix(4, 0), 3) == ()
    assert h_element(HPrefix(4, 0), 3) == finite_identity(3)
    # h(3,1) = s3 s1 at n=3
    assert h_word(HPrefix(3, 1), 3) == (3, 1)
    assert h_element(HPrefix(3, 1), 3).bricks == ((3, 3), (1, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h_element_is_canonical_form_of_h_word(n):
    for r in range(1, n + 2):
        for i in range(0, n):
            h = HPrefix(r, i)
            assert h_element(h, n) == canonicalize_finite(Word(n, h_word(h, n)))


@pytest.mark.parametrize("n", [3, 4])
def test_peel_h_exhaustive(n):
    # uniqueness: (n+1)! elements split into (n+1)*n h-classes times (n-1)! each
    per_h = {}
    for x in all_elements(n):
        h, p = peel_h(x)
        assert in_parabolic(p)
        assert finite_mul(FiniteElement(n, h_element(h, n).bricks), p) == x
        per_h[h] = per_h.get(h, 0) + 1
    assert len(per_h) == (n + 1) * n
    assert set(per_h.values()) == {math.factorial(n - 1)}


def test_peel_h_examples():
    n = 3
    assert peel_h(finite_identity(n))[0] == HPrefix(4, 0)
    x = canonicalize_finite(parse_word("s3 s1", n))
    h, p = peel_h(x)
    assert h == HPrefix(3, 1) and p == finite_identity(n)


@pytest.mark.parametrize("n", [3, 4])
def test_extremal_iff_peel_shape(n):
    for x in all_elements(n):
        h, _ = peel_h(x)
        shape = (h.r == 1 and h.i == 0) or (h.i >= 1 and h.r <= n)
        assert is_extremal(x) == shape
        # and on h itself the closed-form predicate agrees with support
        assert h_is_extremal(h, n) == is_extremal(
            FiniteElement(n, h_element(h, n).bricks)
        )


def test_support_and_parabolic():
    n = 4
    x = canonicalize_finite(parse_word("s2 s3", n))
    assert support(x) == {2, 3}
    assert in_parabolic(x)
    assert not in_parabolic(canonicalize_finite(parse_word("s1", n)))
    assert not is_extremal(x)
    assert is_extremal(canonicalize_finite(parse_word("s1 s4", n)))


# --- h(j_prev, i_prev) . |j, n| --------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_h_times_floor_all_cases(n):
    # over every (j_prev, i_prev) with a following first coordinate j > 1
    # compatible with the pair inequalities
    for j_prev in range(1, n + 2):
        for i_prev in range(0, n):
            for j in range(2, n + 1):
                if j > j_prev:
                    continue
                if j_prev > i_prev + 1 and j >= j_prev:
                    continue
                out, u = h_times_floor(j_prev, i_prev, j, n)
                assert u >= 2
                lhs = h_word(HPrefix(j_prev, i_prev), n) + floor_word(j, n)
                rhs = h_word(out, n) + floor_word(u, n - 1)
                assert to_permutation(lhs, n) == to_permutation(rhs, n), (
                    j_prev, i_prev, j,
                )
                assert len(lhs) == len(rhs)


def test_h_times_floor_rejects():
    with pytest.raises(ValueError):
        h_times_floor(3, 0, 1, 3)  # j must exceed 1
    with pytest.raises(ValueError):
        h_times_floor(2, 0, 3, 3)  # j <= j_prev violated


# --- identity families ------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brick_identities(n):
    assert brick_identities_check(n) == []


def test_collapsing_degenerate_case():
    # a = 0 in ceil(a,1)|1,n| = |a+1,n|: reduces to |1,n| = |1,n|
    assert ceil_word(0, 1) == ()
    assert floor_word(1, 3) == (1, 2, 3)


# --- the level code: windows <-> brick shapes -------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_level_code_is_a_bijection(n):
    # from_window maps the (n+1)! permutations onto the valid shapes, and
    # it inverts finite_window, which agrees with the oracle's window
    shapes = all_elements(n)
    decoded = {fin.from_window(p) for p in itertools.permutations(range(1, n + 2))}
    assert decoded == set(shapes)
    assert len(decoded) == math.factorial(n + 1)
    for x in shapes:
        win = fin.finite_window(x)
        assert win == to_permutation(finite_word(x).letters, n)
        assert fin.from_window(win) == x
    assert [FiniteElement(n, s) for s in fin.finite_shapes(n)] == sorted(
        shapes, key=lambda x: (finite_length(x), x.bricks)
    )


def test_from_window_rejects_affine_windows():
    with pytest.raises(ValueError):
        fin.from_window((0, 2, 4))


def test_window_operations_avoid_right_insert(monkeypatch):
    # at n = 12 the W(A_n) operations decode windows and never insert
    # letter by letter; each result is checked against the window oracle
    def refuse(x, k):
        raise AssertionError("right_insert called")
    monkeypatch.setattr(fin, "right_insert", refuse)
    n, rng = 12, random.Random(1207)

    def window(x):
        return to_permutation(finite_word(x).letters, n)

    def reduced(x):
        return perm_length(window(x)) == finite_length(x)

    for _ in range(40):
        words = [
            tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(120)))
            for _ in range(2)
        ]
        u, v = (canonicalize_finite(Word(n, w)) for w in words)
        for w, x in zip(words, (u, v)):
            assert window(x) == to_permutation(w, n) and reduced(x)
        uv = finite_mul(u, v)
        assert window(uv) == compose(window(u), window(v)) and reduced(uv)
        ui = finite_inverse(u)
        assert window(ui) == inverse(window(u)) and reduced(ui)
        h, p = peel_h(u)
        assert to_permutation(h_word(h, n) + finite_word(p).letters, n) == window(u)
        assert in_parabolic(p) and reduced(p)
        assert len(h_word(h, n)) + finite_length(p) == finite_length(u)
