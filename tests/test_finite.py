"""The finite canonical form, h-prefixes, and the brick identity families."""

import itertools
import math
import random

import pytest

from affcox import canonical as c
from affcox import finite as fin
from affcox import perms
from affcox.finite import (
    HPrefix,
    brick_identities_check,
    ceil_word,
    finite_left_insert,
    finite_length,
    floor_word,
    h_element,
    h_is_extremal,
    h_times_floor,
    h_word,
    in_parabolic,
    peel_h,
    right_insert,
    support,
    validate_finite,
)
from affcox.perms import compose, inverse, perm_length, to_permutation
from affcox.words import Word, parse_word
from oracles import finite_word, int_pairs_rule, is_extremal


def _int_pairs_inputs(rng):
    """Seeded inputs of every kind `int_pairs` must tell apart: sequences of
    int pairs, of pairs with one entry of another type, of items that are
    not pairs, and values that are not lists or tuples."""
    atoms = (0, 3, -2, True, 1.0, "12", b"12", {1: 2}, {1, 2}, None)
    def item():
        kind = rng.randrange(9)
        if kind < 4:  # an int pair
            return (list, tuple)[rng.randrange(2)](rng.choice(atoms[:3]) for _ in "ab")
        if kind == 4:  # a pair with any entries
            return (list, tuple)[rng.randrange(2)](rng.choice(atoms) for _ in "ab")
        if kind == 5:
            return HPrefix(rng.randrange(5), rng.choice(atoms))
        if kind == 6:
            return tuple(rng.randrange(4) for _ in range(rng.choice((0, 1, 3))))
        if kind == 7:
            return [[1, 2], [rng.randrange(4), [3]]]
        return rng.choice(atoms)
    for _ in range(600):
        items = [item() for _ in range(rng.randrange(5))]
        yield (list, tuple)[rng.randrange(2)](items)
    yield from atoms
    yield from ((), [], "ab", b"ab", HPrefix(1, 2), (p for p in ((1, 2),)),
                [(1, 2)] * 3, ((1, 2), (3, 4), (5, 6, 7)))


def test_int_pairs_agrees_with_its_one_expression_oracle():
    # the one-pass read returns the oracle's tuple of plain tuples, or
    # raises its message, on every input
    def outcome(rule, seq):
        try:
            out = rule("pairs", seq)
        except ValueError as exc:
            return "ValueError", str(exc)
        assert type(out) is tuple and all(type(p) is tuple for p in out)
        return out
    kinds = set()
    for seq in _int_pairs_inputs(random.Random(40)):
        want = outcome(int_pairs_rule, seq)
        assert outcome(fin.int_pairs, seq) == want, seq
        kinds.add(type(want) is tuple and bool(want))
    assert kinds == {True, False}  # non-empty tuples and errors both reached


def all_elements(n):
    """Every canonical shape at rank n — exactly (n+1)! of them."""
    def shapes(level, acc):
        if level == 0:
            yield tuple(acc)
            return
        for i in range(1, level + 1):
            yield from shapes(level - 1, acc + [(i, level)])
        yield from shapes(level - 1, acc)
    return list(shapes(n, []))


def canon(letters, n):
    """The bricks of a sigma-word, decoded from its oracle window."""
    return c.from_window(to_permutation(letters, n)).bricks


def mul(x, y, n):
    """x . y as W(~A_n) elements with no pairs."""
    return c.mul(c.Element(n, (), x), c.Element(n, (), y)).bricks


def test_braid_example():
    assert canon(parse_word("s2 s1 s2", 2).letters, 2) == ((1, 2), (1, 1))


def test_identity_and_single_run():
    assert canon((), 3) == () == c.identity_element(3).bricks
    assert canon((1, 2, 3), 3) == ((1, 3),)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exhaustive_roundtrip_and_bijection(n):
    seen = set()
    for x in all_elements(n):
        assert validate_finite(x, n)
        w = finite_word(x, n)
        assert canon(w.letters, n) == x
        assert c.canonicalize(w) == c.Element(n, (), x)
        win = to_permutation(w.letters, n)
        # the canonical word is reduced
        assert perm_length(win) == len(w.letters) == finite_length(x)
        seen.add(win)
    assert len(seen) == math.factorial(n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_insert_matches_oracle_everywhere(n):
    for x in all_elements(n):
        win = to_permutation(finite_word(x, n).letters, n)
        for k in range(1, n + 1):
            y = right_insert(x, k, n)
            assert to_permutation(finite_word(y, n).letters, n) == compose(
                win, to_permutation((k,), n)
            )
            z = finite_left_insert(x, k, n)
            assert to_permutation(finite_word(z, n).letters, n) == compose(
                to_permutation((k,), n), win
            )


@pytest.mark.parametrize("k", [1.5, True])
def test_left_insert_rejects_non_int_index(k):
    # right_insert, its oracle, takes the same sigma index rule
    for insert in (finite_left_insert, right_insert):
        with pytest.raises(ValueError, match=r"^sigma index %r out of range at rank 3$" % k):
            insert((), k, 3)
        # and both check the rank first, by perms.check_rank
        with pytest.raises(ValueError, match=r"^rank must be an integer >= 2, got %r$" % k):
            insert((), 1, k)


RANK_ERROR = r"^rank must be an integer >= 2, got %r$"
BAD_RANKS = (1.5, 2.0, True, 1)


def test_finite_window_checks_the_rank():
    assert fin.finite_window(((1, 1),), 2) == (2, 1, 3)
    for n in BAD_RANKS:
        with pytest.raises(ValueError, match=RANK_ERROR % n):
            fin.finite_window((), n)


def test_finite_word_checks_the_rank():
    assert finite_word(((1, 2),), 2) == Word(2, (1, 2))
    for n in BAD_RANKS:
        with pytest.raises(ValueError, match=RANK_ERROR % n):
            finite_word(((1, 1),), n)


def test_validate_finite_checks_the_rank():
    assert validate_finite(((1, 1),), 2) and not validate_finite(((1, 3),), 2)
    for n in BAD_RANKS:
        with pytest.raises(ValueError, match=RANK_ERROR % n):
            validate_finite(((1, 1),), n)


def test_mul_and_inverse():
    # W(A_n) products and inverses are canonical's, on elements with no pairs
    rng = random.Random(31)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        u, v = (
            canon(tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(9))), n)
            for _ in range(2)
        )
        uv = mul(u, v, n)
        assert to_permutation(finite_word(uv, n).letters, n) == compose(
            to_permutation(finite_word(u, n).letters, n),
            to_permutation(finite_word(v, n).letters, n),
        )
        assert mul(u, (), n) == u
        assert mul(u, c.inverse(c.Element(n, (), u)).bricks, n) == ()


# --- h(r, i) ----------------------------------------------------------------

def test_h_basics():
    # h(n+1, 0) is the identity
    assert h_word(HPrefix(4, 0), 3) == ()
    assert h_element(HPrefix(4, 0), 3) == ()
    # h(3,1) = s3 s1 at n=3
    assert h_word(HPrefix(3, 1), 3) == (3, 1)
    assert h_element(HPrefix(3, 1), 3) == ((3, 3), (1, 1))
    # ints with r in 1..n+1 and i in 0..n-1
    for h in ((0, 0), (5, 0), (4, 3), (2, -1), (2.5, 0), (4.0, 0), (True, 0), (3, 1.0)):
        for fn in (fin.check_hprefix, h_word, h_element):
            with pytest.raises(ValueError, match=r"^invalid h\(%r,%r\) at rank 3$" % h):
                fn(h, 3)
    # a value that is not a pair (a list or tuple of two) is refused by the
    # same rule, not by a failed unpacking
    for h in (None, (1, 2, 3), [4], 5, "40"):
        for fn in (fin.check_hprefix, h_word, h_element):
            with pytest.raises(ValueError, match=r"^an h-prefix is a pair \(r, i\), got "):
                fn(h, 3)
    # and the rank passes perms.check_rank first
    for n in (3.0, 1, True):
        for fn in (fin.check_hprefix, h_word, h_element):
            with pytest.raises(ValueError, match=r"^rank must be an integer >= 2, got %r$" % n):
                fn((2, 0), n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h_element_is_canonical_form_of_h_word(n):
    for r in range(1, n + 2):
        for i in range(0, n):
            h = HPrefix(r, i)
            assert h_element(h, n) == canon(h_word(h, n), n)


@pytest.mark.parametrize("n", [3, 4])
def test_peel_h_exhaustive(n):
    # uniqueness: (n+1)! elements split into (n+1)*n h-classes times (n-1)! each
    per_h = {}
    for x in all_elements(n):
        h, p = peel_h(x, n)
        assert in_parabolic(p, n)
        assert mul(h_element(h, n), p, n) == x
        per_h[h] = per_h.get(h, 0) + 1
    assert len(per_h) == (n + 1) * n
    assert set(per_h.values()) == {math.factorial(n - 1)}


def test_peel_h_examples(monkeypatch):
    n = 3
    assert peel_h((), n)[0] == HPrefix(4, 0)
    h, p = peel_h(canon((3, 1), n), n)
    assert h == HPrefix(3, 1) and p == ()
    # bricks that are not a canonical shape are bad input, not an engine bug
    for bricks in (((1, 5),), ((1, 1), (2, 2))):
        with pytest.raises(ValueError, match="invalid finite canonical form"):
            peel_h(bricks, 2)
    # and so are bricks that are not integer pairs
    for bricks in (((1.0, 1),), ((True, 1),), ((1, 1, 1),), "11"):
        with pytest.raises(ValueError, match="bricks must be a list of integer pairs"):
            peel_h(bricks, 3)
    # and so is a rank that is not an int >= 2
    for n in (2.0, 1, True):
        with pytest.raises(ValueError, match=r"^rank must be an integer >= 2, got %r$" % n):
            peel_h(((1, 1),), n)
    # an h that peel_h computed breaking inequality (1) is a bug, not bad input
    with monkeypatch.context() as m:
        m.setattr(fin, "hprefix_ok", lambda h, n: False)
        with pytest.raises(fin.InvariantError, match=r"^peel_h\(\(\(1, 1\),\)\) gave HPrefix"):
            peel_h(((1, 1),), 3)


@pytest.mark.parametrize("n", [3, 4])
def test_extremal_iff_peel_shape(n):
    for x in all_elements(n):
        h, _ = peel_h(x, n)
        shape = (h.r == 1 and h.i == 0) or (h.i >= 1 and h.r <= n)
        assert is_extremal(x, n) == shape
        # and on h itself the closed-form predicate agrees with support
        assert h_is_extremal(h, n) == is_extremal(h_element(h, n), n)


def test_support_and_parabolic():
    n = 4
    x = canon((2, 3), n)
    assert support(x) == {2, 3}
    assert in_parabolic(x, n)
    assert not in_parabolic(canon((1,), n), n)
    assert not is_extremal(x, n)
    assert is_extremal(canon((1, 4), n), n)


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


def test_h_times_floor_rejects(monkeypatch):
    with pytest.raises(ValueError):
        h_times_floor(3, 0, 1, 3)  # j must exceed 1
    with pytest.raises(ValueError):
        h_times_floor(2, 0, 3, 3)  # j <= j_prev violated
    with pytest.raises(ValueError, match="^pair inequality j < j_prev violated$"):
        h_times_floor(3, 0, 3, 3)  # j = j_prev after a pair with j_prev > i_prev+1
    # the indices pass the h-prefix rule (finite.check_hprefix) first
    with pytest.raises(ValueError, match=r"invalid h\(3.0,1\)"):
        h_times_floor(3.0, 1, 2, 3)
    with pytest.raises(ValueError, match=r"invalid h\(2.0,0\)"):
        h_times_floor(3, 1, 2.0, 3)
    with pytest.raises(ValueError, match=r"^rank must be an integer >= 2, got 3.0$"):
        h_times_floor(3, 1, 2, 3.0)
    # an h that h_times_floor computed breaking inequality (1) is a bug, not
    # bad input; the patched rule still passes the inputs, plain tuples
    with monkeypatch.context() as m:
        m.setattr(fin, "hprefix_ok", lambda h, n: not isinstance(h, HPrefix))
        with pytest.raises(fin.InvariantError, match=r"^h_times_floor\(3, 1, 2\) gave HPrefix"):
            h_times_floor(3, 1, 2, 3)


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
    # level_code maps the (n+1)! permutations onto the valid shapes, and
    # it inverts finite_window, which agrees with the oracle's window
    shapes = all_elements(n)
    decoded = {fin.level_code(p) for p in itertools.permutations(range(1, n + 2))}
    assert decoded == set(shapes)
    assert len(decoded) == math.factorial(n + 1)
    for x in shapes:
        win = fin.finite_window(x, n)
        assert win == to_permutation(finite_word(x, n).letters, n)
        assert fin.level_code(win) == x
    assert fin.finite_shapes(n) == sorted(shapes, key=lambda x: (finite_length(x), x))


def test_finite_shapes_refuses_past_the_state_cap(monkeypatch):
    """finite_shapes lists the (n+1)! shapes up to perms.MAX_STATES and
    refuses past it, multiplying the count up level by level in the order
    the listing builds them (4, then 12, then 24 at n = 3), and sorts no
    listing.  Its memory at the real cap is held in
    tests/test_from_window.py::test_the_size_guards_refuse_before_allocating."""
    assert math.factorial(10) <= perms.MAX_STATES < math.factorial(11)
    monkeypatch.setattr(perms, "MAX_STATES", 24)
    assert len(fin.finite_shapes(3)) == 24
    keyed = []
    monkeypatch.setattr(fin, "finite_length", lambda s: keyed.append(s))
    for cap, n, held in ((23, 3, 24), (11, 3, 12), (100, 9, 720),
                         (24, perms.MAX_RANK, perms.MAX_RANK + 1)):
        monkeypatch.setattr(perms, "MAX_STATES", cap)
        with pytest.raises(RuntimeError, match="^finite shape count %d is past the limit of %d$"
                           % (held, cap)):
            fin.finite_shapes(n)
    assert keyed == []


def test_from_window_rejects_non_windows_and_gives_affine_windows_pairs():
    # a W(A_n) window is a window (perms.is_window) with L = 0, decoded by
    # the one decoder, canonical.from_window, to an element with no pairs
    for win in [[1.0, 2, 3], [True, 2, 3], (2, 1)]:
        with pytest.raises(ValueError, match=r"not a window of W\(~A_n\)"):
            c.from_window(win)
    assert c.from_window((0, 2, 4)).pairs


def test_window_operations_avoid_right_insert(monkeypatch):
    # at n = 12 the W(A_n) operations decode windows and never insert
    # letter by letter; each result is checked against the window oracle
    def refuse(x, k, n):
        raise AssertionError("right_insert called")
    monkeypatch.setattr(fin, "right_insert", refuse)
    n, rng = 12, random.Random(1207)

    def window(x):
        return to_permutation(finite_word(x, n).letters, n)

    def reduced(x):
        return perm_length(window(x)) == finite_length(x)

    for _ in range(40):
        words = [
            tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(120)))
            for _ in range(2)
        ]
        u, v = (canon(w, n) for w in words)
        for w, x in zip(words, (u, v)):
            assert window(x) == to_permutation(w, n) and reduced(x)
        uv = mul(u, v, n)
        assert window(uv) == compose(window(u), window(v)) and reduced(uv)
        ui = c.inverse(c.Element(n, (), u)).bricks
        assert window(ui) == inverse(window(u)) and reduced(ui)
        h, p = peel_h(u, n)
        assert to_permutation(h_word(h, n) + finite_word(p, n).letters, n) == window(u)
        assert in_parabolic(p, n) and reduced(p)
        assert len(h_word(h, n)) + finite_length(p) == finite_length(u)
