"""Canonical-form engine: left multiplication, block trichotomy, descents."""

import itertools
import random

import pytest

from affcox import canonical as c
from affcox import finite as fin
from affcox import perms
from affcox.finite import HPrefix
from affcox.words import Word, hat_partner, is_reduced, parse_word


def all_blocks(n, max_m):
    """Every valid block with at most max_m pairs (brute force, small n)."""
    out = [()]
    frontier = [()]
    for _ in range(max_m):
        nxt = []
        for pref in frontier:
            for j in range(1, n + 2):
                for i in range(0, n):
                    cand = pref + ((j, i),)
                    if c.validate_block(cand, n):
                        nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def block_perm(pairs, n):
    return perms.to_permutation(c.block_word(pairs, n).letters, n)


# --- frozen examples --------------------------------------------------------

def test_canonicalize_frozen_examples():
    e = c.canonicalize(parse_word("s3 a s3 s1 a", 3))
    assert e.pairs == ((4, 0), (3, 1))
    assert e.bricks == ((1, 1),)
    assert c.length(e) == 5 and c.affine_length(e) == 2

    e2 = c.canonicalize(parse_word("a s2 s1 a s1 s2 a", 2))
    assert e2.pairs == ((2, 0), (1, 1))
    assert e2.bricks == ((2, 2),)
    assert c.length(e2) == 7 and c.affine_length(e2) == 2

    assert c.canonicalize(Word(2, (1, 1))) == c.identity_element(2)


def test_left_mul_single_pair_examples():
    base = c.Element(3, ((3, 1),), ())
    assert c.left_mul(1, base).pairs == ((3, 0),)
    assert c.left_mul(3, base).pairs == ((4, 1),)
    assert c.left_mul(2, base).pairs == ((2, 1),)
    assert c.left_mul(1, c.Element(2, ((3, 0),), ())).pairs == ((3, 1),)


def test_left_mul_affine_examples():
    assert c.left_mul_block(perms.AFFINE, ((3, 0),), 2) == c.NewBlock(())
    assert c.left_mul_block(perms.AFFINE, ((2, 1),), 2) == c.NewBlock(((3, 0), (2, 1)))


def test_junction_repair_examples():
    pairs = ((4, 0), (3, 1))
    assert c.left_mul_block(1, pairs, 3) == c.Absorbed(3)
    assert c.left_mul_block(3, pairs, 3) == c.Absorbed(1)
    assert c.left_mul_block(2, pairs, 3) == c.NewBlock(((4, 0), (2, 1)))


# --- validation -------------------------------------------------------------

def test_validate_block():
    assert c.validate_block((), 3)
    assert c.validate_block(((4, 0), (3, 1)), 3)
    assert c.validate_block(((4, 0), (1, 0)), 3)
    # condition 4: strict descent after a gap-shaped pair
    assert not c.validate_block(((4, 0), (4, 1)), 3)
    # condition 5: a gap-shaped later pair needs i to grow
    assert not c.validate_block(((3, 1), (3, 1)), 3)
    # condition 2: (n+1, i) never appears past the first slot
    assert not c.validate_block(((4, 1), (4, 2)), 3)


def test_make_element_rejects():
    with pytest.raises(ValueError):
        c.make_element(3, ((4, 0), (4, 1)), ())
    with pytest.raises(ValueError):
        c.make_element(3, (), ((1, 5),))
    with pytest.raises(ValueError):
        c.make_element(1, (), ())


def test_operation_input_errors():
    with pytest.raises(ValueError, match="letter 5 invalid at rank 2"):
        c.left_mul(5, c.identity_element(2))
    with pytest.raises(ValueError, match="rank mismatch: 2 vs 3"):
        c.mul(c.identity_element(2), c.identity_element(3))


# --- canonical bijection against the affine-permutation model ---------------

@pytest.mark.parametrize("n,max_len", [(2, 8), (3, 6)])
def test_canonical_bijection_small(n, max_len):
    words = perms.bfs_reduced_words(n, max_len)
    seen = set()
    for win, letters in words.items():
        e = c.canonicalize(Word(n, letters))
        assert c.validate_block(e.pairs, n)
        assert fin.validate_finite(e.bricks, n)
        assert c.length(e) == len(letters)
        ew = c.element_word(e)
        assert len(ew.letters) == len(letters)
        assert is_reduced(ew)
        assert perms.to_permutation(ew.letters, n) == win
        key = (e.pairs, e.bricks)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("n", [2, 3])
def test_random_words_canonicalize(n):
    rng = random.Random(17 + n)
    for _ in range(250):
        letters = tuple(rng.randrange(0, n + 1) for _ in range(rng.randint(0, 16)))
        e = c.canonicalize(Word(n, letters))
        win = perms.to_permutation(letters, n)
        assert perms.to_permutation(c.element_word(e).letters, n) == win
        assert c.length(e) == perms.perm_length(win)


# --- the left-multiplication trichotomy on blocks ---------------------------

def entry_diff(old, new):
    """Positions where two equal-length pair tuples differ."""
    return [k for k, (p, q) in enumerate(zip(old, new)) if p != q]


@pytest.mark.parametrize("n", [2, 3])
def test_block_trichotomy(n):
    gens = tuple(range(1, n + 1)) + (perms.AFFINE,)
    for pairs in all_blocks(n, 2):
        if not pairs:
            continue
        w_a = block_perm(pairs, n)
        lw = perms.perm_length(w_a)
        for s in gens:
            out = c.left_mul_block(s, pairs, n)
            s_w = perms.compose(perms.to_permutation((s,), n), w_a)
            if isinstance(out, c.Absorbed):
                assert 1 <= out.v <= n
                tgt = perms.compose(w_a, perms.to_permutation((out.v,), n))
                assert s_w == tgt
                assert perms.perm_length(s_w) == lw + 1
            else:
                assert c.validate_block(out.pairs, n)
                assert s_w == block_perm(out.pairs, n)
                assert abs(perms.perm_length(s_w) - lw) == 1
                if len(out.pairs) == len(pairs) - 1:
                    assert out.pairs == pairs[1:]
                elif len(out.pairs) == len(pairs) + 1:
                    assert out.pairs == ((n + 1, 0),) + pairs
                else:
                    ks = entry_diff(pairs, out.pairs)
                    assert len(ks) == 1
                    (jo, io), (jn, in_) = pairs[ks[0]], out.pairs[ks[0]]
                    assert abs(jo - jn) + abs(io - in_) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_block_descents(n):
    """R(pure block) = {a}; L(single-pair block) matches the closed form."""
    for pairs in all_blocks(n, 2):
        if not pairs:
            continue
        e = c.Element(n, pairs, ())
        assert c.right_descents(e) == {perms.AFFINE}
        if len(pairs) == 1:
            j, i = pairs[0]
            sigma_left = c.left_descents(e) - {perms.AFFINE}
            assert sigma_left == c.block_left_descents(j, i, n)


# --- descent sets vs the window model ---------------------------------------

def sample_word(n, rng, max_len):
    """A random word of at most max_len letters; from rank 4 on a reduced
    one, so the element is as long as the word."""
    size = rng.randint(0, max_len)
    if n <= 3:
        return tuple(rng.randrange(0, n + 1) for _ in range(size))
    return perms.random_reduced_word(n, size, rng)


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_descents_against_windows(n):
    rng = random.Random(23 + n)
    gens = tuple(range(1, n + 1)) + (perms.AFFINE,)
    count, max_len = (60, 12) if n <= 3 else (20, 300)
    for _ in range(count):
        letters = sample_word(n, rng, max_len)
        e = c.canonicalize(Word(n, letters))
        w = perms.to_permutation(letters, n)
        lw = perms.perm_length(w)
        want_r = {
            s for s in gens
            if perms.perm_length(perms.compose(w, perms.to_permutation((s,), n))) < lw
        }
        want_l = {
            s for s in gens
            if perms.perm_length(perms.compose(perms.to_permutation((s,), n), w)) < lw
        }
        assert c.right_descents(e) == want_r
        assert c.left_descents(e) == want_l


@pytest.mark.parametrize("n", [2, 3, 4])
def test_right_descents_of_finite_part(n):
    """sigma_i is in R(w) exactly when it is a right descent of the finite
    part x, i.e. x(i) > x(i+1) in the window of x."""
    for letters in perms.bfs_reduced_words(n, 6).values():
        e = c.canonicalize(Word(n, letters))
        x = perms.to_permutation(fin.finite_word(e.bricks, n).letters, n)
        want = {i for i in range(1, n + 1) if x[i - 1] > x[i]}
        assert c.right_descents(e) - {perms.AFFINE} == want


# --- group operations -------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_mul_inverse(n):
    rng = random.Random(31 + n)
    count, max_len = (50, 10) if n <= 3 else (20, 300)
    for _ in range(count):
        a = sample_word(n, rng, max_len)
        b = sample_word(n, rng, max_len)
        ea, eb = c.canonicalize(Word(n, a)), c.canonicalize(Word(n, b))
        prod = c.mul(ea, eb)
        wa = perms.to_permutation(a, n)
        wb = perms.to_permutation(b, n)
        assert perms.to_permutation(c.element_word(prod).letters, n) == perms.compose(wa, wb)
        inv = c.inverse(ea)
        assert c.mul(ea, inv) == c.identity_element(n)
        assert c.inverse(inv) == ea
    e = c.identity_element(n)
    assert c.mul(e, e) == e
    assert c.right_descents(e) == set() and c.left_descents(e) == set()


# --- affine-length-1 deficiency cases ---------------------------------------

def all_first_pairs(n):
    return [
        (j, i)
        for j in range(1, n + 2)
        for i in range(0, n)
        if c.validate_block(((j, i),), n)
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_deficiency_m1_exhaustive(n):
    for j1, i1 in all_first_pairs(n):
        for r in range(1, n + 2):
            for i in range(0, n):
                h = HPrefix(r, i)
                try:
                    fin.check_hprefix(h, n)
                except ValueError:
                    continue
                if (r, i) == (n + 1, 0):
                    continue
                letters = (
                    c.block_word(((j1, i1),), n).letters
                    + fin.h_word(h, n)
                    + (perms.AFFINE,)
                )
                w = Word(n, letters)
                case = c.deficiency_m1((j1, i1), h, n)
                assert (case is None) == is_reduced(w), (n, (j1, i1), (r, i))
                if fin.h_is_extremal(h, n):
                    assert case is None
                if case is not None:
                    assert case.position == hat_partner(w)
                    assert case.position < n - j1 + 1 + i1  # inside h(j1,i1)
                    trimmed = letters[: case.position] + letters[case.position + 1 : -1]
                    assert perms.to_permutation(trimmed, n) == perms.to_permutation(letters, n)


def test_deficiency_m1_examples():
    case = c.deficiency_m1((4, 2), HPrefix(4, 2), 3)
    assert case == c.DescentCase("1", 0)  # the sigma_2 opening h(4,2)
    case = c.deficiency_m1((1, 1), HPrefix(2, 0), 3)
    assert case == c.DescentCase("4", 0)  # the leftmost sigma_1
    with pytest.raises(ValueError):
        c.deficiency_m1((4, 0), HPrefix(4, 0), 3)


# --- affine-length-2 case list ----------------------------------------------

def parabolic_elements(n):
    out = [()]
    if n >= 3:
        # enough to witness independence from the parabolic factor
        out.append(fin.from_window(perms.to_permutation((2,), n)))
    return [p for p in out if fin.in_parabolic(p, n)]


@pytest.mark.parametrize("n", [2, 3])
def test_affine_descent_cases_m2_exhaustive(n):
    blocks2 = [b for b in all_blocks(n, 2) if len(b) == 2]
    assert blocks2
    for pairs in blocks2:
        for r in range(1, n + 2):
            for i in range(0, n):
                h = HPrefix(r, i)
                try:
                    fin.check_hprefix(h, n)
                except ValueError:
                    continue
                for p in parabolic_elements(n):
                    x = c.mul(c.Element(n, (), fin.h_element(h, n)),
                              c.Element(n, (), p)).bricks
                    hx, px = fin.peel_h(x, n)
                    assert hx == h  # the prefix really is h
                    e = c.canonicalize(
                        Word(n, c.block_word(pairs, n).letters + fin.finite_word(x, n).letters)
                    )
                    assert e.pairs == pairs
                    case = c.affine_descent_cases_m2(pairs, h, n)
                    has_a = perms.AFFINE in c.right_descents(e)
                    assert (case is not None) == has_a, (n, pairs, (r, i), p)
                    if case is not None:
                        wa = Word(n, c.element_word(e).letters + (perms.AFFINE,))
                        assert not is_reduced(wa)
                        assert hat_partner(wa) == case.position
                        if case.case == "x4":
                            # the residual family has exactly this shape
                            assert i == 1 and 3 <= r <= n
                            assert case.position < n - pairs[0][0] + 1  # in |j1,n|


def test_affine_descent_cases_m2_examples():
    # extremal prefix sigma_3 sigma_1 after the block [(2,1),(2,1)]
    case = c.affine_descent_cases_m2(((2, 1), (2, 1)), HPrefix(3, 1), 3)
    assert case is not None and case.case == "x1"
    assert case.position == len(fin.h_word(HPrefix(2, 1), 3))  # the first a
    # trivial prefix: the pure block always has a as a right descent
    case = c.affine_descent_cases_m2(((3, 0), (2, 1)), HPrefix(3, 0), 2)
    assert case is not None and case.case == "0"
    with pytest.raises(ValueError):
        c.affine_descent_cases_m2(((3, 0),), HPrefix(3, 0), 2)


def test_affine_descent_cases_m2_one_reflection_pass(monkeypatch):
    """The residual family decides reducedness and the hat partner from one
    reflection sequence: its proper prefix is always reduced."""
    from affcox import words  # the module; a local `words` is a dict above
    calls = []
    orig = words.reflection_sequence

    def counting(w):
        calls.append(w)
        return orig(w)

    monkeypatch.setattr(words, "reflection_sequence", counting)
    x4 = 0
    for n in range(2, 6):
        prefixes = []
        for r in range(1, n + 2):
            for i in range(n):
                try:
                    fin.check_hprefix(HPrefix(r, i), n)
                except ValueError:
                    continue
                prefixes.append(HPrefix(r, i))
        for pairs in all_blocks(n, 2):
            if len(pairs) != 2:
                continue
            for h in prefixes:
                del calls[:]
                case = c.affine_descent_cases_m2(pairs, h, n)
                assert len(calls) <= 1, (n, pairs, h)
                x4 += case is not None and case.case == "x4"
    assert x4


# --- ordering, formatting, JSON ---------------------------------------------

def test_sort_key_orders_by_length_first():
    ws = [
        c.canonicalize(Word(2, ())),
        c.canonicalize(Word(2, (1,))),
        c.canonicalize(Word(2, (0,))),
        c.canonicalize(Word(2, (1, 2))),
    ]
    ordered = sorted(ws, key=c.sort_key)
    assert [c.length(e) for e in ordered] == sorted(c.length(e) for e in ws)


def test_format_parse_round_trip():
    e = c.canonicalize(parse_word("a s2 s1 a s1 s2 a", 2))
    text = c.format_element(e)
    assert text == "h(2,0) a h(1,1) a | [2,2]"
    assert c.parse_element(text, 2) == e

    assert c.format_element(c.identity_element(3)) == "1"
    for blank in ("1", "", "|", "  "):
        assert c.parse_element(blank, 3) == c.identity_element(3)

    pure = c.Element(2, ((3, 0),), ())
    assert c.format_element(pure) == "h(3,0) a |"
    assert c.parse_element("h(3,0) a |", 2) == pure
    assert c.parse_element("h(3,0) a", 2) == pure

    finite_only = c.make_element(3, (), ((1, 2), (1, 1)))
    assert c.format_element(finite_only) == "| [1,2] [1,1]"
    assert c.parse_element("| [1,2] [1,1]", 3) == finite_only

    # the bar is optional: pairs first, then bricks
    assert c.parse_element("[1,2] [1,1]", 3) == finite_only
    both = c.Element(2, ((3, 0),), ((1, 1),))
    assert c.format_element(both) == "h(3,0) a | [1,1]"
    for text in ("h(3,0) a [1,1]", "h(3,0) a|[1,1]"):
        assert c.parse_element(text, 2) == both


def test_parse_errors():
    with pytest.raises(ValueError):
        c.parse_element("h(3,0) |", 2)  # missing the a
    with pytest.raises(ValueError):
        c.parse_element("x(3,0) a |", 2)
    with pytest.raises(ValueError):
        c.parse_element("| (1,2)", 3)
    with pytest.raises(ValueError, match="expected \\[i,j\\], got 'h\\(3,0\\)'"):
        c.parse_element("[1,1] h(3,0) a", 2)  # bricks before pairs
    for two_bars in ("h(3,0) a | [1,1] | [1,1]", "h(3,0) a | |", "| [1,1] |"):
        with pytest.raises(ValueError):
            c.parse_element(two_bars, 2)


def test_json_round_trip():
    e = c.canonicalize(parse_word("s3 a s3 s1 a", 3))
    obj = c.to_json(e)
    assert obj == {"pairs": [[4, 0], [3, 1]], "bricks": [[1, 1]]}
    assert c.from_json(obj, 3) == e
    assert c.from_json({"pairs": [], "bricks": []}, 2) == c.identity_element(2)
    # the lengths of the CLI's JSON output are read back and checked
    assert c.from_json({**obj, "l": 5, "L": 2}, 3) == e
    for bad in ({"pair": [[4, 0]]}, {**obj, "brick": []}, {**obj, "l": 4},
                {**obj, "L": 3}, {**obj, "l": "5"}):
        with pytest.raises(ValueError):
            c.from_json(bad, 3)
