"""Canonical-form engine: left multiplication, block trichotomy, descents."""

import copy
import itertools
import pickle
import random
import re
import sys

import pytest

from affcox import canonical as c
from affcox import finite as fin
from affcox import perms
from affcox.finite import HPrefix
from affcox.words import Word, hat_partner, is_reduced, parse_word
from harness import record_calls
from oracles import finite_word, random_reduced_word


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
    assert c.canonicalize(Word(2, ())) == c.identity_element(2)


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


def planted(n, pairs, bricks):
    """An Element made by _trusted, which only the library may call, whose
    window the decoder patched by `plant` reads as (pairs, bricks), as if
    a bug had decoded it so: pickle and copy rebuild it from its rank and
    form."""
    return c.Element._trusted(n, ("planted", pairs, bricks))


def plant(monkeypatch):
    """Patch the decoder to read a planted window as the form it carries,
    and every other window as before."""
    peel = c._peel
    monkeypatch.setattr(c, "_peel", lambda win: win[1:] if win[0] == "planted" else peel(win))


# an Element is checked when it is made, by every route; pickle and copy
# rebuild an Element by the checked constructor
ELEMENT_ROUTES = {
    "Element": c.Element,
    "_make": lambda *fields: c.Element._make(fields),
    "copy": lambda *fields: copy.copy(planted(*fields)),
    "deepcopy": lambda *fields: copy.deepcopy(planted(*fields)),
    "pickle": lambda *fields: pickle.loads(pickle.dumps(planted(*fields))),
}

BAD_ELEMENTS = [
    ((3, ((4, 0), (4, 1)), ()), "pairwise inequalities violated: ((4, 0), (4, 1))"),
    ((3, ((9, 9),), ()), "pairwise inequalities violated: ((9, 9),)"),
    ((3, (), ((1, 5),)), "invalid finite canonical form: ((1, 5),)"),
    ((3, (), ((5, 1),)), "invalid finite canonical form: ((5, 1),)"),
    ((1, (), ()), "rank must be an integer >= 2, got 1"),
    ((1.5, (), ()), "rank must be an integer >= 2, got 1.5"),
    ((True, (), ()), "rank must be an integer >= 2, got True"),
    ((3, "ab", ()), "pairs must be a list of integer pairs, got 'ab'"),
    ((3, [(1.0, 0)], ()), "pairs must be a list of integer pairs, got [(1.0, 0)]"),
]


def test_element_rejects_by_every_route(monkeypatch):
    plant(monkeypatch)
    good = (3, ((4, 0), (3, 1)), ((1, 2), (1, 1)))
    window = perms.to_permutation(c.element_word(c.Element(*good)).letters, 3)
    for route, make in ELEMENT_ROUTES.items():
        e = make(*good)
        assert type(e) is c.Element and e == (3, window), route
        assert (e.n, e.pairs, e.bricks) == good, route
        for fields, message in BAD_ELEMENTS:
            with pytest.raises(ValueError) as exc:
                make(*fields)
            assert str(exc.value) == message, (route, fields)
    # _replace passes the fields (n, window) where the constructor takes
    # (n, pairs, bricks), as a _make of four fields passes four: TypeError
    e = c.Element(*good)
    for route in (lambda: e._replace(n=3), lambda: e._replace(window=window),
                  lambda: c.Element._make((*good, window))):
        with pytest.raises(TypeError):
            route()
    # lists of pairs come back as tuples of tuples
    e = c.Element(3, [[4, 0]], [[1, 1]])
    assert (e.n, e.pairs, e.bricks) == (3, ((4, 0),), ((1, 1),))


def test_operation_input_errors():
    with pytest.raises(ValueError, match="letter 5 invalid at rank 2"):
        c.left_mul(5, c.identity_element(2))
    # the engine checks the letter's range and type on entry, on any block
    for s, pairs in ((7, ()), (7, ((3, 0),)), (1.5, ((3, 0),))):
        with pytest.raises(ValueError, match="invalid at rank 2"):
            c.left_mul_block(s, pairs, 2)
    with pytest.raises(ValueError, match="letter 1.5 invalid at rank 2"):
        c.left_mul(1.5, c.identity_element(2))
    with pytest.raises(ValueError, match="rank mismatch: 2 vs 3"):
        c.mul(c.identity_element(2), c.identity_element(3))
    # a pair or prefix that is not a pair is refused by rule, not unpacked
    with pytest.raises(ValueError, match=r"^an h-prefix is a pair \(r, i\), got None$"):
        c.deficiency_m1((3, 1), None, 3)
    with pytest.raises(ValueError, match="^invalid first pair None at rank 3$"):
        c.deficiency_m1(None, (2, 0), 3)
    with pytest.raises(ValueError, match="^invalid first pair \\(3, 1, 0\\) at rank 3$"):
        c.deficiency_m1((3, 1, 0), (2, 0), 3)
    with pytest.raises(ValueError, match=r"^an h-prefix is a pair \(r, i\), got None$"):
        c.affine_descent_cases_m2(((3, 1), (2, 1)), None, 3)
    # each checks the rank before it uses it
    for n in (None, 1.5, True, 1):
        want = "^rank must be an integer >= 2, got %s$" % re.escape(repr(n))
        for call in (lambda: c.deficiency_m1((3, 1), (2, 0), n),
                     lambda: c.affine_descent_cases_m2(((3, 1), (2, 1)), (3, 0), n),
                     lambda: c.left_mul_block(1, (), n)):
            with pytest.raises(ValueError, match=want):
                call()


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


# --- canonicalize's input: the window of its word ---------------------------

@pytest.mark.parametrize("w,want", [
    ((2, (1.5,)), "letter 1.5 invalid at rank 2"),
    ((2, (True,)), "letter True invalid at rank 2"),
    ((2, (7,)), "letter 7 invalid at rank 2"),
    ((1, ()), "rank must be an integer >= 2, got 1"),
    ((2, (-1,)), "letter -1 invalid at rank 2"),
    ((2, (None,)), "letter None invalid at rank 2"),
    ((2, ([1],)), "letter [1] invalid at rank 2"),
    # the first bad letter in word order, whatever its type or hashability
    ((2, (0, 3, 1.0)), "letter 3 invalid at rank 2"),
    ((2, (1, 1.0)), "letter 1.0 invalid at rank 2"),
    ((2, (2, 1, 0, True, 1)), "letter True invalid at rank 2"),
    ((2, (0, 1, [1], 3)), "letter [1] invalid at rank 2"),
    ((1.5, ()), "rank must be an integer >= 2, got 1.5"),
    ((True, ()), "rank must be an integer >= 2, got True"),
    ((1, (7,)), "rank must be an integer >= 2, got 1"),
])
def test_canonicalize_rejects_bad_input(w, want):
    # w is (rank, letters): a Word is checked when it is made, so the bad
    # one is refused where it is built, inside the check
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        c.canonicalize(Word(*w))


def test_canonicalize_reads_an_iterator_of_letters_once():
    # the Word reads its letters into a tuple when it is made, so the fold
    # sees them: the element of s1 s2, not the identity
    assert Word(3, iter((1, 2))).letters == (1, 2)
    assert c.canonicalize(Word(3, iter((1, 2)))).bricks == ((1, 2),)
    assert c.canonicalize(Word(3, iter((1, 2)))) == c.canonicalize(Word(3, (1, 2)))


def test_canonicalize_does_not_call_the_window_model(monkeypatch):
    """The library's path is independent of the judge: with every binding of
    perms.to_permutation and perms.right_mul made to raise, canonicalize
    still returns the element the window model decodes."""
    rng = random.Random(10)
    words = [Word(10, random_reduced_word(10, 400, rng)),
             Word(10, tuple(rng.randrange(11) for _ in range(400)))]
    want = [c.from_window(perms.to_permutation(w.letters, w.n)) for w in words]

    def judge_only(*args):
        raise AssertionError("the window model was called on the library path")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("affcox"):
            for name in ("to_permutation", "right_mul"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, judge_only)
    assert [c.canonicalize(w) for w in words] == want


def long_words():
    """A 3,000-letter reduced word at n = 30 (m = 73), c^2000 at n = 3 and a
    3,000-letter cancelling word at n = 30."""
    rng = random.Random(1)
    yield Word(30, random_reduced_word(30, 3000, rng))
    yield Word(3, (1, 2, 3, perms.AFFINE) * 2000)
    yield Word(30, tuple(rng.randrange(31) for _ in range(3000)))


@pytest.mark.parametrize("w", long_words(), ids=["reduced-n30", "ck-n3", "cancelling-n30"])
def test_canonicalize_long_words_by_letter_expansion(w):
    e = c.canonicalize(w)
    win = perms.to_permutation(w.letters, w.n)
    # canonicalize's in-place fold against the judge's tuple fold
    assert tuple(c.word_window(w)) == win
    assert perms.to_permutation(c.element_word(e).letters, w.n) == win
    assert c.length(e) == perms.perm_length(win)
    assert c.affine_length(e) == perms.affine_length(win)


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
    return random_reduced_word(n, size, rng)


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
        x = perms.to_permutation(finite_word(e.bricks, n).letters, n)
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
        pairs, bricks = c._peel(prod.window)
        letters = c.block_word(pairs, n).letters + finite_word(bricks, n).letters
        assert perms.to_permutation(letters, n) == perms.compose(wa, wb)
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
    # a prefix or a first pair that does not exist at the rank
    for first, second in (((3, 0), (0, 5)), ((3, 0), (4, 0)), ((0, 1), (2, 0))):
        with pytest.raises(ValueError):
            c.deficiency_m1(first, second, 2)
    # the indices are ints: a float or bool would give a position or None
    for first, second, msg in (((1.5, 0), (2, 0), "invalid first pair"),
                               ((True, 0), (2, 0), "invalid first pair"),
                               ((3, 1), (2.5, 0), r"invalid h\(2.5,0\) at rank 3"),
                               ((3, 1), (4, False), "invalid h")):
        with pytest.raises(ValueError, match=msg):
            c.deficiency_m1(first, second, 3)


# --- affine-length-2 case list ----------------------------------------------

def parabolic_elements(n):
    out = [()]
    if n >= 3:
        # enough to witness independence from the parabolic factor
        out.append(c.from_window(perms.to_permutation((2,), n)).bricks)
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
                        Word(n, c.block_word(pairs, n).letters + finite_word(x, n).letters)
                    )
                    assert e.pairs == pairs
                    case = c.affine_descent_cases_m2(pairs, h, n)
                    has_a = perms.AFFINE in c.right_descents(e)
                    assert (case is not None) == has_a, (n, pairs, (r, i), p)
                    wa = Word(n, c.element_word(e).letters + (perms.AFFINE,))
                    win = perms.to_permutation(wa.letters, n)
                    assert (case is None) == (perms.perm_length(win) == len(wa))
                    if case is not None:
                        assert not is_reduced(wa)
                        assert hat_partner(wa) == case.position
                        # deleting the hat partner and the final a keeps the element
                        hatted = wa.letters[:case.position] + wa.letters[case.position + 1:-1]
                        assert perms.to_permutation(hatted, n) == win
                        if case.case == "x4":
                            # the residual family has exactly this shape
                            assert i == 1 and 3 <= r <= n
                            assert case.position < n - pairs[0][0] + 1  # in |j1,n|


@pytest.mark.parametrize("n", [4, 5])
def test_affine_descent_cases_m2_is_the_window_descent(n):
    """Past the exhaustive ranks, every 2-pair block and h-prefix: a case
    exactly when a is a right descent of block . h(r,i), read off its
    window, and deleting the case's position and the final a keeps the
    element."""
    prefixes = [h for h in (HPrefix(r, i) for r in range(1, n + 2) for i in range(n))
                if fin.hprefix_ok(h, n)]
    for pairs in all_blocks(n, 2):
        if len(pairs) != 2:
            continue
        for h in prefixes:
            case = c.affine_descent_cases_m2(pairs, h, n)
            e = c.Element(n, pairs, fin.h_element(h, n))
            assert (case is not None) == (perms.AFFINE in c.right_descents(e)), (pairs, h)
            if case is not None:
                wa = c.element_word(e).letters + (perms.AFFINE,)
                hatted = wa[:case.position] + wa[case.position + 1:-1]
                assert perms.to_permutation(hatted, n) == perms.to_permutation(wa, n)


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
    # a prefix that does not exist at rank 2, and two pairs that are no block
    for pairs, h in ((((3, 0), (2, 1)), (9, 9)), (((1, 1), (3, 0)), (3, 0))):
        with pytest.raises(ValueError):
            c.affine_descent_cases_m2(pairs, h, 2)
    # the indices are ints: each of these gave case x1
    with pytest.raises(ValueError, match=r"invalid h\(3.0,1\) at rank 3"):
        c.affine_descent_cases_m2(((3, 1), (2, 1)), (3.0, 1), 3)
    with pytest.raises(ValueError, match="pairs must be a list of integer pairs"):
        c.affine_descent_cases_m2(((3, 1), (2.0, 1)), (3, 1), 3)


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


def test_affine_descent_cases_m2_checks_once_and_encodes_nothing(monkeypatch):
    """On the inputs of the exhaustive test, the case list checks the rank,
    the pairs (`int_pairs`) and the block (`validate_block`) once, builds
    no Element and encodes no window; the prefix check trusts the checked
    rank (finite.check_hprefix_at).  The x4 family spells its word from
    the checked prefix, so every input makes the same calls.  The m = 1
    case list, on its exhaustive inputs, checks the rank once too."""
    inputs, inputs_m1 = [], []
    for n in (2, 3):
        prefixes = [HPrefix(r, i) for r in range(1, n + 2) for i in range(n)
                    if fin.hprefix_ok((r, i), n)]
        inputs += [(pairs, h, n) for pairs in all_blocks(n, 2) if len(pairs) == 2
                   for h in prefixes]
        inputs_m1 += [(first, h, n) for first in all_first_pairs(n)
                      for h in prefixes if h != (n + 1, 0)]
    calls = record_calls(monkeypatch, "_encode", "check_rank", "int_pairs", "validate_block")
    cases = set()
    for args in inputs:
        del calls[:]
        case = c.affine_descent_cases_m2(*args)
        assert calls == ["check_rank", "int_pairs", "validate_block"], args
        cases.add(case and case.case)
    assert {None, "0", "1", "x1", "x4"} <= cases  # every branch counted
    cases = set()
    for args in inputs_m1:
        del calls[:]
        case = c.deficiency_m1(*args)
        assert calls == ["check_rank"], args
        cases.add(case and case.case)
    assert cases == {None, "1", "2", "3", "4"}
    c.Element(3, ((3, 1), (2, 1)), ())
    assert "_encode" in calls  # the counters are live


# Bad inputs of the m <= 2 case lists, each with the error it raises when
# it is the only bad argument (every message at rank 3).  The checks run in
# argument order: rank, then the pairs (type, inequalities, count: the
# order and messages of Element's checks), then the prefix.
BAD_RANKS = [(None, ValueError, "rank must be an integer >= 2, got None"),
             (1.5, ValueError, "rank must be an integer >= 2, got 1.5"),
             (True, ValueError, "rank must be an integer >= 2, got True"),
             (1, ValueError, "rank must be an integer >= 2, got 1"),
             (perms.MAX_RANK + 1, RuntimeError, "rank %d is past the limit of %d"
              % (perms.MAX_RANK + 1, perms.MAX_RANK))]
BAD_BLOCKS = [(pairs, ValueError, msg) for pairs, msg in (
    ("ab", "pairs must be a list of integer pairs, got 'ab'"),
    (None, "pairs must be a list of integer pairs, got None"),
    ([(1.0, 0)], "pairs must be a list of integer pairs, got [(1.0, 0)]"),
    (((3, 1), (2.0, 1)), "pairs must be a list of integer pairs, got ((3, 1), (2.0, 1))"),
    (((3, 1, 0), (2, 1)), "pairs must be a list of integer pairs, got ((3, 1, 0), (2, 1))"),
    (((4, 0), (4, 1)), "pairwise inequalities violated: ((4, 0), (4, 1))"),
    (((9, 9),), "pairwise inequalities violated: ((9, 9),)"),
    ([[1, 1], [3, 0]], "pairwise inequalities violated: ((1, 1), (3, 0))"),
    (((3, 0),), "the case list applies to blocks with exactly 2 pairs"),
    ((), "the case list applies to blocks with exactly 2 pairs"),
    (((4, 0), (3, 1), (2, 1)), "the case list applies to blocks with exactly 2 pairs"))]
BAD_FIRSTS = [(first, ValueError, "invalid first pair %r at rank 3" % (first,))
              for first in (None, (3, 1, 0), (1.5, 0), (True, 0), (0, 1), (5, 0), (3, 3))]
BAD_PREFIXES = [(h, ValueError, msg) for h, msg in (
    (None, "an h-prefix is a pair (r, i), got None"),
    ((1, 2, 3), "an h-prefix is a pair (r, i), got (1, 2, 3)"),
    ((9, 9), "invalid h(9,9) at rank 3"),
    ((3.0, 1), "invalid h(3.0,1) at rank 3"),
    ((2.5, 0), "invalid h(2.5,0) at rank 3"),
    ((4, False), "invalid h(4,False) at rank 3"),
    ((0, 5), "invalid h(0,5) at rank 3"))]


def _first_error(call, *choices):
    """Each argument good or one of its bad values, at least one bad: the
    call raises the error of the first bad argument."""
    for picks in itertools.product(*choices):
        bad = [p for p in picks if p[1] is not None]
        if not bad:
            continue
        _, cls, msg = bad[0]
        with pytest.raises(Exception) as exc:
            call(*(p[0] for p in picks))
        assert (type(exc.value), str(exc.value)) == (cls, msg), picks


def test_case_lists_raise_in_argument_order():
    # (value, None, None) is a good argument
    ranks = [(3, None, None)] + BAD_RANKS
    _first_error(lambda n, pairs, h: c.affine_descent_cases_m2(pairs, h, n), ranks,
                 [(((3, 1), (2, 1)), None, None)] + BAD_BLOCKS,
                 [((3, 1), None, None)] + BAD_PREFIXES)
    identity = ((4, 0), ValueError, "second prefix must not be the identity")
    _first_error(lambda n, first, h: c.deficiency_m1(first, h, n), ranks,
                 [((3, 1), None, None)] + BAD_FIRSTS,
                 [((2, 0), None, None)] + BAD_PREFIXES + [identity])


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

    finite_only = c.Element(3, (), ((1, 2), (1, 1)))
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
    # indices are ASCII decimal digits, as in word syntax (s<k>): no sign,
    # no underscore, no other script's digits
    for tok in ("h(1_0,0)", "h(+3,0)", "h(\u0663,0)", "h(-1,0)"):
        want = r"^expected h\(j,i\), got %s$" % re.escape(repr(tok))
        with pytest.raises(ValueError, match=want):
            c.parse_element(tok + " a", 10)
    for tok in ("[+1,1]", "[1,\uff11]", "[1_1,1]"):
        with pytest.raises(ValueError, match=r"^expected \[i,j\], got "):
            c.parse_element("h(3,0) a | " + tok, 10)
    for text in (None, b"s1", 1, ["s1"]):  # text is a str, or a ValueError
        with pytest.raises(ValueError, match="^text must be a str, got "):
            c.parse_element(text, 3)


def test_json_round_trip():
    e = c.canonicalize(parse_word("s3 a s3 s1 a", 3))
    obj = c.to_json(e)
    assert obj == {"pairs": [[4, 0], [3, 1]], "bricks": [[1, 1]]}
    assert c.from_json(obj, 3) == e
    assert c.from_json({"pairs": [], "bricks": []}, 2) == c.identity_element(2)
    # the lengths of the CLI's JSON output are read back and checked
    assert c.from_json({**obj, "l": 5, "L": 2}, 3) == e
    for bad in ({"pair": [[4, 0]]}, {**obj, "brick": []}, {**obj, "l": 4},
                {**obj, "L": 3}, {**obj, "l": "5"}, [], "{}"):
        with pytest.raises(ValueError):
            c.from_json(bad, 3)
