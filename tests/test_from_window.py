"""The window decoder: canonical forms read off windows, checked against the
letter fold (`oracles.letter_fold`) and the window model, and its guards."""

import random
from bisect import bisect_left
from itertools import chain

import pytest

from affcox import canonical as c
from affcox import finite as fin
from affcox import perms
from affcox.words import Word
from harness import run_python
from oracles import letter_fold, pair_peel, random_block, random_reduced_word, ranked_level_code


def decode_agrees(n, letters):
    """from_window of the oracle window equals the letter fold, and the
    encoder gives the oracle window back."""
    win = perms.to_permutation(letters, n)
    e = c.from_window(win)
    assert e == letter_fold(Word(n, letters)), (n, letters)
    assert c._encode(*e[:3]) == e.window == win
    return e


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_from_window_matches_canonicalize_on_balls(n):
    for win, word in perms.bfs_reduced_words(n, 8).items():
        e = c.from_window(win)
        assert e == c.canonicalize(Word(n, word)) == letter_fold(Word(n, word)), (win, word)
        assert c.length(e) == len(word)
        assert perms.affine_length(win) == len(e.pairs)


@pytest.mark.parametrize("seed", range(4))
def test_from_window_on_long_reduced_words(seed):
    rng = random.Random(800 + seed)
    for _ in range(3):
        n = rng.randint(2, 30)
        letters = random_reduced_word(n, rng.randint(200, 2000), rng)
        assert c.length(decode_agrees(n, letters)) == len(letters)


@pytest.mark.parametrize("n", [2, 3, 6, 12, 30])
def test_affine_length_counts_the_pairs_on_long_words(n):
    rng = random.Random(1400 + n)
    win = perms.to_permutation(random_reduced_word(n, 3000, rng), n)
    e = c.from_window(win)
    assert perms.affine_length(win) == len(e.pairs)
    assert c.length(e) == 3000


def peel_windows():
    """Windows for the run peel against the pair peel: the balls (n 2-4 to
    length 8, n = 5 to length 7), c^k for k up to 10^4, and the windows of
    random blocks (m up to 1,000) with random bricks."""
    for n, l in ((2, 8), (3, 8), (4, 8), (5, 7)):
        yield from perms.bfs_reduced_words(n, l)
    for n in (2, 3, 6, 10, 30):
        for k in (1, 2, 3, 7, 50, 333, 10 ** 4):
            yield c.word_window(Word(n, (tuple(range(1, n + 1)) + (perms.AFFINE,)) * k))
    rng = random.Random(30)
    for _ in range(150):
        n = rng.choice([2, 3, 4, 6, 10])
        bricks = tuple((rng.randint(1, j), j) for j in range(n, 0, -1) if rng.random() < 0.5)
        m = round(1000 ** rng.random())
        yield c.Element(n, random_block(n, m, rng), bricks).window


def wide_windows():
    """Windows of the shapes the canon-wide benchmark decodes, at its ranks:
    w0 a w0, finite-heavy words (reduced W(A_n) segments between single
    a's), cancelling random words of 4n-16n letters, and c^k."""
    rng = random.Random(35)
    for n in (8, 12, 16, 20, 24):
        w0 = c.element_word(c.Element(n, (), tuple((1, j) for j in range(n, 0, -1)))).letters
        yield c.word_window(Word(n, w0 + (perms.AFFINE,) + w0))
    for n in (10, 16, 24):
        for _ in range(6):
            letters = ()
            for k in range(rng.randint(2, 4)):
                bricks = tuple((rng.randint(1, j), j) for j in range(n, 0, -1)
                               if rng.random() < 0.5)
                letters += (perms.AFFINE,) * (k > 0) + c.element_word(
                    c.Element(n, (), bricks)).letters
            yield c.word_window(Word(n, letters))
            yield c.word_window(Word(n, [rng.randrange(n + 1)
                                         for _ in range(rng.randint(4 * n, 16 * n))]))
        for k in (1, 5, 40):
            yield c.word_window(Word(n, (tuple(range(1, n + 1)) + (perms.AFFINE,)) * k))


def runs(pairs):
    return sum(1 for k, p in enumerate(pairs) if k == 0 or p != pairs[k - 1])


def test_run_peel_is_the_pair_peel(monkeypatch):
    """_peel continues each run of equal pairs by comparisons: it equals the
    one-pair-at-a-time oracle and bisects exactly twice per run.  It takes
    x and the sorted window u from one walk, `finite.level_walk`: it calls
    no `sorted`, the walk bisects once per entry (n+1 times), and the
    walk's two results are sorted(win) and the level code by ranks."""
    def no_sort(*args, **kwargs):
        raise AssertionError("_peel sorted a window")
    walk, bisections = [], []
    monkeypatch.setattr(fin, "bisect_left", lambda u, v: walk.append(v) or bisect_left(u, v))
    monkeypatch.setattr(c, "bisect_left", lambda u, v: bisections.append(v) or bisect_left(u, v))
    monkeypatch.setattr(c, "sorted", no_sort, raising=False)
    for win in chain(peel_windows(), wide_windows()):
        del walk[:], bisections[:]
        e = c._peel(win)
        assert len(walk) == len(win), win
        assert len(bisections) == 2 * runs(e.pairs), win
        assert e == pair_peel(win), win
        bricks, u = fin.level_walk(win)
        assert u == sorted(win) and bricks == ranked_level_code(win) == e.bricks, win


@pytest.mark.parametrize("delta", [-1, 1])
def test_decoder_raises_when_the_peel_count_is_wrong(monkeypatch, delta):
    true_count = perms.affine_length
    monkeypatch.setattr(perms, "affine_length", lambda w: true_count(w) + delta)
    win = perms.to_permutation((1, 2, 0) * 3, 3)
    with pytest.raises(c.InvariantError):
        c.from_window(win)


@pytest.mark.parametrize("letters", [(1, 2, 3, 0) * 3, (1, 2, 3, 1, 0) * 3])
def test_a_run_stops_at_the_peel_count(monkeypatch, letters):
    # runs (1,0)^3, with no middle, and (1,1)^3, with one: one step short
    # of L(w), the run stops there and the peel is not at the identity
    true_count = perms.affine_length
    monkeypatch.setattr(perms, "affine_length", lambda w: true_count(w) - 1)
    with pytest.raises(c.InvariantError, match="not the identity"):
        c.from_window(perms.to_permutation(letters, 3))


@pytest.mark.parametrize("seed", range(4))
def test_from_window_on_cancelling_words(seed):
    rng = random.Random(900 + seed)
    for _ in range(10):
        n = rng.randint(2, 30)
        decode_agrees(n, tuple([rng.randrange(n + 1) for _ in range(rng.randint(0, 4000))]))


def test_from_window_refuses_a_block_past_the_cap(monkeypatch):
    """The window (1 - 3k, 2, 3 + 3k) has affine length k: from_window
    decodes it up to MAX_PAIRS pairs and refuses it past them with a
    RuntimeError, before the peel runs."""
    def window(k):
        return (1 - 3 * k, 2, 3 + 3 * k)
    assert c.MAX_PAIRS >= 10 ** 6
    monkeypatch.setattr(c, "MAX_PAIRS", 5)
    assert perms.affine_length(window(5)) == 5
    assert c.from_window(window(5)).pairs == ((1, 1),) * 5
    monkeypatch.setattr(c, "_peel", None)
    with pytest.raises(RuntimeError,
                       match="^affine length 6 is past the limit of 5$"):
        c.from_window(window(6))


def test_from_window_refuses_a_rank_past_the_bound():
    """A window of MAX_RANK + 2 entries would decode to a form that
    `Element` refuses: from_window refuses it first, as check_rank does."""
    nn = perms.MAX_RANK + 1
    assert c.from_window(list(range(1, nn + 1))) == c.identity_element(nn - 1)
    with pytest.raises(RuntimeError, match="^rank %d is past the limit of %d$"
                       % (nn, perms.MAX_RANK)):
        c.from_window(list(range(1, nn + 2)))


def test_the_size_guards_refuse_before_allocating():
    """A rank of 10^8 (past perms.MAX_RANK), a window of affine length
    10^12 (past canonical.MAX_PAIRS) and the 11! shapes at rank 10 (past
    perms.MAX_STATES, some 10 GB listed) are refused with RuntimeError, the
    CLI's exit 4, in a process whose address space is capped at 1 GiB: none
    builds a window list, a block or a shape first."""
    code = "\n".join([
        "import contextlib, io, resource, tracemalloc",
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
        "from affcox import canonical as c, cli, finite as fin",
        "cli.build_parser()",
        "k = 10 ** 12",
        "tracemalloc.start()",
        "try:",
        "    c.from_window((1 - 3 * k, 2, 3 + 3 * k))",
        "except RuntimeError as exc:",
        "    print('RuntimeError:', exc)",
        "try:",
        "    fin.finite_shapes(10)",
        "except RuntimeError as exc:",
        "    print('RuntimeError:', exc)",
        "err = io.StringIO()",
        "with contextlib.redirect_stderr(err):",
        "    print('exit', cli.main(['canon', '-n', str(10 ** 8), 'a']))",
        "print(err.getvalue().strip())",
        "print('peak', tracemalloc.get_traced_memory()[1])",
    ])
    lines = run_python(code, timeout=30).splitlines()
    assert lines[:4] == [
        "RuntimeError: affine length %d is past the limit of %d"
        % (10 ** 12, c.MAX_PAIRS),
        "RuntimeError: finite shape count 6652800 is past the limit of %d" % perms.MAX_STATES,
        "exit 4",
        "resource limit: rank %d is past the limit of %d" % (10 ** 8, perms.MAX_RANK)]
    assert int(lines[4].split()[1]) < 100_000, lines


def letter_walk_window(e):
    """The window of e by one swap per letter of its canonical word: sigma_k
    swaps entries k and k+1; a sets w(1), w(n+1) to w(n+1) - (n+1),
    w(1) + (n+1).  The oracle of the run-moving encoder `c._encode`."""
    n = e.n
    nn = n + 1
    win = list(range(1, nn + 1))
    for s in c.element_word(e).letters:
        if s == perms.AFFINE:
            win[0], win[n] = win[n] - nn, win[0] + nn
        else:
            win[s - 1], win[s] = win[s], win[s - 1]
    return win


@pytest.mark.parametrize("n", [2, 3, 4])
def test_window_matches_letter_walk_on_balls(n):
    for win, word in perms.bfs_reduced_words(n, 7).items():
        e = c.canonicalize(Word(n, word))
        assert c._encode(*e[:3]) == tuple(letter_walk_window(e)) == e.window == win


@pytest.mark.parametrize("seed", range(4))
def test_window_matches_letter_walk_on_long_words(seed):
    rng = random.Random(1100 + seed)
    for _ in range(12):
        n = rng.choice([2, 3, 6, 12, 24])
        if rng.random() < 0.5:
            letters = random_reduced_word(n, rng.randint(0, 600), rng)
        else:
            letters = tuple([rng.randrange(n + 1) for _ in range(rng.randint(0, 1500))])
        e = c.from_window(perms.to_permutation(letters, n))
        assert c._encode(*e[:3]) == tuple(letter_walk_window(e)) == e.window, (n, letters)


@pytest.mark.parametrize("n", [12, 24])
def test_mul_and_inverse_match_the_window_model(n):
    rng = random.Random(1000 + n)
    elems = []
    for _ in range(12):
        letters = random_reduced_word(n, rng.randint(0, 400), rng)
        elems.append((c.canonicalize(Word(n, letters)), perms.to_permutation(letters, n)))
    for (u, uw), (v, vw) in zip(elems, elems[1:] + elems[:1]):
        uv = c.mul(u, v)
        assert c._encode(*uv[:3]) == uv.window == perms.compose(uw, vw)
        assert c.length(uv) == perms.perm_length(perms.compose(uw, vw))
        inv = c.inverse(u)
        assert c._encode(*inv[:3]) == inv.window == perms.inverse(uw)
        assert c.length(inv) == c.length(u)


@pytest.mark.parametrize("win", [
    (-1, 2, 5),        # a repeated residue, right sum
    (0, 4, 2, 4),      # a repeated residue at n = 3
    (2, 3, 4),         # distinct residues, wrong sum
    (1, 2, 4),
    (1, 2), (1,), (),  # fewer than 3 entries
    (1.0, 2.0, 3.0),   # not integers
    (3, 2, True),      # a bool in place of the int 1
    ("1", "2", "3"),
    {1: 0, 2: 0, 3: 0},  # a window is a list or a tuple: not a dict,
    {3, 1, 2},           # a set,
    None,                # nothing,
    iter((1, 2, 3)),     # or an iterator
])
def test_from_window_rejects_non_windows(win):
    with pytest.raises(ValueError, match="not a window"):
        c.from_window(win)


def test_decoder_invariants_survive_optimize():
    # a junction check that rejects everything; one that rejects only a
    # self-junction (p, p), on c^4 = (1,0)^4; one that rejects only a
    # change of pair, on (4,0)(1,0)(1,0); then a peel that never sorts
    # (bisection pinned to 0, junctions waved through): each must raise
    # InvariantError with asserts compiled out, and none may loop, both
    # through from_window and through canonicalize, which calls the
    # unchecked peel (_peel) on its own window
    code = "\n".join([
        "import sys",
        "from affcox import canonical as c, perms",
        "from affcox.words import Word",
        "assert sys.flags.optimize",
        "def decode(word):",
        "    for run in (lambda: c.from_window(perms.to_permutation(word, 3)),",
        "                lambda: c.canonicalize(Word(3, word))):",
        "        try:",
        "            run()",
        "        except c.InvariantError as exc:",
        "            print('InvariantError:', exc)",
        "c._junction_ok = lambda prev, pair, n: False",
        "decode((0,))",
        "decode((1, 2, 3, 0) * 2)",
        "c._junction_ok = lambda prev, pair, n: prev != pair",
        "decode((1, 2, 3, 0) * 4)",
        "c._junction_ok = lambda prev, pair, n: prev is None or prev == pair",
        "decode((0, 1, 2, 3, 0, 1, 2, 3, 0))",
        "c._junction_ok = lambda prev, pair, n: True",
        "c.bisect_left = lambda u, v: 0",
        "decode((1, 2, 0) * 3)",
    ])
    lines = run_python(code, "-O").splitlines()
    assert len(lines) == 10 and all(l.startswith("InvariantError:") for l in lines), lines
    assert all(l.endswith("gave (1, 0) before (1, 0)") for l in lines[4:6]), lines
    assert all(l.endswith("gave (4, 0) before (1, 0)") for l in lines[6:8]), lines
    assert all("not the identity" in l for l in lines[8:]), lines
