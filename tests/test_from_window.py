"""The window decoder: canonical forms read off windows, checked against the
letter fold (`canonicalize`) and the window model, and its guards."""

import os
import random
import subprocess
import sys

import pytest

import affcox
from affcox import canonical as c
from affcox import perms
from affcox.words import Word


def decode_agrees(n, letters):
    """from_window of the oracle window equals the letter fold, and the
    encoder gives the oracle window back."""
    win = perms.to_permutation(letters, n)
    e = c.from_window(win)
    assert e == c.canonicalize(Word(n, letters)), (n, letters)
    assert tuple(c.window(e)) == win
    return e


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_from_window_matches_canonicalize_on_balls(n):
    for win, word in perms.bfs_reduced_words(n, 8).items():
        e = c.from_window(win)
        assert e == c.canonicalize(Word(n, word)), (win, word)
        assert c.length(e) == len(word)


@pytest.mark.parametrize("seed", range(4))
def test_from_window_on_long_reduced_words(seed):
    rng = random.Random(800 + seed)
    for _ in range(3):
        n = rng.randint(2, 30)
        letters = perms.random_reduced_word(n, rng.randint(200, 2000), rng)
        assert c.length(decode_agrees(n, letters)) == len(letters)


@pytest.mark.parametrize("seed", range(4))
def test_from_window_on_cancelling_words(seed):
    rng = random.Random(900 + seed)
    for _ in range(10):
        n = rng.randint(2, 30)
        decode_agrees(n, tuple([rng.randrange(n + 1) for _ in range(rng.randint(0, 4000))]))


@pytest.mark.parametrize("n", [12, 24])
def test_mul_and_inverse_match_the_window_model(n):
    rng = random.Random(1000 + n)
    elems = []
    for _ in range(12):
        letters = perms.random_reduced_word(n, rng.randint(0, 400), rng)
        elems.append((c.canonicalize(Word(n, letters)), perms.to_permutation(letters, n)))
    for (u, uw), (v, vw) in zip(elems, elems[1:] + elems[:1]):
        uv = c.mul(u, v)
        assert tuple(c.window(uv)) == perms.compose(uw, vw)
        assert c.length(uv) == perms.perm_length(perms.compose(uw, vw))
        inv = c.inverse(u)
        assert tuple(c.window(inv)) == perms.inverse(uw)
        assert c.length(inv) == c.length(u)


@pytest.mark.parametrize("win", [
    (-1, 2, 5),        # a repeated residue, right sum
    (0, 4, 2, 4),      # a repeated residue at n = 3
    (2, 3, 4),         # distinct residues, wrong sum
    (1, 2, 4),
    (1, 2), (1,), (),  # fewer than 3 entries
    (1.0, 2.0, 3.0),   # not integers
    ("1", "2", "3"),
])
def test_from_window_rejects_non_windows(win):
    with pytest.raises(ValueError, match="not a window"):
        c.from_window(win)


def test_decoder_invariants_survive_optimize():
    # a junction check that rejects everything, then a peel that never
    # sorts (bisection pinned to 0, junctions waved through): both must
    # raise InvariantError with asserts compiled out, and neither may loop
    code = "\n".join([
        "import sys",
        "from affcox import canonical as c, perms",
        "assert sys.flags.optimize",
        "c._junction_ok = lambda prev, pair, n: False",
        "for word in [(0,), (1, 2, 3, 0) * 2]:",
        "    try:",
        "        c.from_window(perms.to_permutation(word, 3))",
        "    except c.InvariantError as exc:",
        "        print('InvariantError:', exc)",
        "c._junction_ok = lambda prev, pair, n: True",
        "c.bisect_left = lambda u, v: 0",
        "try:",
        "    c.from_window(perms.to_permutation((1, 2, 0) * 3, 3))",
        "except c.InvariantError as exc:",
        "    print('InvariantError:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(affcox.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and all(l.startswith("InvariantError:") for l in lines), lines
