"""Left insertion into the finite part, and the checks that ride with it:
explicit invariant errors and one length comparison per Hecke term."""

import pytest

from affcox import canonical as c
from affcox import finite as fin
from affcox import hecke as hk
from affcox import perms
from affcox.finite import finite_left_insert
from affcox.words import Word
from harness import record_calls, run_python
from oracles import finite_word, letter_fold


def refold_left_insert(x, k, n):
    """The test oracle: decode the window of sigma_k and the whole brick
    word of x again."""
    return c.from_window(perms.to_permutation((k,) + finite_word(x, n).letters, n)).bricks


def w0(n):
    return tuple(s for j in range(n, 0, -1) for s in range(1, j + 1))


def test_left_insert_matches_refold_exhaustively():
    cases = 0
    for n in range(2, 7):
        for x in fin.finite_shapes(n):
            for k in range(1, n + 1):
                assert finite_left_insert(x, k, n) == refold_left_insert(x, k, n), (x, k)
                cases += 1
    # sum over n = 2..6 of (n+1)! * n
    assert cases == 12 + 72 + 480 + 3600 + 30240


def test_left_insert_makes_no_refold(monkeypatch):
    # w0 a w0 at n = 12: the second w0 is absorbed letter by letter
    calls = {"inside": 0, "right_insert": 0, "left": 0}

    def counting(name, fn):
        def wrapper(*args):
            if calls["inside"]:
                calls[name] += 1
            return fn(*args)
        return wrapper

    left = fin.finite_left_insert

    def traced_left(x, k, n):
        calls["left"] += 1
        calls["inside"] += 1
        try:
            return left(x, k, n)
        finally:
            calls["inside"] -= 1

    monkeypatch.setattr(fin, "right_insert", counting("right_insert", fin.right_insert))
    monkeypatch.setattr(fin, "finite_left_insert", traced_left)
    n = 12
    letter_fold(Word(n, w0(n) + (perms.AFFINE,) + w0(n)))
    assert calls["left"] > 0
    assert calls["right_insert"] == 0


def test_w0_a_w0_at_rank_40():
    n = 40
    w = Word(n, w0(n) + (perms.AFFINE,) + w0(n))
    e = c.canonicalize(w)
    assert letter_fold(w) == e
    assert perms.to_permutation(c.element_word(e).letters, n) == \
        perms.to_permutation(w.letters, n)
    assert c.length(e) == perms.perm_length(perms.to_permutation(w.letters, n))


@pytest.mark.parametrize("k", [0, 4, -1])
def test_left_insert_rejects_out_of_range_index(k):
    with pytest.raises(ValueError, match=r"sigma index %d out of range" % k):
        finite_left_insert(((1, 3),), k, 3)


# --- explicit invariants ----------------------------------------------------

def test_invariant_error_defined_once():
    assert c.InvariantError is perms.InvariantError
    assert issubclass(perms.InvariantError, AssertionError)


def test_compose_rank_mismatch_is_value_error():
    with pytest.raises(ValueError, match="rank mismatch"):
        perms.compose(perms.identity(2), perms.identity(3))


def test_tower_invariant_survives_optimize():
    code = "\n".join([
        "import sys",
        "from affcox import canonical as c, tower",
        "from affcox.words import Word",
        "assert sys.flags.optimize",
        "e = c.canonicalize(Word(2, (1, 0, 2)))",
        "c.validate_block = lambda pairs, n: False",
        "try:",
        "    tower.embed(e)",
        "except c.InvariantError as exc:",
        "    print('InvariantError:', exc)",
    ])
    out = run_python(code, "-O")
    assert out.startswith("InvariantError:"), out


# --- the Hecke algebra steps on windows --------------------------------------

def test_hecke_makes_no_left_mul_or_length(monkeypatch):
    n = 3
    u = hk.add(hk.basis(c.canonicalize(Word(n, (1, 0, 2)))),
               hk.basis(c.canonicalize(Word(n, (2, 3)))))
    v = hk.scale(hk.basis(c.canonicalize(Word(n, (0, 3, 1, 0)))), {1: 1, -1: 2})
    calls = record_calls(monkeypatch, "left_mul", "length", "canonicalize")
    hk.hecke_mul(u, v)
    hk.hr_embed(u)
    hk.unit(n)
    for s in c.generators(n):
        hk.hecke_left_mul_gen(s, u)
        hk.hecke_mul(hk.gen_inverse(s, n), v)
        hk.gen_basis(s, n)
        hk.gen_inverse(s, n)
    assert calls == []

