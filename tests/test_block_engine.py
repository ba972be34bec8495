"""The left-to-right block engine: deep blocks, operation counts, invariants."""

import random

import pytest

from affcox import canonical as c
from affcox import cli
from affcox import perms
from affcox.blocks import enumerate_blocks
from affcox.words import Word
from harness import record_calls, run_python
from oracles import letter_fold, random_reduced_word


def coxeter_power(n, k):
    """(s1 ... sn a)^k: reduced, with affine length k."""
    return Word(n, (tuple(range(1, n + 1)) + (perms.AFFINE,)) * k)


# --- deep blocks ------------------------------------------------------------

def test_deep_block_canonicalizes():
    w = coxeter_power(2, 5000)
    e = c.canonicalize(w)
    assert letter_fold(w) == e
    assert c.affine_length(e) == 5000
    assert c.length(e) == len(w.letters)
    assert perms.to_permutation(c.element_word(e).letters, 2) == \
        perms.to_permutation(w.letters, 2)


def test_cli_len_on_deep_block(capsys):
    text = " ".join(["s1 s2 a"] * 1100)
    assert cli.main(["len", "-n", "2", text]) == 0
    assert capsys.readouterr().out.strip() == "l=3300 L=1100"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_new_blocks_pass_full_validation(n):
    for m in range(1, 5):
        for pairs in enumerate_blocks(n, m).items:
            for s in c.generators(n):
                out = c.left_mul_block(s, pairs, n)
                if isinstance(out, c.NewBlock):
                    assert c.validate_block(out.pairs, n), (s, pairs, out)


# --- the base table against the paper's two tables ---------------------------

def paper_tables(u, j, i, n):
    """sigma_u . (h(j,i) a) by the paper's two seven-row tables, A for
    j > i+1 and B for j <= i+1, read in row order: the oracle of
    `canonical._table`, which writes them as one rule."""
    if j > i + 1:
        if 1 <= u < i:
            return ("absorb", u + 1)
        if u == i:
            return ("pair", (j, i - 1))
        if u == i + 1 < j - 1:
            return ("pair", (j, i + 1))
        if i + 1 < u < j - 1:
            return ("absorb", u)
        if u == j - 1 >= i + 1:
            return ("pair", (j - 1, i))
        if u == j:
            return ("pair", (j + 1, i))
        if j < u <= n:
            return ("absorb", u - 1)
    else:
        if 1 <= u < j - 1:
            return ("absorb", u + 1)
        if u == j - 1:
            return ("pair", (j - 1, i))
        if u == j:
            return ("pair", (j + 1, i))
        if j < u < i + 1:
            return ("absorb", u)
        if u == i + 1 > j:
            return ("pair", (j, i - 1))
        if u == i + 2:
            return ("pair", (j, i + 1))
        if i + 2 < u <= n:
            return ("absorb", u - 1)
    raise AssertionError("no table row for u=%d, (j,i)=(%d,%d), n=%d" % (u, j, i, n))


def test_table_is_the_papers_two_tables():
    for n in range(2, 31):
        for j in range(1, n + 2):
            for i in range(n):
                for u in range(1, n + 1):
                    assert c._table(u, j, i, n) == paper_tables(u, j, i, n), (u, j, i, n)


# the exchange rules left_mul_block can reach, as (guard, rewrite) on h(r,u) a h(s,v) a
EXCHANGE_RULES = {
    "E1": (lambda r, u, s, v: r > u + 1 and s >= r,
           lambda r, u, s, v, n: (((s + 1, u), (r, v)), 1)),
    "E2": (lambda r, u, s, v: s > u + 1 and u >= v,
           lambda r, u, s, v, n: (((r, v - 1), (s, u)), n)),
    "E4": (lambda r, u, s, v: s <= v + 1 and v < u,
           lambda r, u, s, v, n: (((r, v), (s, u - 1)), n)),
    "E6": (lambda r, u, s, v: r < s <= u + 1,
           lambda r, u, s, v, n: (((s, u), (r + 1, v)), 1)),
}


def test_every_exchange_rule_fires(monkeypatch):
    """Over every (block, letter) with n <= 6 and m <= 4, exactly one of the
    four guards holds on each junction left_mul_block hands to _exchange, its
    rewrite is what _exchange returns, and each rule fires."""
    fired = {name: 0 for name in EXCHANGE_RULES}
    orig = c._exchange

    def recording(left, right, n):
        out = orig(left, right, n)
        held = [name for name, (guard, _) in EXCHANGE_RULES.items()
                if guard(*left, *right)]
        assert len(held) == 1, (left, right, held)
        assert EXCHANGE_RULES[held[0]][1](*left, *right, n) == out, (left, right, out)
        fired[held[0]] += 1
        return out

    monkeypatch.setattr(c, "_exchange", recording)
    for n in range(2, 7):
        for m in range(1, 5):
            for pairs in enumerate_blocks(n, m).items:
                for s in c.generators(n):
                    c.left_mul_block(s, pairs, n)
    assert all(fired.values()), fired
    # a junction no rule covers
    with pytest.raises(c.InvariantError):
        orig((2, 1), (2, 1), 3)


# --- operation counts -------------------------------------------------------

@pytest.mark.parametrize("k", [20, 80])
def test_left_mul_block_operation_counts(monkeypatch, k):
    """At most one table lookup and one exchange per pair, and no full-block
    validation, in every left multiplication of a block of the letter fold."""
    counts = {"validate_block": 0, "_table": 0, "_exchange": 0}
    inside = []

    def counting(name):
        orig = getattr(c, name)

        def wrapper(*args):
            counts[name] += 1
            if name == "validate_block":
                assert not inside, "validate_block called inside left_mul_block"
            return orig(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(c, name, counting(name))
    orig_block = c.left_mul_block
    calls = []

    def block_wrapper(s, pairs, n):
        before = dict(counts)
        inside.append(True)
        try:
            return orig_block(s, pairs, n)
        finally:
            inside.pop()
            calls.append((len(pairs),
                          counts["_table"] - before["_table"],
                          counts["_exchange"] - before["_exchange"]))

    monkeypatch.setattr(c, "left_mul_block", block_wrapper)
    e = letter_fold(coxeter_power(3, k))
    assert c.affine_length(e) == k
    assert calls
    for m, tables, exchanges in calls:
        assert tables <= m and exchanges <= m, (m, tables, exchanges)


def test_one_block_call_per_letter(monkeypatch):
    """Every letter of the letter fold takes one path: left_mul calls
    left_mul_block once, whether or not the element has pairs."""
    calls = record_calls(monkeypatch, "left_mul", "left_mul_block")
    rng = random.Random(16)
    for n in (2, 3, 5):
        for w in [Word(n, (1, 2, 1)), Word(n, (perms.AFFINE, 1, perms.AFFINE))] + [
                Word(n, tuple(rng.randrange(n + 1) for _ in range(40))) for _ in range(10)]:
            calls.clear()
            letter_fold(w)
            assert calls.count("left_mul") == len(w.letters)
            assert calls.count("left_mul_block") == len(w.letters)


def test_element_operation_counts(monkeypatch):
    """mul, inverse and both descent sets go through windows: no left
    multiplication, table lookup or finite left insertion, on 200 pairs at
    n = 6 drawn from 50 random reduced elements with l <= 300; and
    canonicalize(w) is one decode of its word's window, with no letter
    engine call at all.  `_peel` is the unchecked decoder these paths call
    on windows they built; `from_window` adds only the window check."""
    n = 6
    rng = random.Random(606)
    words = [Word(n, random_reduced_word(n, rng.randint(0, 300), rng))
             for _ in range(50)]
    pool = [c.canonicalize(w) for w in words]
    calls = record_calls(monkeypatch, "left_mul", "left_mul_block", "_table",
                         "finite_left_insert", "_peel")
    for _ in range(200):
        u, v = rng.choice(pool), rng.choice(pool)
        c.mul(u, v)
        c.inverse(u)
        c.left_descents(u)
        c.right_descents(v)
    assert set(calls) == {"_peel"}
    for w in words:
        calls.clear()
        c.canonicalize(w)
        assert calls == ["_peel"], calls


# --- invariants that survive python -O --------------------------------------

def test_table_rejects_index_out_of_range():
    with pytest.raises(c.InvariantError):
        c._table(0, 3, 1, 3)


def test_invariant_error_survives_optimize():
    # ((4,0),(3,1)) absorbs s1 by repairing its junction with one exchange
    # rule; an exchange that does not give back the original pairs must be
    # caught even with asserts compiled out
    code = "\n".join([
        "import sys",
        "from affcox import canonical as c",
        "assert sys.flags.optimize",
        "c._exchange = lambda left, right, n: (((n + 1, 0), (1, 0)), 1)",
        "try:",
        "    c.left_mul_block(1, ((4, 0), (3, 1)), 3)",
        "except c.InvariantError as exc:",
        "    print('InvariantError:', exc)",
    ])
    out = run_python(code, "-O")
    assert out.startswith("InvariantError:"), out
