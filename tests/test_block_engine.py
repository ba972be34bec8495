"""The left-to-right block engine: deep blocks, operation counts, invariants."""

import os
import random
import subprocess
import sys

import pytest

import affcox
from affcox import canonical as c
from affcox import cli
from affcox import finite as fin
from affcox import perms
from affcox.blocks import enumerate_blocks
from affcox.words import Word


def coxeter_power(n, k):
    """(s1 ... sn a)^k: reduced, with affine length k."""
    return Word(n, (tuple(range(1, n + 1)) + (perms.AFFINE,)) * k)


# --- deep blocks ------------------------------------------------------------

def test_deep_block_canonicalizes():
    w = coxeter_power(2, 5000)
    e = c.canonicalize(w)
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


# the exchange rules _scan can reach, as (guard, rewrite) on h(r,u) a h(s,v) a
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
    """Over every (block, letter) with n <= 5 and m <= 4, each exchange is
    exactly one of the four rules, and each rule fires."""
    fired = {name: 0 for name in EXCHANGE_RULES}
    orig = c._exchange

    def recording(left, right, n):
        out = orig(left, right, n)
        hits = [name for name, (guard, rewrite) in EXCHANGE_RULES.items()
                if guard(*left, *right) and rewrite(*left, *right, n) == out]
        assert len(hits) == 1, (left, right, out, hits)
        fired[hits[0]] += 1
        return out

    monkeypatch.setattr(c, "_exchange", recording)
    for n in range(2, 6):
        for m in range(1, 5):
            for pairs in enumerate_blocks(n, m).items:
                for s in c.generators(n):
                    c.left_mul_block(s, pairs, n)
    assert all(fired.values()), fired


# --- operation counts -------------------------------------------------------

@pytest.mark.parametrize("k", [20, 80])
def test_left_mul_block_operation_counts(monkeypatch, k):
    """At most one table lookup and one exchange per pair, and no full-block
    validation, in every left multiplication of a block."""
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
    e = c.canonicalize(coxeter_power(3, k))
    assert c.affine_length(e) == k
    assert calls
    for m, tables, exchanges in calls:
        assert tables <= m and exchanges <= m, (m, tables, exchanges)


def test_element_operation_counts(monkeypatch):
    """mul, inverse and both descent sets go through windows: no left
    multiplication, table lookup or finite left insertion, on 200 pairs at
    n = 6 drawn from 50 random reduced elements with l <= 300; and
    canonicalize(w) stays the letter fold, len(w) left multiplications."""
    n = 6
    rng = random.Random(606)
    words = [Word(n, perms.random_reduced_word(n, rng.randint(0, 300), rng))
             for _ in range(50)]
    pool = [c.canonicalize(w) for w in words]
    calls = []
    for mod, name in ((c, "left_mul"), (c, "_table"), (fin, "finite_left_insert")):
        orig = getattr(mod, name)
        monkeypatch.setattr(mod, name,
                            lambda *args, name=name, orig=orig: calls.append(name) or orig(*args))
    for _ in range(200):
        u, v = rng.choice(pool), rng.choice(pool)
        c.mul(u, v)
        c.inverse(u)
        c.left_descents(u)
        c.right_descents(v)
    assert calls == []
    for w in words:
        calls.clear()
        c.canonicalize(w)
        assert calls.count("left_mul") == len(w.letters)


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
    src = os.path.dirname(os.path.dirname(affcox.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError:"), proc.stdout
