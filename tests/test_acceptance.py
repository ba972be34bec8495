"""
Acceptance gate: the eight top-level criteria, one pass/fail line each
(run with -s to see the lines as they complete).  Everything is checked
against the window-arithmetic oracle, never against the engine itself.
"""

import itertools
import random

from affcox import canonical as c
from affcox import finite as fin
from affcox import hecke as hk
from affcox import tower
from affcox.blocks import appendix_blocks, appendix_threshold, enumerate_blocks
from affcox.finite import (
    HPrefix,
    brick_identities_check,
    h_word,
)
from affcox.perms import (
    AFFINE,
    affine_length,
    bfs_reduced_words,
    perm_length,
    to_permutation,
)
from affcox.words import Word, is_reduced
from oracles import count_reduced_words


def _report(num, name, body):
    try:
        body()
    except BaseException:
        print("criterion %d (%s): FAIL" % (num, name))
        raise
    print("criterion %d (%s): PASS" % (num, name))


def _all_elements(n, max_len):
    """One canonical element per group element of length <= max_len, keyed
    by oracle window."""
    out = {}
    for win, letters in bfs_reduced_words(n, max_len).items():
        out[win] = c.canonicalize(Word(n, letters))
    return out


def _valid_pairs_within(n, max_len):
    """Every (block, finite) combination of total length <= max_len."""
    shapes = [
        (s, c.length(c.Element(n, (), s)))
        for s in fin.finite_shapes(n)
    ]
    combos = set()
    m = 0
    while True:
        level = [
            (p, c.length(c.Element(n, p, ())))
            for p in enumerate_blocks(n, m).items
        ]
        level = [(p, l) for p, l in level if l <= max_len]
        if not level:
            break
        for p, pl in level:
            for s, sl in shapes:
                if pl + sl <= max_len:
                    combos.add(c.Element(n, p, s))
        m += 1
    return combos


def test_criterion_1_canonical_bijection():
    def body():
        for n, bound in ((2, 12), (3, 9)):
            elems = _all_elements(n, bound)
            for win, e in elems.items():
                w = c.element_word(e)
                assert to_permutation(w.letters, n) == win
                assert is_reduced(w)
                assert c.length(e) == len(w.letters) == perm_length(win)
            seen = set(elems.values())
            assert len(seen) == len(elems)  # injective
            assert seen == _valid_pairs_within(n, bound)  # onto valid pairs

    _report(1, "canonical bijection", body)


def test_criterion_2_exchange_rules():
    def body():
        for n in (2, 3, 4, 5):
            assert brick_identities_check(n) == []
            # absorption/move tables: sigma_u . h(j,i) a   for every legal
            # single pair and every finite generator; the moved-pair rows
            # run in both length directions, so the non-reduced side may
            # carry two extra letters
            for j in range(1, n + 2):
                for i in range(0, n):
                    base = h_word(HPrefix(j, i), n) + (AFFINE,)
                    for u in range(1, n + 1):
                        kind, out = c._table(u, j, i, n)
                        lhs = (u,) + base
                        if kind == "absorb":
                            rhs = base + (out,)
                        else:
                            rhs = h_word(HPrefix(*out), n) + (AFFINE,)
                        perm = to_permutation(lhs, n)
                        assert perm == to_permutation(rhs, n)
                        assert len(rhs) == perm_length(perm)
                        assert len(lhs) - len(rhs) in (0, 2)
            # junction exchange rules, each instantiated over its own guard
            # range (rules may overlap on a junction; every applicable one
            # must be a true identity with equal letter counts), and every
            # violated junction must be covered by at least one rule
            rules = (
                (lambda r, u, s, v: r > u + 1 and s >= r,
                 lambda r, u, s, v: (((s + 1, u), (r, v)), 1)),
                (lambda r, u, s, v: s > u + 1 and u >= v,
                 lambda r, u, s, v: (((r, v - 1), (s, u)), n)),
                (lambda r, u, s, v: v + 1 < s <= u + 1,
                 lambda r, u, s, v: (((r, v - 1), (s - 1, u - 1)), n)),
                (lambda r, u, s, v: s <= v + 1 and v < u,
                 lambda r, u, s, v: (((r, v), (s, u - 1)), n)),
                (lambda r, u, s, v: r <= u + 1 < s,
                 lambda r, u, s, v: (((s + 1, u + 1), (r + 1, v)), 1)),
                (lambda r, u, s, v: r < s <= u + 1,
                 lambda r, u, s, v: (((s, u), (r + 1, v)), 1)),
            )

            def pair_in_range(p, first):
                j, i = p
                if first:
                    return 1 <= j <= n + 1 and 0 <= i <= n - 1
                return (j == 1 and i == 0) or (1 <= j <= n and 1 <= i <= n - 1)

            for r in range(1, n + 2):
                for u in range(0, n):
                    for s in range(1, n + 1):
                        for v in range(0, n):
                            if not pair_in_range((s, v), False):
                                continue
                            if c._junction_ok((r, u), (s, v), n):
                                continue
                            hits = 0
                            for guard, rewrite in rules:
                                if not guard(r, u, s, v):
                                    continue
                                (A, B), t = rewrite(r, u, s, v)
                                if not (pair_in_range(A, True)
                                        and pair_in_range(B, False)):
                                    continue
                                hits += 1
                                lhs = (h_word(HPrefix(r, u), n) + (AFFINE,)
                                       + h_word(HPrefix(s, v), n) + (AFFINE,))
                                rhs = (h_word(HPrefix(*A), n) + (AFFINE,)
                                       + h_word(HPrefix(*B), n) + (AFFINE,)
                                       + (t,))
                                assert to_permutation(lhs, n) == \
                                    to_permutation(rhs, n), (r, u, s, v)
                                assert len(lhs) == len(rhs)
                            assert hits >= 1, (r, u, s, v)

    _report(2, "exchange rules and brick identities", body)


def _one_entry_step(old, new):
    if len(old) != len(new):
        return False
    flat_o = [x for p in old for x in p]
    flat_n = [x for p in new for x in p]
    diffs = [(a, b) for a, b in zip(flat_o, flat_n) if a != b]
    return len(diffs) == 1 and abs(diffs[0][0] - diffs[0][1]) == 1


def test_criterion_3_left_mul_trichotomy():
    def body():
        for n in (2, 3, 4):
            blocks = [
                p for m in range(1, 4) for p in enumerate_blocks(n, m).items
            ]
            for pairs in blocks:
                base = c.block_word(pairs, n).letters
                blen = len(base)
                for s in [AFFINE] + list(range(1, n + 1)):
                    out = c.left_mul_block(s, pairs, n)
                    lhs = to_permutation((s,) + base, n)
                    if isinstance(out, c.Absorbed):
                        rhs = base + (out.v,)
                        assert to_permutation(rhs, n) == lhs
                        assert perm_length(lhs) == blen + 1
                    else:
                        assert c.validate_block(out.pairs, n)
                        word = c.block_word(out.pairs, n).letters
                        assert to_permutation(word, n) == lhs
                        assert len(word) == perm_length(lhs)
                        assert abs(len(word) - blen) == 1
                        if s == AFFINE and len(out.pairs) != len(pairs):
                            assert (out.pairs == pairs[1:]
                                    or out.pairs == ((n + 1, 0),) + pairs)
                        else:
                            assert _one_entry_step(pairs, out.pairs)

    _report(3, "left-multiplication trichotomy", body)


def test_criterion_4_tower():
    def body():
        elems2 = _all_elements(2, 9)
        for win, e in elems2.items():
            img = tower.embed(e)
            img_word = tower.substitute_word(c.element_word(e))
            assert img == c.canonicalize(img_word)
            assert c.affine_length(img) == c.affine_length(e)
            assert (affine_length(to_permutation(img_word.letters, 3))
                    == affine_length(win) == c.affine_length(e))
            assert c.length(img) == c.length(e) + 2 * c.affine_length(e)
            assert tower.is_in_image(img)
            assert tower.preimage(img) == e
        # membership by search at rank 3
        image6 = set(
            tower.embed(e) for e in elems2.values()
            if c.length(e) + 2 * c.affine_length(e) <= 6
        )
        for e in _all_elements(3, 6).values():
            assert tower.is_in_image(e) == (e in image6)
        # finite parts per qualifying block at rank 3: a block either admits
        # no finite part in the image or exactly |W(A_2)| = 6 of the 24
        # shapes, and blocks of both kinds occur
        shapes = fin.finite_shapes(3)
        counts = set()
        for m in (1, 2):
            for pairs in enumerate_blocks(3, m).items:
                hits = sum(
                    1 for s in shapes
                    if tower.is_in_image(c.Element(3, pairs, s))
                )
                assert hits in (0, 6), (pairs, hits)
                counts.add(hits)
        assert counts == {0, 6}

    _report(4, "tower embedding", body)


def test_criterion_5_hecke_triangularity():
    def body():
        for win, e in _all_elements(2, 6).items():
            a_w, lower = hk.triangularity_certificate(e)
            assert hk.lp_power_of_q(a_w) is not None
            target_len = c.length(tower.embed(e))
            for x in lower.terms:
                assert c.length(x) < target_len
                assert c.affine_length(x) <= c.affine_length(e)
                x_win = to_permutation(c.element_word(x).letters, 3)
                assert affine_length(x_win) <= affine_length(win)
        # HR respects every defining relation on pairs of letters
        from affcox.perms import _product_order
        gens = [1, 2, AFFINE]
        img = {s: hk.hr_embed(hk.gen_basis(s, 2)) for s in gens}
        for s, t in itertools.combinations(gens, 2):
            if _product_order(s, t, 2) == 3:
                lhs = hk.hecke_mul(img[s], hk.hecke_mul(img[t], img[s]))
                rhs = hk.hecke_mul(img[t], hk.hecke_mul(img[s], img[t]))
            else:
                lhs = hk.hecke_mul(img[s], img[t])
                rhs = hk.hecke_mul(img[t], img[s])
            assert lhs == rhs, (s, t)

    _report(5, "Hecke triangularity", body)


def test_criterion_6_descent_cases():
    def body():
        for n in (2, 3):
            # affine length 1: h(j1,i1) a h(j,i) a against the generic test
            firsts = [p for (p,) in enumerate_blocks(n, 1).items]
            prefixes = [
                HPrefix(j, i)
                for j in range(1, n + 2) for i in range(0, n)
                if (j, i) != (n + 1, 0)
            ]
            for first in firsts:
                for h in prefixes:
                    word = (c.block_word((first,), n).letters
                            + h_word(h, n) + (AFFINE,))
                    case = c.deficiency_m1(first, h, n)
                    assert (case is None) == is_reduced(Word(n, word))
                    assert (case is None) == (perm_length(to_permutation(word, n)) == len(word))
                    if case is not None:
                        from affcox.words import hat_partner
                        assert case.position == hat_partner(Word(n, word))
                        hatted = word[:case.position] + word[case.position + 1:-1]
                        assert to_permutation(hatted, n) == to_permutation(word, n)
            # affine length 2 with a parabolic factor, against the generic test
            blocks2 = [p for p in enumerate_blocks(n, 2).items]
            for pairs in blocks2:
                for h in prefixes + [HPrefix(n + 1, 0)]:
                    word = (c.block_word(pairs, n).letters
                            + h_word(h, n) + (AFFINE,))
                    case = c.affine_descent_cases_m2(pairs, h, n)
                    assert (case is None) == is_reduced(Word(n, word)), (pairs, h)
                    assert (case is None) == (perm_length(to_permutation(word, n)) == len(word))
                    if case is not None:
                        from affcox.words import hat_partner
                        assert case.position == hat_partner(Word(n, word))
                        hatted = word[:case.position] + word[case.position + 1:-1]
                        assert to_permutation(hatted, n) == to_permutation(word, n)

    _report(6, "descent case lists", body)


def test_criterion_7_structural_laws():
    def body():
        # rigidity: u . s1..sn reduced  =>  u . s1..sn . a reduced
        for n in (2, 3):
            run = tuple(range(1, n + 1))
            for letters in bfs_reduced_words(n, 6).values():
                if is_reduced(Word(n, letters + run)):
                    assert is_reduced(Word(n, letters + run + (AFFINE,)))
        # D = a s1..sn..s1 a is reduced with affine length 2
        for n in (2, 3):
            hump = tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))
            d = (AFFINE,) + hump + (AFFINE,)
            assert is_reduced(Word(n, d))
            assert c.affine_length(c.canonicalize(Word(n, d))) == 2
        # rigid chains: every truncation of (s1..sn a)^k has one reduced word
        for n in (2, 3):
            chain = (tuple(range(1, n + 1)) + (AFFINE,)) * 3
            for k in range(len(chain) + 1):
                assert count_reduced_words(to_permutation(chain[:k], n)) == 1
                assert count_reduced_words(to_permutation(chain[k:], n)) == 1
        # commutation with the inner parabolic: for w.p reduced (p in
        # <s2..s_{n-1}>), appending a is reduced iff it is without p
        rng = random.Random(41)
        accepted = 0
        words3 = list(bfs_reduced_words(3, 7).values())
        words4 = list(bfs_reduced_words(4, 6).values())
        while accepted < 1000:
            n, pool = rng.choice(((3, words3), (4, words4)))
            w = rng.choice(pool)
            p = tuple(rng.choice(range(2, n)) for _ in range(rng.randint(1, 3)))
            if not is_reduced(Word(n, p)) or not is_reduced(Word(n, w + p)):
                continue
            accepted += 1
            assert (is_reduced(Word(n, w + p + (AFFINE,)))
                    == is_reduced(Word(n, w + (AFFINE,))))

    _report(7, "structural laws", body)


def test_criterion_8_appendix_golden_data():
    def body():
        for n in (2, 3):
            thr = appendix_threshold(n, 2)
            shapes = fin.finite_shapes(n)
            generated = set()
            for b in appendix_blocks(n, 2):
                for s in shapes:
                    e = c.Element(n, b.pairs, s)
                    word = c.element_word(e)
                    assert c.canonicalize(word) == e  # fixed point
                    if c.length(e) <= thr:
                        generated.add(e)
            reference = set(
                e for e in _all_elements(n, thr).values()
                if c.affine_length(e) >= 1
            )
            assert generated == reference

    _report(8, "appendix golden data", body)
