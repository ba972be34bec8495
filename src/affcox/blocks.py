"""
Enumeration of affine blocks — the minimal-length representatives of the
right cosets W(~A_n)/W(A_n), indexed by families (j_s, i_s)_{1..m} under
the pairwise inequalities.  One depth-first walk on an explicit stack
(no recursion limit), pruned by the inequalities and by a length bound,
lists them with exactly m pairs (`enumerate_blocks`), with length <=
max_len (`reference_blocks`), or both (`enumerate_blocks` with max_len).
The number of blocks of length l is the coefficient of t^l in Bott's
series prod_{k=1..n} 1/(1 - t^k).  With N = n+1, the number of affine
length m >= 1 is

    sum_{p,q >= 1, p+q <= N} N!/(p! q! (N-p-q)!) . C(m-1, p-1) . C(m-1, q-1):

a block is the minimal coset representative, with a sorted window, so it
is fixed by its entries r + N lambda_r (r = 1..N): by a lambda in Z^N with
sum 0 and sum_r max(0, lambda_r) = m (perms.affine_length).  Choose its
p positive and q negative coordinates, then m as an ordered sum of p
positive parts and, negated, as one of q.

The paper's appendix lists every block of positive affine length at ranks
2 and 3 as a union of families

    alpha . c_1^{e_1} ... c_r^{e_r}

over a fixed tuple of cores c_t (pairs (j, i)), where the left factors
alpha come in tiers: the first tier always, and one more tier for each
leading zero exponent (None stands for the trivial factor).  The first
core of a family flagged has_eps has exponent range {0, 1}; guards cut
exponent vectors a family does not own, so the families are pairwise
disjoint at both ranks.  The families are infinite, so `appendix_blocks`
caps the other exponents at max_core; below `appendix_threshold` the
capped listing is provably complete, and there `appendix` checks that it
equals `reference_blocks`, the enumerator's output.
"""

import itertools
from typing import NamedTuple

from . import canonical as c
from .perms import InvariantError, check_count, check_rank, past_limit
from .canonical import _junction_ok

MAX_ITEMS = 2_000_000  # every listing here refuses (perms.past_limit) past this many


class BlockFamily(NamedTuple):
    rank: int
    affine_length: int
    items: tuple  # blocks, lexicographic on their pair sequences


def _extensions(prefix, n):
    """Legal next pairs after prefix, ascending (j, i)."""
    prev = prefix[-1] if prefix else None
    # only pairs with j <= j_prev and i >= i_prev can pass (inequality 3)
    j_max, i_min = prev if prev else (n + 1, 0)
    for j in range(1, j_max + 1):
        for i in range(i_min, n):
            if _junction_ok(prev, (j, i), n):
                yield (j, i)


def _walk(n, m, max_len):
    """The blocks with exactly m pairs (at least one when m is None) and
    length <= max_len (any length when None), lexicographic on their pair
    sequences: one depth-first walk over `_extensions` on an explicit
    stack, smallest pair on top.  A pair adds canonical.pair_length >= 1
    letters, so a prefix past max_len has no extension that comes back."""
    items = []
    stack = [((), 0)]
    while stack:
        prefix, length = stack.pop()
        if len(prefix) == m or (m is None and prefix):
            items.append(prefix)
            if len(items) > MAX_ITEMS:
                raise past_limit("block count", len(items), MAX_ITEMS)
        if len(prefix) == m:
            continue
        for p in reversed(list(_extensions(prefix, n))):
            grown = length + c.pair_length(p, n)
            if max_len is None or grown <= max_len:
                stack.append((prefix + (p,), grown))
    return items


def enumerate_blocks(n, m, *, max_len=None):
    """The blocks with exactly m pairs, and length <= max_len if given."""
    check_rank(n)
    check_count("affine length", m)
    if max_len is not None:
        check_count("max length", max_len)
    return BlockFamily(n, m, tuple(_walk(n, m, max_len)))


def reference_blocks(n, max_len):
    """Every block with positive affine length and length <= max_len, as
    sorted canonical elements."""
    check_rank(n)
    check_count("max length", max_len)
    return sorted((c.Element._trusted(n, p, (), c._encode(n, p, ()))
                   for p in _walk(n, None, max_len)), key=c.sort_key)


# --- the appendix listings -------------------------------------------------

# (cores, has_eps, guard, tiers)
_FAMILIES = {
    2: (
        (((2, 1), (1, 1)), False, None, ((None, (3, 0), (3, 1)), ((2, 0),))),
        (((1, 0), (1, 1)), False, lambda ex: ex[0] > 0, ((None, (3, 0), (2, 0)),)),
    ),
    3: (
        (((3, 1), (2, 1), (1, 1), (1, 2)), True, None,
         ((None, (4, 0)), ((4, 1), (3, 0)), ((2, 0),), ((4, 2),))),
        (((3, 1), (2, 1), (2, 2), (1, 2)), True, lambda ex: ex[2] > 0,
         ((None, (4, 0)), ((4, 1), (3, 0)), ((4, 2),))),
        (((1, 0), (1, 1), (1, 2)), False, lambda ex: ex[0] > 0,
         ((None, (4, 0), (3, 0), (2, 0)),)),
        (((3, 2), (2, 2), (1, 2)), False, lambda ex: ex[0] > 0,
         ((None, (4, 0), (4, 1), (4, 2)),)),
    ),
}


def _left_factors(tiers, ex):
    """The first tier, and one more for each leading zero exponent."""
    zeros = next((t for t, e in enumerate(ex) if e), len(ex))
    return [alpha for tier in tiers[:zeros + 1] for alpha in tier]


def _check_appendix_args(n, max_core):
    if type(n) is not int or n not in _FAMILIES:
        raise ValueError("appendix listings exist for ranks 2 and 3 only")
    check_count("max core exponent", max_core)


def appendix_blocks(n, max_core=2):
    """The listed blocks with every core exponent <= max_core, as canonical
    elements with trivial finite part, sorted.  An InvariantError on a
    malformed or duplicated listing entry, a bug in the data.  The resource
    limit (perms.past_limit), before listing anything, when the exponent
    vectors times the left factors bound the listing above MAX_ITEMS."""
    _check_appendix_args(n, max_core)
    # has_eps gives the first core 2 exponents, every other core max_core + 1
    bound = sum(2 ** has_eps * (max_core + 1) ** (len(cores) - has_eps)
                * sum(map(len, tiers)) for cores, has_eps, _, tiers in _FAMILIES[n])
    if bound > MAX_ITEMS:
        raise past_limit("appendix listing bound", bound, MAX_ITEMS)
    seen = set()
    for cores, has_eps, guard, tiers in _FAMILIES[n]:
        ranges = [
            range((1 if has_eps and t == 0 else max_core) + 1)
            for t in range(len(cores))
        ]
        for ex in itertools.product(*ranges):
            if guard is not None and not guard(ex):
                continue
            core_pairs = tuple(
                p for p, e in zip(cores, ex) for _ in range(e)
            )
            for alpha in _left_factors(tiers, ex):
                if alpha is None and not core_pairs:
                    continue  # affine length 0
                pairs = (() if alpha is None else (alpha,)) + core_pairs
                if not c.validate_block(pairs, n):
                    raise InvariantError("listing family gives an invalid block %r" % (pairs,))
                elem = c.Element._trusted(n, pairs, (), c._encode(n, pairs, ()))
                if elem in seen:
                    raise InvariantError("listing families overlap at %r" % (pairs,))
                seen.add(elem)
    return sorted(seen, key=c.sort_key)


def appendix_threshold(n, max_core):
    """Largest length where the capped listing is complete: a block it
    misses repeats a capped core (any but the first of a has_eps family)
    max_core + 1 times, and a pair costs canonical.pair_length letters."""
    _check_appendix_args(n, max_core)
    cheapest = min(c.pair_length(p, n)
                   for cores, has_eps, *_ in _FAMILIES[n]
                   for p in cores[1 if has_eps else 0:])
    return (max_core + 1) * cheapest - 1


def appendix(n, max_core, max_len=None):
    """(listing, threshold, generated, enumerated): `appendix_blocks` cut to
    length <= max_len, and its check against `reference_blocks` up to the
    threshold.  A disagreement is a bug in this module: InvariantError."""
    if max_len is not None:
        check_count("max length", max_len)
    listing = appendix_blocks(n, max_core)
    thr = appendix_threshold(n, max_core)
    gen = [e for e in listing if c.length(e) <= thr]
    ref = reference_blocks(n, thr)
    if gen != ref:
        raise InvariantError("capped listing disagrees with enumeration below l=%d" % thr)
    if max_len is not None:
        listing = [e for e in listing if c.length(e) <= max_len]
    return listing, thr, len(gen), len(ref)
