"""
Enumeration of affine blocks — the minimal-length representatives of the
right cosets W(~A_n)/W(A_n), indexed by families (j_s, i_s)_{1..m} under
the pairwise inequalities.  Depth-first extension on an explicit stack
(no recursion limit) with the inequalities as pruning predicates.  The
number of blocks of length l is the coefficient of t^l in Bott's series
prod_{k=1..n} 1/(1 - t^k).  With N = n+1, the number of affine length m >= 1 is

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
exponent vectors a family does not own.  The families are infinite, so
`appendix_blocks` caps the other exponents at max_core; below
`appendix_threshold` the capped listing is provably complete, and there
it must equal `reference_blocks`, the enumerator's output.  The rank-3
families are pairwise disjoint; the rank-2 listing needs two
parametrizations (neither alone reaches every block — the first has no
h(1,0) core, the second no h(2,1) core) which overlap on their common
h(1,1)-only entries, so the second is flagged overlap_ok and duplicates
are dropped instead of rejected.
"""

import itertools
from typing import NamedTuple

from . import canonical as c
from .perms import InvariantError, check_rank
from .canonical import _junction_ok

MAX_ITEMS = 2_000_000  # enumerate_blocks raises RuntimeError past this many


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


def enumerate_blocks(n, m):
    check_rank(n)
    if m < 0:
        raise ValueError("affine length must be >= 0")
    items = []
    stack = [()]  # depth first, smallest pair on top: lexicographic output
    while stack:
        prefix = stack.pop()
        if len(prefix) < m:
            stack.extend(prefix + (p,) for p in reversed(list(_extensions(prefix, n))))
            continue
        items.append(prefix)
        if len(items) > MAX_ITEMS:
            raise RuntimeError("block enumeration exceeded %d items at rank %d, m=%d"
                               % (MAX_ITEMS, n, m))
    return BlockFamily(n, m, tuple(items))


def reference_blocks(n, max_len):
    """Every valid block with positive affine length and length <= max_len,
    as sorted canonical elements: one depth-first walk over `_extensions`
    that drops a prefix once it is longer than max_len (a pair (j, i) adds
    n + 2 - j + i >= 1 letters, so no extension of it comes back)."""
    check_rank(n)
    out = []
    stack = [((), 0)]
    while stack:
        prefix, length = stack.pop()
        if prefix:
            out.append(c.Element(n, prefix, ()))
        for j, i in _extensions(prefix, n):
            grown = length + n + 2 - j + i
            if grown <= max_len:
                stack.append((prefix + ((j, i),), grown))
    return sorted(out, key=c.sort_key)


# --- the appendix listings -------------------------------------------------

# (cores, has_eps, guard, tiers, overlap_ok)
_FAMILIES = {
    2: (
        (((2, 1), (1, 1)), False, None, ((None, (3, 0), (3, 1)), ((2, 0),)), False),
        (((1, 0), (1, 1)), False,
         lambda ex: sum(ex) > 0, ((None, (3, 0), (2, 0)), ((3, 1),)), True),
    ),
    3: (
        (((3, 1), (2, 1), (1, 1), (1, 2)), True, None,
         ((None, (4, 0)), ((4, 1), (3, 0)), ((2, 0),), ((4, 2),)), False),
        (((3, 1), (2, 1), (2, 2), (1, 2)), True, lambda ex: ex[2] > 0,
         ((None, (4, 0)), ((4, 1), (3, 0)), ((4, 2),)), False),
        (((1, 0), (1, 1), (1, 2)), False, lambda ex: ex[0] > 0,
         ((None, (4, 0), (3, 0), (2, 0)),), False),
        (((3, 2), (2, 2), (1, 2)), False, lambda ex: ex[0] > 0,
         ((None, (4, 0), (4, 1), (4, 2)),), False),
    ),
}


def _left_factors(tiers, ex):
    """The first tier, and one more for each leading zero exponent."""
    zeros = next((t for t, e in enumerate(ex) if e), len(ex))
    return [alpha for tier in tiers[:zeros + 1] for alpha in tier]


def _check_appendix_args(n, max_core):
    if n not in _FAMILIES:
        raise ValueError("appendix listings exist for ranks 2 and 3 only")
    if max_core < 0:
        raise ValueError("max core exponent must be >= 0, got %d" % max_core)


def appendix_blocks(n, max_core=2):
    """The listed blocks with every core exponent <= max_core, as canonical
    elements with trivial finite part, sorted.  Raises on a malformed or
    duplicated listing entry — the families must be disjoint."""
    _check_appendix_args(n, max_core)
    seen = set()
    for cores, has_eps, guard, tiers, overlap_ok in _FAMILIES[n]:
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
                elem = c.make_element(n, pairs, ())
                if elem in seen:
                    if not overlap_ok:
                        raise InvariantError("listing families overlap at %r" % (pairs,))
                    continue
                seen.add(elem)
    return sorted(seen, key=c.sort_key)


def appendix_threshold(n, max_core):
    """Largest length where the capped listing is complete: a block it
    misses repeats a capped core (any but the first of a has_eps family)
    max_core + 1 times, and a pair (j, i) costs n + 2 - j + i letters."""
    _check_appendix_args(n, max_core)
    cheapest = min(n + 2 - j + i
                   for cores, has_eps, *_ in _FAMILIES[n]
                   for j, i in cores[1 if has_eps else 0:])
    return (max_core + 1) * cheapest - 1
