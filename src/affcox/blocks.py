"""
Enumeration of affine blocks — the minimal-length representatives of the
right cosets W(~A_n)/W(A_n), indexed by families (j_s, i_s)_{1..m} under
the pairwise inequalities.  Depth-first extension on an explicit stack
(no recursion limit) with the inequalities as pruning predicates; there
is no closed counting formula by affine length, so counts are regression
data, not theory.
"""

from typing import NamedTuple

from .perms import check_rank
from .canonical import _junction_ok
from .canonical import coset_rep, validate_block  # noqa: F401  (re-exported)


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


def enumerate_blocks(n, m, max_items=2_000_000):
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
        if len(items) > max_items:
            raise RuntimeError(
                "block enumeration exceeded %d items at rank %d, m=%d"
                % (max_items, n, m)
            )
    return BlockFamily(n, m, tuple(items))
