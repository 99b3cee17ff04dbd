"""Maximal chains: exhaustive enumeration and memoized counting.

Enumeration is one private walk, _walk, depth-first in lexicographic
position order, so listings are deterministic; it keeps its path on an
explicit stack, so no layer is too deep for it.

Counting never lists.  One private sweep, _tallies, pushes a tally down the
cover blocks level by level, and each counter reads its counts off one
sweep, or off one sweep per level for the table forms.

These counts are the oracle that the closed-form matrices are measured
against, so the counters read nothing but P.blocks and this module imports
nothing from the package but poset: a fault in the matrix closure cannot
reach both sides of a comparison.
"""

from __future__ import annotations

from itertools import compress
from math import prod
from typing import List, NamedTuple, Tuple

from .poset import GradedPoset, NodeLabel, PosetError, check_layer_bounds


class Chain(NamedTuple):
    """A maximal chain of a layer: one node per level from start_level up.

    positions[i] is the 1-based position at level start_level + i.
    """
    start_level: int
    positions: Tuple[int, ...]


def _walk(P: GradedPoset, k: int, n: int, start, frag):
    """Walk the maximal chains of levels k..n, which the caller has checked,
    depth first in lexicographic order.  For each node of level n - 1 (once,
    for level k itself, when k = n) yield the chain's prefix, start +
    frag(k, p_k) + ... + frag(n - 1, p_(n-1)), and the positions on level n
    above that node, ascending and possibly none."""
    # frags[d][p - 1]: the fragment of position p on level k + d
    frags = [[frag(k + d, p) for p in range(1, size + 1)]
             for d, size in enumerate(P.level_sizes[k - 1:n - 1])]
    ups = [[list(compress(range(1, len(row) + 1), row)) for row in blk]
           for blk in P.blocks[k - 1:n - 1]]
    # (depth, prefix, positions on level k + depth); pushed in reverse so
    # that they come off in position order
    stack = [(0, start, range(1, P.level_sizes[k - 1] + 1))]
    while stack:
        d, prefix, positions = stack.pop()
        if d < n - k:
            stack.extend((d + 1, prefix + frags[d][p - 1], ups[d][p - 1])
                         for p in reversed(positions))
        else:
            yield prefix, positions


def enumerate_max_chains(P: GradedPoset, k: int, n: int) -> List[Chain]:
    """Every maximal chain of the layer on levels k..n, in lexicographic
    position order."""
    check_layer_bounds(P, k, n)
    return [Chain(k, prefix + (p,))
            for prefix, tops in _walk(P, k, n, (), lambda level, p: (p,)) for p in tops]


def _tallies(P: GradedPoset, tally: List[int], top: int, bottom: int) -> List[List[int]]:
    """Push a tally on level `top` down the cover blocks to level `bottom`;
    return the tally of every level bottom..top, bottom first.

    Each step gives a node the sum of its upper covers' tallies, so the entry
    of node x counts the cover paths from x up to level top, each weighted by
    the tally of the node it ends on.
    """
    out = [tally]
    for blk in reversed(P.blocks[bottom - 1:top - 1]):
        tally = [sum(compress(tally, row)) for row in blk]
        out.append(tally)
    out.reverse()
    return out


def _unit(P: GradedPoset, node: NodeLabel) -> List[int]:
    tally = [0] * P.level_sizes[node.level - 1]
    tally[node.position - 1] = 1
    return tally


def _interval_rows(P: GradedPoset) -> List[List[int]]:
    """count_interval_chains(P, x, y) at [x - 1][y - 1] for global labels x
    and y, from one sweep per level L.  A chain of [x, y] with y on L takes
    one node per level below L, so its count is below 2^w, w the bit length
    of their size product, and one w-bit field per node of L never carries."""
    rows = [[] for _ in range(P.node_count)]
    for L, size in enumerate(P.level_sizes, start=1):
        w = prod(P.level_sizes[:L - 1]).bit_length()
        mask, shifts = (1 << w) - 1, range(0, w * size, w)
        # levels 1..L in order are global labels 1..S(L)
        packed = [t for tally in _tallies(P, [1 << s for s in shifts], L, 1) for t in tally]
        for row, t in zip(rows, packed):
            row += [t >> s & mask for s in shifts]
        for row in rows[len(packed):]:
            row += [0] * size
    return rows


def count_layer_chains(P: GradedPoset, k: int, n: int) -> int:
    """Number of maximal chains spanning levels k..n, by memoized tallies."""
    check_layer_bounds(P, k, n)
    return sum(_tallies(P, [1] * P.level_sizes[n - 1], n, k)[0])


def count_interval_chains(P: GradedPoset, x: NodeLabel, y: NodeLabel) -> int:
    """Number of maximal chains of the interval [x, y]; 1 when x = y."""
    if x == y:
        return 1
    if y.level <= x.level:
        return 0
    return _tallies(P, _unit(P, y), y.level, x.level)[0][x.position - 1]


def count_tail_chains(P: GradedPoset, r: int, target: NodeLabel) -> int:
    """Chains spanning levels r..target.level that end at target."""
    if not 1 <= r <= target.level:
        raise PosetError(f"tail level {r} must satisfy 1 <= r <= {target.level}")
    return sum(_tallies(P, _unit(P, target), target.level, r)[0])


def count_head_chains(P: GradedPoset, source: NodeLabel, s: int) -> int:
    """Chains spanning levels source.level..s that start at source."""
    if not source.level <= s <= P.n_levels:
        raise PosetError(f"head level {s} must satisfy {source.level} <= s <= {P.n_levels}")
    return _tallies(P, [1] * P.level_sizes[s - 1], s, source.level)[0][source.position - 1]


def layer_chain_counts(P: GradedPoset, s: int) -> List[int]:
    """count_layer_chains(P, r, s) for r = 1..s, at index r - 1, from a
    single sweep down from level s."""
    check_layer_bounds(P, 1, s)
    return [sum(tally) for tally in _tallies(P, [1] * P.level_sizes[s - 1], s, 1)]
