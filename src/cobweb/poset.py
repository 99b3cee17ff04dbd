"""Graded posets stored as level sizes plus 0/1 biadjacency blocks.

A poset on levels 1..n keeps one block per adjacent level pair: blocks[k-1]
has shape |level k| x |level k+1| and records the cover relation upward.
Cobwebs are the all-ones case.  Every structure here is immutable after
construction.

GradedPoset is the one validator of level blocks: the JSON loader and the
CLI hand it their blocks as read, and it names a malformed block, row or
entry by its 0-based path, blocks[k][i][j].  An all-ones block repeats one
row tuple, and the validator checks a row once when it is the same object
as the row before it, so a cobweb is built and checked in time linear in
its node count, not in its cover count.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fsequence import FSequence


class PosetError(ValueError):
    """Invalid poset construction or operation."""


class NodeLabel(NamedTuple):
    """A vertex: its level, 1-based position within the level, and the
    global label under natural labeling (left to right along level 1, then
    level 2, and so on)."""
    level: int
    position: int
    global_label: int


def check_level_sizes(level_sizes, error=PosetError) -> Tuple[int, ...]:
    """The sizes as a tuple, or `error` unless they are a nonempty run of
    positive ints; a bool is not an int here."""
    sizes = tuple(level_sizes)
    for s in sizes:
        if not isinstance(s, int) or isinstance(s, bool):
            raise error(f"level sizes must be ints, got {s!r}")
    if not sizes:
        raise error("at least one level is needed")
    if any(s < 1 for s in sizes):
        raise error(f"level sizes must be positive, got {sizes}")
    return sizes


class GradedPoset:
    """Levels 1..n with 0/1 cover blocks between adjacent levels."""

    def __init__(self, level_sizes: Sequence[int], blocks,
                 sequence_name: Optional[str] = None):
        sizes = check_level_sizes(level_sizes)
        # every shape before any entry, so a shape fault is named first
        if not isinstance(blocks, (list, tuple)) or len(blocks) != len(sizes) - 1:
            raise PosetError(f"blocks: expected {len(sizes) - 1} blocks")
        for k, blk in enumerate(blocks):
            if not isinstance(blk, (list, tuple)) or len(blk) != sizes[k]:
                raise PosetError(f"blocks[{k}]: expected {sizes[k]} rows")
            for i, row in enumerate(blk):
                if not isinstance(row, (list, tuple)) or len(row) != sizes[k + 1]:
                    raise PosetError(f"blocks[{k}][{i}]: expected {sizes[k + 1]} entries")
        blocks = tuple(tuple(map(tuple, blk)) for blk in blocks)
        # one C-level pass per row; a row that is the row before it, by
        # identity, not equality, since [1, 1.0] == [1, 1], was checked there
        is_cobweb, empty_row = True, False
        for k, blk in enumerate(blocks):
            prev = None
            for i, row in enumerate(blk):
                if row is prev:
                    continue
                prev = row
                ones = row.count(1)
                if ones + row.count(0) != len(row) or not set(map(type, row)) <= {int}:
                    j, v = next((j, v) for j, v in enumerate(row)
                                if type(v) is not int or v not in (0, 1))
                    raise PosetError(f"blocks[{k}][{i}][{j}]: expected 0 or 1, got {v!r}")
                is_cobweb = is_cobweb and ones == len(row)
                empty_row = empty_row or ones == 0
        self.level_sizes = sizes
        self.blocks = blocks
        self.sequence_name = sequence_name
        # prefix sums: _offsets[k] = S(k) = number of nodes in levels 1..k
        self._offsets = tuple(accumulate(sizes, initial=0))
        self.is_cobweb = is_cobweb
        # a node lacks an upper cover exactly where a block row has no 1, and
        # a lower cover where a block column has none
        self.has_mute_nodes = not is_cobweb and (
            empty_row or not all(all(map(any, zip(*blk))) for blk in blocks))

    # -- size bookkeeping ---------------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.level_sizes)

    @property
    def node_count(self) -> int:
        return self._offsets[-1]

    def S(self, m: int) -> int:
        """Prefix sum S(m) = sum of the first m level sizes; S(0) = 0."""
        if not 0 <= m <= self.n_levels:
            raise PosetError(f"S({m}) undefined for {self.n_levels} levels")
        return self._offsets[m]

    # -- natural labeling ---------------------------------------------------

    def node(self, level: int, position: int) -> NodeLabel:
        if not 1 <= level <= self.n_levels:
            raise PosetError(f"level {level} out of range 1..{self.n_levels}")
        if not 1 <= position <= self.level_sizes[level - 1]:
            raise PosetError(
                f"position {position} out of range 1..{self.level_sizes[level - 1]} "
                f"at level {level}")
        return NodeLabel(level, position, self._offsets[level - 1] + position)

    def node_by_global(self, g: int) -> NodeLabel:
        if not 1 <= g <= self.node_count:
            raise PosetError(f"global label {g} out of range 1..{self.node_count}")
        k = bisect_left(self._offsets, g)  # the level k with S(k-1) < g <= S(k)
        return NodeLabel(k, g - self._offsets[k - 1], g)

    def nodes(self):
        g = 0
        for level, size in enumerate(self.level_sizes, start=1):
            for pos in range(1, size + 1):
                g += 1
                yield NodeLabel(level, pos, g)

    # -- cover relation -----------------------------------------------------

    def mute_nodes(self) -> List[NodeLabel]:
        """Non-extremal vertices with in-degree or out-degree zero.

        Empty exactly when the poset can be read as an n-ary relation joined
        from its bipartite layers.
        """
        out: List[NodeLabel] = []
        for x in self.nodes():
            col = x.position - 1
            no_lower = x.level > 1 and not any(row[col] for row in self.blocks[x.level - 2])
            no_upper = x.level < self.n_levels and 1 not in self.blocks[x.level - 1][col]
            if no_lower or no_upper:
                out.append(x)
        return out

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GradedPoset)
                and self.level_sizes == other.level_sizes
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.level_sizes, self.blocks))

    def __repr__(self):
        return f"GradedPoset(sizes={list(self.level_sizes)}, cobweb={self.is_cobweb})"


def ones_block(rows: int, cols: int):
    """The all-ones block: one row tuple, repeated."""
    return ((1,) * cols,) * rows


def cobweb(F: FSequence, n: int) -> GradedPoset:
    """The cobweb poset on levels 1..n: sizes <1_F,...,n_F>, all-ones blocks."""
    if n < 1:
        raise PosetError(f"cobweb needs n >= 1, got {n}")
    return cobweb_of_sizes(F.prefix(n), F.name)


def cobweb_of_sizes(sizes: Sequence[int],
                    sequence_name: Optional[str] = None) -> GradedPoset:
    """Cobweb over explicitly given level sizes."""
    sizes = list(sizes)
    blocks = [ones_block(sizes[k], sizes[k + 1]) for k in range(len(sizes) - 1)]
    return GradedPoset(sizes, blocks, sequence_name=sequence_name)


def antichain(size: int) -> GradedPoset:
    """A single trivially ordered level."""
    return GradedPoset([size], [])


def from_blocks(level_sizes: Sequence[int], blocks,
                sequence_name: Optional[str] = None) -> GradedPoset:
    """Validated poset from explicit biadjacency blocks."""
    return GradedPoset(level_sizes, blocks, sequence_name=sequence_name)


def natural_join(P: GradedPoset, Q: GradedPoset) -> GradedPoset:
    """Glue Q on top of P, identifying P's top level with Q's bottom level
    positionally.  Requires the two glue levels to have equal size."""
    if P.level_sizes[-1] != Q.level_sizes[0]:
        raise PosetError(
            f"join condition violated: top of P has size {P.level_sizes[-1]}, "
            f"bottom of Q has size {Q.level_sizes[0]}")
    sizes = P.level_sizes + Q.level_sizes[1:]
    blocks = P.blocks + Q.blocks
    return GradedPoset(sizes, blocks)


def ordinal_sum(P: GradedPoset, Q: GradedPoset) -> GradedPoset:
    """Stack Q above P with every element of P below every element of Q."""
    glue = ones_block(P.level_sizes[-1], Q.level_sizes[0])
    sizes = P.level_sizes + Q.level_sizes
    blocks = P.blocks + (glue,) + Q.blocks
    return GradedPoset(sizes, blocks)


def check_layer_bounds(P: GradedPoset, k: int, n: int):
    if not 1 <= k <= n <= P.n_levels:
        raise PosetError(
            f"layer bounds must satisfy 1 <= k <= n <= {P.n_levels}, got ({k},{n})")


def layer(P: GradedPoset, k: int, n: int) -> GradedPoset:
    """The sub-poset on consecutive levels k..n."""
    check_layer_bounds(P, k, n)
    return GradedPoset(P.level_sizes[k - 1:n], P.blocks[k - 1:n - 1],
                       sequence_name=P.sequence_name)
