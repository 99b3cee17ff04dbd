"""Shared oracles and generators for the test suite.

The oracles here deliberately avoid the library's own algebra: reachability
is graph BFS, interval counts are literal path enumeration, maximal chains are
the points of the level-position box whose every step is a cover, and matrix
inversion is Fraction Gauss-Jordan.  Closed forms are tested against these,
never against themselves.
"""

import random
from fractions import Fraction
from itertools import accumulate, product

import pytest

from cobweb import BlockMatrix, FSequence, GradedPoset, cobweb, custom, from_blocks, gauss


EX11 = custom([1, 1, 3, 3, 3, 3, 3, 3], name="ex11")
EX12 = custom([1, 3, 3, 3, 3, 3, 3, 3], name="ex12")


def preset_table():
    """The sequences the acceptance criteria quantify over."""
    from cobweb import const, fib, nat
    return {"nat": nat(), "fib": fib(), "gauss2": gauss(2),
            "const3": const(3), "ex11": EX11, "ex12": EX12}


def all_nodes(P: GradedPoset):
    """Every node of P, level by level and left to right within a level."""
    return [P.node(level, pos) for level, size in enumerate(P.level_sizes, start=1)
            for pos in range(1, size + 1)]


def upper_covers(P: GradedPoset, x):
    """The nodes that cover x, read from its row of P.blocks."""
    if x.level == P.n_levels:
        return []
    row = P.blocks[x.level - 1][x.position - 1]
    return [P.node(x.level + 1, j + 1) for j, v in enumerate(row) if v == 1]


def brute_reach(P: GradedPoset):
    """reach[x] = set of y with x <= y, by BFS over cover arcs."""
    n = P.node_count
    up = {x.global_label: [y.global_label for y in upper_covers(P, x)]
          for x in all_nodes(P)}
    reach = {}
    for start in range(1, n + 1):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for g in frontier:
                for h in up[g]:
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        reach[start] = seen
    return reach


def bit_labels(reach):
    """The 1-based label sets of 0-based bit rows: label y + 1 is in set x
    when bit y of reach[x] is set."""
    return [{y + 1 for y in range(r.bit_length()) if r >> y & 1} for r in reach]


def brute_interval_count(P: GradedPoset, x, y) -> int:
    """Number of cover paths x -> y by literal recursion, no memo."""
    if x == y:
        return 1
    if y.level <= x.level:
        return 0
    return sum(brute_interval_count(P, z, y) for z in upper_covers(P, x))


def brute_chains(P: GradedPoset, k: int, n: int):
    """Position tuples of the maximal chains of levels k..n: every point of
    the box of level positions whose every step is a 1 in P.blocks.  The
    order is lexicographic, as itertools.product gives it."""
    box = product(*(range(1, size + 1) for size in P.level_sizes[k - 1:n]))
    return [pos for pos in box
            if all(P.blocks[k + i - 1][a - 1][b - 1] == 1
                   for i, (a, b) in enumerate(zip(pos, pos[1:])))]


def fraction_inverse(rows):
    """Gauss-Jordan inverse over Fraction; independent of the library."""
    n = len(rows)
    A = [[Fraction(v) for v in row] for row in rows]
    B = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        B[col], B[piv] = B[piv], B[col]
        inv = Fraction(1) / A[col][col]
        A[col] = [v * inv for v in A[col]]
        B[col] = [v * inv for v in B[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * c for a, c in zip(A[r], A[col])]
                B[r] = [b - f * c for b, c in zip(B[r], B[col])]
    return B


def band_matrix(sizes, blocks, ring):
    """The matrix with blocks[k] at block (k+1, k+2) and zeros elsewhere,
    set entry by entry: a poset's cover matrix when the blocks are its
    cover blocks, and any entries of the ring otherwise."""
    off = list(accumulate(sizes, initial=0))
    rows = [[ring.zero] * off[-1] for _ in range(off[-1])]
    for k, blk in enumerate(blocks):
        for i, row in enumerate(blk):
            for j, v in enumerate(row):
                rows[off[k] + i][off[k + 1] + j] = v
    return BlockMatrix(sizes, rows, ring)


def is_one_band(M) -> bool:
    """M is zero outside the blocks (k, k+1)."""
    off, z, n = M._offsets, M.ring.zero, M.n_levels
    for r in range(1, n + 1):
        # rows of level r may be nonzero only in the columns of level r+1
        lo = off[r]
        hi = off[r + 1] if r < n else lo
        for row in M.rows[off[r - 1]:lo]:
            if any(v != z for v in row[:lo]) or any(v != z for v in row[hi:]):
                return False
    return True


def is_zero(M) -> bool:
    return all(v == M.ring.zero for row in M.rows for v in row)


def random_no_mute_blocks(rng: random.Random, rows: int, cols: int):
    """A 0/1 matrix with no zero row and no zero column."""
    while True:
        blk = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        if all(any(r) for r in blk) and all(any(row[j] for row in blk)
                                            for j in range(cols)):
            return blk


def random_no_mute_poset(seed: int, max_levels: int = 5) -> GradedPoset:
    """A connected-by-construction graded poset with no mute nodes and at
    least one missing arc (so it is not a cobweb)."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, max_levels)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        if not any(sizes[k] >= 2 and sizes[k + 1] >= 2 for k in range(n - 1)):
            continue
        blocks = [random_no_mute_blocks(rng, sizes[k], sizes[k + 1])
                  for k in range(n - 1)]
        P = from_blocks(sizes, blocks)
        if not P.is_cobweb:
            return P


def random_cobweb(seed: int, max_levels: int = 5) -> GradedPoset:
    rng = random.Random(seed)
    n = rng.randint(1, max_levels)
    sizes = [rng.randint(1, 4) for _ in range(n)]
    return cobweb(FSequence(sizes), n)


@pytest.fixture
def nat3():
    from cobweb import nat
    return cobweb(nat(), 3)
