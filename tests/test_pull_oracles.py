"""The row solve, the product, reachability and the Moebius recurrence, held
to the versions they replaced.

blockmat._unit_solve adds c times a level's row sum once wherever a row holds
one value c across a whole higher level, blockmat.mul does the same across
any level of more than one node, incidence.reachable_sets reads the up-covers
straight from the cover blocks, and incidence._mobius_recurrence pushes each
finished mu(x, z) into the sums still pending above z.  The functions below
are the earlier forms, kept verbatim: a solve that adds one row per nonzero
column, a product that walks every nonzero pair, a traversal over node
labels, and a recurrence that pulls each mu(x, y) from every z below y.  The
new routes must reproduce them exactly.
"""

import time
from fractions import Fraction
from itertools import repeat
from typing import List, Set

from hypothesis import example, given, settings, strategies as st

from cobweb import BOOL, INT, BlockMatrix, cobweb, from_blocks, gauss, mobius, mul, \
    reachable_sets, zeta
from cobweb.blockmat import _check_compatible, _unit_solve
from cobweb.poset import GradedPoset

from conftest import fraction_inverse


# -- the earlier forms ----------------------------------------------------------

def pull_unit_solve(rows, ring, negate):
    """Rows of R = I + N R (negate false) or R = I - N R (negate true),
    where N is the part of `rows` right of the diagonal; nothing else of
    `rows` is read."""
    n = len(rows)
    zero, one, radd, rmul = ring.zero, ring.one, ring.add, ring.mul
    out = [None] * n
    # parts[k] = (s, vals): row k of R right of its diagonal is zero outside
    # columns s .. s + len(vals) - 1, where it holds vals
    parts = [None] * n
    for x in range(n - 1, -1, -1):
        acc = [zero] * n
        for k, c in enumerate(rows[x][x + 1:], x + 1):
            if c != zero:
                acc[k] = radd(acc[k], c)
                s, vals = parts[k]
                e = s + len(vals)
                if c != one:
                    vals = map(rmul, repeat(c), vals)
                acc[s:e] = map(radd, acc[s:e], vals)
        if negate:
            acc[x + 1:] = map(ring.neg, acc[x + 1:])
        s, e = x + 1, n
        while s < e and acc[s] == zero:
            s += 1
        while e > s and acc[e - 1] == zero:
            e -= 1
        parts[x] = (s, acc[s:e])
        acc[x] = one
        out[x] = acc
    return out


def walk_mul(A: BlockMatrix, B: BlockMatrix) -> BlockMatrix:
    """Exact ring product of two full matrices; no triangular shape assumed.

    Time is proportional to the nonzeros: each row of B is reduced once to
    its nonzero (j, b) pairs, and each nonzero a of A walks only those.
    """
    _check_compatible(A, B)
    ring = A.ring
    zero, radd, rmul = ring.zero, ring.add, ring.mul
    bnz = [[(j, b) for j, b in enumerate(brow) if b != zero] for brow in B.rows]
    out = []
    for arow in A.rows:
        acc = [zero] * A.size
        for k, a in enumerate(arow):
            if a != zero:
                for j, b in bnz[k]:
                    acc[j] = radd(acc[j], rmul(a, b))
        out.append(acc)
    return BlockMatrix(A.level_sizes, out, ring)


def label_reachable_sets(P: GradedPoset) -> List[Set[int]]:
    """reachable_sets(P)[x] is the set of global labels y with x <= y,
    computed by graph traversal of the cover digraph (no matrix algebra)."""
    N = P.node_count
    up: List[List[int]] = [[] for _ in range(N + 1)]
    for x in P.nodes():
        up[x.global_label] = [y.global_label for y in P.upper_covers(x)]
    reach: List[Set[int]] = [set() for _ in range(N + 1)]
    for g in range(N, 0, -1):
        acc = {g}
        for h in up[g]:
            acc |= reach[h]
        reach[g] = acc
    return reach


def pull_mobius_recurrence(P):
    # mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z) over x <= z < y, evaluated
    # on global labels; independent of both zeta construction and inversion.
    N = P.node_count
    reach = reachable_sets(P)
    rows = [[0] * N for _ in range(N)]
    for x in range(1, N + 1):
        rows[x - 1][x - 1] = 1
        above = sorted(reach[x])
        for y in above:
            if y == x:
                continue
            acc = 0
            for z in above:
                if z != y and y in reach[z]:
                    acc += rows[x - 1][z - 1]
            rows[x - 1][y - 1] = -acc
    return BlockMatrix(P.level_sizes, rows, INT)


# -- the row solve ----------------------------------------------------------------

SIZES = st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=1, max_size=5)


@st.composite
def block_upper(draw, ring):
    """(sizes, rows): each block above the diagonal is constant 0, 1, 2 or -3
    (over BOOL, 0 or 1) or mixed, and a diagonal block is zero or carries
    entries above its diagonal, which the inverse accepts.  The diagonal and
    everything below it are junk, since the solve must not read them."""
    sizes = draw(SIZES)
    consts = [0, 1] if ring is BOOL else [0, 1, 2, -3]
    entry = st.integers(0, 1) if ring is BOOL else st.integers(-3, 3)
    level = [r for r, size in enumerate(sizes) for _ in range(size)]
    n = len(level)
    fill = {(r, s): draw(st.sampled_from([0, "mixed"] if s == r else consts + ["mixed"]))
            for r in range(len(sizes)) for s in range(r, len(sizes))}
    rows = [[draw(entry) if j <= i or fill[level[i], level[j]] == "mixed"
             else fill[level[i], level[j]] for j in range(n)] for i in range(n)]
    return tuple(sizes), rows


@settings(max_examples=150, deadline=None)
@given(block_upper(INT), st.booleans())
@example(((1,), [[5]]), True)
@example(((2, 1, 3), [[9, 0, 2, 2, 2, 2], [0, 9, 2, 2, 2, 2], [0, 0, 9, -3, -3, -3],
                      [0, 0, 0, 9, 0, 0], [0, 0, 0, 0, 9, 0], [0, 0, 0, 0, 0, 9]]), True)
@example(((1, 1, 1), [[1, 1, 1], [0, 1, 1], [0, 0, 1]]), False)
def test_row_solve_matches_the_pull_solve_over_int(case, negate):
    sizes, rows = case
    assert _unit_solve(rows, sizes, INT, negate) == pull_unit_solve(rows, INT, negate)


@settings(max_examples=150, deadline=None)
@given(block_upper(BOOL))
@example(((2, 2), [[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]]))
def test_row_solve_matches_the_pull_solve_over_bool(case):
    sizes, rows = case
    assert _unit_solve(rows, sizes, BOOL, False) == pull_unit_solve(rows, BOOL, False)


def test_constant_blocks_add_the_level_sum_with_its_diagonal_and_coefficient():
    # row 0 holds 2 across level 2 and -3 across level 3; rows 1 and 2 reach
    # level 3 in different columns, so the sum of level 2 is not a multiple
    # of one row
    sizes = (1, 2, 2)
    rows = [[1, 2, 2, -3, -3],
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 5],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1]]
    for negate in (False, True):
        got = _unit_solve(rows, sizes, INT, negate)
        assert got == pull_unit_solve(rows, INT, negate)
    # R = I + N R: row 0 = e_0 + 2 (R[1] + R[2]) - 3 (R[3] + R[4])
    assert _unit_solve(rows, sizes, INT, False)[0] == [1, 2, 2, -1, 7]


# -- the Moebius recurrence ---------------------------------------------------------

@st.composite
def zero_one_posets(draw):
    """Posets from 0/1 blocks that may be all zero, all ones or random, so
    mute nodes, single levels and levels of size 1 all occur."""
    sizes = draw(SIZES)
    blocks = []
    for a, b in zip(sizes, sizes[1:]):
        kind = draw(st.sampled_from(["zeros", "ones", "random"]))
        if kind == "random":
            blocks.append([[draw(st.integers(0, 1)) for _ in range(b)] for _ in range(a)])
        else:
            blocks.append([[int(kind == "ones")] * b for _ in range(a)])
    return from_blocks(sizes, blocks)


@settings(max_examples=120, deadline=None)
@given(zero_one_posets())
@example(from_blocks([3], []))
@example(from_blocks([1, 1, 1], [[[1]], [[0]]]))
@example(from_blocks([2, 2, 2], [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]))
def test_mobius_recurrence_matches_the_pull_recurrence_and_gauss_jordan(P):
    mu = mobius(P, "recurrence")
    assert mu == pull_mobius_recurrence(P)
    oracle = fraction_inverse(zeta(P, "closure").rows)
    assert [[Fraction(v) for v in row] for row in mu.rows] == oracle


# -- the product --------------------------------------------------------------------

@st.composite
def factor_pairs(draw, ring):
    """(A, B) of one shape, neither triangular.  Each level of a row of A is
    one constant, 0, 1 or another value, or mixed; the entries of B are
    drawn from the same pool, row by row all zero or mixed."""
    sizes = draw(SIZES)
    pool = [0, 1] if ring is BOOL else [0, 1, 2, -1, -3, 10 ** 30, -10 ** 30]
    entry = st.sampled_from(pool)
    n = sum(sizes)
    a_rows = []
    for _ in range(n):
        row = []
        for size in sizes:
            c = draw(st.sampled_from(pool + ["mixed"]))
            row += draw(st.lists(entry, min_size=size, max_size=size)) if c == "mixed" \
                else [c] * size
        a_rows.append(row)
    b_rows = [draw(st.lists(entry, min_size=n, max_size=n)) if draw(st.booleans())
              else [0] * n for _ in range(n)]
    return BlockMatrix(sizes, a_rows, ring), BlockMatrix(sizes, b_rows, ring)


@settings(max_examples=200, deadline=None)
@given(factor_pairs(INT))
@example((BlockMatrix([1], [[-3]]), BlockMatrix([1], [[10 ** 30]])))
@example((BlockMatrix([1, 2], [[0, 2, 2], [1, 1, 1], [5, -1, -1]]),
          BlockMatrix([1, 2], [[7, 0, 0], [1, 2, 3], [-1, 10 ** 30, 0]])))
def test_product_matches_the_pair_walk_over_int(pair):
    A, B = pair
    assert mul(A, B) == walk_mul(A, B)


@settings(max_examples=200, deadline=None)
@given(factor_pairs(BOOL))
@example((BlockMatrix([1], [[1]], BOOL), BlockMatrix([1], [[1]], BOOL)))
@example((BlockMatrix([2, 1], [[1, 1, 0], [0, 0, 1], [1, 0, 1]], BOOL),
          BlockMatrix([2, 1], [[0, 1, 1], [1, 0, 1], [0, 0, 0]], BOOL)))
def test_product_matches_the_pair_walk_over_bool(pair):
    A, B = pair
    assert mul(A, B) == walk_mul(A, B)


def test_level_sum_product_is_faster_than_the_pair_walk():
    # zeta * mu on gauss:q=2 with 8 levels (502 nodes), best of 3 CPU times,
    # taken in turn so that a slow spell of the machine hits both sides
    P = cobweb(gauss(2), 8)
    zi, mu = zeta(P, "closure").with_ring(INT), mobius(P, "invert")
    best = {mul: float("inf"), walk_mul: float("inf")}
    for _ in range(3):
        for f in best:
            t = time.process_time()
            f(zi, mu)
            best[f] = min(best[f], time.process_time() - t)
    assert best[mul] <= 0.3 * best[walk_mul], best


# -- reachability ---------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(zero_one_posets())
@example(from_blocks([3], []))
@example(from_blocks([2, 1, 2], [[[0], [1]], [[0, 0]]]))
def test_reachable_sets_match_the_label_traversal(P):
    assert reachable_sets(P) == label_reachable_sets(P)
