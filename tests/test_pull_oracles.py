"""The row solve and the Moebius recurrence, held to the versions they replaced.

blockmat._unit_solve adds c times a level's row sum once wherever a row holds
one value c across a whole higher level, and incidence._mobius_recurrence
pushes each finished mu(x, z) into the sums still pending above z.  The
functions below are the earlier forms, kept verbatim: a solve that adds one
row per nonzero column, and a recurrence that pulls each mu(x, y) from every
z below y.  Both new routes must reproduce them exactly.
"""

from fractions import Fraction
from itertools import repeat

from hypothesis import example, given, settings, strategies as st

from cobweb import BOOL, INT, BlockMatrix, from_blocks, mobius, reachable_sets, zeta
from cobweb.blockmat import _unit_solve

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
