"""The row solve, the product, reachability, the Moebius recurrence and the
max suite's chain-count oracle, held to the versions they replaced.

blockmat._unit_solve holds each row as one packed int and adds c times a
level's row sum once wherever a row holds one value c across a whole level,
blockmat.mul adds a row of B for each nonzero entry of A,
incidence.reachable_sets ORs the bit rows of the up-covers read straight
from the cover blocks, and incidence._mobius_recurrence_rows solves mu
column by column, a band of rows at a time, each column one packed int.
The functions below are the earlier forms: two generations of each, and for
the recurrence a third, the suffix walk the library ran before the packed
columns.  The list forms hold a row as a list of entries, with the same
level rule, and push mu(x, z) into every node above z; the older ones add
one row per nonzero column, walk every nonzero pair, traverse node labels
into label sets, and pull each mu(x, y) from every z below y.  The push and
pull recurrences read the label traversal, not the library's reachability,
and the suffix walk reads reachable_sets, which the packed columns do not,
so a fault in either traversal cannot reach both sides of a comparison.  The
new routes must reproduce the earlier forms exactly, at every field width
the packed rows need.

chains._interval_rows counts the chains of every pair with one tally sweep
per level, each node's tally packed as one bit field per node of the level;
the max suite used to sweep once per node y (interval_chain_column) and
compare column by column, and that loop is kept below as its reference.
"""

import inspect
import operator
import random
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, compress, count, repeat
from typing import List, Set

import pytest
from hypothesis import example, given, settings, strategies as st

from cobweb import BOOL, INT, BlockMatrix, blockmat, chains, cobweb, cobweb_of_sizes, const, \
    count_interval_chains, eta_inverse, fib, from_blocks, gauss, incidence, max_matrix, mobius, \
    mul, nat, reachable_sets, root, suites, zeta
from cobweb.blockmat import _check_compatible, _packed_pass, _unit_solve
from cobweb.chains import _interval_rows, _tallies, _unit
from cobweb.incidence import _bit_row, kappa, level_eta_inverse, level_max, level_mobius, \
    level_zeta
from cobweb.poset import GradedPoset, NodeLabel

from conftest import all_nodes, band_matrix, bit_labels, brute_interval_count, \
    fraction_inverse, random_cobweb, random_no_mute_poset, upper_covers


# -- the earlier forms ----------------------------------------------------------

def pull_unit_solve(rows, ring, negate):
    """Rows of R = I + N R (negate false) or R = I - N R (negate true),
    where N is the part of `rows` right of the diagonal; nothing else of
    `rows` is read."""
    n = len(rows)
    zero, one, radd, rmul = 0, 1, ring.add, ring.mul
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
            acc[x + 1:] = map(operator.neg, acc[x + 1:])
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
    zero, radd, rmul = 0, ring.add, ring.mul
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
    """label_reachable_sets(P)[x] is the set of global labels y with x <= y,
    computed by graph traversal of the cover digraph (no matrix algebra)."""
    N = P.node_count
    up: List[List[int]] = [[] for _ in range(N + 1)]
    for x in all_nodes(P):
        up[x.global_label] = [y.global_label for y in upper_covers(P, x)]
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
    reach = label_reachable_sets(P)
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


# the list forms: each row of R a list of entries, kept right of its
# diagonal from its first to its last nonzero, and a push recurrence that
# walks the whole strict up-set of every z

def list_mul(A: BlockMatrix, B: BlockMatrix) -> BlockMatrix:
    """Exact ring product of two full matrices, by the level rule (see the
    module docstring); nonzero pairs and level sums of B are built on first
    use, once per product."""
    _check_compatible(A, B)
    ring = A.ring
    zero, one, radd, rmul = 0, 1, ring.add, ring.mul
    n, off = A.size, A._offsets
    bnz = [None] * n
    sums = {}
    out = []
    for arow in A.rows:
        acc = [zero] * n
        for a, b in zip(off, off[1:]):
            c = arow[a]
            if b - a > 1 and arow[a:b].count(c) == b - a:
                if c != zero:
                    if a not in sums:
                        tot = [zero] * n
                        for brow in B.rows[a:b]:
                            tot = list(map(radd, tot, brow))
                        sums[a] = _span(tot, 0, zero)
                    s, vals = sums[a]
                    e = s + len(vals)
                    if c != one:
                        vals = map(rmul, repeat(c), vals)
                    acc[s:e] = map(radd, acc[s:e], vals)
                continue
            for k, v in enumerate(arow[a:b], a):
                if v != zero:
                    if bnz[k] is None:
                        bnz[k] = [(j, x) for j, x in enumerate(B.rows[k]) if x != zero]
                    for j, x in bnz[k]:
                        acc[j] = radd(acc[j], rmul(v, x))
        out.append(acc)
    return BlockMatrix(A.level_sizes, out, ring)


def _span(acc, s, zero):
    """(s', acc[s':e]): acc from column s on is zero outside s' .. e - 1."""
    e = len(acc)
    while s < e and acc[s] == zero:
        s += 1
    while e > s and acc[e - 1] == zero:
        e -= 1
    return s, acc[s:e]


def list_unit_solve(rows, sizes, ring, negate):
    """Rows of R = I + N R (negate false) or R = I - N R (negate true),
    where N is the part of `rows` right of the diagonal and `sizes` are the
    level sizes; nothing else of `rows` is read."""
    n = len(rows)
    zero, one, radd, rmul = 0, 1, ring.add, ring.mul
    off = tuple(accumulate(sizes, initial=0))
    out = [None] * n
    # parts[k] = (s, vals): row k of R right of its diagonal is zero outside
    # columns s .. s + len(vals) - 1, where it holds vals
    parts = [None] * n
    sums = [None] * len(sizes)
    for lvl in reversed(range(len(sizes))):
        for x in reversed(range(off[lvl], off[lvl + 1])):
            # N R = N + N (R - I): N[x] itself carries every diagonal term
            row = rows[x]
            acc = [zero] * (x + 1) + list(row[x + 1:])
            terms = [(v, parts[k]) for k, v in enumerate(row[x + 1:off[lvl + 1]], x + 1)
                     if v != zero]
            for m in range(lvl + 1, len(sizes)):
                a, b = off[m], off[m + 1]
                c = row[a]
                if row[a:b].count(c) < b - a:
                    terms += [(v, parts[k]) for k, v in enumerate(row[a:b], a) if v != zero]
                elif c != zero:
                    # one c across level m: c times sums[m], its parts' sum
                    if sums[m] is None:
                        tot = [zero] * n
                        for s, vals in parts[a:b]:
                            tot[s:s + len(vals)] = map(radd, tot[s:s + len(vals)], vals)
                        sums[m] = (a, tot[a:])
                    terms.append((c, sums[m]))
            for c, (s, vals) in terms:
                e = s + len(vals)
                if c != one:
                    vals = map(rmul, repeat(c), vals)
                acc[s:e] = map(radd, acc[s:e], vals)
            if negate:
                acc[x + 1:] = map(operator.neg, acc[x + 1:])
            parts[x] = _span(acc, x + 1, zero)
            acc[x] = one
            out[x] = acc
    return out


def push_mobius_recurrence(P: GradedPoset) -> BlockMatrix:
    # mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z) over x <= z < y, solved from
    # the left over reachability alone, so it uses neither a zeta construction
    # nor the inversion's row solve: walking the up-set of x in label order,
    # mu(x, z) is final when z is reached and is taken off every y above z.
    N = P.node_count
    reach = label_reachable_sets(P)
    strict = [sorted(y - 1 for y in reach[z] if y != z) for z in range(1, N + 1)]
    rows = [[0] * N for _ in range(N)]
    for x, row in enumerate(rows):
        row[x] = 1
        for z in [x] + strict[x]:
            m = row[z]
            if m:
                for y in strict[z]:
                    row[y] -= m
    return BlockMatrix(P.level_sizes, rows, INT)


# the column oracle: one tally sweep per node y, compared column by column

def interval_chain_column(P: GradedPoset, y: NodeLabel) -> List[int]:
    """count_interval_chains(P, x, y) for every node x, indexed by global
    label minus one, from a single sweep down from y."""
    # levels 1..y.level in order are global labels 1..S(y.level)
    col = [c for tally in _tallies(P, _unit(P, y), y.level, 1) for c in tally]
    return col + [0] * (P.node_count - len(col))


def column_first_mismatch(P: GradedPoset, M: BlockMatrix):
    """(x, y, counted, matrix) of the first entry of M in row-major order
    that differs from the chain count, or None, as suites.suite_max found it."""
    # one oracle sweep per column y; the first mismatch in row-major order is
    # the smallest (x, y) over the columns' first mismatches
    bad = None
    for y in all_nodes(P):
        j = y.global_label - 1
        limit = P.node_count if bad is None else bad[0] - 1
        for i, want in enumerate(interval_chain_column(P, y)[:limit]):
            got = M.rows[i][j]
            if want != got:
                bad = (i + 1, j + 1, want, got)
                break
    return bad


# -- the row solve ----------------------------------------------------------------

SIZES = st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=1, max_size=5)
BIG = 10 ** 30


@st.composite
def block_upper(draw, ring, big=False):
    """(sizes, rows): each block above the diagonal is constant 0, 1, 2 or -3
    (over BOOL, 0 or 1; with `big`, also +-10**30) or mixed, and a diagonal
    block is zero or carries entries above its diagonal, which the inverse
    accepts.  The diagonal and everything below it are junk, since the solve
    must not read them."""
    sizes = draw(SIZES)
    if ring is BOOL:
        consts, entry = [0, 1], st.integers(0, 1)
    else:
        consts, entry = [0, 1, 2, -3], st.integers(-3, 3)
        if big:
            consts += [BIG, -BIG]
            entry |= st.sampled_from([BIG, -BIG])
    level = [r for r, size in enumerate(sizes) for _ in range(size)]
    n = len(level)
    fill = {(r, s): draw(st.sampled_from([0, "mixed"] if s == r else consts + ["mixed"]))
            for r in range(len(sizes)) for s in range(r, len(sizes))}
    rows = [[draw(entry) if j <= i or fill[level[i], level[j]] == "mixed"
             else fill[level[i], level[j]] for j in range(n)] for i in range(n)]
    return tuple(sizes), rows


@settings(max_examples=200, deadline=None)
@given(block_upper(INT) | block_upper(INT, big=True), st.booleans())
@example(((1,), [[5]]), True)
@example(((2, 1, 3), [[9, 0, 2, 2, 2, 2], [0, 9, 2, 2, 2, 2], [0, 0, 9, -3, -3, -3],
                      [0, 0, 0, 9, 0, 0], [0, 0, 0, 0, 9, 0], [0, 0, 0, 0, 0, 9]]), True)
@example(((1, 1, 1), [[1, 1, 1], [0, 1, 1], [0, 0, 1]]), False)
@example(((1, 2, 1), [[0, BIG, -BIG, 0], [0, 0, 0, BIG], [0, 0, 0, BIG], [0, 0, 0, 0]]), False)
def test_row_solve_matches_the_pull_solve_over_int(case, negate):
    sizes, rows = case
    got = _unit_solve(rows, sizes, INT, negate)
    assert got == list_unit_solve(rows, sizes, INT, negate) == pull_unit_solve(rows, INT, negate)


@settings(max_examples=150, deadline=None)
@given(block_upper(BOOL))
@example(((1,), [[1]]))
@example(((2, 2), [[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]]))
@example(((2, 2), [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
def test_row_solve_matches_the_pull_solve_over_bool(case):
    sizes, rows = case
    got = _unit_solve(rows, sizes, BOOL, False)
    assert all(type(row) is bytes for row in got)
    assert list(map(list, got)) == list_unit_solve(rows, sizes, BOOL, False) == \
        pull_unit_solve(rows, BOOL, False)


def test_constant_blocks_add_the_level_sum_with_its_diagonal_and_coefficient(monkeypatch):
    # row 0 holds 2 across level 2 and -3 across level 3; rows 1 and 2 reach
    # level 3 in different columns, so the sum of level 2 is not a multiple
    # of one row
    sizes = (1, 2, 2)
    rows = [[1, 2, 2, -3, -3],
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 5],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1]]
    terms = recorded_terms(monkeypatch)
    for negate in (False, True):
        terms.clear()
        got = _unit_solve(rows, sizes, INT, negate)
        assert got == pull_unit_solve(rows, INT, negate)
        # rows 4 .. 0, each twice: rows 2 and 1 take one column of level 3,
        # and row 0 one term per level, not 2 + 2
        assert terms == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    # R = I + N R: row 0 = e_0 + 2 (R[1] + R[2]) - 3 (R[3] + R[4])
    assert _unit_solve(rows, sizes, INT, False)[0] == [1, 2, 2, -1, 7]


# Row 0 holds ones across level 2 but for one hole, opening with a 1, and
# across level 3 but for one hole, opening with the hole: both levels add
# their sum less the hole.  Row 2 reads 1, 1, 2, 1 on level 3, which is no
# 0/1 level, row 1 no 0/1 level either and row 5 a level half ones; each
# goes column by column.
HOLES_SIZES = (1, 5, 4)
HOLES_ROWS = [[1, 1, 1, 0, 1, 1, 0, 1, 1, 1],
              [0, 1, 0, 0, 0, 0, 2, 0, -1, 0],
              [0, 0, 1, 0, 0, 0, 1, 1, 2, 1],
              [0, 0, 0, 1, 0, 0, 1, 1, 1, 1],
              [0, 0, 0, 0, 1, 0, -3, 0, 0, 2],
              [0, 0, 0, 0, 0, 1, 0, 1, 0, 1]] + \
             [[0] * x + [1] + [0] * (9 - x) for x in range(6, 10)]


def recorded_terms(monkeypatch):
    """The number of terms of each packed sum the INT pass adds, in order:
    a row's entries, then its bound."""
    terms = []
    real = blockmat._dot
    monkeypatch.setattr(blockmat, "_dot", lambda cs, vs: terms.append(len(cs)) or real(cs, vs))
    return terms


def test_a_level_mostly_ones_adds_its_sum_less_its_holes(monkeypatch):
    terms = recorded_terms(monkeypatch)
    for negate in (False, True):
        terms.clear()
        got = _unit_solve(HOLES_ROWS, HOLES_SIZES, INT, negate)
        assert got == list_unit_solve(HOLES_ROWS, HOLES_SIZES, INT, negate) == \
            pull_unit_solve(HOLES_ROWS, INT, negate)
        # rows 9 .. 0, each twice: rows 5, 4, 2 and 1 take their level-3
        # entries one column at a time, row 3 holds one value there, and
        # row 0 takes one term per level, not 4 + 3
        assert terms == [0] * 8 + [2, 2, 2, 2, 1, 1, 4, 4, 2, 2, 2, 2]


def test_the_product_matches_the_pair_walk_on_a_level_mostly_ones():
    # A is the holes system: rows of ones with holes (c = 1 adds a row of B
    # as it is), rows of other values, and B one entry past any field width
    A = BlockMatrix(HOLES_SIZES, HOLES_ROWS)
    B = BlockMatrix(HOLES_SIZES, [[(x * 7 + y * 3) % 5 - 2 + BIG * (x == y == 4)
                                   for y in range(10)] for x in range(10)])
    assert mul(A, B) == list_mul(A, B) == walk_mul(A, B)
    # row 0 adds rows 0, 1, 2, 4, 5, 7, 8 and 9 of B, each as it is
    assert mul(A, B).rows[0] == [sum(B.rows[k][y] for k in (0, 1, 2, 4, 5, 7, 8, 9))
                                 for y in range(10)]


@pytest.mark.parametrize("n, widths", [(60, (64,)), (70, (64, 128)), (200, (64, 128, 256))])
def test_long_chains_restart_the_solve_at_twice_the_field_width(n, widths):
    # N all ones above the diagonal of a chain of one-node levels: the
    # closure holds 2^(y-x-1), and the bound on the inverse, whose true
    # entries are 1 and -1, doubles with every row as well
    sizes = (1,) * n
    rows = [[int(j > i) for j in range(n)] for i in range(n)]
    for w in widths[:-1]:
        assert _packed_pass(rows, sizes, w) is None
    assert _packed_pass(rows, sizes, widths[-1]) is not None
    closure = _unit_solve(rows, sizes, INT, False)
    assert closure == list_unit_solve(rows, sizes, INT, False)
    assert closure[0][1:] == [2 ** (y - 1) for y in range(1, n)]
    inverse = _unit_solve(rows, sizes, INT, True)
    assert inverse == list_unit_solve(rows, sizes, INT, True)
    assert inverse[0][:3] == [1, -1, 0] and inverse[n - 2][n - 2:] == [1, -1]


def test_the_product_is_exact_past_the_field_width():
    # A and B fit 64-bit fields, but row 0 of A B is 2 * 2^30 * 2^40 = 2^71:
    # the product holds each entry as one exact int, with no field to outgrow
    sizes = (1, 1)
    A = BlockMatrix(sizes, [[2 ** 30, 2 ** 30], [0, 0]])
    B = BlockMatrix(sizes, [[2 ** 40, 0], [2 ** 40, 0]])
    got = mul(A, B)
    assert list(map(tuple, got.rows)) == [(2 ** 71, 0), (0, 0)]
    assert got == walk_mul(A, B) == list_mul(A, B)


def test_the_pass_fails_once_a_bound_reaches_a_quarter_of_the_field():
    # row 0 of the solve adds N[0][1] times row 1, bounded by 1, so its
    # bound is N[0][1]: at 2^62 = 2^(64-2) the 64-bit pass fails, and one
    # less keeps the bound below it
    sizes = (1, 1)
    for negate in (False, True):
        rows = [[1, 2 ** 62], [0, 1]]
        assert _packed_pass(rows, sizes, 64, negate) is None
        rows[0][1] -= 1
        assert _packed_pass(rows, sizes, 64, negate) is not None
        assert _unit_solve(rows, sizes, INT, negate) == list_unit_solve(rows, sizes, INT, negate)


def test_the_holes_rule_bounds_a_level_by_its_ones_alone(monkeypatch):
    # row 0 holds ones on two of the three level-2 columns, so it adds the
    # level sum less row 3, bounded by 2^60 + 2^60 = 2^61 and not by the
    # 2^62 of the whole level, and the 64-bit pass succeeds
    sizes = (1, 3, 1)
    rows = [[1, 1, 1, 0, 0],
            [0, 1, 0, 0, 2 ** 60],
            [0, 0, 1, 0, 2 ** 60],
            [0, 0, 0, 1, 2 ** 61],
            [0, 0, 0, 0, 1]]
    terms = recorded_terms(monkeypatch)
    for negate in (False, True):
        terms.clear()
        assert _packed_pass(rows, sizes, 64, negate) is not None
        # row 0 adds one term, the level sum less its hole
        assert terms[-2:] == [1, 1]
        assert _unit_solve(rows, sizes, INT, negate) == list_unit_solve(rows, sizes, INT, negate)


def test_level_routes_past_64_bits_match_the_list_solve(monkeypatch):
    # the level tables of gauss:q=2 on 12 levels pass 2^64, so the INT
    # solves restart with 128-bit fields
    P = cobweb(gauss(2), 12)
    routes = (level_zeta, level_max, level_eta_inverse, partial(level_mobius, method="invert"))
    got = [route(P) for route in routes]
    assert max(abs(v) for row in got[1].entries for v in row) >= 2 ** 64
    monkeypatch.setattr(incidence, "_unit_solve", list_unit_solve)
    assert [route(P) for route in routes] == got


def test_packed_closure_is_faster_than_the_list_solve_on_sparse_covers():
    # BOOL closure of the cover matrix of 260 nodes on 7 levels at density
    # 0.1, where a row is rarely constant across a level; best of 3 CPU
    # times, taken in turn so that a slow spell of the machine hits both
    rng = random.Random(9)
    sizes = (37,) * 6 + (38,)
    P = from_blocks(sizes, [[[int(rng.random() < 0.1) for _ in range(b)] for _ in range(a)]
                            for a, b in zip(sizes, sizes[1:])])
    rows = kappa(P).rows
    best = {_unit_solve: float("inf"), list_unit_solve: float("inf")}
    for _ in range(3):
        for f in best:
            t = time.process_time()
            f(rows, sizes, BOOL, False)
            best[f] = min(best[f], time.process_time() - t)
    assert best[_unit_solve] <= 0.5 * best[list_unit_solve], best


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
@example(from_blocks([2, 3, 1, 2], [[[1, 0, 0], [0, 1, 1]], [[1], [1], [0]],
                                    [[1, 1]]]))
@example(from_blocks([1, 2, 2, 2], [[[1, 1]], [[1, 0], [1, 1]], [[1, 1], [0, 0]]]))
# a 70-node chain, whose bit rows span two 64-bit words
@example(from_blocks([1] * 70, [[[1]]] * 69))
# the strict up-set of node 1 misses only node 2, the first of level 2, so
# its whole levels start at level 3
@example(from_blocks([1, 2, 2], [[[0, 1]], [[1, 0], [1, 1]]]))
def test_mobius_recurrence_matches_the_pull_recurrence_and_gauss_jordan(P):
    mu = mobius(P, "recurrence")
    assert mu == push_mobius_recurrence(P) == pull_mobius_recurrence(P)
    oracle = fraction_inverse(zeta(P, "closure").rows)
    assert [[Fraction(v) for v in row] for row in mu.rows] == oracle


# -- the recurrence by packed columns, held to the suffix walk it replaced ----------
#
# suffix_walk_rows is the library's recurrence before the packed columns,
# kept verbatim: one row at a time over reachability, each finished
# mu(x, z) taken off the head of z and, through a pending total, off the
# whole levels above it.  The packed columns read down-sets instead and
# solve _BAND rows at once, so the two share no step but the cover blocks.

def suffix_walk_rows(P: GradedPoset):
    # The rows of mu, one at a time.  mu(x, x) = 1 and mu(x, y) = -sum of
    # mu(x, z) over x <= z < y, solved from the left over reachability alone,
    # so it uses neither a zeta construction nor the inversion's row solve:
    # walking the up-set of x in label order, mu(x, z) is final when z is
    # reached and is taken off every y above z.  The strict up-set of z is a
    # head of single nodes below a suffix of whole levels.  Only the head is
    # walked; mu(x, z) joins a total pending for the suffix's first level,
    # taken off every node the walk reaches from that level on, so on a
    # cobweb, where every head is empty, a row costs its up-set.
    N, n, off = P.node_count, P.n_levels, P._offsets
    full = (1 << N) - 1
    # the suffix of z is the levels suffix[z] .. n - 1, empty at n
    head, suffix = [], []
    for z, up in enumerate(reachable_sets(P)):
        # the first level above the highest node the strict up-set misses
        L = bisect_right(off, (full ^ up ^ 1 << z).bit_length() - 1)
        below = (up & ((1 << off[L]) - 1)) >> (z + 1)
        head.append(list(compress(count(z + 1), _bit_row(below))))
        suffix.append(L)
    for x in range(N):
        row = [0] * N
        row[x] = 1
        # pending[k]: the sum still to be taken off every node of level k
        # and above.  A suffix of z lies whole in the up-set of x, so it
        # starts inside the suffix of x: the head of x needs no carry
        pending = [0] * (n + 1)
        for z in chain((x,), head[x]):
            m = row[z]
            if m:
                for y in head[z]:
                    row[y] -= m
                pending[suffix[z]] -= m
        carry = 0
        for k in range(suffix[x], n):
            carry += pending[k]
            for z in range(off[k], off[k + 1]):
                row[z] = m = row[z] + carry
                if m:
                    for y in head[z]:
                        row[y] -= m
                    pending[suffix[z]] -= m
        yield row


def packed_rows(P: GradedPoset) -> List[List[int]]:
    return [list(row) for row in incidence._mobius_recurrence_rows(P)]


def suffix_walk(P: GradedPoset) -> List[List[int]]:
    return [list(row) for row in suffix_walk_rows(P)]


CHAIN_70 = from_blocks([1] * 70, [[[1]]] * 69)


@settings(max_examples=150, deadline=None)
@given(zero_one_posets(), st.sampled_from([1, 2, 3, 64]))
@example(from_blocks([3], []), 64)
@example(from_blocks([1, 1, 1], [[[1]], [[0]]]), 1)
@example(from_blocks([2, 3, 1, 2], [[[1, 0, 0], [0, 1, 1]], [[1], [1], [0]],
                                    [[1, 1]]]), 2)
@example(from_blocks([1, 2, 2], [[[0, 1]], [[1, 0], [1, 1]]]), 3)
def test_packed_columns_match_the_suffix_walk(P, band):
    # mute nodes, single levels and levels of size 1 all occur, and the
    # band sizes below 64 cut the rows of one level apart
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incidence, "_BAND", band)
        assert packed_rows(P) == suffix_walk(P)


@pytest.mark.parametrize("seq", ["nat", "fib", "gauss2", "const3"])
def test_packed_columns_match_the_suffix_walk_on_cobwebs_and_rooted_cobwebs(seq):
    F = {"nat": nat(), "fib": fib(), "gauss2": gauss(2), "const3": const(3)}[seq]
    for n in range(1, 7):
        for P in (cobweb(F, n), root(F, n)):
            assert packed_rows(P) == suffix_walk(P), (seq, n)


def recorded_widths(monkeypatch):
    """The field widths the recurrence reads its columns back at."""
    widths, real = [], incidence._unpack_columns

    def unpack_columns(packed, n, w):
        widths.append(w)
        return real(packed, n, w)
    monkeypatch.setattr(incidence, "_unpack_columns", unpack_columns)
    return widths


@pytest.mark.parametrize("n, width", [(60, 64), (70, 128), (130, 256)])
def test_chains_take_the_field_width_their_bound_needs(monkeypatch, n, width):
    # on a chain |mu| <= 1, but the bound doubles with each level: 2^59 fits
    # 64-bit fields, 2^69 needs 128 and 2^129 needs 256
    P = CHAIN_70 if n == 70 else from_blocks([1] * n, [[[1]]] * (n - 1))
    widths = recorded_widths(monkeypatch)
    assert packed_rows(P) == suffix_walk(P)
    assert set(widths) == {width}


def test_entries_past_64_bits_take_wider_fields(monkeypatch):
    # mu from the bottom to the top is 15 * 63^10, about 2^63.7, which no
    # 64-bit field holds; the bound over every level but the top, 2 * 65^10
    # * 17, asks for 128 bits
    P = cobweb_of_sizes([1] + [64] * 10 + [16, 1])
    widths = recorded_widths(monkeypatch)
    rows = packed_rows(P)
    assert rows[0][-1] == 15 * 63 ** 10
    assert rows == [list(r) for r in level_mobius(P, "closed_form").rows()]
    assert set(widths) == {128}


def test_down_terms_take_a_half_full_level_whole_with_its_holes():
    # levels {0, 1}, {2, 3, 4}, {5, 6}; 0 < 2, 3 and 1 < 2, 3, 4 below,
    # 2, 3 < 5 and 4 < 6 above.  Node 5 lies over two thirds of level 1, so
    # level 1 is whole with 4 a hole; node 6 over half of level 0 and a third
    # of level 1, so level 0 is whole with 0 a hole and 4 is its head
    P = from_blocks([2, 3, 2], [[[1, 1, 0], [1, 1, 1]], [[1, 0], [1, 0], [0, 1]]])
    assert incidence._down_terms(P) == [
        (0, (), ()), (0, (), ()), (1, (), ()), (1, (), ()), (1, [0], []),
        (2, [4], []), (1, [0], [4])]


def test_down_terms_weigh_each_level_alone():
    # levels {0, 1, 2}, {3}, {4}, {5} on the chain 1 < 3 < 4 < 5.  Node 1 is
    # a third of level 0, so level 0 is never whole, though it and level 1
    # together are half in the down-sets of 4 and 5: each is a head
    P = from_blocks([3, 1, 1, 1], [[[0], [1], [0]], [[1]], [[1]]])
    assert incidence._down_terms(P) == [
        (0, (), ()), (0, (), ()), (0, (), ()), (0, [], [1]), (0, [], [1, 3]), (0, [], [1, 3, 4])]
    # levels {0}, {1, 2, 3, 4}, {5}, {6} on 0 < 1 < 5 < 6: level 0 is
    # whole below 5 and 6, and level 1, a quarter in, is weighed alone
    # from there, not with the levels above it
    P = from_blocks([1, 4, 1, 1], [[[1, 1, 1, 1]], [[1], [0], [0], [0]], [[1]]])
    assert incidence._down_terms(P)[5:] == [(1, [], [1]), (1, [], [1, 5])]


@settings(max_examples=150, deadline=None)
@given(zero_one_posets())
def test_down_terms_are_the_strict_down_sets(P):
    off = P._offsets
    reach = label_reachable_sets(P)
    for y, (L, holes, head) in enumerate(incidence._down_terms(P)):
        below = {x for x in range(P.node_count) if x != y and y + 1 in reach[x + 1]}
        assert set(range(off[L])) - set(holes) | set(head) == below
        assert set(holes) <= set(range(off[L])) and all(z >= off[L] for z in head)
        assert list(holes) == sorted(holes) and list(head) == sorted(head)


BANDS = {"1": lambda N: 1, "2": lambda N: 2, "3": lambda N: 3,
         "N-1": lambda N: N - 1, "N": lambda N: N, "N+1": lambda N: N + 1}


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("P", [CHAIN_70, cobweb(gauss(2), 5), cobweb_of_sizes([4]),
                               from_blocks([2, 3, 2], [[[1, 0, 0], [0, 0, 1]],
                                                       [[1, 0], [0, 0], [0, 1]]]),
                               random_no_mute_poset(7)])
def test_every_band_size_gives_the_same_rows(monkeypatch, P, band):
    monkeypatch.setattr(incidence, "_BAND", BANDS[band](P.node_count))
    assert packed_rows(P) == suffix_walk(P)


def test_the_recurrence_runs_no_step_of_the_inversion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence ran a step of the inversion")
    for module, name in [(blockmat, "_packed_pass"), (blockmat, "_unit_solve"), (blockmat, "mul"),
                         (blockmat, "nilpotent_closure"), (blockmat, "unitriangular_inverse"),
                         (incidence, "_unit_solve"), (incidence, "_solve"),
                         (incidence, "zeta")]:
        monkeypatch.setattr(module, name, refuse)
    rng = random.Random(23)
    sizes = [5, 6, 4, 6, 5]
    P = from_blocks(sizes, [[[int(rng.random() < 0.4) for _ in range(b)] for _ in range(a)]
                            for a, b in zip(sizes, sizes[1:])])
    for Q in (P, CHAIN_70):
        assert [list(r) for r in mobius(Q, "recurrence").rows] == suffix_walk(Q)


def test_streaming_the_rows_holds_no_dense_matrix():
    # 2036 nodes: one band of packed columns and its fields, not 2036^2 entries
    P = cobweb(gauss(2), 10)
    tracemalloc.start()
    try:
        for _ in incidence._mobius_recurrence_rows(P):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak


def test_packed_columns_are_faster_than_the_suffix_walk():
    # a dense random poset of 260 nodes on 7 levels, where the suffix walk
    # visits most heads node by node; best of 3 CPU times, taken in turn
    rng = random.Random(5)
    sizes = [37] * 7
    P = from_blocks(sizes, [[[int(rng.random() < 0.5) for _ in range(b)] for _ in range(a)]
                            for a, b in zip(sizes, sizes[1:])])
    best = {packed_rows: float("inf"), suffix_walk: float("inf")}
    for _ in range(3):
        for f in best:
            t = time.process_time()
            f(P)
            best[f] = min(best[f], time.process_time() - t)
    assert best[packed_rows] <= 0.6 * best[suffix_walk], best


@st.composite
def density_posets(draw):
    """Posets from 0/1 blocks with each entry set at one density drawn from
    0.05 .. 0.95, so that levels mostly ones, mostly zeros and mute nodes
    all occur."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    density = draw(st.floats(0.05, 0.95))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return from_blocks(sizes, [[[int(rng.random() < density) for _ in range(b)]
                                for _ in range(a)] for a, b in zip(sizes, sizes[1:])])


@settings(max_examples=100, deadline=None)
@given(density_posets())
@example(from_blocks([3], []))
@example(from_blocks([2, 5, 4], [[[1] * 5, [1, 1, 0, 1, 1]], [[1, 1, 1, 0]] * 5]))
def test_the_dense_routes_match_the_blockmat_routes_and_the_list_solve(P):
    # each dense route against the blockmat route on list rows built entry
    # by entry, and against the list solve, which shares no code with either
    sizes = P.level_sizes
    K = {ring: band_matrix(sizes, P.blocks, ring) for ring in (BOOL, INT)}
    Z = blockmat.nilpotent_closure(K[BOOL])
    mu = mobius(P, "invert")
    assert zeta(P, "closure") == Z
    assert [list(row) for row in Z.rows] == list_unit_solve(K[BOOL].rows, sizes, BOOL, False)
    assert mu == blockmat.unitriangular_inverse(BlockMatrix(sizes, Z.rows, INT))
    assert [list(row) for row in mu.rows] == list_unit_solve(Z.rows, sizes, INT, True)
    M = max_matrix(P)
    assert M == blockmat.nilpotent_closure(K[INT])
    assert [list(row) for row in M.rows] == list_unit_solve(K[INT].rows, sizes, INT, False)
    eta = blockmat.add(BlockMatrix.identity(sizes, INT), K[INT])
    eta_inv = eta_inverse(P)
    assert eta_inv == blockmat.unitriangular_inverse(eta)
    assert [list(row) for row in eta_inv.rows] == list_unit_solve(K[INT].rows, sizes, INT, True)


def test_the_inversion_runs_no_step_of_the_recurrence(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the inversion ran a step of the recurrence")
    rng = random.Random(23)
    sizes = [5, 6, 4, 6, 5]
    P = from_blocks(sizes, [[[int(rng.random() < 0.4) for _ in range(b)] for _ in range(a)]
                            for a, b in zip(sizes, sizes[1:])])
    want = {Q: suffix_walk(Q) for Q in (P, CHAIN_70)}
    for name in ("_down_terms", "_mobius_recurrence_rows", "reachable_sets"):
        monkeypatch.setattr(incidence, name, refuse)
    for Q, rows in want.items():
        assert [list(r) for r in mobius(Q, "invert").rows] == rows


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
@example((BlockMatrix([1], [[2 ** 70]]), BlockMatrix([1], [[-2 ** 60]])))
@example((BlockMatrix([1, 1], [[2 ** 63, 2 ** 63], [0, 0]]),
          BlockMatrix([1, 1], [[2 ** 63, 0], [2 ** 63, 1]])))
def test_product_matches_the_pair_walk_over_int(pair):
    A, B = pair
    assert mul(A, B) == list_mul(A, B) == walk_mul(A, B)


@settings(max_examples=200, deadline=None)
@given(factor_pairs(BOOL))
@example((BlockMatrix([1], [[1]], BOOL), BlockMatrix([1], [[1]], BOOL)))
@example((BlockMatrix([2, 1], [[1, 1, 0], [0, 0, 1], [1, 0, 1]], BOOL),
          BlockMatrix([2, 1], [[0, 1, 1], [1, 0, 1], [0, 0, 0]], BOOL)))
def test_product_matches_the_pair_walk_over_bool(pair):
    A, B = pair
    assert mul(A, B) == list_mul(A, B) == walk_mul(A, B)


@settings(max_examples=100, deadline=None)
@given(factor_pairs(INT) | factor_pairs(BOOL))
@example((BlockMatrix([1, 1], [[1, -1], [0, 1]]), BlockMatrix([1, 1], [[1, 1], [0, 1]])))
@example((BlockMatrix([1, 1], [[1, 1], [0, 1]]), BlockMatrix([1, 1], [[1, -1], [0, 1]])))
# e_0 plus 2^64 at the next column, and e_1 less 1 at the first
@example((BlockMatrix([2], [[1, 2 ** 64], [0, 1]]), BlockMatrix.identity([2])))
@example((BlockMatrix([2], [[1, 0], [-1, 1]]), BlockMatrix.identity([2])))
@example((BlockMatrix([1], [[1]], BOOL), BlockMatrix([1], [[1]], BOOL)))
def test_the_inverse_read_holds_exactly_when_the_product_is_the_identity(pair):
    # _is_inverse reads entries as integers whatever the ring, so the
    # product it stands for is mul of the INT views
    A, B = (BlockMatrix(M.level_sizes, M.rows, INT) for M in pair)
    assert suites._is_inverse(*pair) == (mul(A, B) == BlockMatrix.identity(A.level_sizes))


INVERSE_PAIR_POSETS = [cobweb(nat(), 4), from_blocks([2, 5, 4], [
    [[1] * 5, [1, 1, 0, 1, 1]], [[1, 1, 1, 0]] * 5]), CHAIN_70]


@pytest.mark.parametrize("P", INVERSE_PAIR_POSETS)
def test_zeta_times_mu_and_the_max_pair_read_as_the_identity(P):
    Z, mu = zeta(P, "closure"), mobius(P, "invert")
    assert suites._is_inverse(Z, mu)
    assert suites._is_inverse(incidence.max_inverse(P), max_matrix(P))
    # one entry off: row 1 of the product is off at the last column
    rows = [list(row) for row in mu.rows]
    rows[0][-1] += 1
    assert not suites._is_inverse(Z, BlockMatrix(P.level_sizes, rows))


def test_the_inverse_read_runs_no_step_of_blockmat(monkeypatch):
    pairs = [pair for P in INVERSE_PAIR_POSETS + [random_no_mute_poset(3)] for pair in
             [(zeta(P, "closure"), mobius(P, "invert")), (incidence.max_inverse(P), max_matrix(P))]]

    def refuse(*args, **kwargs):
        raise AssertionError("the inverse read ran a step of blockmat")
    names = [name for name, f in vars(blockmat).items()
             if inspect.isfunction(f) and f.__module__ == blockmat.__name__]
    assert {"mul", "_packed_pass", "_check_compatible"} <= set(names)
    for name in names:
        monkeypatch.setattr(blockmat, name, refuse)
    assert all(suites._is_inverse(A, B) for A, B in pairs)


def test_the_product_runs_no_step_of_the_solve(monkeypatch):
    pairs = []
    for P in INVERSE_PAIR_POSETS:
        Z = zeta(P, "closure")
        pairs += [(BlockMatrix(P.level_sizes, Z.rows, INT), mobius(P, "invert")),
                  (incidence.max_inverse(P), max_matrix(P)), (Z, Z)]
    assert {A.ring for A, _ in pairs} == {INT, BOOL}
    expected = [walk_mul(A, B) for A, B in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("the product ran a step of the solve")
    for name in ["_packed_pass", "_unit_solve", "_unpack", "_unpack_columns", "_dot", "_top"]:
        monkeypatch.setattr(blockmat, name, refuse)
    assert [mul(A, B) for A, B in pairs] == expected


# -- reachability ---------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(zero_one_posets())
@example(from_blocks([3], []))
@example(from_blocks([2, 1, 2], [[[0], [1]], [[0, 0]]]))
def test_reachable_sets_match_the_label_traversal(P):
    assert [set()] + bit_labels(reachable_sets(P)) == label_reachable_sets(P)


def test_bit_rows_are_faster_than_the_label_traversal():
    # gauss:q=2 with 7 levels (247 nodes), best of 5 CPU times, taken in
    # turn so that a slow spell of the machine hits both sides
    P = cobweb(gauss(2), 7)
    best = {reachable_sets: float("inf"), label_reachable_sets: float("inf")}
    for _ in range(5):
        for f in best:
            t = time.process_time()
            f(P)
            best[f] = min(best[f], time.process_time() - t)
    assert best[reachable_sets] <= 0.15 * best[label_reachable_sets], best


# -- the chain-count oracle -----------------------------------------------------------

def column_rows(P: GradedPoset) -> List[List[int]]:
    """The pair table read off interval_chain_column, one column per node."""
    cols = [interval_chain_column(P, y) for y in all_nodes(P)]
    return [list(row) for row in zip(*cols)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_column_sweep_equals_pairwise_counts(seed, is_cobweb):
    P = random_cobweb(seed) if is_cobweb else random_no_mute_poset(seed)
    for y in all_nodes(P):
        assert interval_chain_column(P, y) == \
            [count_interval_chains(P, x, y) for x in all_nodes(P)]


def test_column_pinned(nat3):
    # column of the top-left level-3 node: 2 chains from level 1, 1 from level 2
    assert interval_chain_column(nat3, nat3.node(3, 1)) == [2, 1, 1, 1, 0, 0]
    assert [row[3] for row in _interval_rows(nat3)] == [2, 1, 1, 1, 0, 0]


@settings(max_examples=120, deadline=None)
@given(zero_one_posets())
@example(from_blocks([3], []))
@example(from_blocks([1, 1, 1], [[[1]], [[0]]]))
@example(from_blocks([2, 3, 1, 2], [[[1, 0, 0], [0, 1, 1]], [[1], [1], [0]],
                                    [[1, 1]]]))
@example(cobweb(nat(), 4))
def test_interval_rows_match_the_column_sweep_and_brute_counts(P):
    rows = _interval_rows(P)
    assert rows == column_rows(P)
    assert rows == [[brute_interval_count(P, x, y) for y in all_nodes(P)] for x in all_nodes(P)]


def test_interval_rows_past_64_bits(monkeypatch):
    # 20 levels of 16 nodes between a bottom and a top: 16^20 = 2^80 chains
    # from the bottom to the top, in fields of up to 81 bits
    P = cobweb_of_sizes([1] + [16] * 20 + [1])
    rows = _interval_rows(P)
    assert rows[0][-1] == 16 ** 20 > 2 ** 64
    assert rows[0][1:17] == [1] * 16 and rows[1][-1] == 16 ** 19
    assert rows == column_rows(P)
    assert rows == [list(row) for row in max_matrix(P).rows]
    # the read of one field at a time, which a big-endian machine takes at
    # every width
    monkeypatch.setattr(chains, "_LITTLE", False)
    assert _interval_rows(P) == rows


def test_interval_rows_take_the_least_field_that_holds_a_count(monkeypatch):
    # on 80 levels of 2 nodes a chain count into level L is below 2^(L - 1),
    # so w = L bits, and a field is the least of 1, 2, 4 or 8 bytes that
    # holds w bits, past 64 bits w / 8 rounded up; the sweep for level L
    # starts from the tallies 1 << 8 * step * i
    P = cobweb_of_sizes([2] * 80)
    real, steps = chains._tallies, []

    def record(Q, tally, *args):
        steps.append(tally[1].bit_length() // 8)
        return real(Q, tally, *args)
    monkeypatch.setattr(chains, "_tallies", record)
    rows = _interval_rows(P)
    assert steps == [next(b for b in (1, 2, 4, 8) if 8 * b >= L) if L <= 64 else -(-L // 8)
                     for L in range(1, 81)]
    assert rows[0][-1] == 2 ** 78 and rows[0][-3] == 2 ** 77


def corrupt_max(monkeypatch, *changes):
    """suites.max_matrix returns max with each (x, y, value) set, 1-based."""
    real = suites.max_matrix

    def build(Q):
        rows = [list(r) for r in real(Q).rows]
        for x, y, v in changes:
            rows[x - 1][y - 1] = v
        return BlockMatrix(Q.level_sizes, rows, INT)
    monkeypatch.setattr(suites, "max_matrix", build)


def oracle_detail(P):
    (res,) = [r for r in suites.suite_max(P, suites.Dense(P)) if r.name == "chain-count-oracle"]
    assert not res.passed
    return res.detail


@pytest.mark.parametrize("value", [-1, -6, 0, 14, 2 ** 70 + 6])
def test_oracle_reports_a_corrupted_entry_with_its_matrix_value(monkeypatch, value):
    # on nat:4 the counts against level 4 are 3-bit fields (sizes below it
    # multiply to 6); (1, 10) holds 6 chains, and 14 = 6 + 2^3 or 2^70 + 6
    # would carry into the next field if the matrix rows were packed
    corrupt_max(monkeypatch, (1, 10, value))
    assert oracle_detail(cobweb(nat(), 4)) == f"entry (1, 10): counted 6, matrix has {value}"


def test_oracle_reports_a_pair_whose_packed_fields_would_cancel(monkeypatch):
    # 2^3 more in field 2 of row 1's level-4 slice and one less in field 3
    # give the same packed int, so only the decoded entries can tell
    corrupt_max(monkeypatch, (1, 9, 14), (1, 10, 5))
    assert oracle_detail(cobweb(nat(), 4)) == "entry (1, 9): counted 6, matrix has 14"


@settings(max_examples=100, deadline=None)
@given(zero_one_posets(), st.data())
def test_first_mismatch_matches_the_column_loop(P, data):
    # the row scan over the pair table names the entry the column loop named
    n = P.node_count
    cells = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                                         st.sampled_from([-1, 1, 7, 2 ** 70])), max_size=3))
    rows = [list(r) for r in max_matrix(P).rows]
    for x, y, d in cells:
        rows[x - 1][y - 1] += d
    M = BlockMatrix(P.level_sizes, rows, INT)
    assert suites._first_mismatch(_interval_rows(P), M.rows) == column_first_mismatch(P, M)


def test_max_suite_sweeps_once_per_level(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _tallies(*args)
    monkeypatch.setattr(chains, "_tallies", counted)
    for P in (cobweb(gauss(2), 6), random_no_mute_poset(3)):
        calls.clear()
        assert all(r.passed for r in suites.suite_max(P, suites.Dense(P)))
        assert calls == list(range(1, P.n_levels + 1))


def test_pair_table_is_faster_than_the_column_loop():
    # the max suite's oracle on gauss:q=2 with 7 levels (247 nodes), best of
    # 3 CPU times, taken in turn so that a slow spell of the machine hits
    # both sides
    P = cobweb(gauss(2), 7)
    M = max_matrix(P)
    sides = {"rows": lambda: suites._first_mismatch(_interval_rows(P), M.rows),
             "columns": lambda: column_first_mismatch(P, M)}
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(3):
        for name, f in sides.items():
            t = time.process_time()
            assert f() is None
            best[name] = min(best[name], time.process_time() - t)
    assert best["rows"] <= 0.5 * best["columns"], best
