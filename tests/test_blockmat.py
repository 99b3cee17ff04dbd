"""Ring-generic block matrices: products, closure, unitriangular inverse."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cobweb import BOOL, INT, BlockMatrix, MatrixError, RingError, add, blockmat, mul, \
    nilpotent_closure, unitriangular_inverse
from cobweb.blockmat import natural_join as mat_join

from conftest import band_matrix, fraction_inverse, is_one_band, is_zero


def rand_matrix(rng, sizes, ring, lo=-3, hi=3):
    n = sum(sizes)
    if ring is BOOL:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    return BlockMatrix(sizes, rows, ring)


def rand_strictly_upper(rng, sizes, ring):
    M = rand_matrix(rng, sizes, ring)
    off = [0]
    for s in sizes:
        off.append(off[-1] + s)
    lvl = []
    for k, s in enumerate(sizes, start=1):
        lvl += [k] * s
    rows = [[v if lvl[i] < lvl[j] else 0 for j, v in enumerate(row)]
            for i, row in enumerate(M.rows)]
    return BlockMatrix(sizes, rows, ring)


@st.composite
def strictly_upper(draw, ring, sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
                   by_level=True):
    """K over drawn level sizes, zero at (x, y) unless x sits below y: by
    level (a strictly upper block matrix) or, with by_level false, by node
    index.  Entries are 0/1 over BOOL and -3..3 over INT, so coefficients
    other than 1, and negative ones, occur."""
    sizes = draw(sizes)
    key = [k for k, s in enumerate(sizes) for _ in range(s)]
    if not by_level:
        key = list(range(len(key)))
    entry = st.integers(0, 1) if ring is BOOL else st.integers(-3, 3)
    rows = [[draw(entry) if a < b else 0 for b in key] for a in key]
    return BlockMatrix(sizes, rows, ring)


def series_closure(K):
    """The literal sum I + K + K^2 + ..., which stops by the n-th power."""
    expect = BlockMatrix.identity(K.level_sizes, K.ring)
    P = K
    for _ in range(K.n_levels):
        expect = add(expect, P)
        P = mul(P, K)
    return expect


def test_identity_is_neutral():
    rng = random.Random(1)
    A = rand_matrix(rng, [1, 2, 3], INT)
    I = BlockMatrix.identity([1, 2, 3], INT)
    assert mul(A, I) == A
    assert mul(I, A) == A


# -- the row rule: a matrix keeps the rows it is given ------------------------

def test_rows_compare_and_hash_by_entries_whatever_holds_them():
    rows = [b"\1\1\0", b"\0\1\0", b"\0\0\1"]
    A = BlockMatrix([1, 2], rows, BOOL)
    assert all(a is b for a, b in zip(A.rows, rows))
    for other in ([(1, 1, 0), (0, 1, 0), (0, 0, 1)], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]):
        B = BlockMatrix([1, 2], other, BOOL)
        assert A == B and B == A and hash(A) == hash(B)
    # one entry different
    C = BlockMatrix([1, 2], [(1, 1, 0), (0, 1, 1), (0, 0, 1)], BOOL)
    assert A != C and C != A


@pytest.mark.parametrize("rows", [
    [[1, 0], [0]],             # a short row
    [b"\1\0", b"\1"],          # a short bytes row
    [[1, 0]],                  # a row too few
    [[1, 0], [0, 1], [0, 0]],  # a row too many
])
def test_rows_of_the_wrong_shape_from_a_generator_raise(rows):
    with pytest.raises(MatrixError):
        BlockMatrix([1, 1], (row for row in rows))


def test_shape_and_ring_mismatch():
    A = BlockMatrix.identity([1, 2], INT)
    B = BlockMatrix.identity([3], INT)
    with pytest.raises(MatrixError):
        mul(A, B)
    with pytest.raises(MatrixError):
        mul(A, BlockMatrix(A.level_sizes, A.rows, BOOL))


@pytest.mark.parametrize("sizes", [[True, 2], [2.9], [1, 2.0], [0, 2], [2, -1], []])
def test_level_sizes_are_positive_ints(sizes):
    # the poset's size check: a bool or a float is refused, not truncated to
    # the int sizes these entries would fit
    n = sum(int(s) for s in sizes)
    with pytest.raises(MatrixError, match="level"):
        BlockMatrix(sizes, [[int(i == j) for j in range(n)] for i in range(n)])


def test_strictly_upper_product_shifts_band():
    rng = random.Random(7)
    sizes = [2, 2, 2, 2]
    A = rand_strictly_upper(rng, sizes, INT)
    P = mul(A, A)
    # support of the square starts two block bands above the diagonal
    for r in range(1, 5):
        for s in range(1, min(r + 2, 5)):
            assert all(v == 0 for row in P.block(r, s) for v in row)


def test_boolean_square_counts_two_step_paths():
    # arcs 1->2, 2->3 over levels of size 1: the square sees exactly 1->3
    K = band_matrix([1, 1, 1], [[[1]], [[1]]], BOOL)
    K2 = mul(K, K)
    assert K2.rows[0][2] == 1
    assert sum(v for row in K2.rows for v in row) == 1


def test_closure_of_zero_is_identity():
    Z = BlockMatrix([2, 3], [[0] * 5 for _ in range(5)], INT)
    assert nilpotent_closure(Z) == BlockMatrix.identity([2, 3], INT)


def test_closure_requires_strictly_upper():
    with pytest.raises(MatrixError):
        nilpotent_closure(BlockMatrix.identity([2, 2], INT))


def test_integer_closure_counts_paths():
    # cobweb over sizes <1,2,3>: 2 paths from the bottom to each top node
    blocks = [[[1, 1]], [[1, 1, 1], [1, 1, 1]]]
    K = band_matrix([1, 2, 3], blocks, INT)
    C = nilpotent_closure(K)
    for j in range(3, 6):
        assert C.rows[0][j] == 2  # brute force: 1->2->target and 1->3->target


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([INT, BOOL]).flatmap(strictly_upper))
@example(BlockMatrix([1], [[0]], INT))
@example(BlockMatrix([1, 1, 1], [[0, 1, 1], [0, 0, 1], [0, 0, 0]], BOOL))
def test_banded_closure_equals_generic_series(K):
    # the one row solve serves every strictly upper K, one-band or not, over
    # either ring; it must equal the literal series sum
    assert nilpotent_closure(K) == series_closure(K)


def test_band1_closure_matches_generic_path():
    # a cover matrix with coefficients 0, 1 and 2 on its one band
    rng = random.Random(3)
    sizes = [1, 3, 2, 4]
    blocks = [[[rng.randint(0, 2) for _ in range(sizes[k + 1])]
               for _ in range(sizes[k])] for k in range(3)]
    K = band_matrix(sizes, blocks, INT)
    assert is_one_band(K)
    assert nilpotent_closure(K) == series_closure(K)


@pytest.mark.parametrize("n", range(1, 8))
def test_nilpotency_index(n):
    rng = random.Random(n)
    sizes = [rng.randint(1, 3) for _ in range(n)]
    K = rand_strictly_upper(rng, sizes, INT)
    P = BlockMatrix.identity(sizes, INT)
    for _ in range(n):
        P = mul(P, K)
    assert is_zero(P)


def test_integer_closure_collapses_to_boolean():
    rng = random.Random(9)
    sizes = [2, 3, 2]
    blocks = [[[rng.randint(0, 1) for _ in range(sizes[k + 1])]
               for _ in range(sizes[k])] for k in range(2)]
    Ki = band_matrix(sizes, blocks, INT)
    Kb = band_matrix(sizes, blocks, BOOL)
    Ci = nilpotent_closure(Ki)
    Cb = nilpotent_closure(Kb)
    assert [[1 if v > 0 else 0 for v in row] for row in Ci.rows] == \
        [list(row) for row in Cb.rows]


def test_unitriangular_inverse_identity():
    for sizes in ([1], [2, 2]):
        I = BlockMatrix.identity(sizes, INT)
        assert unitriangular_inverse(I) == I


def test_unitriangular_inverse_pinned_3x3():
    M = BlockMatrix([1, 2], [[1, 1, 1], [0, 1, 0], [0, 0, 1]], INT)
    inv = unitriangular_inverse(M)
    assert [list(r) for r in inv.rows] == [[1, -1, -1], [0, 1, 0], [0, 0, 1]]


def test_unitriangular_inverse_refuses_boolean():
    # BOOL is refused before the structure check, which a zero diagonal fails
    for M in (BlockMatrix.identity([2], BOOL),
              BlockMatrix([1, 2], [[0, 1, 1], [0, 0, 0], [0, 0, 0]], BOOL)):
        with pytest.raises(RingError, match="^the Boolean semiring has no negation$"):
            unitriangular_inverse(M)


def test_unitriangular_inverse_refuses_non_unitriangular():
    M = BlockMatrix([2], [[1, 0], [1, 1]], INT)
    with pytest.raises(MatrixError):
        unitriangular_inverse(M)


@pytest.mark.parametrize("n_levels", range(1, 7))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_unitriangular_inverse_against_gauss_jordan(n_levels, data):
    # N is strictly upper by node index, so entries inside a level occur too
    sizes = st.lists(st.integers(1, 3), min_size=n_levels, max_size=n_levels)
    N = data.draw(strictly_upper(INT, sizes, by_level=False))
    sizes = N.level_sizes
    M = add(BlockMatrix.identity(sizes, INT), N)
    inv = unitriangular_inverse(M)
    oracle = fraction_inverse(M.rows)
    assert [[Fraction(v) for v in row] for row in inv.rows] == oracle
    assert mul(M, inv) == BlockMatrix.identity(sizes, INT)
    assert mul(inv, M) == BlockMatrix.identity(sizes, INT)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.booleans())
def test_mul_associates_and_distributes(seed, boolean):
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    ring = BOOL if boolean else INT
    A = rand_matrix(rng, sizes, ring)
    B = rand_matrix(rng, sizes, ring)
    C = rand_matrix(rng, sizes, ring)
    assert mul(mul(A, B), C) == mul(A, mul(B, C))
    assert mul(A, add(B, C)) == add(mul(A, B), mul(A, C))


def naive_mul(A, B):
    """Textbook triple loop over every index, zeros included."""
    ring, n = A.ring, A.size
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = ring.add(out[i][j], ring.mul(A.rows[i][k], B.rows[k][j]))
    return out


def with_zero_lines(rng, M):
    """M with one random row and one random column set to zero."""
    i, j = rng.randrange(M.size), rng.randrange(M.size)
    rows = [[0 if r == i or c == j else v for c, v in enumerate(row)]
            for r, row in enumerate(M.rows)]
    return BlockMatrix(M.level_sizes, rows, M.ring)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.booleans())
def test_mul_matches_naive_triple_loop(seed, boolean):
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    ring = BOOL if boolean else INT
    A = with_zero_lines(rng, rand_matrix(rng, sizes, ring))
    B = with_zero_lines(rng, rand_matrix(rng, sizes, ring))
    for X, Y in ((A, B), (B, A), (A, A)):
        assert [list(r) for r in mul(X, Y).rows] == naive_mul(X, Y)


def test_matrix_natural_join():
    A = BlockMatrix([1, 2], [[1, 1, 1], [0, 1, 0], [0, 0, 1]], INT)
    B = BlockMatrix([2, 1], [[1, 0, 1], [0, 1, 1], [0, 0, 1]], INT)
    J = mat_join(A, B)
    assert J.level_sizes == (1, 2, 1)
    assert tuple(J.rows[0][:3]) == (1, 1, 1)
    assert J.rows[0][3] == 0  # outside both spans
    assert J.rows[1][3] == 1
    # B's rows below the shared level are zero left of B's span
    assert [list(r) for r in J.rows] == [[1, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    with pytest.raises(MatrixError):
        mat_join(A, BlockMatrix.identity([3, 1], INT))


# -- the structure predicates against the entry-by-entry loops they replaced ----

def loop_is_strictly_upper_block(M):
    off = M._offsets
    for r in range(1, M.n_levels + 1):
        for i in range(off[r - 1], off[r]):
            row = M.rows[i]
            for j in range(0, off[r]):
                if row[j] != 0:
                    return False
    return True


def loop_is_unitriangular(M):
    for i, row in enumerate(M.rows):
        if row[i] != 1:
            return False
        for j in range(i):
            if row[j] != 0:
                return False
    return True


@st.composite
def near_triangular(draw):
    """Zero below the diagonal by node index, ones or zeros on it, and then
    possibly one nonzero below the diagonal, inside a diagonal block or on
    the diagonal, so each predicate is drawn true and false."""
    ring = draw(st.sampled_from([INT, BOOL]))
    K = draw(strictly_upper(ring, by_level=False))
    rows = [list(row) for row in K.rows]
    n = K.size
    diag = draw(st.sampled_from([0, 1]))
    for i in range(n):
        rows[i][i] = diag
    level = [k for k, s in enumerate(K.level_sizes) for _ in range(s)]
    spots = {"below": [(i, j) for i in range(n) for j in range(i)],
             "in-block": [(i, j) for i in range(n) for j in range(n) if level[i] == level[j]],
             "diagonal": [(i, i) for i in range(n)]}
    where = draw(st.sampled_from(["none"] + [w for w in spots if spots[w]]))
    if where != "none":
        i, j = draw(st.sampled_from(spots[where]))
        rows[i][j] = draw(st.sampled_from([1] if ring is BOOL else [1, -2, 5]))
    return BlockMatrix(K.level_sizes, rows, ring)


@settings(max_examples=300, deadline=None)
@given(near_triangular())
@example(BlockMatrix([1], [[0]], INT))
@example(BlockMatrix([1], [[1]], BOOL))
@example(BlockMatrix([2, 1], [[0, 1, 1], [0, 0, 1], [0, 0, 0]], BOOL))
@example(BlockMatrix([2, 1], [[1, 1, 1], [0, 1, 1], [0, -2, 1]], INT))
def test_structure_predicates_match_the_entry_loops(M):
    assert M.is_strictly_upper_block() == loop_is_strictly_upper_block(M)
    assert M.is_unitriangular() == loop_is_unitriangular(M)


@pytest.mark.parametrize("little", [True, False])
@pytest.mark.parametrize("w", [64, 128, 256])
def test_unpack_columns_reads_each_field_of_every_packed_int(monkeypatch, little, w):
    # columns of signed entries up to a quarter of the field's range read back
    # as rows, on the native-word path and on the path through _unpack
    monkeypatch.setattr(blockmat, "_LITTLE", little)
    if little and w == 64:
        # the native-word path reads the words itself, not through _unpack
        monkeypatch.setattr(blockmat, "_unpack", None)
    rng = random.Random(w)
    limit = 1 << (w - 2)
    for n, m in [(1, 1), (3, 5), (64, 7)]:
        columns = [[rng.choice([0, 1, -1, limit - 1, 1 - limit, rng.randrange(1 - limit, limit)])
                    for _ in range(n)] for _ in range(m)]
        # each column packed by the linear definition: entry i at bit w*i
        packed = [sum(v << w * i for i, v in enumerate(column)) for column in columns]
        rows = list(blockmat._unpack_columns(packed, n, w))
        assert rows == [list(r) for r in zip(*columns)]
