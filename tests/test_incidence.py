"""Incidence algebra elements and their cross-route agreement."""

from fractions import Fraction

import pytest

from cobweb import BOOL, INT, BlockMatrix, CodingMatrix, MatrixError, PosetError, \
    antichain, cobweb, cobweb_of_sizes, coding_matrix, coding_recurrence, custom, \
    eta, eta_inverse, fib, from_blocks, interval_mobius, kappa, kroton, logic_L, \
    max_inverse, max_matrix, mobius, mul, nat, natural_join, \
    reachable_sets, root, zeta
from cobweb.blockmat import natural_join as mat_join
from cobweb.incidence import MOBIUS_METHODS, ZETA_METHODS, _cover_rows

from conftest import EX11, EX12, all_nodes, band_matrix, bit_labels, brute_reach, \
    fraction_inverse, is_one_band, is_zero, random_cobweb, random_no_mute_poset


# -- cover and reflexive cover ----------------------------------------------

def test_kappa_band_layout(nat3):
    K = kappa(nat3)
    assert K.is_strictly_upper_block() and is_one_band(K)
    assert K.block(1, 2) == ((1, 1),)
    assert K.block(2, 3) == ((1, 1, 1), (1, 1, 1))


def test_kappa_single_level_is_zero():
    assert is_zero(kappa(antichain(4)))


@pytest.mark.parametrize("P", [
    antichain(4), from_blocks([1], []), cobweb(nat(), 4),
    # mute nodes: an all-zero row of a block, and an all-zero block
    from_blocks([3, 2, 3], [[[1, 0], [0, 0], [1, 1]], [[0, 0, 0], [1, 0, 1]]]),
    from_blocks([2, 2, 1], [[[0, 0], [0, 0]], [[1], [0]]]),
    random_no_mute_poset(5)])
def test_cover_rows_are_the_band_block_rows(P):
    rows = _cover_rows(P)
    assert all(type(row) is bytes for row in rows)
    assert [list(row) for row in rows] == list(band_matrix(P.level_sizes, P.blocks, INT).rows)
    assert kappa(P).rows == tuple(rows)
    # the top level shares one all-zero row
    top = rows[P.node_count - P.level_sizes[-1]:]
    assert top[0] == bytes(P.node_count) and all(row is top[0] for row in top)


def test_the_closure_and_the_cover_keep_bytes_rows_and_another_ring_shares_them():
    P = random_no_mute_poset(7)
    Z = zeta(P, "closure")
    assert all(type(row) is bytes for row in Z.rows + kappa(P).rows)
    assert BlockMatrix(Z.level_sizes, Z.rows, INT).rows is Z.rows


def test_kappa_tracks_deleted_arcs():
    P = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    K = kappa(P)
    assert K.block(1, 2) == ((1, 0), (1, 1))


def test_eta_inverse_pinned():
    P = cobweb(nat(), 2)
    inv = eta_inverse(P)
    assert [list(r) for r in inv.rows] == [[1, -1, -1], [0, 1, 0], [0, 0, 1]]
    assert mul(eta(P), inv) == BlockMatrix.identity(P.level_sizes, INT)


def test_eta_of_antichain_is_identity():
    P = antichain(3)
    assert eta(P) == BlockMatrix.identity([3], INT)


def test_eta_inverse_block_pattern():
    # on three levels the inverse carries I, -B1, +B1*B2
    P = from_blocks([1, 2, 2], [[[1, 1]], [[1, 0], [1, 1]]])
    inv = eta_inverse(P)
    assert inv.block(1, 2) == ((-1, -1),)
    b1b2 = ((2, 1),)  # [1,1] times [[1,0],[1,1]]
    assert inv.block(1, 3) == b1b2
    assert mul(eta(P), inv) == BlockMatrix.identity(P.level_sizes, INT)


# -- zeta ---------------------------------------------------------------------

def test_zeta_hand_values_nat():
    Z = zeta(cobweb(nat(), 3), "label_S")
    assert Z.rows[1][2] == 0  # same level
    assert Z.rows[1][3] == 1  # next level
    assert all(Z.rows[i][i] == 1 for i in range(6))


@pytest.mark.parametrize("method", ZETA_METHODS)
def test_zeta_is_boolean(method):
    Z = zeta(cobweb(fib(), 4), method)
    assert Z.ring is BOOL
    assert set(v for row in Z.rows for v in row) <= {0, 1}


@pytest.mark.parametrize("seed", range(10))
def test_zeta_methods_agree_on_cobwebs(seed):
    P = random_cobweb(seed)
    mats = [zeta(P, m) for m in ZETA_METHODS]
    assert all(m.rows == mats[0].rows for m in mats[1:])


@pytest.mark.parametrize("seed", range(10))
def test_zeta_closure_matches_bfs(seed):
    P = random_no_mute_poset(seed)
    Z = zeta(P, "closure")
    reach = brute_reach(P)
    for i in range(P.node_count):
        for j in range(P.node_count):
            assert Z.rows[i][j] == (1 if (j + 1) in reach[i + 1] else 0)


def test_zeta_label_methods_refuse_non_cobweb():
    P = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    for m in ("label_delta", "label_knuth", "label_S"):
        with pytest.raises(PosetError):
            zeta(P, m)
    zeta(P, "closure")  # fine


def test_zeta_unknown_method():
    with pytest.raises(ValueError):
        zeta(cobweb(nat(), 2), "magic")


# -- kroton and coding matrices ----------------------------------------------

def test_kroton_pinned_values():
    assert kroton(nat(), 1, 5) == (2 - 1) * (3 - 1) * (4 - 1)
    assert kroton(EX11, 2, 5) == 2 * 2
    for F in (nat(), fib(), EX11):
        for r in range(0, 5):
            assert kroton(F, r, r + 1) == 1
            assert kroton(F, r, r) == 0
            assert kroton(F, r + 1, r) == 0


def test_kroton_growth_law():
    for F in (nat(), fib(), EX11, EX12):
        for r in range(0, 7):
            for s in range(r + 1, 8):
                assert kroton(F, r, s + 1) == kroton(F, r, s) * (F.value(s) - 1)


def test_kroton_rooted_start():
    # r = 0 only ever touches indices >= 1
    assert kroton(nat(), 0, 3) == (1 - 1) * (2 - 1)
    assert kroton(fib(), 0, 4) == (1 - 1) * (1 - 1) * (2 - 1)


def test_coding_matrix_nat_rows():
    C = coding_matrix(nat(), 6)
    assert list(C.entries[0]) == [1, -1, 1, -2, 6, -24]
    assert list(C.entries[1]) == [0, 1, -1, 2, -6, 24]
    assert list(C.entries[2]) == [0, 0, 1, -1, 3, -12]
    assert C.entries[3][5] == 4


@pytest.mark.parametrize("r, s", [(-1, 2), (0, 1), (4, 1), (1, 4)])
def test_block_refuses_levels_out_of_range(nat3, r, s):
    # a level below 1 must not wrap or slice to a zero or empty block
    with pytest.raises(MatrixError, match=r"out of range 1\.\.3"):
        max_matrix(nat3).block(r, s)


def test_coding_matrix_recurrence_route():
    for F in (nat(), fib(), EX11, EX12, custom([1, 3, 7, 15, 31, 63, 127, 255])):
        assert coding_recurrence(F, 8).entries == coding_matrix(F, 8).entries
    # both routes refuse the same level counts, with the same message
    for route in (coding_matrix, coding_recurrence):
        for n in (0, -1):
            with pytest.raises(ValueError, match=rf"^coding matrix needs n >= 1, got {n}$"):
                route(nat(), n)


def test_coding_recurrence_reads_no_value_at_the_top_level():
    # custom([1, 2, 3]) has no 4_F, and neither route for 4 levels needs it
    F = custom([1, 2, 3])
    assert coding_recurrence(F, 4) == coding_matrix(F, 4)


def test_coding_matrix_structure_enforced():
    C = coding_matrix(fib(), 7)
    n = len(C.entries)
    for r in range(1, n + 1):
        assert C.entries[r - 1][r - 1] == 1
        if r < n:
            assert C.entries[r - 1][r] == -1
        for s in range(1, r):
            assert C.entries[r - 1][s - 1] == 0
        for s in range(r + 1, n + 1):
            v = C.entries[r - 1][s - 1]
            assert v == 0 or (v > 0) == ((s - r) % 2 == 0)
    for ragged in (((1, -1),), ((1, -1), (0,))):
        with pytest.raises(ValueError, match="coding matrix must be square"):
            CodingMatrix(ragged)


# -- Moebius -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_mobius_methods_agree_on_cobwebs(seed):
    P = random_cobweb(seed)
    mats = [mobius(P, m) for m in MOBIUS_METHODS]
    assert all(m.rows == mats[0].rows for m in mats[1:])


@pytest.mark.parametrize("seed", range(8))
def test_mobius_is_exact_inverse(seed):
    P = random_no_mute_poset(seed)
    zi = BlockMatrix(P.level_sizes, zeta(P, "closure").rows, INT)
    mu = mobius(P, "invert")
    I = BlockMatrix.identity(P.level_sizes, INT)
    assert mul(zi, mu) == I
    assert mul(mu, zi) == I
    # fully independent route: Fraction Gauss-Jordan of zeta
    oracle = fraction_inverse(zi.rows)
    assert [[Fraction(v) for v in row] for row in mu.rows] == oracle


@pytest.mark.parametrize("seed", range(8))
def test_mobius_recurrence_on_general_posets(seed):
    P = random_no_mute_poset(seed + 100)
    assert mobius(P, "recurrence").rows == mobius(P, "invert").rows


def test_mobius_closed_form_refused_off_cobwebs():
    P = from_blocks([1, 2, 2], [[[1, 1]], [[1, 0], [1, 1]]])
    with pytest.raises(PosetError):
        mobius(P, "closed_form")


def test_mobius_of_antichain_is_identity():
    assert mobius(antichain(4), "recurrence") == BlockMatrix.identity([4], INT)


def test_mobius_rooted_fib_block_pattern():
    # rooted Fibonacci on ranks 0..4: block (3,4) = -ones(1x2), (3,5) = +ones(1x3)
    P = root(fib(), 4)
    mu = mobius(P, "closed_form")
    assert mu.block(3, 4) == ((-1, -1),)
    assert mu.block(3, 5) == ((1, 1, 1),)
    assert mu.block(4, 5) == ((-1, -1, -1), (-1, -1, -1))


def test_mobius_rank_dependence_on_cobwebs():
    P = cobweb(fib(), 5)
    mu = mobius(P, "invert")
    for r in range(1, 6):
        for s in range(r, 6):
            blk = mu.block(r, s)
            if r == s:
                continue
            assert len({v for row in blk for v in row}) == 1


def test_interval_mobius_values():
    F = custom([4, 2, 3, 5])
    assert interval_mobius(F, 2, 2) == 1
    assert interval_mobius(F, 2, 3) == -1
    assert interval_mobius(F, 1, 3) == 2 - 1  # one intermediate level of size 2
    assert interval_mobius(F, 1, 4) == -(2 - 1) * (3 - 1)
    with pytest.warns(UserWarning):
        assert interval_mobius(F, 3, 2) == 0


def test_interval_mobius_matches_coding():
    for F in (nat(), fib(), EX11):
        C = coding_matrix(F, 7)
        for r in range(1, 8):
            for s in range(r, 8):
                assert interval_mobius(F, r, s) == C.entries[r - 1][s - 1]


def test_mobius_in_position_level_coordinates_on_a_grid():
    # within one level mu is the Kronecker delta of the positions, across
    # levels the rank-only interval form
    for F in (nat(), fib(), EX12):
        P = cobweb(F, 5)
        mu = mobius(P, "invert")
        for x in all_nodes(P):
            for y in all_nodes(P):
                want = (int(x.position == y.position) if x.level == y.level
                        else interval_mobius(F, x.level, y.level) if x.level < y.level else 0)
                assert mu.rows[x.global_label - 1][y.global_label - 1] == want
    # unique rank-1 and rank-2 nodes of the Fibonacci cobweb
    assert interval_mobius(fib(), 1, 2) == -1
    assert interval_mobius(nat(), 1, 4) == -2


# -- max matrix and the logic reduction ----------------------------------------

def test_max_matrix_pinned(nat3):
    M = max_matrix(nat3)
    assert all(M.rows[i][i] == 1 for i in range(6))
    for j in range(3, 6):
        assert M.rows[0][j] == 2
    assert max_matrix(antichain(5)) == BlockMatrix.identity([5], INT)


@pytest.mark.parametrize("seed", range(6))
def test_max_inverse_pair(seed):
    P = random_no_mute_poset(seed + 50)
    I = BlockMatrix.identity(P.level_sizes, INT)
    assert mul(max_matrix(P), max_inverse(P)) == I
    assert mul(max_inverse(P), max_matrix(P)) == I


@pytest.mark.parametrize("seed", range(6))
def test_logic_of_max_is_zeta(seed):
    P = random_no_mute_poset(seed + 200)
    assert logic_L(max_matrix(P)).rows == zeta(P, "closure").rows


def test_logic_L_basics():
    I = BlockMatrix.identity([3], INT)
    assert logic_L(I) == BlockMatrix(I.level_sizes, I.rows, BOOL)
    M = BlockMatrix([1, 1], [[1, 2], [0, 1]], INT)
    L = logic_L(M)
    assert [list(r) for r in L.rows] == [[1, 1], [0, 1]]
    with pytest.raises(MatrixError):
        logic_L(BlockMatrix([1, 1], [[1, -1], [0, 1]], INT))


def test_inverse_does_not_commute_with_join():
    A = cobweb_of_sizes([1, 2])
    B = cobweb_of_sizes([2, 3])
    joined_inverse = eta_inverse(natural_join(A, B))
    inverse_joined = mat_join(eta_inverse(A), eta_inverse(B))
    assert joined_inverse != inverse_joined
    # the discrepancy is exactly the cross block picked up by the join
    assert joined_inverse.block(1, 3) == ((2, 2, 2),)
    assert inverse_joined.block(1, 3) == ((0, 0, 0),)


def test_reachable_sets_matches_bfs(nat3):
    assert bit_labels(reachable_sets(nat3)) == [brute_reach(nat3)[g] for g in range(1, 7)]


def test_all_ones_block_product_law():
    # ones(a x b) * ones(b x c) = b * ones(a x c): the matrix form of the
    # middle-level factorization; cross-level blocks of the integer closure
    # of a cobweb are therefore constant multiples of all-ones blocks
    for F in (nat(), fib(), EX11):
        P = cobweb(F, 5)
        M = max_matrix(P)
        for r in range(1, 6):
            for s in range(r + 1, 6):
                blk = M.block(r, s)
                expect = 1
                for i in range(r + 1, s):
                    expect *= F.value(i)
                assert all(v == expect for row in blk for v in row)
