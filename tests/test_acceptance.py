"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expected matrices are
frozen literals, cross-checked against first-principles constructions
computed inside the tests themselves.
"""

import time

from itertools import product

from cobweb import INT, BlockMatrix, cobweb, cobweb_of_sizes, coding_matrix, \
    coding_recurrence, count_layer_chains, count_interval_chains, custom, \
    enumerate_max_chains, eta_inverse, f_factorial, f_falling, fib, fnomial, \
    gauss, is_cobweb_admissible, kroton, max_matrix, mobius, mul, nat, \
    natural_join, root, whitney_first, char_poly, zeta
from cobweb.blockmat import natural_join as mat_join
from cobweb.incidence import MOBIUS_METHODS, ZETA_METHODS

from conftest import all_nodes, preset_table, random_no_mute_poset


class budget:
    """Context manager asserting the criterion's stated runtime bound."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"[acceptance] criterion {self.number} ({self.label}): "
                  f"PASS in {elapsed:.2f}s (budget {self.seconds}s)")
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds}s budget"
        else:
            print(f"[acceptance] criterion {self.number} ({self.label}): FAIL")
        return False


# Frozen 15x15 zeta pattern over level sizes <1,2,3,4,5>; the test also
# rebuilds it from the comparability definition.
ZETA_N_15 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]

# Frozen 8x8 zeta prefix over level sizes <1,1,1,2,3>: the rooted Fibonacci
# staircase.
ZETA_FIB_ROOTED_8 = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 1, 0, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
]

# Frozen 16x16 Moebius prefix over level sizes <1,2,3,4,5,6>.
MU_N_16 = [
    [1, -1, -1, 1, 1, 1, -2, -2, -2, -2, 6, 6, 6, 6, 6, -24],
    [0, 1, 0, -1, -1, -1, 2, 2, 2, 2, -6, -6, -6, -6, -6, 24],
    [0, 0, 1, -1, -1, -1, 2, 2, 2, 2, -6, -6, -6, -6, -6, 24],
    [0, 0, 0, 1, 0, 0, -1, -1, -1, -1, 3, 3, 3, 3, 3, -12],
    [0, 0, 0, 0, 1, 0, -1, -1, -1, -1, 3, 3, 3, 3, 3, -12],
    [0, 0, 0, 0, 0, 1, -1, -1, -1, -1, 3, 3, 3, 3, 3, -12],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1, -1, -1, -1, -1, 4],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1, -1, -1, -1, -1, 4],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1, -1, -1, -1, -1, 4],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, -1, -1, -1, 4],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]

CODING_N_6 = [
    [1, -1, 1, -2, 6, -24],
    [0, 1, -1, 2, -6, 24],
    [0, 0, 1, -1, 3, -12],
    [0, 0, 0, 1, -1, 4],
    [0, 0, 0, 0, 1, -1],
    [0, 0, 0, 0, 0, 1],
]

CODING_EX11_6 = [
    [1, -1, 0, 0, 0, 0],
    [0, 1, -1, 2, -4, 8],
    [0, 0, 1, -1, 2, -4],
    [0, 0, 0, 1, -1, 2],
    [0, 0, 0, 0, 1, -1],
    [0, 0, 0, 0, 0, 1],
]

CODING_EX12_6 = [
    [1, -1, 2, -4, 8, -16],
    [0, 1, -1, 2, -4, 8],
    [0, 0, 1, -1, 2, -4],
    [0, 0, 0, 1, -1, 2],
    [0, 0, 0, 0, 1, -1],
    [0, 0, 0, 0, 0, 1],
]


def comparability_zeta(sizes):
    """First-principles oracle: x <= y iff x = y or level(x) < level(y)."""
    lvl = []
    for k, s in enumerate(sizes):
        lvl += [k] * s
    n = len(lvl)
    return [[1 if (i == j or lvl[i] < lvl[j]) else 0 for j in range(n)]
            for i in range(n)]


def test_criterion_1_example_reproduction():
    with budget(1, "example reproduction", 1.0):
        Z = zeta(cobweb(nat(), 5))
        assert [list(r) for r in Z.rows] == ZETA_N_15
        assert ZETA_N_15 == comparability_zeta([1, 2, 3, 4, 5])

        Z2 = zeta(cobweb_of_sizes([1, 1, 1, 2, 3]))
        assert [list(r) for r in Z2.rows] == ZETA_FIB_ROOTED_8
        assert ZETA_FIB_ROOTED_8 == comparability_zeta([1, 1, 1, 2, 3])

        MU = mobius(cobweb(nat(), 6), "invert")
        got = [list(r[:16]) for r in MU.rows[:16]]
        assert got == MU_N_16

        assert [list(r) for r in coding_matrix(nat(), 6).entries] == CODING_N_6
        ex11 = custom([1, 1, 3, 3, 3, 3])
        assert [list(r) for r in coding_matrix(ex11, 6).entries] == CODING_EX11_6
        ex12 = custom([1, 3, 3, 3, 3, 3])
        assert [list(r) for r in coding_matrix(ex12, 6).entries] == CODING_EX12_6


def test_criterion_2_inverse_pair_law():
    with budget(2, "inverse-pair law", 10.0):
        posets = []
        for name, F in preset_table().items():
            for n in range(1, 7):
                posets.append(cobweb(F, n))
        posets += [random_no_mute_poset(seed) for seed in range(20)]
        for P in posets:
            zi = zeta(P, "closure").with_ring(INT)
            mu = mobius(P, "invert")
            I = BlockMatrix.identity(P.level_sizes, INT)
            assert mul(zi, mu) == I
            assert mul(mu, zi) == I


def test_criterion_3_method_agreement():
    with budget(3, "zeta and Moebius method agreement", 10.0):
        for name, F in preset_table().items():
            for n in range(1, 7):
                P = cobweb(F, n)
                zs = [zeta(P, m) for m in ZETA_METHODS]
                assert all(z.rows == zs[0].rows for z in zs[1:]), name
                mus = [mobius(P, m) for m in MOBIUS_METHODS]
                assert all(m.rows == mus[0].rows for m in mus[1:]), name


def test_criterion_4_max_oracle():
    with budget(4, "max matrix vs chain-count oracle", 30.0):
        posets = [cobweb(F, 5) for F in preset_table().values()]
        posets += [random_no_mute_poset(seed) for seed in range(20)]
        for P in posets:
            M = max_matrix(P)
            for x in all_nodes(P):
                row = M.rows[x.global_label - 1]
                for y in all_nodes(P):
                    assert row[y.global_label - 1] == count_interval_chains(P, x, y)


def test_criterion_5_top_level_row_sums():
    with budget(5, "row sums over the top level", 10.0):
        for name, F in preset_table().items():
            for n in range(2, 7):
                P = cobweb(F, n)
                M = max_matrix(P)
                for k in range(1, n):
                    x = P.node(k, 1)
                    row = M.rows[x.global_label - 1]
                    top = [P.node(n, i).global_label - 1
                           for i in range(1, P.level_sizes[n - 1] + 1)]
                    total = sum(row[j] for j in top)
                    assert total == count_layer_chains(P, k + 1, n), name
                    assert total == f_falling(F, n, n - k), name


def test_criterion_6_markov_property():
    with budget(6, "Markov factorization", 10.0):
        for name, F in preset_table().items():
            P = cobweb(F, 5)
            # both sides from literal chain listings
            listed = {}
            for a in range(1, 6):
                for b in range(a, 6):
                    listed[a, b] = len(enumerate_max_chains(P, a, b))
                    assert listed[a, b] == count_layer_chains(P, a, b), name
            for r in range(1, 6):
                for k in range(r, 6):
                    for s in range(k + 1, 6):
                        assert listed[r, k] * listed[k, s] == \
                            F.value(k) * listed[r, s], name
                        assert listed[r, k] * listed[k + 1, s] == listed[r, s], name


def test_criterion_7_fnomial_suite():
    with budget(7, "F-nomial suite", 5.0):
        F = fib()
        for n in range(9):
            for k in range(n + 1):
                v = fnomial(F, n, k)
                assert v == fnomial(F, n, n - k)
                assert v.denominator == 1 and v >= 0
        # the maximal chains of the layer <k+1 -> n> split into F-nomial
        # many blocks, each as large as the chain set of an m-level cobweb
        for name, G in preset_table().items():
            for m in range(1, 7):
                assert count_layer_chains(cobweb(G, m), 1, m) == f_factorial(G, m), name
            for n in range(1, 7):
                P = cobweb(G, n)
                for k in range(n):
                    assert count_layer_chains(P, k + 1, n) == \
                        fnomial(G, n, k) * f_factorial(G, n - k), name
            # an empty span: the one empty chain, in one block
            assert all(fnomial(G, n, n) == 1 for n in range(7)), name
        assert is_cobweb_admissible(nat(), 8).admissible
        assert is_cobweb_admissible(fib(), 8).admissible
        assert is_cobweb_admissible(gauss(2), 8).admissible
        bad = is_cobweb_admissible(custom([2, 3]), 2)
        assert not bad.admissible and bad.first_failure == (2, 1)


def test_criterion_8_chain_box_bijection():
    with budget(8, "chain-box bijection", 10.0):
        for name, F in preset_table().items():
            P = cobweb(F, 6)
            for k in range(1, 7):
                for n in range(k, 7):
                    # the position tuples are the box's points, once each
                    # and in lexicographic order
                    assert [c.positions for c in enumerate_max_chains(P, k, n)] == \
                        list(product(*(range(1, s + 1) for s in P.level_sizes[k - 1:n]))), \
                        (name, k, n)


def test_criterion_9_whitney_charpoly():
    with budget(9, "Whitney numbers and charpoly", 5.0):
        for name, F in preset_table().items():
            for n in range(0, 7):
                R = root(F, n)
                for r in range(n + 1):
                    whitney_first(R, r)  # raises if closed form != direct sum
                char_poly(R)
                assert whitney_first(R, 0) == 1, name
        chi = char_poly(root(custom([2, 3]), 2))
        assert list(chi.coefficients) == [1, -2, 3]


def test_criterion_10_kroton_laws():
    with budget(10, "Kroton laws and coding recurrence", 1.0):
        for name, F in preset_table().items():
            for r in range(0, 8):
                assert kroton(F, r, r + 1) == 1, name
                for s in range(r + 1, 8):
                    assert kroton(F, r, s + 1) == kroton(F, r, s) * (F.value(s) - 1)
            assert coding_recurrence(F, 8).entries == coding_matrix(F, 8).entries


def test_criterion_11_join_inverse_counterexample():
    with budget(11, "no distribution of inverse over join", 1.0):
        A = cobweb_of_sizes([1, 2])
        B = cobweb_of_sizes([2, 3])
        lhs = eta_inverse(natural_join(A, B))
        rhs = mat_join(eta_inverse(A), eta_inverse(B))
        assert lhs != rhs
        assert lhs.block(1, 3) == ((2, 2, 2),)
        assert rhs.block(1, 3) == ((0, 0, 0),)
