"""Chain enumeration, counting, the hyper-box coding of a cobweb layer,
Markov factorization and the F-nomial partition count."""

from fractions import Fraction
from itertools import product

import pytest

from hypothesis import given, settings, strategies as st

from cobweb import Chain, PosetError, cobweb, cobweb_of_sizes, count_head_chains, \
    count_interval_chains, count_layer_chains, count_tail_chains, custom, \
    enumerate_max_chains, f_factorial, f_falling, fib, fnomial, from_blocks, gauss, \
    layer_chain_counts, max_matrix, nat, suites

from conftest import all_nodes, brute_chains, brute_interval_count, preset_table, \
    random_cobweb, random_no_mute_poset


def test_layer_chain_counts_pinned():
    P = cobweb(nat(), 4)
    assert len(enumerate_max_chains(P, 2, 3)) == 6
    assert len(enumerate_max_chains(P, 2, 4)) == 24
    chainposet = cobweb(custom([1, 1, 1]), 3)
    assert len(enumerate_max_chains(chainposet, 1, 3)) == 1


def test_enumeration_is_lexicographic():
    P = cobweb(nat(), 3)
    chains = enumerate_max_chains(P, 1, 3)
    positions = [c.positions for c in chains]
    assert positions == sorted(positions)
    assert positions == list(product(range(1, 2), range(1, 3), range(1, 4)))


def test_enumeration_respects_blocks():
    P = from_blocks([1, 2, 2], [[[1, 1]], [[1, 0], [1, 1]]])
    got = [c.positions for c in enumerate_max_chains(P, 1, 3)]
    assert got == [(1, 1, 1), (1, 2, 1), (1, 2, 2)]  # 2:1 -> 3:2 arc is absent
    assert got == brute_chains(P, 1, 3)


@pytest.mark.parametrize("chain, message", [
    (Chain(0, (1, 1)), "level 0 out of range 1..3"),
    (Chain(-1, (1, 1, 1)), "level -1 out of range 1..3"),
    (Chain(3, (1, 1)), "level 4 out of range 1..3"),
    (Chain(1, (1, 3)), "position 3 out of range 1..2 at level 2")])
def test_validate_refuses_nodes_outside_the_poset(nat3, chain, message):
    # a level below 1 must not wrap to the top block through blocks[-1]
    with pytest.raises(PosetError) as err:
        [nat3.node(chain.start_level + i, p) for i, p in enumerate(chain.positions)]
    assert str(err.value) == message


def test_chain_nodes_view(nat3):
    c = enumerate_max_chains(nat3, 2, 3)[0]
    nodes = [nat3.node(c.start_level + i, p) for i, p in enumerate(c.positions)]
    assert [(x.level, x.position) for x in nodes] == [(2, 1), (3, 1)]


def test_enumeration_walks_a_layer_deeper_than_the_recursion_limit():
    # 1,100 levels is deeper than the interpreter's default recursion limit
    P = cobweb_of_sizes([1] * 1100)
    assert enumerate_max_chains(P, 1, 1100) == [Chain(1, (1,) * 1100)]


def test_counting_sweeps_a_layer_deeper_than_the_recursion_limit():
    P = cobweb_of_sizes([1, 2] * 550)
    assert count_layer_chains(P, 1, 1100) == 2 ** 550
    assert count_head_chains(P, P.node(1, 1), 1100) == 2 ** 550
    assert count_tail_chains(P, 1, P.node(1100, 2)) == 2 ** 549


# -- the hyper-box coding of a cobweb layer ------------------------------------

@pytest.mark.parametrize("F, n, k, m, count", [
    (nat(), 3, 2, 3, 6),
    (nat(), 3, 2, 2, 2),
    # the <2,3> step of the Fibonacci cobweb sits at levels 3..4
    (fib(), 4, 3, 4, 6),
    (gauss(2), 3, 1, 3, 21),
    (custom([3, 3, 3, 3]), 4, 2, 4, 27)])
def test_max_chain_positions_are_the_level_box(F, n, k, m, count):
    # on a cobweb the chains of <k -> m> are the points of the box of level
    # sizes, once each and in lexicographic order
    P = cobweb(F, n)
    box = list(product(*(range(1, s + 1) for s in P.level_sizes[k - 1:m])))
    assert [c.positions for c in enumerate_max_chains(P, k, m)] == box
    assert len(box) == count == count_layer_chains(P, k, m)


def test_max_chains_of_a_non_cobweb_miss_points_of_the_box():
    # the 1:1 -> 2:2 cover is absent, so the box point (1, 2) is no chain
    P = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    assert [c.positions for c in enumerate_max_chains(P, 1, 2)] == \
        [(1, 1), (2, 1), (2, 2)]


@pytest.mark.parametrize("name", sorted(preset_table()))
def test_layer_chains_join_at_a_shared_level(name):
    # joining the boxes of <k -> m> and <m -> n> at their shared level m
    # gives the box of <k -> n>, so the chain counts multiply over it
    P = cobweb(preset_table()[name], 6)
    for k in range(1, 7):
        for m in range(k, 7):
            for n in range(m, 7):
                assert count_layer_chains(P, k, m) * count_layer_chains(P, m, n) == \
                    P.level_sizes[m - 1] * count_layer_chains(P, k, n), (k, m, n)


@pytest.mark.parametrize("seed", range(8))
def test_count_matches_listing(seed):
    P = random_no_mute_poset(seed + 10)
    n = P.n_levels
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            assert count_layer_chains(P, k, m) == len(enumerate_max_chains(P, k, m))


def test_cobweb_layer_counts_are_products():
    for F in (nat(), fib(), gauss(2)):
        P = cobweb(F, 5)
        for k in range(1, 6):
            for n in range(k, 6):
                expect = 1
                for j in range(k, n + 1):
                    expect *= F.value(j)
                assert count_layer_chains(P, k, n) == expect


def test_interval_counts_pinned(nat3):
    x = nat3.node(1, 1)
    assert count_interval_chains(nat3, x, x) == 1
    assert count_interval_chains(nat3, x, nat3.node(3, 2)) == 2
    a, b = nat3.node(2, 1), nat3.node(2, 2)
    assert count_interval_chains(nat3, a, b) == 0


@pytest.mark.parametrize("seed", range(6))
def test_interval_counts_against_bruteforce_and_max(seed):
    P = random_no_mute_poset(seed + 30, max_levels=4)
    M = max_matrix(P)
    for x in all_nodes(P):
        for y in all_nodes(P):
            got = count_interval_chains(P, x, y)
            assert got == brute_interval_count(P, x, y)
            assert got == M.rows[x.global_label - 1][y.global_label - 1]


def test_tail_chains(nat3):
    t = nat3.node(3, 2)
    assert count_tail_chains(nat3, 1, t) == 2
    assert count_tail_chains(nat3, 3, t) == 1
    # independent of the head position on a cobweb, and k_F of them per level
    P = cobweb(fib(), 5)
    for k in range(1, 6):
        vals = {count_tail_chains(P, 1, P.node(k, i))
                for i in range(1, P.level_sizes[k - 1] + 1)}
        assert len(vals) == 1
        assert P.level_sizes[k - 1] * vals.pop() == count_layer_chains(P, 1, k)


def test_head_chains_and_crossing_sum():
    # sum over the middle level of tails-to-i times heads-from-i
    P = cobweb(nat(), 5)
    for r in range(1, 6):
        for k in range(r, 6):
            for s in range(k + 1, 6):
                total = sum(
                    count_tail_chains(P, r, P.node(k, i))
                    * count_head_chains(P, P.node(k, i), s)
                    for i in range(1, P.level_sizes[k - 1] + 1))
                assert total == count_layer_chains(P, r, s)


def test_markov_product_pinned():
    # C(r, k) * C(k, s) == k_F * C(r, s)
    P = cobweb(nat(), 3)
    assert count_layer_chains(P, 1, 2) * count_layer_chains(P, 2, 3) == 12
    assert P.level_sizes[1] * count_layer_chains(P, 1, 3) == 12
    # k = r degenerates to r_F times the full count
    assert count_layer_chains(P, 2, 2) * count_layer_chains(P, 2, 3) == 2 * 6
    assert P.level_sizes[1] * count_layer_chains(P, 2, 3) == 2 * 6


def test_markov_split_form():
    for F in (nat(), fib(), gauss(2)):
        P = cobweb(F, 5)
        for r in range(1, 6):
            for k in range(r, 6):
                for s in range(k + 1, 6):
                    assert (count_layer_chains(P, r, k)
                            * count_layer_chains(P, k + 1, s)
                            == count_layer_chains(P, r, s))


def _seeded_poset(seed, is_cobweb):
    return random_cobweb(seed) if is_cobweb else random_no_mute_poset(seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_layer_table_equals_layer_counts(seed, is_cobweb):
    P = _seeded_poset(seed, is_cobweb)
    for s in range(1, P.n_levels + 1):
        assert layer_chain_counts(P, s) == \
            [count_layer_chains(P, r, s) for r in range(1, s + 1)]


def test_layer_table_pinned(nat3):
    assert layer_chain_counts(nat3, 3) == [6, 6, 3]
    with pytest.raises(PosetError):
        layer_chain_counts(nat3, 4)


def test_markov_refuses_non_cobweb():
    P = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    assert suites.suite_markov(P, suites.Dense(P)) == [
        ("markov", "factorization", True, "skipped: stated for cobwebs")]


def test_top_level_row_sums_small():
    F = fib()
    P = cobweb(F, 6)
    M = max_matrix(P)
    for k in range(1, 6):
        x = P.node(k, 1)
        n = 6
        row = M.rows[x.global_label - 1]
        total = sum(row[P.node(n, i).global_label - 1]
                    for i in range(1, P.level_sizes[n - 1] + 1))
        assert total == count_layer_chains(P, k + 1, n)
        assert total == f_falling(F, n, n - k)


# -- the F-nomial partition count ----------------------------------------------

def test_fnomial_partition_pinned():
    # the layer <3 -> 4> of nat splits into fnomial(4, 2) = 6 blocks of 2! chains
    assert count_layer_chains(cobweb(nat(), 4), 3, 4) == 12
    assert count_layer_chains(cobweb(nat(), 2), 1, 2) == 2 == f_factorial(nat(), 2)
    assert fnomial(nat(), 4, 2) == 6
    assert count_layer_chains(cobweb(fib(), 4), 3, 4) == 6 == fnomial(fib(), 4, 2)
    assert count_layer_chains(cobweb(fib(), 2), 1, 2) == 1
    # an empty span: the single empty chain, one block
    assert fnomial(gauss(2), 5, 5) == 1 == f_factorial(gauss(2), 0)


def test_fnomial_partition_block_count_is_factorial():
    for F in (nat(), fib(), gauss(2)):
        for m in range(1, 6):
            assert count_layer_chains(cobweb(F, m), 1, m) == f_factorial(F, m)
        for n in range(1, 6):
            for k in range(n):
                assert count_layer_chains(cobweb(F, n), k + 1, n) == \
                    fnomial(F, n, k) * f_factorial(F, n - k)


def fnomial_against_chains(F, l, k):
    """fnomial(F, l, k), and the maximal chains from a level k-2 node to a
    level l+1 node divided by (l-k)_F!.  Level 0 is the root of F's rooted
    cobweb, under which level j of F's cobweb is level j + 1."""
    P = cobweb(custom([1] + F.prefix(l + 1)), l + 2)
    count = count_interval_chains(P, P.node(k - 1, 1), P.node(l + 2, 1))
    return fnomial(F, l, k), Fraction(count, f_factorial(F, l - k))


def test_fnomial_chain_index_relation_holds_for_fib_at_k_2_only():
    # the stated offsets do hold for Fibonacci at k = 2, where the two
    # bottom sizes are 1 and the index slack cancels; for nat they do not
    for l in (4, 5):
        lhs, rhs = fnomial_against_chains(fib(), l, 2)
        assert lhs == rhs
    lhs, rhs = fnomial_against_chains(nat(), 4, 2)
    assert lhs != rhs
