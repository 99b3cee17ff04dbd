"""Chain enumeration, counting, Markov factorization, hyper-box coding."""

from fractions import Fraction
from itertools import product

import pytest

from hypothesis import given, settings, strategies as st

from cobweb import Chain, PosetError, box_join, chain_box_bijection, cobweb, \
    cobweb_of_sizes, count_head_chains, count_interval_chains, count_layer_chains, \
    count_tail_chains, custom, enumerate_max_chains, f_factorial, f_falling, \
    fib, fnomial, fnomial_partition_check, from_blocks, gauss, hyperbox, \
    layer_chain_counts, \
    max_matrix, nat, suites

from conftest import brute_chains, brute_interval_count, random_cobweb, \
    random_no_mute_poset


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
        chain.nodes(nat3)
    assert str(err.value) == message


def test_chain_nodes_view(nat3):
    c = enumerate_max_chains(nat3, 2, 3)[0]
    nodes = c.nodes(nat3)
    assert [(x.level, x.position) for x in nodes] == [(2, 1), (3, 1)]


def test_enumeration_walks_a_layer_deeper_than_the_recursion_limit():
    # 1,100 levels is deeper than the interpreter's default recursion limit
    P = cobweb_of_sizes([1] * 1100)
    assert enumerate_max_chains(P, 1, 1100) == [Chain(1, (1,) * 1100)]


def test_chain_box_bijection_on_a_layer_deeper_than_the_recursion_limit():
    P = cobweb_of_sizes([1] * 1100)
    assert chain_box_bijection(P, 1, 1100) == (True, 1, 1)


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
    for x in P.nodes():
        for y in P.nodes():
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
    assert suites.suite_markov(P) == [
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


# -- hyper-boxes ---------------------------------------------------------------

def test_hyperbox_basics():
    B = hyperbox(nat(), 2, 3)
    assert B.dims == (2, 3)
    assert B.cardinality == 6
    assert len(list(B.points())) == 6
    single = hyperbox(nat(), 4, 4)
    assert list(single.points()) == [(i,) for i in range(1, 5)]


def test_box_join():
    V23 = hyperbox(nat(), 2, 3)
    V34 = hyperbox(nat(), 3, 4)
    V24 = box_join(V23, V34)
    assert V24 == hyperbox(nat(), 2, 4)
    assert V24.cardinality == 24
    shared = V23.dims[-1]
    assert V24.cardinality == V23.cardinality * V34.cardinality // shared
    with pytest.raises(ValueError):
        box_join(V34, V23)


def test_box_join_associative():
    A = hyperbox(fib(), 1, 3)
    B = hyperbox(fib(), 3, 5)
    C = hyperbox(fib(), 5, 6)
    assert box_join(box_join(A, B), C) == box_join(A, box_join(B, C))


def test_chain_box_bijection_cases():
    rep = chain_box_bijection(cobweb(nat(), 3), 2, 3)
    assert rep.bijective and rep.chain_count == rep.box_cardinality == 6
    rep = chain_box_bijection(cobweb(nat(), 3), 2, 2)
    assert rep.bijective and rep.chain_count == 2
    # the <2,3> step of the Fibonacci cobweb sits at levels 3..4
    rep = chain_box_bijection(cobweb(fib(), 4), 3, 4)
    assert rep.bijective and rep.chain_count == 6


def test_chain_box_bijection_refuses_non_cobweb():
    P = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    with pytest.raises(PosetError):
        chain_box_bijection(P, 1, 2)


# -- partition cardinality and the fnomial/chain index relation -----------------

def test_fnomial_partition_pinned():
    rep = fnomial_partition_check(nat(), 4, 2)
    assert rep.layer_count == 12 and rep.block_count == 2
    assert rep.divisible and rep.ratio == 6 == rep.fnomial_value
    rep = fnomial_partition_check(fib(), 4, 2)
    assert rep.layer_count == 6 and rep.block_count == 1
    assert rep.ratio == fnomial(fib(), 4, 2) == 6
    rep = fnomial_partition_check(gauss(2), 5, 5)
    assert rep.ratio == 1 and rep.matches


def test_fnomial_partition_block_count_is_factorial():
    for F in (nat(), fib(), gauss(2)):
        for n in range(0, 6):
            for k in range(0, n + 1):
                rep = fnomial_partition_check(F, n, k)
                assert rep.block_count == f_factorial(F, n - k)
                assert rep.matches


def fnomial_against_chains(F, l, k):
    """fnomial(F, l, k), and the maximal chains from a level k-2 node to a
    level l+1 node divided by (l-k)_F!.  Level 0 is the root of F's rooted
    cobweb, under which level j of F's cobweb is level j + 1."""
    P = cobweb(F.rooted(), l + 2)
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
