"""Poset construction, natural join, ordinal sum, layers, labeling."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from cobweb import PosetError, antichain, cli, cobweb, cobweb_of_sizes, custom, fib, \
    from_blocks, gauss, layer, nat, natural_join, ordinal_sum, poset
from cobweb.formats import FormatError, poset_from_json, poset_to_json

from conftest import all_nodes, random_no_mute_poset


def test_cobweb_shape(nat3):
    assert nat3.level_sizes == (1, 2, 3)
    assert nat3.blocks[0] == ((1, 1),)
    assert nat3.blocks[1] == ((1, 1, 1), (1, 1, 1))
    assert nat3.is_cobweb and not nat3.has_mute_nodes


def test_const_one_is_a_chain():
    from cobweb import const
    P = cobweb(const(1), 4)
    assert P.level_sizes == (1, 1, 1, 1)
    assert all(blk == ((1,),) for blk in P.blocks)


def test_cobweb_needs_positive_levels():
    with pytest.raises(PosetError):
        cobweb(nat(), 0)


def test_from_blocks_validation():
    from_blocks([2, 2], [[[1, 0], [1, 1]]])  # fine: no zero row or column
    with pytest.raises(PosetError):
        from_blocks([2, 2], [[[1, 0]]])  # row count mismatch
    with pytest.raises(PosetError):
        from_blocks([2, 2], [[[1, 2], [1, 1]]])  # non-binary entry
    with pytest.raises(PosetError):
        from_blocks([2], [[[1]]])  # block for a single level
    for size in (2.7, True, "2"):  # a size is an int, never truncated or a bool
        with pytest.raises(PosetError) as e:
            from_blocks([size], [])
        assert str(e.value) == f"level sizes must be ints, got {size!r}"


@pytest.mark.parametrize("bad", [1.0, 0.0, True, False, 2, -1, "1", None])
def test_block_entries_must_be_the_ints_0_and_1(bad):
    # 1.0 and True compare equal to 1; a poset holding them would print
    # 1.0 or -1.0 where the contract promises exact integers
    with pytest.raises(PosetError) as e:
        from_blocks([2, 2], [[[1, 1], [1, bad]]])
    assert str(e.value) == f"blocks[0][1][1]: expected 0 or 1, got {bad!r}"
    with pytest.raises(PosetError) as e:
        from_blocks([1, 2, 2], [[[1, 1]], [[0, 1], [bad, 1]]])
    assert str(e.value) == f"blocks[1][1][0]: expected 0 or 1, got {bad!r}"
    # the fault named is the bad entry, not a 0 before it in its row
    with pytest.raises(PosetError) as e:
        from_blocks([1, 3], [[[0, 1, bad]]])
    assert str(e.value) == f"blocks[0][0][2]: expected 0 or 1, got {bad!r}"


@pytest.mark.parametrize("blocks, message", [
    ([5], "blocks[0]: expected 1 rows"),
    (None, "blocks: expected 1 blocks"),
    ("x", "blocks: expected 1 blocks"),
    ({0: [[1, 1]]}, "blocks: expected 1 blocks"),
    ([[5]], "blocks[0][0]: expected 2 entries"),
    ([["10"]], "blocks[0][0]: expected 2 entries"),
    ([[[1, 1], [1, 1]]], "blocks[0]: expected 1 rows"),
])
def test_malformed_block_containers_are_a_poset_error(blocks, message):
    # a block or row that is not a list or tuple is refused by its path,
    # never iterated: a string row would otherwise read as its characters
    with pytest.raises(PosetError) as e:
        from_blocks([1, 2], blocks)
    assert str(e.value) == message


# one fault, its sizes, its blocks, its message, and whether a --blocks file
# holding the blocks fixes the same level sizes (only rectangular blocks that
# agree with their neighbours reach the poset through gen --blocks)
MALFORMED = [
    ("short row", [2, 2], [[[1, 1], [1]]], "blocks[0][1]: expected 2 entries", False),
    ("missing row", [1, 2, 2], [[[1, 1]], [[1, 1]]], "blocks[1]: expected 2 rows", True),
    ("block count", [1, 2, 2], [[[1, 1]]], "blocks: expected 2 blocks", False),
    *((f"entry {v!r}", [2, 2], [[[1, 1], [1, v]]],
       f"blocks[0][1][1]: expected 0 or 1, got {v!r}", True) for v in (1.0, True, 2, None)),
    ("entry before a short row", [1, 2, 2], [[[1, 1.0]], [[1, 1], [1]]],
     "blocks[1][1]: expected 2 entries", False),
]


@pytest.mark.parametrize("sizes, blocks, message, via_gen",
                         [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_one_fault_has_one_message_on_every_route(tmp_path, capsys, sizes, blocks, message,
                                                  via_gen):
    with pytest.raises(PosetError) as e:
        from_blocks(sizes, blocks)
    assert str(e.value) == message
    doc = {"level_sizes": sizes, "blocks": blocks,
           "flags": {"cobweb": False, "no_mute": True}, "sequence": None}
    with pytest.raises(FormatError) as e:
        poset_from_json(json.dumps(doc))
    assert str(e.value) == message
    if via_gen:
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(blocks))
        assert cli.main(["gen", "--blocks", str(path)]) == 1
        assert capsys.readouterr() == ("", f"cobweb: {message}\n")


def test_flags():
    P = from_blocks([2, 2], [[[1, 1], [1, 1]]])
    assert P.is_cobweb
    Q = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    assert not Q.is_cobweb and not Q.has_mute_nodes
    R = from_blocks([2, 2], [[[1, 0], [1, 0]]])  # zero column
    assert R.has_mute_nodes


def test_mute_nodes_reported():
    P = from_blocks([1, 2, 1], [[[1, 1]], [[1], [0]]])
    # second node of level 2 has out-degree 0
    assert P.has_mute_nodes
    Q = from_blocks([1, 2, 1], [[[1, 0]], [[1], [1]]])
    # second node of level 2 has in-degree 0
    assert Q.has_mute_nodes
    assert not cobweb(nat(), 4).has_mute_nodes


def test_mute_nodes_match_their_definition_on_random_posets():
    # a node is mute when it has no lower cover above level 1 or no upper
    # cover below the top; both sets are read off the list of cover arcs.
    # has_mute_nodes is one row and one column test per block, and blocks
    # come as lists, as tuples, and as one row tuple repeated
    counts = {True: 0, False: 0}
    for seed in range(300):
        rng = random.Random(seed)
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
        density = rng.choice((0.3, 0.6, 0.9, 1.0))
        blocks = []
        for a, b in zip(sizes, sizes[1:]):
            rows = [tuple(int(rng.random() < density) for _ in range(b)) for _ in range(a)]
            blocks.append(rng.choice([rows, [list(r) for r in rows], (rows[0],) * a]))
        arcs = [((k + 1, i + 1), (k + 2, j + 1)) for k, blk in enumerate(blocks)
                for i, row in enumerate(blk) for j, v in enumerate(row) if v]
        has_upper = {lo for lo, _ in arcs}
        has_lower = {hi for _, hi in arcs}
        want = [(level, pos) for level, size in enumerate(sizes, start=1)
                for pos in range(1, size + 1)
                if (level > 1 and (level, pos) not in has_lower)
                or (level < len(sizes) and (level, pos) not in has_upper)]
        P = from_blocks(sizes, blocks)
        assert P.has_mute_nodes == bool(want), seed
        counts[P.has_mute_nodes] += 1
    assert min(counts.values()) >= 50, counts


def test_a_cobweb_is_built_without_the_mute_scan(monkeypatch):
    # all-ones blocks between levels of at least one node leave no mute
    # node, so has_mute_nodes needs no column scan, the one zip of the
    # poset module; a stored no_mute flag that says otherwise is still
    # refused on load
    def scan(*blk):
        raise AssertionError("columns scanned for a cobweb")
    monkeypatch.setattr(poset, "zip", scan, raising=False)
    P = cobweb(gauss(2), 5)
    assert P.is_cobweb and not P.has_mute_nodes
    text = poset_to_json(P)
    assert poset_from_json(text) == P
    with pytest.raises(FormatError, match="flags.no_mute: stored False, recomputed True"):
        poset_from_json(text.replace('"no_mute": true', '"no_mute": false'))


def test_a_repeated_row_object_is_checked_once_and_an_equal_row_again():
    assert all(len({id(row) for row in blk}) == 1 for blk in cobweb(gauss(2), 5).blocks)
    # the first of the repeated rows is checked and named
    row = (1, 2)
    with pytest.raises(PosetError, match=r"^blocks\[0\]\[0\]\[1\]: expected 0 or 1, got 2$"):
        from_blocks([2, 2], [(row, row)])
    # (1, 1) == (1, 1.0) == (1, True), so only identity may skip a row
    for bad in (1.0, True):
        for blocks in ([((1, 1), (1, bad))], [[[1, 1], [1, bad]]]):
            with pytest.raises(PosetError) as e:
                from_blocks([2, 2], blocks)
            assert str(e.value) == f"blocks[0][1][1]: expected 0 or 1, got {bad!r}"
    empty = (0, 0)
    assert from_blocks([2, 2, 1], [(empty, empty), ((1,), (1,))]).has_mute_nodes


def test_extremal_levels_are_never_mute():
    # bottom in-degree and top out-degree do not count
    assert not cobweb(nat(), 2).has_mute_nodes
    assert not from_blocks([2, 2], [[[1, 0], [0, 1]]]).has_mute_nodes


def test_natural_join_of_layers():
    F = nat()
    P4 = cobweb(F, 4)
    left = layer(P4, 2, 3)
    right = layer(P4, 3, 4)
    assert natural_join(left, right) == layer(P4, 2, 4)


def test_natural_join_identity_glue():
    P = cobweb(nat(), 3)
    assert natural_join(P, antichain(3)) == P
    assert natural_join(antichain(1), P) == P


def test_natural_join_size_mismatch():
    with pytest.raises(PosetError) as err:
        natural_join(cobweb(nat(), 2), cobweb(nat(), 3))
    assert str(err.value) == \
        "join condition violated: top of P has size 2, bottom of Q has size 1"


def test_cobweb_is_fold_of_di_bicliques():
    F = fib()
    P = cobweb(F, 5)
    acc = layer(P, 1, 2)
    for k in range(2, 5):
        acc = natural_join(acc, layer(P, k, k + 1))
    assert acc == P


def test_natural_join_associative():
    P = cobweb_of_sizes([1, 2])
    Q = cobweb_of_sizes([2, 3])
    R = cobweb_of_sizes([3, 1])
    assert natural_join(natural_join(P, Q), R) == natural_join(P, natural_join(Q, R))


def test_natural_join_noncommutative():
    P = cobweb_of_sizes([1, 2])
    Q = cobweb_of_sizes([2, 1])
    assert natural_join(P, Q) != natural_join(Q, P)


def test_ordinal_sum_of_antichains():
    S = ordinal_sum(antichain(2), antichain(3))
    assert S.level_sizes == (2, 3)
    assert S.blocks[0] == ((1, 1, 1), (1, 1, 1))
    chain = ordinal_sum(ordinal_sum(antichain(1), antichain(1)), antichain(1))
    assert chain.level_sizes == (1, 1, 1)


def test_ordinal_sum_rebuilds_cobweb():
    F = nat()
    P = cobweb(F, 4)
    S = antichain(F.value(1))
    for k in range(2, 5):
        S = ordinal_sum(S, antichain(F.value(k)))
    assert S == P


def test_layer_bounds():
    P = cobweb(nat(), 4)
    assert layer(P, 2, 4).level_sizes == (2, 3, 4)
    assert layer(P, 3, 3).level_sizes == (3,)
    assert layer(P, 1, 4) == P
    with pytest.raises(PosetError):
        layer(P, 0, 2)
    with pytest.raises(PosetError):
        layer(P, 3, 5)


def test_labels_prefix_sums(nat3):
    assert [nat3.node(2, i).global_label for i in (1, 2)] == [2, 3]
    assert [nat3.node(3, i).global_label for i in (1, 2, 3)] == [4, 5, 6]
    assert nat3.node(1, 1).global_label == 1
    assert nat3.S(3) == 6


def test_labels_roundtrip_and_rank():
    P = cobweb(fib(), 6)
    for x in all_nodes(P):
        back = P.node_by_global(x.global_label)
        assert back == x
        assert P.node_by_global(x.global_label).level == x.level


@pytest.mark.parametrize("seed", range(8))
def test_labels_bijection_exhaustive(seed):
    P = random_no_mute_poset(seed, max_levels=6)
    seen = [x.global_label for x in all_nodes(P)]
    assert seen == list(range(1, P.node_count + 1))


def test_label_out_of_range(nat3):
    with pytest.raises(PosetError):
        nat3.node_by_global(7)
    with pytest.raises(PosetError):
        nat3.node(2, 3)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
       st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_join_after_ordinal_sum_agrees(a_sizes, b_sizes):
    # gluing Q on top of P via an all-ones block is the same as ordinal sum
    P = cobweb_of_sizes(a_sizes)
    Q = cobweb_of_sizes(b_sizes)
    S = ordinal_sum(P, Q)
    assert S.level_sizes == P.level_sizes + Q.level_sizes
    assert S.is_cobweb == (P.is_cobweb and Q.is_cobweb)
