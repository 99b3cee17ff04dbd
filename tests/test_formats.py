"""Serialization round-trips, DOT export, staircase rendering."""

import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from cobweb import BlockMatrix, INT, PosetError, antichain, cobweb, coding_matrix, \
    const, enumerate_max_chains, fib, from_blocks, gauss, hyperbox, nat, zeta
from cobweb.formats import FormatError, chains_to_json, coding_to_json, \
    hyperbox_to_json, la_scala, matrix_from_json, poset_from_json, \
    poset_to_json, to_dot, write_chains_json, write_matrix_csv, write_matrix_json

from conftest import random_no_mute_poset


def test_poset_json_snapshot(nat3):
    text = poset_to_json(nat3)
    assert text == (
        '{"level_sizes": [1, 2, 3], '
        '"blocks": [[[1, 1]], [[1, 1, 1], [1, 1, 1]]], '
        '"flags": {"cobweb": true, "no_mute": true}, '
        '"sequence": "nat"}')


@pytest.mark.parametrize("seed", range(10))
def test_poset_json_roundtrip(seed):
    P = random_no_mute_poset(seed)
    assert poset_from_json(poset_to_json(P)) == P


def test_poset_json_roundtrip_preserves_flags(nat3):
    Q = poset_from_json(poset_to_json(nat3))
    assert Q.is_cobweb and not Q.has_mute_nodes and Q.sequence_name == "nat"


@pytest.mark.parametrize("broken, path", [
    ('{"level_sizes": [1], "blocks": "x", "flags": {"cobweb": true, "no_mute": true}, "sequence": null}', "blocks"),
    ('{"level_sizes": [], "blocks": [], "flags": {"cobweb": true, "no_mute": true}, "sequence": null}', "level_sizes"),
    ('{"level_sizes": [1, 1], "blocks": [[[2]]], "flags": {"cobweb": true, "no_mute": true}, "sequence": null}', "blocks[0][0][0]"),
    ('{"level_sizes": [2, 2], "blocks": [[[1, 1], [1.0, 1]]], "flags": {"cobweb": true, "no_mute": true}, "sequence": null}', "blocks[0][1][0]: expected 0 or 1, got 1.0"),
    ('{"level_sizes": [2, 2], "blocks": [[[1.0, 1], [0, true]]], "flags": {"cobweb": false, "no_mute": true}, "sequence": null}', "blocks[0][0][0]: expected 0 or 1, got 1.0"),
    ('{"level_sizes": [1, 2], "blocks": [[[false, 1]]], "flags": {"cobweb": false, "no_mute": false}, "sequence": null}', "blocks[0][0][0]: expected 0 or 1, got False"),
    ('{"level_sizes": [1, 1], "blocks": [[[1.0]]], "flags": {}, "sequence": 3}', "blocks[0][0][0]: expected 0 or 1, got 1.0"),
    ('{"level_sizes": [1, 1], "blocks": [[[1]]], "flags": {}, "sequence": null}', "flags"),
    ('{"blocks": [], "flags": {}, "sequence": null}', "level_sizes"),
    ('not json', "JSON"),
    ('{"level_sizes": [true, 2], "blocks": [[[1, 1]]], "flags": {"cobweb": true, "no_mute": true}, "sequence": null}', "level_sizes: expected a nonempty list of positive integers"),
])
def test_poset_json_errors_name_the_path(broken, path):
    with pytest.raises(FormatError) as e:
        poset_from_json(broken)
    assert path in str(e.value)


def test_poset_json_flag_mismatch_rejected(nat3):
    obj = json.loads(poset_to_json(nat3))
    obj["flags"]["cobweb"] = False
    with pytest.raises(FormatError) as e:
        poset_from_json(json.dumps(obj))
    assert "flags.cobweb" in str(e.value)


def test_matrix_csv_plain_decimal():
    big = 10 ** 40  # exact decimal, no scientific notation
    M = BlockMatrix([1, 1], [[1, big], [0, 1]], INT)
    buf = io.StringIO()
    write_matrix_csv(M, buf)
    text = buf.getvalue()
    assert text == f"1,{big}\n0,1\n"
    assert "e" not in text and "E" not in text


def test_matrix_json_roundtrip(nat3):
    Z = zeta(nat3).with_ring(INT)
    buf = io.StringIO()
    write_matrix_json(Z, buf)
    M = matrix_from_json(buf.getvalue())
    assert M == Z


@pytest.mark.parametrize("sizes", ["[true, 2]", "[2.9]", "[true, 2.9]", "[0, 3]",
                                   "[3, -1]", "[]", '"12"'])
def test_matrix_json_refuses_bad_level_sizes(sizes):
    entries = json.dumps([[int(i == j) for j in range(3)] for i in range(3)])
    with pytest.raises(FormatError) as e:
        matrix_from_json(f'{{"level_sizes": {sizes}, "entries": {entries}}}')
    assert str(e.value) == "level_sizes: expected a nonempty list of positive integers"


@pytest.mark.parametrize("entries, message", [
    ('[["x"]]', "entries[0][0]: expected an integer, got 'x'"),
    ("[[1.5]]", "entries[0][0]: expected an integer, got 1.5"),
    ("[[true]]", "entries[0][0]: expected an integer, got True"),
    ("[[null]]", "entries[0][0]: expected an integer, got None"),
    ("[[[1]]]", "entries[0][0]: expected an integer, got [1]"),
    ('[{"a": 1}]', "entries: expected a list of rows, each a list of integers"),
    ("5", "entries: expected a list of rows, each a list of integers"),
    ("[5]", "entries: expected a list of rows, each a list of integers")])
def test_matrix_json_refuses_entries_other_than_ints(entries, message):
    with pytest.raises(FormatError) as e:
        matrix_from_json(f'{{"level_sizes": [1], "entries": {entries}}}')
    assert str(e.value) == message


@pytest.mark.parametrize("entries", ["[[1, 0]]", "[[1, 0], [0, 1], [0, 0]]",
                                     "[[1, 0], [0]]", "[[1, 0], [0, 1, 0]]"])
def test_matrix_json_refuses_entries_of_the_wrong_shape(entries):
    # too few rows, too many rows, a short row and a long row
    with pytest.raises(FormatError) as e:
        matrix_from_json(f'{{"level_sizes": [2], "entries": {entries}}}')
    assert str(e.value) == "entries: expected 2 rows of 2 integers"


def test_deeply_nested_json_is_a_format_error():
    # the decoder gives up on deep nesting with RecursionError
    for load in (matrix_from_json, poset_from_json):
        with pytest.raises(FormatError, match="not valid JSON"):
            load("[" * 100000)


def test_coding_json():
    C = coding_matrix(nat(), 3)
    assert coding_to_json(C) == '{"c":[[1,-1,1],[0,1,-1],[0,0,1]]}'


def test_chains_json(nat3):
    cs = enumerate_max_chains(nat3, 2, 3)
    arr = json.loads(chains_to_json(cs))
    assert arr[0] == [[2, 1], [3, 1]]
    assert len(arr) == 6


def literal_listing(P, k, n) -> str:
    """The listing as json.dumps writes it, from the enumerated chains."""
    return json.dumps([[[c.start_level + i, p] for i, p in enumerate(c.positions)]
                       for c in enumerate_max_chains(P, k, n)])


@st.composite
def small_posets(draw):
    """Graded posets of 1-5 levels, 1-4 nodes each, with any 0/1 blocks, so
    nodes may be mute and a layer may have no maximal chain at all."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    bits = st.floats(0, 1).map(lambda u: int(u < density))
    blocks = [draw(st.lists(st.lists(bits, min_size=b, max_size=b), min_size=a, max_size=a))
              for a, b in zip(sizes, sizes[1:])]
    return from_blocks(sizes, blocks)


@settings(max_examples=150, deadline=None)
@given(small_posets())
@example(from_blocks([2, 2], [[[0, 0], [0, 0]]]))
@example(from_blocks([1, 2, 1], [[[1, 1]], [[0], [0]]]))
@example(cobweb(const(3), 4))
def test_write_chains_json_is_the_literal_listing(P):
    for k in range(1, P.n_levels + 1):
        for n in range(k, P.n_levels + 1):
            buf = io.StringIO()
            write_chains_json(P, k, n, buf)
            assert buf.getvalue() == literal_listing(P, k, n)


def test_write_chains_json_empty_layer_and_bounds():
    P = from_blocks([2, 1], [[[0], [0]]])
    buf = io.StringIO()
    write_chains_json(P, 1, 2, buf)
    assert buf.getvalue() == "[]"
    for k, n in [(0, 1), (2, 1), (1, 3)]:
        with pytest.raises(PosetError):
            write_chains_json(P, k, n, io.StringIO())


def test_hyperbox_json():
    B = hyperbox(nat(), 2, 3)
    obj = json.loads(hyperbox_to_json(B, include_points=True))
    assert obj["dims"] == [2, 3]
    assert len(obj["points"]) == 6


def test_dot_counts():
    text = to_dot(cobweb(nat(), 2))
    assert text.count("->") == 2
    assert text.count("rank=same") == 2
    assert "v1_1" in text and "v2_2" in text
    assert "rankdir=BT" in text
    assert to_dot(antichain(3)).count("->") == 0


def test_dot_renders_mute_arcs():
    P = from_blocks([1, 2], [[[1, 0]]])
    text = to_dot(P)
    assert "v1_1 -> v2_1;" in text
    assert "v1_1 -> v2_2;" not in text
    assert "v2_2;" in text  # the mute node still appears


def test_la_scala_pinned():
    r = la_scala(cobweb(nat(), 2))
    assert r.lines == ("1 1 1", "  1 .", "    1")
    assert la_scala(antichain(1)).lines == ("1",)


def test_la_scala_rooted_fib_staircase():
    # sizes <1,1,1,2,3>: three singleton stairs, then stairs of width 2 and 3
    from cobweb import cobweb_of_sizes
    r = la_scala(cobweb_of_sizes([1, 1, 1, 2, 3]))
    assert r.lines == (
        "1 1 1 1 1 1 1 1",
        "  1 1 1 1 1 1 1",
        "    1 1 1 1 1 1",
        "      1 . 1 1 1",
        "        1 1 1 1",
        "          1 . .",
        "            1 .",
        "              1",
    )


def test_la_scala_is_faithful_to_zeta():
    for P in (cobweb(nat(), 4), cobweb(fib(), 5), cobweb(gauss(2), 3),
              random_no_mute_poset(3)):
        Z = zeta(P, "closure")
        lines = la_scala(P).lines
        for i in range(P.node_count):
            for j in range(P.node_count):
                cell = lines[i][2 * j]
                assert (cell == "1") == (Z.rows[i][j] == 1)
                if Z.rows[i][j] == 0:
                    assert cell == ("." if j > i else " ")


def test_la_scala_stair_widths():
    # node i of level k is followed by exactly k_F - i dots before the ones
    P = cobweb(nat(), 4)
    lines = la_scala(P).lines
    for x in P.nodes():
        g = x.global_label - 1
        run = 0
        j = g + 1
        while j < P.node_count and lines[g][2 * j] == ".":
            run += 1
            j += 1
        assert run == P.level_sizes[x.level - 1] - x.position
