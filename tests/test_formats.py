"""Serialization round-trips, DOT export, staircase rendering."""

import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cobweb import BOOL, BlockMatrix, INT, PosetError, antichain, cobweb, coding_matrix, \
    const, enumerate_max_chains, fib, from_blocks, gauss, nat, zeta
from cobweb.formats import FormatError, chains_to_json, coding_to_json, la_scala, \
    poset_from_json, poset_to_json, to_dot, write_chains_json, write_matrix_csv, \
    write_matrix_json

from conftest import brute_chains, random_no_mute_poset


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


# -- the dense writers against one str() per entry -----------------------------

def literal_row_texts(M, sep):
    """The dense rows as written before digit rows, kept verbatim."""
    for row in M.rows:
        yield sep.join(map(str, row))


def literal_csv(M):
    return "".join(text + "\n" for text in literal_row_texts(M, ","))


def literal_json(M):
    rows = ",".join("[" + text + "]" for text in literal_row_texts(M, ", "))
    return '{"level_sizes":%s,"entries":[%s]}' % (json.dumps(M.level_sizes), rows)


def written(write, M):
    buf = io.StringIO()
    write(M, buf)
    return buf.getvalue()


# one-digit values, the digits, values either side of them, and values
# outside a byte
POOLS = [st.sampled_from([0, 1]), st.integers(0, 9), st.integers(-3, 12),
         st.sampled_from([255, 256, -1, 10 ** 30, -10 ** 30])]


@st.composite
def dense_matrices(draw):
    """INT or BOOL matrices whose rows are all zero, drawn from one pool, or
    mix every pool, so one-digit and other values share rows."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    ring = draw(st.sampled_from([INT, BOOL]))
    pools = POOLS[:1] if ring is BOOL else POOLS
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "pool", "mixed"]))
        entry = {"zero": st.just(0), "pool": draw(st.sampled_from(pools)),
                 "mixed": st.one_of(pools)}[kind]
        rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return BlockMatrix(sizes, rows, ring)


@settings(max_examples=300, deadline=None)
@given(dense_matrices())
@example(BlockMatrix([1], [[0]], INT))
@example(BlockMatrix([1], [[7]], BOOL))
@example(BlockMatrix([1], [[-10 ** 30]], INT))
@example(BlockMatrix([1, 2], [[1, 9, 10], [0, 0, 0], [255, 256, -1]], INT))
def test_dense_writers_match_one_str_per_entry(M):
    assert written(write_matrix_csv, M) == literal_csv(M)
    assert written(write_matrix_json, M) == literal_json(M)


def test_dense_writers_send_non_int_entries_through_str():
    # a Fraction is not an int, so bytes() refuses it even where it is one digit
    M = BlockMatrix([2], [[Fraction(1, 2), 3], [Fraction(1), 0]], INT)
    assert written(write_matrix_csv, M) == literal_csv(M) == "1/2,3\n1,0\n"
    assert written(write_matrix_json, M) == literal_json(M)


def test_dense_writers_write_a_bool_entry_as_its_digit():
    # no route puts a bool in a BlockMatrix; if one does, it is written 1 or
    # 0 in every row, where str() would write True or False
    M = BlockMatrix([3], [[True, False, 0], [True, 1, 10], [1, True, -2]], INT)
    assert written(write_matrix_csv, M) == "1,0,0\n1,1,10\n1,1,-2\n"
    assert literal_csv(M).startswith("True,False,0\n")


def test_digit_rows_write_faster_than_one_str_per_entry():
    Z = zeta(cobweb(gauss(2), 9), "label_S")
    assert Z.size == 1013
    fast, literal = [], []
    for _ in range(3):
        for times, write in ((fast, lambda: written(write_matrix_csv, Z)),
                             (literal, lambda: literal_csv(Z))):
            start = time.process_time()
            write()
            times.append(time.process_time() - start)
    assert min(fast) <= 0.4 * min(literal)
    assert written(write_matrix_csv, Z) == literal_csv(Z)


def test_deeply_nested_json_is_a_format_error():
    # the decoder gives up on deep nesting with RecursionError
    with pytest.raises(FormatError, match="not valid JSON"):
        poset_from_json("[" * 100000)


def test_coding_json():
    C = coding_matrix(nat(), 3)
    assert coding_to_json(C) == '{"c":[[1,-1,1],[0,1,-1],[0,0,1]]}'


def test_chains_json(nat3):
    cs = enumerate_max_chains(nat3, 2, 3)
    arr = json.loads(chains_to_json(cs))
    assert arr[0] == [[2, 1], [3, 1]]
    assert len(arr) == 6


def literal_listing(P, k, n) -> str:
    """The listing as json.dumps writes it, from the brute-force chains."""
    return json.dumps([[[k + i, p] for i, p in enumerate(pos)]
                       for pos in brute_chains(P, k, n)])


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
    assert r == "1 1 1\n  1 .\n    1\n"
    assert la_scala(antichain(1)) == "1\n"


def test_la_scala_rooted_fib_staircase():
    # sizes <1,1,1,2,3>: three singleton stairs, then stairs of width 2 and 3
    from cobweb import cobweb_of_sizes
    r = la_scala(cobweb_of_sizes([1, 1, 1, 2, 3]))
    assert r.splitlines() == [
        "1 1 1 1 1 1 1 1",
        "  1 1 1 1 1 1 1",
        "    1 1 1 1 1 1",
        "      1 . 1 1 1",
        "        1 1 1 1",
        "          1 . .",
        "            1 .",
        "              1",
    ]


def test_la_scala_is_faithful_to_zeta():
    for P in (cobweb(nat(), 4), cobweb(fib(), 5), cobweb(gauss(2), 3),
              random_no_mute_poset(3)):
        Z = zeta(P, "closure")
        lines = la_scala(P).splitlines()
        for i in range(P.node_count):
            for j in range(P.node_count):
                cell = lines[i][2 * j]
                assert (cell == "1") == (Z.rows[i][j] == 1)
                if Z.rows[i][j] == 0:
                    assert cell == ("." if j > i else " ")


def test_la_scala_stair_widths():
    # node i of level k is followed by exactly k_F - i dots before the ones
    P = cobweb(nat(), 4)
    lines = la_scala(P).splitlines()
    for x in P.nodes():
        g = x.global_label - 1
        run = 0
        j = g + 1
        while j < P.node_count and lines[g][2 * j] == ".":
            run += 1
            j += 1
        assert run == P.level_sizes[x.level - 1] - x.position
