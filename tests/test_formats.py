"""Serialization round-trips, DOT export, staircase rendering."""

import io
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cobweb import BOOL, BlockMatrix, FSequence, INT, PosetError, antichain, cobweb, \
    cobweb_of_sizes, coding_matrix, const, enumerate_max_chains, fib, formats, from_blocks, \
    gauss, nat, root, zeta
from cobweb.formats import FormatError, chains_to_json, coding_to_json, la_scala, \
    poset_from_json, poset_to_json, to_dot, write_chains_json, write_matrix_csv, \
    write_matrix_json

from conftest import all_nodes, brute_chains, random_no_mute_poset


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
    text = poset_to_json(P)
    assert poset_from_json(text) == P
    assert text == json.dumps({"level_sizes": P.level_sizes, "blocks": P.blocks,
                               "flags": {"cobweb": False, "no_mute": True}, "sequence": None})


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


# -- canonical cobweb files ----------------------------------------------------

_BASE = poset_to_json(cobweb_of_sizes([2, 3, 1], "nat"))
_TAIL = ', "flags": {"cobweb": true, "no_mute": true}, "sequence": '
_EXTRA_DATA = "not valid JSON: Extra data: line 1 column {0} (char {1})"


def _loaded(text):
    """What poset_from_json makes of text: the poset's fields, or the
    FormatError text."""
    try:
        P = poset_from_json(text)
    except FormatError as e:
        return str(e)
    return P.level_sizes, P.blocks, P.sequence_name, P.is_cobweb, P.has_mute_nodes


# (text, whether it is read from its level sizes, the name or message)
NEAR_CANONICAL = [
    (_BASE, True, "nat"),
    (_BASE + " \n\t\r\n", True, "nat"),
    (" " + _BASE, False, "nat"),
    (_BASE.replace("[1, 1, 1]", "[0, 1, 1]", 1), False,
     "flags.cobweb: stored True, recomputed False"),
    (_BASE.replace("[[[1, ", "[[[1.0, "), False, "blocks[0][0][0]: expected 0 or 1, got 1.0"),
    (_BASE.replace("[[[1, ", "[[[true, "), False, "blocks[0][0][0]: expected 0 or 1, got True"),
    (_BASE.replace("[[[1, 1, 1]", "[[[1,  1, 1]"), False, "nat"),
    (_BASE.replace("[2, 3, 1]", "[2,  3, 1]"), False, "nat"),
    (_BASE.replace('"nat"', '"fib"'), True, "fib"),
    (_BASE.replace('"nat"', '"n\\u0061t"'), False, "nat"),
    (_BASE.replace('"nat"', json.dumps('na"t\\')), True, 'na"t\\'),
    (_BASE.replace('"nat"', json.dumps("gau\u00df")), True, "gau\u00df"),
    (_BASE.replace('"nat"', '"gau\u00df"'), False, "gau\u00df"),
    (_BASE.replace('"nat"', json.dumps(_TAIL)), True, _TAIL),
    (_BASE.replace('"nat"', "null"), True, None),
    (_BASE.replace('"nat"', "7"), False, "sequence: expected a string or null"),
    (_BASE.replace('"nat"', '"nat", "sequence": "fib"'), False, "fib"),
    (_BASE.replace('"no_mute": true', '"no_mute": false'), False,
     "flags.no_mute: stored False, recomputed True"),
    (_BASE.replace('"cobweb": true', '"cobweb": false'), False,
     "flags.cobweb: stored False, recomputed True"),
    (_BASE + "x", False, _EXTRA_DATA.format(len(_BASE) + 1, len(_BASE))),
    (_BASE + "}", False, _EXTRA_DATA.format(len(_BASE) + 1, len(_BASE))),
    (poset_to_json(cobweb_of_sizes([4], "nat")), True, "nat"),
    (poset_to_json(cobweb_of_sizes([4], "nat")).replace("[4]", "[0]"), False,
     "level_sizes: expected a nonempty list of positive integers"),
    (poset_to_json(cobweb_of_sizes([1, 2])).replace("[1, 2]", "[true, 2]"), False,
     "level_sizes: expected a nonempty list of positive integers"),
    (_BASE.replace("[2, 3, 1]", "[2.0, 3, 1]"), False,
     "level_sizes: expected a nonempty list of positive integers"),
    (_BASE.replace("[2, 3, 1]", "[3, 2, 1]"), False, "blocks[0]: expected 3 rows"),
]


@pytest.mark.parametrize("text, fast, want", NEAR_CANONICAL,
                         ids=[f"text{i}" for i in range(len(NEAR_CANONICAL))])
def test_the_cobweb_shortcut_changes_no_load_result(monkeypatch, text, fast, want):
    # the result of the full decode and validation, with the shortcut off
    # and on, and whether the shortcut gave it
    real = formats._canonical_cobweb
    monkeypatch.setattr(formats, "_canonical_cobweb", lambda text: None)
    full = _loaded(text)
    taken = []
    monkeypatch.setattr(formats, "_canonical_cobweb",
                        lambda text: taken.append(real(text)) or taken[-1])
    assert _loaded(text) == full
    assert (taken[-1] is not None) == fast
    if isinstance(full, str):
        assert full == want
    else:
        assert full[2] == want


def test_a_cobweb_file_is_read_from_its_level_sizes():
    # a gen file, and one written as json.dumps of the object plus a newline
    P = cobweb(gauss(2), 6)
    obj = {"level_sizes": list(P.level_sizes),
           "blocks": [[[1] * len(row) for row in blk] for blk in P.blocks],
           "flags": {"cobweb": True, "no_mute": True}, "sequence": "gauss:q=2"}
    for text in (poset_to_json(P), json.dumps(obj) + "\n"):
        Q = poset_from_json(text)
        assert Q == P and Q.sequence_name == "gauss:q=2"
        # the rows of each block are one shared tuple: no entry was decoded
        assert all(len({id(row) for row in blk}) == 1 for blk in Q.blocks)
    assert poset_from_json(poset_to_json(P).encode()) == P


def test_a_short_file_claiming_huge_levels_is_refused_without_building_them():
    text = ('{"level_sizes": [3000, 3000], "blocks": [], '
            '"flags": {"cobweb": true, "no_mute": true}, "sequence": null}')
    assert len(text) < 110
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as e:
            poset_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == "blocks: expected 1 blocks"
    assert peak < 2 ** 20


_NAMES = st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["nat", 'q"', "\u00e9", _TAIL]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6), _NAMES,
       st.booleans())
@example([1], None, False)
@example([1, 1], "x", True)
def test_cobweb_json_is_json_dumps_and_reads_back_from_its_sizes(sizes, name, rooted):
    P = root(FSequence(sizes, name=name), len(sizes)) if rooted else cobweb_of_sizes(sizes, name)
    obj = {"level_sizes": P.level_sizes, "blocks": P.blocks,
           "flags": {"cobweb": True, "no_mute": True}, "sequence": name}
    text = poset_to_json(P)
    assert text == json.dumps(obj)
    sizes = P.level_sizes
    assert formats._ones_blocks_length(sizes) == len(formats._ones_blocks_text(sizes))
    Q = formats._canonical_cobweb(text + "\n")
    assert Q == P and Q.sequence_name == name


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


@pytest.mark.parametrize("M", [
    # entries left of the diagonal, a digit row and a row past one byte
    BlockMatrix([1, 2], [[1, 2, 3], [5, 1, 0], [0, 7, 1]], INT),
    BlockMatrix([1, 2], [[1, 0, 0], [0, 1, 0], [-1, 10 ** 30, 1]], INT),
    BlockMatrix([1, 1, 1], [[0, 0, 0], [0, 0, 0], [1, 0, 0]], BOOL),
    # unitriangular: every row x opens with x zeros, then digits or other values
    BlockMatrix([2, 1], [[1, -1, 10 ** 30], [0, 1, -2], [0, 0, 1]], INT),
    BlockMatrix([1, 2], [[1, 1, 1], [0, 1, 0], [0, 0, 1]], BOOL)])
def test_zero_prefixes_and_entries_left_of_the_diagonal_match_one_str_per_entry(M):
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


def text_cache_matrix():
    """Digit rows between rows that leave the digit path: negative entries,
    entries above 255 and above 2^64, and bools, with more than 4,096
    distinct values."""
    n = 128
    rows = []
    for x in range(n):
        kind = x % 4
        if kind == 0:
            rows.append([(x + y) % 10 for y in range(n)])
        elif kind == 1:
            rows.append([-(x * n + y) for y in range(n)])
        elif kind == 2:
            rows.append([2 ** 64 + x * n + y if y % 2 else 256 + y for y in range(n)])
        else:
            rows.append([True, False] + [x * n + y for y in range(2, n)])
    return BlockMatrix([n], rows, INT)


def test_the_text_cache_writes_each_entry_as_str_does():
    # a bool is written as its int, as the digit path writes it
    M = text_cache_matrix()
    assert len({v for row in M.rows for v in row}) > 4096
    want = BlockMatrix(M.level_sizes, [[int(v) for v in row] for row in M.rows], INT)
    assert written(write_matrix_csv, M) == literal_csv(want)
    assert written(write_matrix_json, M) == literal_json(want)


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
    for x in all_nodes(P):
        g = x.global_label - 1
        run = 0
        j = g + 1
        while j < P.node_count and lines[g][2 * j] == ".":
            run += 1
            j += 1
        assert run == P.level_sizes[x.level - 1] - x.position
