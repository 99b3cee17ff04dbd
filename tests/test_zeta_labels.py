"""The label routes of zeta, held entry by entry to their literal formulas.

zeta(P, "label_*") builds each row in one pass over its formula's terms.
The per-entry functions below evaluate the same formulas the slow way, one
(x, y) pair at a time, and are the reference the row-wise routes must
reproduce exactly.
"""

import io
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from cobweb import BOOL, BlockMatrix, MatrixError, cobweb, cobweb_of_sizes, const, fib, \
    gauss, nat, zeta
from cobweb import cli, incidence
from cobweb.formats import poset_to_json, write_matrix_csv, write_matrix_json

from conftest import random_cobweb

LABEL_METHODS = ("label_delta", "label_knuth", "label_S")


# -- the literal formulas, one entry at a time -------------------------------

def _zeta_entry_delta(x, y, S, sizes, N):
    # zeta_1 floods the upper triangle with ones; zeta_0 carves out the
    # same-level staircase.  All three sums are literal Kronecker deltas.
    zeta1 = 0
    for k in range(0, N):
        if x + k == y:
            zeta1 = 1
            break
    zeta0 = 0
    for s in range(1, len(sizes) + 1):
        for k in range(1, sizes[s - 1] + 1):
            if x != S[s - 1] + k:
                continue
            for r in range(1, sizes[s - 1] - k + 1):
                if x + r == y:
                    zeta0 += 1
    return zeta1 - zeta0


def _zeta_entry_knuth(x, y, S, sizes, N):
    # Bracket form: the level window of x is (S(s-1), S(s-1) + s_F].
    zeta1 = 1 if x <= y else 0
    zeta0 = 0
    if x < y:
        for s in range(1, len(sizes) + 1):
            if x > S[s - 1] and y <= S[s - 1] + sizes[s - 1]:
                zeta0 += 1
    return zeta1 - zeta0


def _zeta_entry_S(x, y, S, sizes, N):
    # Prefix-sum form: scan windows (S(m), S(m+1)] from the bottom.
    zeta1 = 1 if x <= y else 0
    zeta0 = 0
    if x < y:
        for m in range(0, len(sizes)):
            if x > S[m] and y <= S[m + 1]:
                zeta0 += 1
    return zeta1 - zeta0


ENTRY = {"label_delta": _zeta_entry_delta, "label_knuth": _zeta_entry_knuth,
         "label_S": _zeta_entry_S}


def literal_rows(P, method):
    """The label formula evaluated entry by entry, as a list of row tuples."""
    builder = ENTRY[method]
    N = P.node_count
    S = [P.S(m) for m in range(P.n_levels + 1)]
    sizes = P.level_sizes
    return [tuple(builder(x, y, S, sizes, N) for y in range(1, N + 1))
            for x in range(1, N + 1)]


# -- row-wise routes against the literal formulas ----------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
@example(2, False)  # sizes (1,): one level, one node
@example(2, True)   # rooted (1, 1)
@example(6, True)   # rooted (1, 1, 4, 3, 1, 1)
@example(5, False)  # (3, 3, 1, 4, 2)
def test_label_rows_equal_literal_formulas(seed, rooted):
    P = random_cobweb(seed)
    if rooted:
        P = cobweb_of_sizes((1,) + P.level_sizes)
    for method in LABEL_METHODS:
        Z = zeta(P, method)
        assert Z.ring is BOOL
        assert list(map(tuple, Z.rows)) == literal_rows(P, method), method


@pytest.mark.parametrize("sizes", [(1,), (4,), (1, 1), (1, 3), (3, 1),
                                   (1, 1, 1, 1), (2, 1, 3, 1), (1, 4, 1, 2, 1)])
def test_label_rows_on_single_levels_and_unit_sizes(sizes):
    P = cobweb_of_sizes(sizes)
    for method in LABEL_METHODS:
        assert list(map(tuple, zeta(P, method).rows)) == literal_rows(P, method), method


@pytest.mark.parametrize("make, method", [
    (lambda: cobweb(fib(), 12), "label_delta"),    # 376 nodes
    (lambda: cobweb(gauss(2), 10), "label_S"),     # 2,036 nodes
    (lambda: cobweb(gauss(2), 10), "label_knuth"),
])
def test_label_routes_within_budget(make, method):
    # on a 2-core x86-64 machine the per-entry evaluation took 5.4 s CPU for
    # label_delta on fib and 3.0 s and 4.2 s for label_S and label_knuth on
    # gauss:q=2; row by row each takes well under a second
    P = make()
    t0 = time.perf_counter()
    Z = zeta(P, method)
    assert time.perf_counter() - t0 < 2.0
    N = P.node_count
    for x in (1, P.S(1) + 1, N // 2, N - 1, N):
        level = P.node_by_global(x).level
        top = P.S(level)  # last node of x's level
        want = tuple(0 if y < x or x < y <= top else 1 for y in range(1, N + 1))
        assert tuple(Z.rows[x - 1]) == want, x


@pytest.mark.parametrize("make", [lambda: cobweb(fib(), 6),
                                  lambda: cobweb_of_sizes((1, 2, 1, 3)),
                                  lambda: cobweb_of_sizes((3,))])
@pytest.mark.parametrize("flag, method", [("label-delta", "label_delta"),
                                          ("label-knuth", "label_knuth"),
                                          ("label-s", "label_S")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_label_output_matches_literal_bytes(tmp_path, make, flag, method, fmt):
    P = make()
    path = tmp_path / "p.json"
    path.write_text(poset_to_json(P))
    out = tmp_path / "out.txt"
    assert cli.main(["zeta", str(path), "--method", flag, "--format", fmt,
                     "-o", str(out)]) == 0
    ref = io.StringIO()
    lit = BlockMatrix(P.level_sizes, literal_rows(P, method), BOOL)
    if fmt == "csv":
        write_matrix_csv(lit, ref)
    else:
        write_matrix_json(lit, ref)
        ref.write("\n")
    assert out.read_bytes() == ref.getvalue().encode()


# -- the CLI streams the label rows ------------------------------------------

FLAGS = [("label-delta", "label_delta"), ("label-knuth", "label_knuth"), ("label-s", "label_S")]


def _zeta_matrix_unused(*args, **kwargs):
    raise AssertionError("the CLI built a zeta matrix for a label route")


@pytest.mark.parametrize("make", [lambda: cobweb(nat(), 5), lambda: cobweb(fib(), 7),
                                  lambda: cobweb(gauss(2), 5), lambda: cobweb(const(1), 6),
                                  lambda: cobweb_of_sizes((5,))],
                         ids=["nat", "fib", "gauss2", "const1", "one-level"])
@pytest.mark.parametrize("flag, method", FLAGS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_label_rows_are_the_bytes_of_the_zeta_matrix(tmp_path, monkeypatch, make, flag,
                                                          method, fmt):
    P = make()
    ref = io.StringIO()
    if fmt == "csv":
        write_matrix_csv(zeta(P, method), ref)
    else:
        write_matrix_json(zeta(P, method), ref)
        ref.write("\n")
    path, out = tmp_path / "p.json", tmp_path / "out.txt"
    path.write_text(poset_to_json(P))
    monkeypatch.setattr(cli, "zeta", _zeta_matrix_unused)
    assert cli.main(["zeta", str(path), "--method", flag, "--format", fmt,
                     "-o", str(out)]) == 0
    assert out.read_bytes() == ref.getvalue().encode()


def test_cli_label_route_holds_no_dense_matrix(tmp_path):
    # 502 nodes: the dense zeta of 502 row tuples alone takes about 2 MiB
    P = cobweb(gauss(2), 8)
    path, out = tmp_path / "p.json", tmp_path / "out.txt"
    path.write_text(poset_to_json(P))
    tracemalloc.start()
    try:
        assert cli.main(["zeta", str(path), "--method", "label-s", "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _staircase_twice(S, sizes, N):
    # the prefix-sum route with its staircase term taken a second time
    for x, row in enumerate(incidence._rows_S(S, sizes, N), start=1):
        m = next(m for m in range(len(sizes)) if S[m] < x <= S[m + 1])
        incidence._take_one(row, x, S[m + 1])
        yield row


def test_a_term_that_lands_on_a_zero_is_an_error_not_a_wrap(tmp_path, monkeypatch, capsys):
    row = bytearray(b"\1\1\0\1")
    with pytest.raises(MatrixError, match=r"takes 1 off a 0 in columns 2\.\.4"):
        incidence._take_one(row, 1, 4)
    assert row == bytearray(b"\1\1\0\1")
    monkeypatch.setitem(incidence._LABEL_ROUTES, "label_S", _staircase_twice)
    P = cobweb(nat(), 4)
    with pytest.raises(MatrixError, match="takes 1 off a 0"):
        zeta(P, "label_S")
    path, out = tmp_path / "p.json", tmp_path / "out.txt"
    path.write_text(poset_to_json(P))
    capsys.readouterr()
    assert cli.main(["zeta", str(path), "--method", "label-s", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cobweb: a label term takes 1 off a 0") and err.count("\n") == 1
    assert "255" not in out.read_text()
