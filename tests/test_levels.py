"""Cobweb matrices in the level algebra, held to their dense routes."""

import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cobweb as cobweb_pkg
from cobweb import BOOL, INT, FSequence, PosetError, cobweb, cobweb_of_sizes, \
    coding_matrix, eta, eta_inverse, fib, from_blocks, gauss, kroton, level_eta, \
    level_eta_inverse, level_max, level_max_inverse, level_mobius, level_zeta, \
    max_inverse, max_matrix, mobius, zeta
from cobweb import cli
from cobweb.formats import poset_to_json, write_matrix_csv, write_matrix_json

from conftest import random_cobweb

# (level route, dense route), the dense route being the oracle
ROUTES = [
    (level_zeta, lambda P: zeta(P, "closure")),
    (lambda P: level_mobius(P, "invert"), lambda P: mobius(P, "invert")),
    (lambda P: level_mobius(P, "recurrence"), lambda P: mobius(P, "recurrence")),
    (lambda P: level_mobius(P, "closed_form"), lambda P: mobius(P, "closed_form")),
    (level_max, max_matrix),
    (level_max_inverse, max_inverse),
    (level_eta, eta),
    (level_eta_inverse, eta_inverse),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_level_forms_equal_dense_routes(seed, rooted):
    P = random_cobweb(seed)
    if rooted:
        P = cobweb_of_sizes((1,) + P.level_sizes)
    for level, dense in ROUTES:
        L, D = level(P), dense(P)
        assert L.to_block() == D
        assert L.ring is D.ring
        assert all(L.entries[r][r] == 1 for r in range(P.n_levels))


@pytest.mark.parametrize("sizes", [(1,), (3,), (1, 1), (2, 1, 3), (1, 1, 1, 1),
                                   (4, 1, 1, 2)])
def test_level_forms_on_single_levels_and_unit_sizes(sizes):
    P = cobweb_of_sizes(sizes)
    for level, dense in ROUTES:
        assert level(P).to_block() == dense(P)


def test_level_tables_pinned():
    P = cobweb_of_sizes((1, 2, 3, 4))
    assert level_max(P).entries == ((1, 1, 2, 6), (0, 1, 1, 3), (0, 0, 1, 1), (0, 0, 0, 1))
    assert level_zeta(P).ring is BOOL
    assert level_zeta(P).entries[0] == (1, 1, 1, 1)
    assert level_mobius(P).entries[0] == (1, -1, 1, -2)
    assert level_eta_inverse(P).entries[0] == (1, -1, 2, -6)
    assert level_max_inverse(P).entries[1] == (0, 1, -1, 0)
    assert level_mobius(P).ring is INT


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
def test_level_solve_matches_closed_forms(sizes):
    # each level route against a formula that shares no code with the row solve
    P = cobweb_of_sizes(sizes)
    n = len(sizes)

    def between(r, s):
        return math.prod(sizes[r + 1:s])

    tables = {
        level_max: [[between(r, s) if s > r else int(r == s) for s in range(n)]
                    for r in range(n)],
        level_eta_inverse: [[(-1) ** (s - r) * between(r, s) if s > r else int(r == s)
                             for s in range(n)] for r in range(n)],
        lambda Q: level_mobius(Q, "invert"):
            coding_matrix(FSequence(list(sizes)), n).entries,
        level_zeta: [[int(s >= r) for s in range(n)] for r in range(n)],
    }
    for route, want in tables.items():
        got = route(P).entries
        for r in range(n):
            assert list(got[r]) == list(want[r]), (sizes, r)


def test_level_forms_refuse_non_cobwebs():
    P = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    for level, _ in ROUTES:
        with pytest.raises(PosetError):
            level(P)


def test_level_rows_stream_one_row_at_a_time():
    P = cobweb(gauss(2), 6)
    rows = level_max(P).rows()
    first = next(rows)
    assert len(first) == P.node_count and first[:2] == [1, 1]
    assert sum(1 for _ in rows) == P.node_count - 1


@pytest.mark.parametrize("make", [lambda: cobweb(fib(), 6),
                                  lambda: cobweb_of_sizes((2, 1, 3, 1)),
                                  lambda: cobweb_of_sizes((3,))])
@pytest.mark.parametrize("argv, dense", [
    (["zeta", "--method", "closure"], lambda P: zeta(P, "closure")),
    (["mobius", "--method", "invert"], lambda P: mobius(P, "invert")),
    (["mobius", "--method", "recurrence"], lambda P: mobius(P, "recurrence")),
    (["mobius", "--method", "closed-form"], lambda P: mobius(P, "closed_form")),
    (["max"], max_matrix),
    (["max", "--inverse"], max_inverse),
    (["eta"], eta),
    (["eta", "--inverse"], eta_inverse),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_level_output_matches_dense_bytes(tmp_path, make, argv, dense, fmt):
    P = make()
    path = tmp_path / "p.json"
    path.write_text(poset_to_json(P))
    out = tmp_path / "out.txt"
    assert cli.main([argv[0], str(path), *argv[1:], "--format", fmt, "-o", str(out)]) == 0
    ref = io.StringIO()
    if fmt == "csv":
        write_matrix_csv(dense(P), ref)
    else:
        write_matrix_json(dense(P), ref)
        ref.write("\n")
    assert out.read_bytes() == ref.getvalue().encode()


def _rows_at(path: Path, wanted):
    """The CSV rows whose 1-based numbers are in `wanted`, as int lists."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for x, line in enumerate(fh, start=1):
            if x in wanted:
                out[x] = [int(v) for v in line.split(",")]
    return out


@pytest.mark.parametrize("argv", [["mobius", "--method", "invert"], ["max"]])
def test_large_cobweb_within_budget(tmp_path, argv):
    # gauss:q=2 on 10 levels has 2,036 nodes; on a 2-core x86-64 machine the
    # dense max route took about 30 s and 190 MiB, the level routes under a second
    F = gauss(2)
    P = cobweb(F, 10)
    path = tmp_path / "g10.json"
    path.write_text(poset_to_json(P))
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(cobweb_pkg.__file__).parents[1]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "cobweb.cli", argv[0], str(path),
                               *argv[1:], "-o", str(out)],
                              capture_output=True, text=True, env=env, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{' '.join(argv)} did not finish within 10 s")
    assert proc.returncode == 0 and proc.stderr == ""
    assert time.perf_counter() - t0 <= 10
    starts = [P.S(r) + 1 for r in range(10)]  # first node of each level
    rows = _rows_at(out, set(starts) | {P.node_count})
    assert len(rows[P.node_count]) == P.node_count
    assert rows[P.node_count][-1] == 1 and not any(rows[P.node_count][:-1])
    for r in range(1, 11):
        row = rows[starts[r - 1]]
        assert row[starts[r - 1] - 1] == 1 and not any(row[:starts[r - 1] - 1])
        for s in range(r + 1, 11):
            lo, hi = P.S(s - 1), P.S(s)
            if argv[0] == "max":
                want = 1
                for k in range(r + 1, s):
                    want *= F.value(k)
            else:
                want = (-1) ** (s - r) * kroton(F, r, s)
            assert set(row[lo:hi]) == {want}, (r, s)
