"""Check suites: failure details name the same entry as a pair-by-pair scan."""

from cobweb import BlockMatrix, cobweb, from_blocks, nat, run_checks, suites


def corrupted(M, *entries):
    """M with 7 added at each given 1-based (x, y)."""
    rows = [list(r) for r in M.rows]
    for x, y in entries:
        rows[x - 1][y - 1] += 7
    return BlockMatrix(M.level_sizes, rows, M.ring)


def test_max_oracle_reports_first_mismatch_in_row_major_order(monkeypatch):
    P = cobweb(nat(), 4)
    real = suites.max_matrix
    # column 2 is swept first, but (3, 9) comes first in row-major order
    monkeypatch.setattr(suites, "max_matrix",
                        lambda Q: corrupted(real(Q), (6, 2), (3, 9)))
    res = {r.name: r for r in suites.suite_max(P)}
    assert not res["chain-count-oracle"].passed
    assert res["chain-count-oracle"].detail == "entry (3, 9): counted 3, matrix has 10"
    assert not res["inverse-pair"].passed
    assert res["unit-diagonal"].passed


def test_max_oracle_reports_lower_row_in_an_earlier_column(monkeypatch):
    P = cobweb(nat(), 4)
    real = suites.max_matrix
    monkeypatch.setattr(suites, "max_matrix",
                        lambda Q: corrupted(real(Q), (1, 4), (1, 2), (5, 1)))
    res = {r.name: r for r in suites.suite_max(P)}
    assert res["chain-count-oracle"].detail == "entry (1, 2): counted 1, matrix has 8"


def test_markov_failure_names_first_triple():
    # a non-cobweb forced past the cobweb gate: C(1,1) * C(2,2) = 6 chains
    # against C(1,2) = 4, caught by the split form at the first triple
    P = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    P.is_cobweb = True
    (res,) = suites.suite_markov(P)
    assert (res.suite, res.name, res.passed) == ("markov", "split-form", False)
    assert res.detail == "(1,1,2): 6 != 4"


def test_all_suites_pass_on_a_cobweb():
    results = run_checks(cobweb(nat(), 5))
    assert all(r.passed for r in results)
    assert [r.suite for r in results].count("markov") == 2
