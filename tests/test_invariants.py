"""Rooted posets: Moebius from the root, Whitney numbers, charpoly."""

import pytest

from cobweb import CharPoly, LevelMatrix, RootedPoset, char_poly, cli, cobweb, custom, \
    fib, gauss, interval_mobius, invariants, mobius, nat, root, run_checks, whitney_first, \
    whitney_second
from cobweb.formats import poset_to_json

from conftest import all_nodes, preset_table


def test_root_shapes():
    assert root(nat(), 2).level_sizes == (1, 1, 2)
    assert root(fib(), 4).level_sizes == (1, 1, 1, 2, 3)
    point = root(nat(), 0)
    assert point.level_sizes == (1,)
    assert point.top_rank == 0


def test_rooted_poset_rejects_wide_bottom():
    with pytest.raises(Exception):
        RootedPoset.from_poset(cobweb(custom([2, 3]), 2))


def test_rooted_adoption_of_singleton_bottom():
    R = RootedPoset.from_poset(cobweb(nat(), 3))
    assert R.top_rank == 2
    assert R.rank_size(2) == 3


def mobius_from_root(R, x):
    """mu(root, x): the rank-only interval value over the rooted sequence."""
    return interval_mobius(R.rooted_sequence(), 1, x.level)


def test_mobius_from_root_values():
    R = root(custom([2, 3]), 2)  # sizes <1, 2, 3>
    assert mobius_from_root(R, R.node(1, 1)) == 1
    assert mobius_from_root(R, R.node(2, 1)) == -1
    assert mobius_from_root(R, R.node(3, 2)) == 2 - 1


def test_mobius_from_root_matches_recurrence():
    for name, F in preset_table().items():
        R = root(F, 4)
        mu = mobius(R, "recurrence")
        for x in all_nodes(R):
            assert mobius_from_root(R, x) == mu.rows[0][x.global_label - 1], name


def test_whitney_numbers_pinned():
    R = root(custom([2, 3]), 2)
    assert whitney_first(R, 0) == 1
    assert whitney_first(R, 1) == -2
    assert whitney_first(R, 2) == 3 * (2 - 1)
    assert [whitney_second(R, r) for r in range(3)] == [1, 2, 3]


def test_whitney_rejects_plain_posets():
    with pytest.raises(TypeError):
        whitney_first(cobweb(nat(), 3), 1)
    with pytest.raises(TypeError):
        char_poly(cobweb(nat(), 3))


def test_whitney_rank_bounds():
    R = root(nat(), 2)
    with pytest.raises(Exception):
        whitney_first(R, 5)


def test_char_poly_pinned():
    chi = char_poly(root(custom([2, 3]), 2))
    assert list(chi.coefficients) == [1, -2, 3]
    assert char_poly(root(nat(), 0)).coefficients == (1,)
    # rooted nat on two ranks: w_2 = 2 * (1 - 1) = 0
    chi2 = char_poly(root(nat(), 2))
    assert list(chi2.coefficients) == [1, -1, 0]


def test_char_poly_shape_and_sum():
    for name, F in preset_table().items():
        for n in range(0, 6):
            R = root(F, n)
            chi = char_poly(R)
            assert chi.coefficients[0] == 1
            assert len(chi.coefficients) == n + 1
            total = sum(whitney_first(R, r) for r in range(n + 1))
            assert total == chi.evaluate(1), name


def test_char_poly_raises_when_the_direct_sum_disagrees(monkeypatch):
    # row 1 of the level recurrence is the direct side: one entry off at
    # the top rank shifts that rank's sum
    R = root(nat(), 3)
    L = invariants.level_mobius(R, "recurrence")
    entries = [list(row) for row in L.entries]
    entries[0][-1] += 1
    wrong = LevelMatrix(L.level_sizes, tuple(map(tuple, entries)), L.ring)
    monkeypatch.setattr(invariants, "level_mobius", lambda P, method: wrong)
    with pytest.raises(ArithmeticError, match=r"whitney_first\(3\)"):
        char_poly(R)


def test_each_whitney_query_builds_the_root_row_once(monkeypatch, tmp_path, capsys):
    # the root row is row 1 of the level recurrence
    builds = []
    real = invariants.level_mobius
    monkeypatch.setattr(invariants, "level_mobius",
                        lambda P, method: builds.append(method) or real(P, method))
    R = root(gauss(2), 6)
    path = tmp_path / "rooted.json"
    path.write_text(poset_to_json(R), encoding="utf-8")
    queries = {"char_poly": lambda: char_poly(R),
               "check --suite whitney": lambda: run_checks(R, "whitney"),
               "cli whitney": lambda: cli.main(["whitney", str(path)]),
               "cli charpoly": lambda: cli.main(["charpoly", str(path)])}
    for name, query in queries.items():
        builds.clear()
        query()
        assert builds == ["recurrence"], name
    capsys.readouterr()


def test_char_poly_evaluate():
    chi = CharPoly((1, -2, 3))
    assert chi.evaluate(0) == 3
    assert chi.evaluate(2) == 4 - 4 + 3
    assert chi.to_json() == "[1, -2, 3]"


def test_char_poly_must_be_monic():
    with pytest.raises(ValueError):
        CharPoly((2, 0))


def test_whitney_closed_vs_direct_on_presets():
    # whitney_first itself raises if the two routes disagree; drive it hard
    for name, F in preset_table().items():
        for n in range(0, 7):
            R = root(F, n)
            for r in range(n + 1):
                whitney_first(R, r)
    # any sequence with 1_F = 1 zeroes w_r for r >= 2: the root-to-rank
    # product picks up the (1_F - 1) factor
    R = root(gauss(3), 6)
    assert whitney_first(R, 5) == 0 and whitney_first(R, 6) == 0
    # wide levels exercise big exact integers end to end
    W = root(custom([3, 4, 5, 6, 7, 8]), 6)
    assert whitney_first(W, 6) == 8 * (2 * 3 * 4 * 5 * 6)
