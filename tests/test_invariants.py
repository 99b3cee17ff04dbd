"""Rooted posets: Moebius from the root, Whitney numbers, charpoly."""

import pytest

from cobweb import CharPoly, RootedPoset, char_poly, cobweb, custom, fib, \
    gauss, invariants, mobius, mobius_from_root, nat, root, whitney_first, whitney_second

from conftest import preset_table


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


def test_mobius_from_root_values():
    R = root(custom([2, 3]), 2)  # sizes <1, 2, 3>
    assert mobius_from_root(R, R.node(1, 1)) == 1
    assert mobius_from_root(R, R.node(2, 1)) == -1
    assert mobius_from_root(R, R.node(3, 2)) == 2 - 1


def test_mobius_from_root_matches_recurrence():
    for name, F in preset_table().items():
        R = root(F, 4)
        mu = mobius(R, "recurrence")
        for x in R.nodes():
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
    assert str(chi) == "t^2 - 2t + 3"
    assert char_poly(root(nat(), 0)).coefficients == (1,)
    # rooted nat on two ranks: w_2 = 2 * (1 - 1) = 0
    chi2 = char_poly(root(nat(), 2))
    assert list(chi2.coefficients) == [1, -1, 0]
    assert str(chi2) == "t^2 - t"


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
    R = root(nat(), 3)
    row = invariants._root_mobius_row(R)
    row[-1] += 1  # one node of the top rank
    monkeypatch.setattr(invariants, "_root_mobius_row", lambda P: row)
    with pytest.raises(ArithmeticError, match=r"whitney_first\(3\)"):
        char_poly(R)


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
