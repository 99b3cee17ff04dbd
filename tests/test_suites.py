"""Check suites: failure details name the same entry as a pair-by-pair scan."""

import random
from types import SimpleNamespace

from cobweb import BlockMatrix, CharPoly, CodingMatrix, LevelMatrix, blockmat, cobweb, \
    cobweb_of_sizes, custom, from_blocks, gauss, incidence, invariants, nat, root, \
    run_checks, suites

from conftest import random_no_mute_blocks


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
    res = {r.name: r for r in suites.suite_max(P, suites.Dense(P))}
    assert not res["chain-count-oracle"].passed
    assert res["chain-count-oracle"].detail == "entry (3, 9): counted 3, matrix has 10"
    assert not res["inverse-pair"].passed
    assert res["unit-diagonal"].passed


def test_max_oracle_reports_lower_row_in_an_earlier_column(monkeypatch):
    P = cobweb(nat(), 4)
    real = suites.max_matrix
    monkeypatch.setattr(suites, "max_matrix",
                        lambda Q: corrupted(real(Q), (1, 4), (1, 2), (5, 1)))
    res = {r.name: r for r in suites.suite_max(P, suites.Dense(P))}
    assert res["chain-count-oracle"].detail == "entry (1, 2): counted 1, matrix has 8"


def corrupt_every_dense_mu(monkeypatch, entry):
    """Every dense Moebius route, the suite's inverse of the closure, the
    recurrence's rows and the closed form's rows, which the suite reads from
    its level form, included, returns mu with 7 added at entry."""
    real, real_solve = incidence.mobius, suites._solve
    real_level = suites.level_mobius
    monkeypatch.setattr(suites, "_mobius_recurrence_rows",
                        lambda Q: corrupted(real(Q, "recurrence"), entry).rows)
    monkeypatch.setattr(suites, "_solve", lambda Q, rows, ring, negate=False:
                        corrupted(real_solve(Q, rows, ring, negate), entry))
    monkeypatch.setattr(suites, "level_mobius", lambda Q, m: SimpleNamespace(
        rows=lambda: iter(corrupted(real(Q, m), entry).rows)) if m == "closed_form"
        else real_level(Q, m))


def test_mobius_inverse_pair_fails_on_a_consistently_wrong_mu(monkeypatch):
    # every dense route returns the same corrupted mu, so only the product
    # with zeta and the level forms can tell
    P = cobweb(nat(), 4)
    corrupt_every_dense_mu(monkeypatch, (2, 2))
    failed = {r.name: r.detail for r in suites.suite_mobius(P, suites.Dense(P)) if not r.passed}
    assert failed == {"inverse-pair": "mu is not an exact two-sided inverse of zeta",
                      "level-form-agreement":
                          "invert: entry (2, 2): level form has 1, dense has 8"}


def test_invert_vs_recurrence_fails_on_a_wrong_holes_rule(monkeypatch):
    # the kernel's holes rule takes every row of a level off its sum, not
    # only the rows of its holes; _down_terms binds its own mask, so the
    # recurrence stays right, on 7 levels of 15 nodes with half the arcs
    rng = random.Random(5)
    P = from_blocks([15] * 7, [random_no_mute_blocks(rng, 15, 15) for _ in range(6)])
    assert all(r.passed for r in suites.suite_mobius(P, suites.Dense(P)))
    monkeypatch.setattr(blockmat, "_HOLES", bytes.maketrans(b"\0\1", b"\1\1"))
    assert failures(run_checks(P, "mobius"))["invert-vs-recurrence"] == \
        "inversion and recurrence disagree"


def test_inverse_pair_fails_on_a_wrong_holes_rule(monkeypatch):
    # the wrong holes rule of the test above gives a wrong mu; the inverse
    # read shares no step with the kernel, so the law itself fails
    rng = random.Random(5)
    P = from_blocks([15] * 7, [random_no_mute_blocks(rng, 15, 15) for _ in range(6)])
    monkeypatch.setattr(blockmat, "_HOLES", bytes.maketrans(b"\0\1", b"\1\1"))
    assert failures(run_checks(P, "mobius"))["inverse-pair"] == \
        "mu is not an exact two-sided inverse of zeta"


def test_each_inverse_pair_costs_one_product(monkeypatch):
    calls = []
    real = suites._is_inverse

    def counting(A, B):
        calls.append((A, B))
        return real(A, B)

    monkeypatch.setattr(suites, "_is_inverse", counting)
    non_cobweb = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    for P in (cobweb(nat(), 4), non_cobweb):
        calls.clear()
        assert all(r.passed for r in run_checks(P))
        Z, mu = suites.zeta(P), incidence.mobius(P, "invert")
        inv, M = suites.max_inverse(P), suites.max_matrix(P)
        assert calls == [(Z, mu), (inv, M)]


def test_run_checks_builds_the_closure_mu_and_the_max_matrix_once(monkeypatch):
    calls = []
    real_zeta, real_max = suites.zeta, suites.max_matrix
    real_solve = incidence._unit_solve

    def unit_solve(rows, sizes, ring, negate):
        # the dense solves only: a level route solves an n x n table
        if len(rows) == P.node_count:
            calls.append((ring.name, negate))
        return real_solve(rows, sizes, ring, negate)

    def zeta(Q, method="closure"):
        calls.append(method)
        return real_zeta(Q, method)

    def max_matrix(Q):
        calls.append("max")
        return real_max(Q)

    monkeypatch.setattr(suites, "zeta", zeta)
    monkeypatch.setattr(suites, "max_matrix", max_matrix)
    # every dense solve, whoever asks for it: the mobius suite inverts the
    # zeta closure it is handed, and the whitney suite solves none
    monkeypatch.setattr(incidence, "_unit_solve", unit_solve)
    non_cobweb = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    for P in (cobweb(nat(), 4), cobweb(nat(), 5), root(gauss(2), 3), non_cobweb):
        calls.clear()
        assert all(r.passed for r in run_checks(P))
        assert (calls.count("closure"), calls.count("max")) == (1, 1)
        assert sorted(c for c in calls if isinstance(c, tuple)) == \
            [("bool", False), ("int", False), ("int", True)]
    # a suite that reads neither builds neither, and the whitney suite
    # reads row 1 of the level inversion, an n x n solve
    for P, suite in ((cobweb(nat(), 4), "markov"), (root(gauss(2), 4), "whitney")):
        calls.clear()
        assert all(r.passed for r in run_checks(P, suite))
        assert calls == []


def test_suite_mobius_solves_the_very_rows_of_the_closure(monkeypatch):
    solved = []
    real_solve = incidence._unit_solve

    def unit_solve(rows, sizes, ring, negate):
        solved.append((ring.name, rows))
        return real_solve(rows, sizes, ring, negate)

    monkeypatch.setattr(incidence, "_unit_solve", unit_solve)
    P = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    D = suites.Dense(P)
    assert all(r.passed for r in suites.suite_mobius(P, D))
    assert [ring for ring, _ in solved] == ["bool", "int"]
    rows = solved[1][1]
    assert len(rows) == len(D.closure.rows)
    assert all(type(a) is bytes and a is b for a, b in zip(rows, D.closure.rows))


def test_markov_failure_names_first_triple():
    # a non-cobweb forced past the cobweb gate: C(1,1) * C(2,2) = 6 chains
    # against C(1,2) = 4, caught by the split form at the first triple
    P = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    P.is_cobweb = True
    (res,) = suites.suite_markov(P, suites.Dense(P))
    assert (res.suite, res.name, res.passed) == ("markov", "split-form", False)
    assert res.detail == "(1,1,2): 6 != 4"


def test_zeta_suite_builds_the_closure_once(monkeypatch):
    calls = []
    real, real_rows = suites.zeta, suites._label_rows

    def recording(Q, method="closure"):
        calls.append(method)
        return real(Q, method)

    def recording_rows(Q, method):
        calls.append(method)
        return real_rows(Q, method)

    monkeypatch.setattr(suites, "zeta", recording)
    monkeypatch.setattr(suites, "_label_rows", recording_rows)
    P = cobweb(nat(), 4)
    assert all(r.passed for r in suites.suite_zeta(P, suites.Dense(P)))
    # the closure is built, and each label route's rows are read
    assert calls == ["closure", "label_delta", "label_knuth", "label_S"]


def test_zeta_method_agreement_names_the_disagreeing_label_routes(monkeypatch):
    # a non-cobweb forced past the cobweb gate: every label formula draws
    # the full cobweb, which the closure of the missing arc does not have
    P = from_blocks([2, 2], [[[1, 0], [1, 1]]])
    P.is_cobweb = True
    res = {r.name: r for r in suites.suite_zeta(P, suites.Dense(P))}
    assert res["method-agreement"].detail == \
        "methods disagree: ['label_delta', 'label_knuth', 'label_S']"
    real = suites._label_rows

    def knuth_off(Q, m):
        L = real(Q, m)
        return L._replace(rows=corrupted(BlockMatrix(*L), (1, 2)).rows) \
            if m == "label_knuth" else L

    monkeypatch.setattr(suites, "_label_rows", knuth_off)
    P = cobweb(nat(), 3)
    res = {r.name: r for r in suites.suite_zeta(P, suites.Dense(P))}
    assert res["method-agreement"].detail == "methods disagree: ['label_knuth']"


def test_all_suites_pass_on_a_cobweb():
    results = run_checks(cobweb(nat(), 5))
    assert all(r.passed for r in results)
    assert [r.suite for r in results].count("markov") == 2


def corrupted_level(L, r, s):
    """L with 7 added to the level-pair entry (r, s), 1-based."""
    ent = [list(row) for row in L.entries]
    ent[r - 1][s - 1] += 7
    return LevelMatrix(L.level_sizes, tuple(map(tuple, ent)), L.ring)


def level_results(P):
    return {r.suite: r for r in run_checks(P) if r.name == "level-form-agreement"}


def test_level_form_agreement_passes_on_cobwebs():
    for P in (cobweb(nat(), 5), cobweb_of_sizes([1, 3, 1, 2])):
        res = level_results(P)
        assert sorted(res) == ["max", "mobius", "zeta"]
        assert all(r.passed and r.detail == "" for r in res.values())


def test_level_form_agreement_is_skipped_on_non_cobwebs():
    P = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    res = level_results(P)
    assert sorted(res) == ["max", "mobius", "zeta"]
    assert all(r.passed and r.detail == "skipped: level form needs a cobweb"
               for r in res.values())


def test_level_form_failure_names_route_and_first_entry(monkeypatch):
    P = cobweb(nat(), 4)  # levels 1 | 2 3 | 4 5 6 | 7 8 9 10
    real = suites.level_mobius
    monkeypatch.setattr(suites, "level_mobius", lambda Q, m: corrupted_level(
        real(Q, m), 1, 3) if m == "recurrence" else real(Q, m))
    (res,) = [r for r in suites.suite_mobius(P, suites.Dense(P)) if r.name == "level-form-agreement"]
    assert not res.passed
    assert res.detail == "recurrence: entry (1, 4): level form has 8, dense has 1"


def test_level_form_failures_in_max_and_zeta(monkeypatch):
    P = cobweb(nat(), 4)
    real = suites.level_max_inverse
    monkeypatch.setattr(suites, "level_max_inverse",
                        lambda Q: corrupted_level(real(Q), 2, 4))
    (res,) = [r for r in suites.suite_max(P, suites.Dense(P)) if r.name == "level-form-agreement"]
    assert res.detail == "inverse: entry (2, 7): level form has 7, dense has 0"
    # level max in place of level zeta first differs where two chains meet
    monkeypatch.setattr(suites, "level_zeta", suites.level_max)
    (res,) = [r for r in suites.suite_zeta(P, suites.Dense(P)) if r.name == "level-form-agreement"]
    assert res.detail == "closure: entry (1, 4): level form has 2, dense has 1"


# -- one fault per check that no other test makes fail ---------------------------

def failures(results):
    return {r.name: r.detail for r in results if not r.passed}


def flip_reach(monkeypatch, x, y):
    """suites.reachable_sets with bit y of row x flipped, 1-based."""
    real = suites.reachable_sets

    def flipped(Q):
        reach = real(Q)
        reach[x - 1] ^= 1 << (y - 1)
        return reach
    monkeypatch.setattr(suites, "reachable_sets", flipped)


def test_closure_matches_reachability_fails_on_a_missing_pair(monkeypatch):
    P = cobweb(nat(), 4)
    flip_reach(monkeypatch, 2, 5)
    assert failures(suites.suite_zeta(P, suites.Dense(P))) == {
        "closure-matches-reachability": "entry (2, 5): reachability has 0, closure has 1"}


def test_closure_matches_reachability_fails_on_a_pair_within_one_level(monkeypatch):
    # labels 2 and 3 are the two nodes of level 2 of nat:4
    P = cobweb(nat(), 4)
    flip_reach(monkeypatch, 2, 3)
    assert failures(suites.suite_zeta(P, suites.Dense(P))) == {
        "closure-matches-reachability": "entry (2, 3): reachability has 1, closure has 0"}


def test_logic_of_max_fails_on_a_chain_count_below_the_diagonal(monkeypatch):
    P = cobweb(nat(), 4)
    real = suites.max_matrix
    monkeypatch.setattr(suites, "max_matrix", lambda Q: corrupted(real(Q), (5, 2)))
    assert failures(suites.suite_zeta(P, suites.Dense(P))) == {"logic-of-max": "L(max) differs from zeta"}


def test_logic_of_max_fails_on_a_negative_chain_count(monkeypatch):
    # L is undefined on a negative entry: the check fails and names it, and
    # the other zeta checks still run
    P = cobweb(nat(), 3)
    real = suites.max_matrix

    def negative(Q):
        rows = [list(r) for r in real(Q).rows]
        rows[1][4] = -3
        return BlockMatrix(Q.level_sizes, rows)
    monkeypatch.setattr(suites, "max_matrix", negative)
    results = suites.run_checks(P, "zeta")
    assert [r.name for r in results] == ["closure-matches-reachability", "method-agreement",
                                         "logic-of-max", "level-form-agreement"]
    assert failures(results) == {
        "logic-of-max": "logic_L is undefined on negative entry -3 at (2, 5)"}


def test_invert_vs_recurrence_fails_on_a_wrong_recurrence(monkeypatch):
    P = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    monkeypatch.setattr(suites, "_mobius_recurrence_rows", lambda Q: corrupted(
        incidence.mobius(Q, "recurrence"), (1, 6)).rows)
    assert failures(suites.suite_mobius(P, suites.Dense(P))) == {
        "invert-vs-recurrence": "inversion and recurrence disagree"}


def test_closed_form_agreement_fails_on_a_wrong_closed_form(monkeypatch):
    # c(1, 4) off by 7, which is mu at (1, 7)..(1, 10); of the routes the
    # suite compares, only the closed form reads the coding matrix
    P = cobweb(nat(), 4)
    real = incidence.coding_matrix

    def wrong(F, n):
        entries = [list(row) for row in real(F, n).entries]
        entries[0][3] -= 7
        return CodingMatrix(tuple(map(tuple, entries)))

    monkeypatch.setattr(incidence, "coding_matrix", wrong)
    assert failures(suites.suite_mobius(P, suites.Dense(P))) == {
        "closed-form-agreement": "closed form disagrees with inversion"}


def test_rank_dependence_fails_on_a_mu_that_varies_inside_a_block(monkeypatch):
    # every dense route returns the same corrupted mu inside level block
    # (2, 3), then (1, 2) and (3, 4), the first and last level rows; the
    # product with zeta and the level forms see it too
    P = cobweb(nat(), 4)
    for entry in ((2, 4), (1, 3), (5, 8)):
        monkeypatch.undo()
        corrupt_every_dense_mu(monkeypatch, entry)
        assert failures(suites.suite_mobius(P, suites.Dense(P))) == {
            "inverse-pair": "mu is not an exact two-sided inverse of zeta",
            "rank-dependence": "mu varies inside a level block of a cobweb",
            "level-form-agreement": f"invert: entry {entry}: level form has -1, dense has 6"}


def test_unit_diagonal_fails_on_a_wrong_diagonal_entry(monkeypatch):
    # one chain from a node to itself: the oracle, the inverse and the level
    # form all disagree with the corrupted diagonal as well
    P = cobweb(nat(), 4)
    real = suites.max_matrix
    monkeypatch.setattr(suites, "max_matrix", lambda Q: corrupted(real(Q), (3, 3)))
    assert failures(suites.suite_max(P, suites.Dense(P))) == {
        "chain-count-oracle": "entry (3, 3): counted 1, matrix has 8",
        "inverse-pair": "identity minus cover is not the inverse",
        "unit-diagonal": "diagonal entry differs from 1",
        "level-form-agreement": "closure: entry (3, 3): level form has 1, dense has 8"}


def test_markov_factorization_fails_on_a_wrong_chain_count(monkeypatch):
    # C(1, 1) read as 8: C(1, 1) * C(1, 2) = 16 against |level 1| * C(1, 2) = 2
    P = cobweb(nat(), 4)
    real = suites.layer_chain_counts
    monkeypatch.setattr(suites, "layer_chain_counts", lambda Q, s: [
        c + 7 * (s == 1) for c in real(Q, s)])
    (res,) = suites.suite_markov(P, suites.Dense(P))
    assert (res.name, res.passed, res.detail) == ("factorization", False, "(1,1,2): 16 != 2")


def test_markov_reaches_the_triple_at_the_top_level_pair(monkeypatch):
    # every count from a level below 3 read as 0 passes each triple with
    # r < 3, so only (3, 3, 4) can see C(4, 4) read as 11
    P = cobweb(nat(), 4)
    real = suites.layer_chain_counts
    monkeypatch.setattr(suites, "layer_chain_counts", lambda Q, s: [
        0 if r < 3 else c + 7 * (r == s == 4) for r, c in enumerate(real(Q, s), start=1)])
    (res,) = suites.suite_markov(P, suites.Dense(P))
    assert (res.name, res.passed, res.detail) == ("split-form", False, "(3,3,4): 33 != 12")


def test_whitney_closed_vs_direct_fails_on_a_wrong_closed_form(monkeypatch):
    P = cobweb(nat(), 4)
    real = invariants.interval_mobius
    monkeypatch.setattr(invariants, "interval_mobius", lambda F, a, b: real(F, a, b) + (b == 3))
    (res,) = suites.suite_whitney(P, suites.Dense(P))
    assert (res.name, res.passed) == ("closed-vs-direct", False)
    assert res.detail == "whitney_first(2): closed form 6 != direct sum 3"


def test_whitney_chi_at_one_fails_on_a_wrong_mobius_route(monkeypatch):
    # mu(0^, 1^) = -2 above root(<2, 3>, 2), read as -1 against chi(1) = 2
    R = root(custom([2, 3]), 2)
    assert all(r.passed for r in suites.suite_whitney(R, suites.Dense(R)))
    real = suites._mobius_recurrence_rows

    def shifted(Q):
        rows = real(Q)
        first = list(next(rows))
        first[-1] += 1
        yield first
        yield from rows

    monkeypatch.setattr(suites, "_mobius_recurrence_rows", shifted)
    assert failures(suites.suite_whitney(R, suites.Dense(R))) == {
        "chi-at-one-is-minus-mu": "chi(1) 2 != -mu(0^, 1^) 1"}


def test_whitney_chi_at_one_fails_on_a_wrong_char_poly(monkeypatch):
    # w_2 = 3 on root(<2, 3>, 2), read as 4: the rank sums of the inversion
    # see it too
    R = root(custom([2, 3]), 2)
    monkeypatch.setattr(suites, "char_poly", lambda Q: CharPoly((1, -2, 4)))
    assert failures(suites.suite_whitney(R, suites.Dense(R))) == {
        "first-kind-vs-inversion":
            "rank 2: w_r 4 != 3, the rank sum of row 1 of the inversion",
        "chi-at-one-is-minus-mu": "chi(1) 3 != -mu(0^, 1^) 2"}


def test_whitney_first_kind_fails_on_a_wrong_inversion(monkeypatch):
    # mu(0^, x) on the nodes of rank 1 read as 6, not -1, at entry (1, 2)
    # of the level inversion: w_1 = -2 against the rank sum 2 * 6 = 12; the
    # recurrence and chi still agree
    R = root(custom([2, 3]), 2)
    real = suites.level_mobius

    def level_mobius(Q, method):
        L = real(Q, method)
        entries = [list(row) for row in L.entries]
        entries[0][1] += 7
        return L._replace(entries=entries)

    monkeypatch.setattr(suites, "level_mobius", level_mobius)
    assert failures(suites.suite_whitney(R, suites.Dense(R))) == {
        "first-kind-vs-inversion":
            "rank 1: w_r -2 != 12, the rank sum of row 1 of the inversion"}


# -- the comparator on rows of the wrong shape --------------------------------

def test_first_mismatch_names_a_missing_or_extra_row():
    assert suites._first_mismatch([(1, 0)], [(1, 0), (0, 1)]) == (2, 1, "no entry", 0)
    assert suites._first_mismatch([(1, 0), (0, 1), (0, 0)], [(1, 0), (0, 1)]) == \
        (3, 1, 0, "no entry")


def test_first_mismatch_names_the_end_of_a_short_row():
    assert suites._first_mismatch([(1, 0), (0,)], [(1, 0), (0, 1)]) == (2, 2, "no entry", 1)


def test_first_mismatch_names_the_entry_past_the_wanted_row():
    assert suites._first_mismatch([(1, 0, 0)], [(1, 0)]) == (1, 3, 0, "no entry")


def test_closure_matches_reachability_fails_on_a_stray_bit_past_the_last_node(monkeypatch):
    # bit 10 of row 2 on the 10 nodes of nat:4 makes the bit row one entry
    # longer than the closure row
    P = cobweb(nat(), 4)
    flip_reach(monkeypatch, 2, 11)
    assert failures(suites.suite_zeta(P, suites.Dense(P))) == {
        "closure-matches-reachability": "entry (2, 11): reachability has 1, closure has no entry"}


def test_closure_matches_reachability_fails_on_a_missing_row(monkeypatch):
    P = cobweb(nat(), 4)
    real = suites.reachable_sets
    monkeypatch.setattr(suites, "reachable_sets", lambda Q: real(Q)[:-1])
    assert failures(suites.suite_zeta(P, suites.Dense(P))) == {
        "closure-matches-reachability": "entry (10, 1): reachability has no entry, closure has 0"}


def test_run_checks_compares_routes_without_building_their_matrices(monkeypatch):
    # the two inverse-pair products are the only matrices built only to be
    # compared; every other route is read a row at a time
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix built only to be compared")

    monkeypatch.setattr(BlockMatrix, "identity", refuse)
    monkeypatch.setattr(LevelMatrix, "to_block", refuse)
    for module in (incidence, suites):
        real = module.zeta
        monkeypatch.setattr(module, "zeta", lambda Q, method="closure", real=real:
                            real(Q, method) if method == "closure" else refuse())
        # the suite's mu is the inverse of the closure it already holds
        monkeypatch.setattr(module, "mobius", refuse, raising=False)
        monkeypatch.setattr(module, "logic_L", refuse, raising=False)
    non_cobweb = from_blocks([2, 3, 2], [[[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1], [1, 0]]])
    for P in (cobweb(nat(), 5), root(gauss(2), 3), non_cobweb):
        results = run_checks(P, "all")
        assert all(r.passed for r in results), [r for r in results if not r.passed]
