"""Per-poset invariant suites behind the `check` CLI subcommand.

Each suite returns CheckResult records; a suite that does not apply to the
given poset (Markov needs a cobweb, Whitney needs a root) reports itself as
skipped rather than failing.

The max and Markov suites hold the matrices to the chain-count oracle of
the chains module.  Every comparison streams one route's rows against the
other's through _first_mismatch, and _is_inverse reads each inverse-pair
law, zeta * mu == I and (I - cover) * max == I, so no matrix is built only
to be compared.  One side per law is enough: a one-sided inverse of a
square matrix is two-sided, in the incidence algebra (Stanley, Enumerative
Combinatorics I, Prop. 3.6.2) and over the integers alike: det A det B = 1.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, zip_longest
from operator import mul
from typing import Callable, Dict, List, NamedTuple

from .blockmat import INT, BlockMatrix, MatrixError
from .chains import _interval_rows, layer_chain_counts
from .incidence import ZETA_METHODS, _bit_row, _label_rows, _logic_L_rows, \
    _mobius_recurrence_rows, _solve, level_max, level_max_inverse, level_mobius, level_zeta, \
    max_inverse, max_matrix, reachable_sets, zeta
from .invariants import RootedPoset, char_poly
from .poset import GradedPoset, antichain, ordinal_sum


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _verdict(suite, name, ok, detail=""):
    """A pass, or a failure carrying detail."""
    return CheckResult(suite, name, ok, "" if ok else detail)


def _skip(suite, name, why):
    return CheckResult(suite, name, True, f"skipped: {why}")


def _first_mismatch(rows, want_rows):
    """(x, y, a, b) at the first difference in row-major order: 1-based x
    and y, a from rows and b from want_rows, "no entry" where that side has
    no such row or column.  None when the rows agree."""
    for x, (got, want) in enumerate(zip_longest(rows, want_rows, fillvalue=()), start=1):
        # two rows of one type compare in C, and others as tuples
        if got != want and (got := tuple(got)) != (want := tuple(want)):
            y = next((j for j, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
            return (x, y + 1, *(r[y] if y < len(r) else "no entry" for r in (got, want)))
    return None


def _is_inverse(A: BlockMatrix, B: BlockMatrix) -> bool:
    """A B == I, entries read as integers, by Freivalds' check: A (B v) == v
    for one v of 61-bit entries from a fixed seed.  One v is enough: a
    nonzero row d of A B - I has d . v == 0 for at most one value of one
    coordinate, so a wrong product passes for at most 2^-61 of the v.  A is
    the 0/1 closure or the sparse max_inverse: its rows skip their zeros."""
    import random  # kept off the import path of every CLI call
    v = list(map(random.Random(0).getrandbits, [61] * B.size))
    u = [sum(map(mul, row, v)) for row in B.rows]
    return all(sum(map(mul, compress(row, row), compress(u, row))) == vx
               for row, vx in zip(A.rows, v))


def _level_agreement(suite: str, P: GradedPoset, routes) -> CheckResult:
    """routes: (route name, level form builder, dense matrix).  The detail
    names the route and its first mismatching entry in row-major order."""
    name = "level-form-agreement"
    if not P.is_cobweb:
        return _skip(suite, name, "level form needs a cobweb")
    for route, build, dense in routes:
        bad = _first_mismatch(build(P).rows(), dense.rows)
        if bad:
            return _verdict(suite, name, False, f"{route}: entry {bad[:2]}: "
                            f"level form has {bad[2]}, dense has {bad[3]}")
    return _verdict(suite, name, True)


class Dense:
    """The dense matrices held across suites, each built on first use, and
    only those that two suites read: zeta(P, "closure"), which the zeta and
    mobius suites read, and max_matrix(P), which the zeta and max suites
    read.  run_checks hands one Dense to every suite it runs, so neither is
    built twice."""

    def __init__(self, P: GradedPoset):
        self.P = P

    @cached_property
    def closure(self) -> BlockMatrix:
        return zeta(self.P, "closure")

    @cached_property
    def max(self) -> BlockMatrix:
        return max_matrix(self.P)


def suite_zeta(P: GradedPoset, dense: Dense) -> List[CheckResult]:
    out = []
    Z = dense.closure
    bad = _first_mismatch((_bit_row(r, P.node_count) for r in reachable_sets(P)), Z.rows)
    out.append(_verdict("zeta", "closure-matches-reachability", bad is None, bad and
                        f"entry {bad[:2]}: reachability has {bad[2]}, closure has {bad[3]}"))
    if P.is_cobweb:
        # the closure route is Z itself; hold the three label routes to it
        bad = [m for m in ZETA_METHODS if m != "closure" and _first_mismatch(
            _label_rows(P, m).rows, Z.rows)]
        out.append(_verdict("zeta", "method-agreement", not bad, f"methods disagree: {bad}"))
    else:
        out.append(_skip("zeta", "method-agreement", "label formulas need a cobweb"))
    # a negative chain count has no L: the check fails there and names it
    detail = "L(max) differs from zeta"
    try:
        ok = not _first_mismatch(_logic_L_rows(dense.max), Z.rows)
    except MatrixError as e:
        ok, detail = False, str(e)
    out.append(_verdict("zeta", "logic-of-max", ok, detail))
    out.append(_level_agreement("zeta", P, [("closure", level_zeta, Z)]))
    return out


def suite_mobius(P: GradedPoset, dense: Dense) -> List[CheckResult]:
    out = []
    mu = _solve(P, dense.closure.rows, INT, True)
    out.append(_verdict("mobius", "invert-vs-recurrence",
                        not _first_mismatch(_mobius_recurrence_rows(P), mu.rows),
                        "inversion and recurrence disagree"))
    if P.is_cobweb:
        out.append(_verdict("mobius", "closed-form-agreement",
                            not _first_mismatch(level_mobius(P, "closed_form").rows(), mu.rows),
                            "closed form disagrees with inversion"))
    else:
        out.append(_skip("mobius", "closed-form-agreement", "closed form needs a cobweb"))
    out.append(_verdict("mobius", "inverse-pair", _is_inverse(dense.closure, mu),
                        "mu is not an exact two-sided inverse of zeta"))
    if P.is_cobweb:
        rank_ok = all(len({v for row in mu.block(r, s) for v in row}) <= 1
                      for r in range(1, P.n_levels + 1) for s in range(r + 1, P.n_levels + 1))
        out.append(_verdict("mobius", "rank-dependence", rank_ok,
                            "mu varies inside a level block of a cobweb"))
    else:
        out.append(_skip("mobius", "rank-dependence", "stated for cobwebs"))
    out.append(_level_agreement("mobius", P, [
        ("invert", lambda Q: level_mobius(Q, "invert"), mu),
        ("recurrence", lambda Q: level_mobius(Q, "recurrence"), mu)]))
    return out


def suite_max(P: GradedPoset, dense: Dense) -> List[CheckResult]:
    out = []
    M = dense.max
    bad = _first_mismatch(_interval_rows(P), M.rows)
    out.append(_verdict("max", "chain-count-oracle", bad is None,
                        bad and f"entry {bad[:2]}: counted {bad[2]}, matrix has {bad[3]}"))
    inv = max_inverse(P)
    out.append(_verdict("max", "inverse-pair", _is_inverse(inv, M),
                        "identity minus cover is not the inverse"))
    diag_ok = all(M.rows[i][i] == 1 for i in range(P.node_count))
    out.append(_verdict("max", "unit-diagonal", diag_ok, "diagonal entry differs from 1"))
    out.append(_level_agreement("max", P, [("closure", level_max, M),
                                           ("inverse", level_max_inverse, inv)]))
    return out


def suite_markov(P: GradedPoset, dense: Dense) -> List[CheckResult]:
    if not P.is_cobweb:
        return [_skip("markov", "factorization", "stated for cobwebs")]
    n = P.n_levels
    # counts[s][r - 1] = C(r, s), one sweep per top level s
    counts = [None] + [layer_chain_counts(P, s) for s in range(1, n + 1)]
    for r in range(1, n + 1):
        for k in range(r, n + 1):
            c_rk = counts[k][r - 1]
            for s in range(k + 1, n + 1):
                c_rs = counts[s][r - 1]
                lhs, rhs = c_rk * counts[s][k - 1], P.level_sizes[k - 1] * c_rs
                if lhs != rhs:
                    return [_verdict("markov", "factorization", False,
                                     f"({r},{k},{s}): {lhs} != {rhs}")]
                split_l = c_rk * counts[s][k]
                if split_l != c_rs:
                    return [_verdict("markov", "split-form", False,
                                     f"({r},{k},{s}): {split_l} != {c_rs}")]
    return [_verdict("markov", "factorization", True), _verdict("markov", "split-form", True)]


def suite_whitney(P: GradedPoset, dense: Dense) -> List[CheckResult]:
    if P.level_sizes[0] != 1 or not P.is_cobweb:
        return [_skip("whitney", "closed-vs-direct", "needs a rooted cobweb")]
    R = P if isinstance(P, RootedPoset) else RootedPoset.from_poset(P)
    out = []
    try:
        chi = char_poly(R)
    except ArithmeticError as e:
        return [_verdict("whitney", "closed-vs-direct", False, str(e))]
    out.append(_verdict("whitney", "closed-vs-direct", True))
    # w_r sums mu(0^, x) over rank r: the rank's size times entry (1, r + 1)
    # of the level inversion, which the mobius suite holds to the dense one
    row = level_mobius(R, "invert").entries[0]
    bad = next(((r, w, s) for r, w in enumerate(chi.coefficients)
                if w != (s := R.level_sizes[r] * row[r])), None)
    out.append(_verdict("whitney", "first-kind-vs-inversion", bad is None, bad and
                        f"rank {bad[0]}: w_r {bad[1]} != {bad[2]}, "
                        f"the rank sum of row 1 of the inversion"))
    # chi(1) is the sum of mu(0^, x) over R, so with a top 1^ adjoined the
    # defining recurrence of mu(0^, 1^) makes it -mu(0^, 1^)
    chi1 = chi.evaluate(1)
    mu01 = next(_mobius_recurrence_rows(ordinal_sum(R, antichain(1))))[-1]
    out.append(_verdict("whitney", "chi-at-one-is-minus-mu", chi1 == -mu01,
                        f"chi(1) {chi1} != -mu(0^, 1^) {-mu01}"))
    return out


SUITES: Dict[str, Callable[[GradedPoset, Dense], List[CheckResult]]] = {
    "zeta": suite_zeta,
    "mobius": suite_mobius,
    "max": suite_max,
    "markov": suite_markov,
    "whitney": suite_whitney,
}


def run_checks(P: GradedPoset, suite: str = "all") -> List[CheckResult]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; pick all|{'|'.join(SUITES)}")
    dense = Dense(P)
    out: List[CheckResult] = []
    for name in names:
        out.extend(SUITES[name](P, dense))
    return out
