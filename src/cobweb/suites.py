"""Per-poset invariant suites behind the `check` CLI subcommand.

Each suite returns CheckResult records; a suite that does not apply to the
given poset (Markov needs a cobweb, Whitney needs a root) reports itself as
skipped rather than failing.

The chain-count oracles cost one tally sweep per column or per level, not
one per pair.  The max suite holds max_matrix(P) to interval_chain_column
one column y at a time and keeps only the first mismatch in row-major
order, so its memory stays linear in the node count and its failure detail
names the same entry a pair-by-pair scan would.  The Markov suite reads
every C(r, s) from layer_chain_counts, one sweep per top level s.  Both
oracles come from chains, which reads only the cover blocks, so they stay
independent of the matrix closure they are checking.

On a cobweb the zeta, mobius and max suites also expand the level forms the
CLI writes and hold them entry by entry to the dense matrices the suite has
already built.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from .blockmat import INT, BlockMatrix, mul
from .chains import interval_chain_column, layer_chain_counts
from .incidence import ZETA_METHODS, level_max, level_max_inverse, level_mobius, \
    level_zeta, logic_L, max_inverse, max_matrix, mobius, reachable_sets, zeta
from .invariants import RootedPoset, char_poly, whitney_second
from .poset import GradedPoset


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


def _level_agreement(suite: str, P: GradedPoset, routes) -> CheckResult:
    """routes: (route name, level form builder, dense matrix).  The detail
    names the route and its first mismatching entry in row-major order."""
    name = "level-form-agreement"
    if not P.is_cobweb:
        return _skip(suite, name, "level form needs a cobweb")
    for route, build, dense in routes:
        for x, (got, want) in enumerate(zip(build(P).rows(), dense.rows), start=1):
            if tuple(got) != want:
                y = next(j for j in range(len(want)) if got[j] != want[j])
                return _verdict(suite, name, False, f"{route}: entry ({x}, {y + 1}): "
                                f"level form has {got[y]}, dense has {want[y]}")
    return _verdict(suite, name, True)


def suite_zeta(P: GradedPoset) -> List[CheckResult]:
    out = []
    Z = zeta(P, "closure")
    reach = reachable_sets(P)
    good = all((1 if (j + 1) in reach[i + 1] else 0) == Z.rows[i][j]
               for i in range(P.node_count) for j in range(P.node_count))
    out.append(_verdict("zeta", "closure-matches-reachability", good,
                        "zeta closure disagrees with graph reachability"))
    if P.is_cobweb:
        # the closure route is Z itself; hold the three label routes to it
        bad = [m for m in ZETA_METHODS if m != "closure" and zeta(P, m).rows != Z.rows]
        out.append(_verdict("zeta", "method-agreement", not bad, f"methods disagree: {bad}"))
    else:
        out.append(_skip("zeta", "method-agreement", "label formulas need a cobweb"))
    out.append(_verdict("zeta", "logic-of-max", logic_L(max_matrix(P)).rows == Z.rows,
                        "L(max) differs from zeta"))
    out.append(_level_agreement("zeta", P, [("closure", level_zeta, Z)]))
    return out


def suite_mobius(P: GradedPoset) -> List[CheckResult]:
    out = []
    mu = mobius(P, "invert")
    rec = mobius(P, "recurrence")
    out.append(_verdict("mobius", "invert-vs-recurrence", mu.rows == rec.rows,
                        "inversion and recurrence disagree"))
    if P.is_cobweb:
        cf = mobius(P, "closed_form")
        out.append(_verdict("mobius", "closed-form-agreement", cf.rows == mu.rows,
                            "closed form disagrees with inversion"))
    else:
        out.append(_skip("mobius", "closed-form-agreement", "closed form needs a cobweb"))
    zi = zeta(P, "closure").with_ring(INT)
    I = BlockMatrix.identity(P.level_sizes, INT)
    ok = mul(zi, mu) == I and mul(mu, zi) == I
    out.append(_verdict("mobius", "inverse-pair", ok,
                        "mu is not an exact two-sided inverse of zeta"))
    if P.is_cobweb:
        rank_ok = True
        for r in range(1, P.n_levels + 1):
            for s in range(r + 1, P.n_levels + 1):
                blk = mu.block(r, s)
                vals = {v for row in blk for v in row}
                if len(vals) > 1:
                    rank_ok = False
        out.append(_verdict("mobius", "rank-dependence", rank_ok,
                            "mu varies inside a level block of a cobweb"))
    else:
        out.append(_skip("mobius", "rank-dependence", "stated for cobwebs"))
    out.append(_level_agreement("mobius", P, [
        ("invert", lambda Q: level_mobius(Q, "invert"), mu),
        ("recurrence", lambda Q: level_mobius(Q, "recurrence"), mu)]))
    return out


def suite_max(P: GradedPoset) -> List[CheckResult]:
    out = []
    M = max_matrix(P)
    # one oracle sweep per column y; the first mismatch in row-major order is
    # the smallest (x, y) over the columns' first mismatches
    bad = None
    for y in P.nodes():
        j = y.global_label - 1
        limit = P.node_count if bad is None else bad[0] - 1
        for i, want in enumerate(interval_chain_column(P, y)[:limit]):
            got = M.rows[i][j]
            if want != got:
                bad = (i + 1, j + 1, want, got)
                break
    out.append(_verdict("max", "chain-count-oracle", bad is None,
                        bad and f"entry {bad[:2]}: counted {bad[2]}, matrix has {bad[3]}"))
    I = BlockMatrix.identity(P.level_sizes, INT)
    inv = max_inverse(P)
    ok = mul(M, inv) == I and mul(inv, M) == I
    out.append(_verdict("max", "inverse-pair", ok, "identity minus cover is not the inverse"))
    diag_ok = all(M.rows[i][i] == 1 for i in range(P.node_count))
    out.append(_verdict("max", "unit-diagonal", diag_ok, "diagonal entry differs from 1"))
    out.append(_level_agreement("max", P, [("closure", level_max, M),
                                           ("inverse", level_max_inverse, inv)]))
    return out


def suite_markov(P: GradedPoset) -> List[CheckResult]:
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


def suite_whitney(P: GradedPoset) -> List[CheckResult]:
    if P.level_sizes[0] != 1 or not P.is_cobweb:
        return [_skip("whitney", "closed-vs-direct", "needs a rooted cobweb")]
    R = P if isinstance(P, RootedPoset) else RootedPoset.from_poset(P)
    out = []
    try:
        chi = char_poly(R)
    except ArithmeticError as e:
        return [_verdict("whitney", "closed-vs-direct", False, str(e))]
    out.append(_verdict("whitney", "closed-vs-direct", True))
    wsec_ok = all(whitney_second(R, r) == R.level_sizes[r]
                  for r in range(R.top_rank + 1))
    out.append(_verdict("whitney", "second-kind-sizes", wsec_ok,
                        "W_r differs from the rank size"))
    out.append(_verdict("whitney", "sum-is-chi-at-one", sum(chi.coefficients) == chi.evaluate(1),
                        f"sum {sum(chi.coefficients)} != chi(1) {chi.evaluate(1)}"))
    return out


SUITES: Dict[str, Callable[[GradedPoset], List[CheckResult]]] = {
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
    out: List[CheckResult] = []
    for name in names:
        out.extend(SUITES[name](P))
    return out
