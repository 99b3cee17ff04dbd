"""Incidence algebra elements of a graded poset.

The same objects are built along independent routes on purpose: the zeta
matrix has a closure construction that works for every graded poset plus
three label-formula constructions for cobwebs, and the Moebius matrix has a
closed form (cobwebs), a series inversion, and the textbook recurrence.
Tests and the check suites hold all routes to exact agreement.

Each label route evaluates its own formula from the prefix sums S and the
level sizes alone, one row at a time: every term is taken once and adds
its contribution to the whole run of columns it covers, so a label route
costs O(N^2) for N nodes.

In a cobweb every off-diagonal block of zeta, Moebius, max, eta and their
inverses is constant and every diagonal block is the identity, so each fits
in an n x n LevelMatrix: the reduced incidence algebra of Doubilet, Rota and
Stanley.  There (AB)(r, s) = sum over k of A(r, k) k_F B(k, s), so weighting
every column s right of the diagonal by s_F turns the level product into
the plain n x n product: level closure and inverse run the same row solve
as the dense routes, blockmat._unit_solve, on the size-weighted n x n
table.  Each level route solves what its dense route solves, and a
LevelMatrix is expanded to node rows one row at a time, so a level route
holds no N x N matrix.  The dense routes serve every other poset and are
the oracles the level forms are held to.
"""

from __future__ import annotations

import warnings
from math import prod
from typing import List, NamedTuple, Set, Tuple

from .blockmat import BOOL, INT, BlockMatrix, MatrixError, _unit_solve, add, \
    nilpotent_closure, unitriangular_inverse
from .fsequence import FSequence
from .poset import GradedPoset, PosetError


# -- cover and reflexive cover -------------------------------------------

def kappa(P: GradedPoset, ring=INT) -> BlockMatrix:
    """Cover relation matrix: block (k, k+1) is the k-th biadjacency block."""
    return BlockMatrix.from_band_blocks(P.level_sizes, P.blocks, ring)


def eta(P: GradedPoset) -> BlockMatrix:
    """Reflexive cover: identity plus the cover matrix, over the integers."""
    return add(BlockMatrix.identity(P.level_sizes, INT), kappa(P, INT))


def eta_inverse(P: GradedPoset) -> BlockMatrix:
    """Exact inverse of eta; block (r, s) carries (-1)^(s-r) B_r ... B_(s-1)."""
    return unitriangular_inverse(eta(P))


# -- zeta: four constructions ---------------------------------------------

ZETA_METHODS = ("closure", "label_delta", "label_knuth", "label_S")


def zeta(P: GradedPoset, method: str = "closure") -> BlockMatrix:
    """Characteristic matrix of the partial order, over the Boolean semiring.

    `closure` works for any graded poset.  The three label methods evaluate
    closed formulas in the natural labeling and are stated for cobwebs only;
    they are refused otherwise.
    """
    if method == "closure":
        return nilpotent_closure(kappa(P, BOOL))
    if method not in ZETA_METHODS:
        raise ValueError(f"unknown zeta method {method!r}")
    if not P.is_cobweb:
        raise PosetError(f"zeta method {method!r} is defined for cobwebs only")
    rows = {"label_delta": _rows_delta,
            "label_knuth": _rows_knuth,
            "label_S": _rows_S}[method]
    S = [P.S(m) for m in range(P.n_levels + 1)]
    return BlockMatrix(P.level_sizes, rows(S, P.level_sizes, P.node_count), BOOL)


# The formulas are 1-based in x and y and the row lists 0-based: column y
# sits at index y - 1, so columns x+1..e are the slice [x:e].

def _take_one(row, lo, hi):
    row[lo:hi] = [v - 1 for v in row[lo:hi]]


def _rows_delta(S, sizes, N):
    # zeta_1 floods the upper triangle with ones: the terms delta(x+k, y),
    # k = 0..N-x, set columns x..N, and larger k fall off the matrix.
    # zeta_0 carves out the same-level staircase: the term (s, k) with
    # delta(x, S(s-1)+k) = 1 takes 1 off columns x+1..x+s_F-k.
    for x in range(1, N + 1):
        row = [0] * (x - 1) + [1] * (N - x + 1)
        for s in range(1, len(sizes) + 1):
            for k in range(1, sizes[s - 1] + 1):
                if x == S[s - 1] + k:
                    _take_one(row, x, x + sizes[s - 1] - k)
        yield row


def _rows_knuth(S, sizes, N):
    # Bracket form: each window (S(s-1), S(s-1) + s_F] with x inside or
    # above it takes 1 off columns x+1..S(s-1) + s_F.
    for x in range(1, N + 1):
        row = [0] * (x - 1) + [1] * (N - x + 1)
        for s in range(1, len(sizes) + 1):
            if x > S[s - 1]:
                _take_one(row, x, S[s - 1] + sizes[s - 1])
        yield row


def _rows_S(S, sizes, N):
    # Prefix-sum form: the same with the windows (S(m), S(m+1)].
    for x in range(1, N + 1):
        row = [0] * (x - 1) + [1] * (N - x + 1)
        for m in range(0, len(sizes)):
            if x > S[m]:
                _take_one(row, x, S[m + 1])
        yield row


# -- Kroton functions and the coding matrix --------------------------------

def kroton(F: FSequence, r: int, s: int) -> int:
    """Magnitude of the cobweb coding entry between levels r and s.

    Zero for s <= r, one for s = r + 1, otherwise the product of
    (i_F - 1) for i strictly between r and s.  The empty product at
    s = r + 1 pins the value 1; the growth law
    kroton(F, r, s + 1) = kroton(F, r, s) * (s_F - 1) holds for s > r.
    """
    if r < 0 or s < 0:
        raise ValueError(f"level labels must be >= 0, got r={r} s={s}")
    if s <= r:
        return 0
    return prod(F.value(i) - 1 for i in range(r + 1, s))


class _CodingMatrix(NamedTuple):
    # a NamedTuple may not define __new__, so CodingMatrix checks the fields
    entries: Tuple[Tuple[int, ...], ...]


class CodingMatrix(_CodingMatrix):
    """Level-indexed integer matrix c_(r,s) compressing the cobweb Moebius
    matrix: block (r, s) of mu equals c_(r,s) times the all-ones block."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("coding matrix must be square")
        for r in range(n):
            if self.entries[r][r] != 1:
                raise ValueError("coding matrix diagonal must be 1")
            if r + 1 < n and self.entries[r][r + 1] != -1:
                raise ValueError("coding matrix superdiagonal must be -1")
            for s in range(r):
                if self.entries[r][s] != 0:
                    raise ValueError("coding matrix must vanish below the diagonal")
            for s in range(r + 1, n):
                v = self.entries[r][s]
                if v != 0 and (v > 0) != ((s - r) % 2 == 0):
                    raise ValueError(f"sign violation at ({r + 1},{s + 1})")
        return self

    @property
    def n(self) -> int:
        return len(self.entries)

    def c(self, r: int, s: int) -> int:
        """Entry for 1-based level pair (r, s)."""
        return self.entries[r - 1][s - 1]


def _check_coding_levels(n: int) -> None:
    if n < 1:
        raise ValueError(f"coding matrix needs n >= 1, got {n}")


def coding_matrix(F: FSequence, n: int) -> CodingMatrix:
    """Closed form: c_(r,s) = interval_mobius(F, r, s) on and above the
    diagonal, 0 below it."""
    _check_coding_levels(n)
    ent = []
    for r in range(1, n + 1):
        ent.append(tuple(interval_mobius(F, r, s) if s >= r else 0
                         for s in range(1, n + 1)))
    return CodingMatrix(tuple(ent))


def coding_recurrence(F: FSequence, n: int) -> CodingMatrix:
    """The coding matrix grown from the Moebius recurrence instead of the
    closed form.

    Summing mu(x_r, z) over the half-open interval [x_r, y_s) level by level
    gives c_(r,s) = -(c_(r,r) + sum over r < i < s of i_F * c_(r,i)): every
    intermediate level contributes all i_F of its elements.  Solving this
    recurrence is the independent route the closed form is checked against.
    """
    _check_coding_levels(n)
    ent = []
    for r in range(1, n + 1):
        row = [0] * n
        row[r - 1] = 1
        for s in range(r + 1, n + 1):
            acc = 1  # the bottom element x_r itself
            for i in range(r + 1, s):
                acc += F.value(i) * row[i - 1]
            row[s - 1] = -acc
        ent.append(tuple(row))
    return CodingMatrix(tuple(ent))


# -- Moebius: three constructions ------------------------------------------

MOBIUS_METHODS = ("closed_form", "invert", "recurrence")


def mobius(P: GradedPoset, method: str = "invert") -> BlockMatrix:
    """Inverse of zeta in the integer incidence algebra.

    `invert` and `recurrence` work for every graded poset; `closed_form`
    expands the coding matrix against all-ones blocks and is only valid for
    cobwebs (rank-only dependence fails otherwise), so it is refused there.
    """
    if method == "invert":
        return unitriangular_inverse(zeta(P, "closure").with_ring(INT))
    if method == "recurrence":
        return _mobius_recurrence(P)
    if method == "closed_form":
        if not P.is_cobweb:
            raise PosetError("closed form Moebius is defined for cobwebs only")
        return level_mobius(P, "closed_form").to_block()
    raise ValueError(f"unknown mobius method {method!r}")


def reachable_sets(P: GradedPoset) -> List[Set[int]]:
    """reachable_sets(P)[x] is the set of global labels y with x <= y,
    computed by graph traversal of the cover digraph (no matrix algebra)."""
    N = P.node_count
    up: List[List[int]] = [[] for _ in range(N + 1)]
    for x in P.nodes():
        up[x.global_label] = [y.global_label for y in P.upper_covers(x)]
    reach: List[Set[int]] = [set() for _ in range(N + 1)]
    for g in range(N, 0, -1):
        acc = {g}
        for h in up[g]:
            acc |= reach[h]
        reach[g] = acc
    return reach


def _mobius_recurrence(P: GradedPoset) -> BlockMatrix:
    # mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z) over x <= z < y, solved from
    # the left over reachability alone, so it uses neither a zeta construction
    # nor the inversion's row solve: walking the up-set of x in label order,
    # mu(x, z) is final when z is reached and is taken off every y above z.
    N = P.node_count
    reach = reachable_sets(P)
    strict = [sorted(y - 1 for y in reach[z] if y != z) for z in range(1, N + 1)]
    rows = [[0] * N for _ in range(N)]
    for x, row in enumerate(rows):
        row[x] = 1
        for z in [x] + strict[x]:
            m = row[z]
            if m:
                for y in strict[z]:
                    row[y] -= m
    return BlockMatrix(P.level_sizes, rows, INT)


def interval_mobius(F: FSequence, r: int, s: int) -> int:
    """Moebius value between any node of level r and any node of level s in
    a cobweb; depends only on the two ranks."""
    if s < r:
        warnings.warn(f"interval_mobius called with s={s} < r={r}; returning 0")
        return 0
    if s == r:
        return 1
    return (-1) ** (s - r) * kroton(F, r, s)


def mobius_krot(F: FSequence, x: Tuple[int, int], y: Tuple[int, int]) -> int:
    """Coordinate-pair Moebius form: x and y are (position, level) pairs.

    Positions are bounded by the level sizes.  Within one level the value
    is the Kronecker delta of the positions; across levels it is the
    rank-only interval form.
    """
    s, t = x
    u, v = y
    for pos, lev, who in ((s, t, "x"), (u, v, "y")):
        if lev < 1:
            raise ValueError(f"{who}: level must be >= 1, got {lev}")
        if not 1 <= pos <= F.value(lev):
            raise ValueError(
                f"{who}: position {pos} out of range 1..{F.value(lev)} at level {lev}")
    if v < t:
        return 0
    if v == t:
        return 1 if s == u else 0
    return interval_mobius(F, t, v)


# -- maximal chain counting matrix -----------------------------------------

def max_matrix(P: GradedPoset) -> BlockMatrix:
    """Integer closure of the cover matrix; entry (x, y) counts the maximal
    chains of the interval [x, y], with all-ones diagonal."""
    return nilpotent_closure(kappa(P, INT))


def max_inverse(P: GradedPoset) -> BlockMatrix:
    """Identity minus the cover matrix: the exact inverse of max_matrix."""
    I = BlockMatrix.identity(P.level_sizes, INT)
    k = kappa(P, INT)
    rows = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(I.rows, k.rows)]
    return BlockMatrix(P.level_sizes, rows, INT)


def logic_L(M: BlockMatrix) -> BlockMatrix:
    """Entrywise positivity indicator, mapping a chain-counting matrix back
    to the underlying zeta.  Refuses negative entries."""
    for i, row in enumerate(M.rows):
        for j, v in enumerate(row):
            if v < 0:
                raise MatrixError(f"logic_L is undefined on negative entry at ({i},{j})")
    rows = [[1 if v > 0 else 0 for v in row] for row in M.rows]
    return BlockMatrix(M.level_sizes, rows, BOOL)


# -- the level algebra of cobwebs ------------------------------------------

class LevelMatrix(NamedTuple):
    """A cobweb matrix stored by level pairs.

    Diagonal blocks are the identity (entries[r][r] == 1), block (r+1, s+1)
    with r < s is entries[r][s] times the all-ones block, and blocks below
    the diagonal are zero.  `ring` is the ring of the dense matrix it
    stands for.
    """
    level_sizes: Tuple[int, ...]
    entries: Tuple[Tuple[int, ...], ...]
    ring: object = INT

    def level_rows(self):
        """The expander: per level, (columns left of its diagonal block,
        block size, runs), runs being the (value, count) pairs right of the
        diagonal block.  Rows of one level differ only inside that block."""
        sizes = self.level_sizes
        before = 0
        for r, size in enumerate(sizes):
            runs = [(self.entries[r][s], sizes[s]) for s in range(r + 1, len(sizes))]
            yield before, size, runs
            before += size

    def rows(self):
        """Dense node rows, one at a time."""
        for before, size, runs in self.level_rows():
            tail = [v for v, count in runs for _ in range(count)]
            for i in range(size):
                row = [0] * (before + size)
                row[before + i] = 1
                row += tail
                yield row

    def to_block(self) -> BlockMatrix:
        return BlockMatrix(self.level_sizes, self.rows(), self.ring)


def _cobweb_sizes(P: GradedPoset) -> Tuple[int, ...]:
    if not P.is_cobweb:
        raise PosetError("level forms are defined for cobwebs only")
    return P.level_sizes


def _level_solve(sizes, entries, ring, negate) -> LevelMatrix:
    # R = I + N R (negate false) or R = I - N R on the table with column s
    # weighted by s_F, since J_(a x b) J_(b x c) = b J_(a x c); over BOOL
    # J J = J, so the weight is 1.  Column s of R then carries the factor
    # s_F right of the diagonal, and dividing it out is exact.
    weights = [1] * len(sizes) if ring is BOOL else sizes
    rows = [[v * weights[s] if s > r else v for s, v in enumerate(row)]
            for r, row in enumerate(entries)]
    solved = _unit_solve(rows, (1,) * len(sizes), ring, negate)
    return LevelMatrix(sizes, tuple(
        tuple(v // weights[s] if s > r else v for s, v in enumerate(row))
        for r, row in enumerate(solved)), ring)


def _level_band(sizes, v) -> LevelMatrix:
    # identity plus v on the first block band
    n = len(sizes)
    return LevelMatrix(sizes, tuple(
        tuple(1 if s == r else v if s == r + 1 else 0 for s in range(n))
        for r in range(n)))


def level_zeta(P: GradedPoset) -> LevelMatrix:
    """Level form of zeta(P, "closure") for a cobweb, over BOOL."""
    return _level_solve(_cobweb_sizes(P), level_eta(P).entries, BOOL, False)


def level_mobius(P: GradedPoset, method: str = "invert") -> LevelMatrix:
    """Level form of mobius(P, method) for a cobweb, along the same route:
    `invert` inverts level zeta, `recurrence` is coding_recurrence and
    `closed_form` is coding_matrix."""
    sizes = _cobweb_sizes(P)
    if method == "invert":
        return _level_solve(sizes, level_zeta(P).entries, INT, True)
    if method not in MOBIUS_METHODS:
        raise ValueError(f"unknown mobius method {method!r}")
    route = coding_recurrence if method == "recurrence" else coding_matrix
    return LevelMatrix(sizes, route(FSequence(list(sizes)), len(sizes)).entries)


def level_max(P: GradedPoset) -> LevelMatrix:
    """Level form of max_matrix(P) for a cobweb."""
    return _level_solve(_cobweb_sizes(P), level_eta(P).entries, INT, False)


def level_max_inverse(P: GradedPoset) -> LevelMatrix:
    """Level form of max_inverse(P): identity minus the cover."""
    return _level_band(_cobweb_sizes(P), -1)


def level_eta(P: GradedPoset) -> LevelMatrix:
    """Level form of eta(P): identity plus the cover."""
    return _level_band(_cobweb_sizes(P), 1)


def level_eta_inverse(P: GradedPoset) -> LevelMatrix:
    """Level form of eta_inverse(P), by inverting level eta."""
    return _level_solve(P.level_sizes, level_eta(P).entries, INT, True)
