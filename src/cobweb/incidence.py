"""Incidence algebra elements of a graded poset.

The same objects are built along independent routes on purpose, four for
zeta and three for the Moebius matrix (see zeta and mobius), and tests and
the check suites hold all routes to exact agreement.

The four dense routes, zeta by closure, max, eta^-1 and the inversion, each
call _solve, the dense counterpart of _level_solve, on 0/1 rows held as
bytes: the first three on the cover rows, which _cover_rows builds one per
node straight from the cover blocks, with no N x N list, and the inversion
on the rows of the BOOL closure, which come back as bytes and which zeta
keeps.  eta^-1 solves from the cover rows alone, since the solve reads
nothing on or left of the diagonal.

Each label route evaluates its own formula from the prefix sums S and the
level sizes alone, one bytearray row at a time: every term is taken once,
as 1 off the whole run of columns it covers with one translate in C, so a
label route costs O(N^2) for N nodes.

In a cobweb every off-diagonal block of zeta, Moebius, max, eta and their
inverses is constant and every diagonal block is the identity, so each fits
in an n x n LevelMatrix: the reduced incidence algebra of Doubilet, Rota and
Stanley.  There (AB)(r, s) = sum over k of A(r, k) k_F B(k, s), so weighting
every column s right of the diagonal by s_F turns the level product into
the plain n x n product, and each level route runs the row solve of its
dense route on the size-weighted table.  A LevelMatrix is expanded to node
rows one row at a time, so a level route holds no N x N matrix.  The dense
routes serve every other poset and are the oracles the level forms are
held to.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from functools import reduce
from itertools import compress, count
from math import prod
from operator import neg, or_
from typing import Iterator, List, NamedTuple, Tuple

from .blockmat import BOOL, INT, BlockMatrix, MatrixError, _HOLES, _unit_solve, \
    _unpack_columns
from .fsequence import FSequence
from .poset import GradedPoset, PosetError


# -- cover and reflexive cover -------------------------------------------

def _cover_rows(P: GradedPoset) -> List[bytes]:
    """The rows of the cover matrix, one bytes row per node: zeros, its row
    of the cover block, zeros.  The top level shares one all-zero row."""
    N, off = P.node_count, P._offsets
    rows = []
    for k, blk in enumerate(P.blocks):
        left, right = bytes(off[k + 1]), bytes(N - off[k + 2])
        rows += [left + bytes(row) + right for row in blk]
    return rows + [bytes(N)] * P.level_sizes[-1]


def kappa(P: GradedPoset, ring=INT) -> BlockMatrix:
    """Cover relation matrix: block (k, k+1) is the k-th biadjacency block."""
    return BlockMatrix(P.level_sizes, _cover_rows(P), ring)


def _solve(P: GradedPoset, rows, ring, negate=False) -> BlockMatrix:
    """The matrix of blockmat._unit_solve on rows: the dense counterpart of
    _level_solve."""
    return BlockMatrix(P.level_sizes, _unit_solve(rows, P.level_sizes, ring, negate), ring)


def eta(P: GradedPoset) -> BlockMatrix:
    """Reflexive cover I + kappa over the integers: kappa's rows, each with
    its diagonal byte set."""
    return BlockMatrix(P.level_sizes, [row[:x] + b"\1" + row[x + 1:]
                                       for x, row in enumerate(kappa(P).rows)], INT)


def eta_inverse(P: GradedPoset) -> BlockMatrix:
    """Exact inverse of eta; block (r, s) carries (-1)^(s-r) B_r ... B_(s-1)."""
    return _solve(P, _cover_rows(P), INT, True)


# -- zeta: four constructions ---------------------------------------------

ZETA_METHODS = ("closure", "label_delta", "label_knuth", "label_S")


def zeta(P: GradedPoset, method: str = "closure") -> BlockMatrix:
    """Characteristic matrix of the partial order, over the Boolean semiring.

    `closure` works for any graded poset.  The three label methods evaluate
    closed formulas in the natural labeling and are stated for cobwebs only;
    they are refused otherwise.
    """
    if method == "closure":
        return _solve(P, _cover_rows(P), BOOL)
    return BlockMatrix(*_label_rows(P, method), BOOL)


class _LabelRows(NamedTuple):
    # the rows of a label route, each made when it is read
    level_sizes: Tuple[int, ...]
    rows: Iterator[bytearray]


def _label_rows(P: GradedPoset, method: str) -> _LabelRows:
    # the method and the poset are checked here, before any row is made
    if method not in _LABEL_ROUTES:
        raise ValueError(f"unknown zeta method {method!r}")
    if not P.is_cobweb:
        raise PosetError(f"zeta method {method!r} is defined for cobwebs only")
    S = [P.S(m) for m in range(P.n_levels + 1)]
    return _LabelRows(P.level_sizes, _LABEL_ROUTES[method](S, P.level_sizes, P.node_count))


# The formulas are 1-based in x and y and the rows 0-based: column y sits at
# index y - 1, so columns x+1..e are the slice [x:e].

_MINUS_ONE = bytes([0, *range(255)])  # b -> b - 1; a run that holds a 0 is refused


def _take_one(row: bytearray, lo: int, hi: int):
    run = row[lo:hi]
    if 0 in run:
        raise MatrixError(f"a label term takes 1 off a 0 in columns {lo + 1}..{hi}")
    row[lo:hi] = run.translate(_MINUS_ONE)


def _rows_delta(S, sizes, N):
    # zeta_1 floods the upper triangle with ones: the terms delta(x+k, y),
    # k = 0..N-x, set columns x..N, and larger k fall off the matrix.
    # zeta_0 carves out the same-level staircase: the term (s, k) with
    # delta(x, S(s-1)+k) = 1 takes 1 off columns x+1..x+s_F-k.
    for x in range(1, N + 1):
        row = bytearray(x - 1) + b"\1" * (N - x + 1)
        for s in range(1, len(sizes) + 1):
            for k in range(1, sizes[s - 1] + 1):
                if x == S[s - 1] + k:
                    _take_one(row, x, x + sizes[s - 1] - k)
        yield row


def _rows_knuth(S, sizes, N):
    # Bracket form: each window (S(s-1), S(s-1) + s_F] with x inside or
    # above it takes 1 off columns x+1..S(s-1) + s_F.
    for x in range(1, N + 1):
        row = bytearray(x - 1) + b"\1" * (N - x + 1)
        for s in range(1, len(sizes) + 1):
            if x > S[s - 1]:
                _take_one(row, x, S[s - 1] + sizes[s - 1])
        yield row


def _rows_S(S, sizes, N):
    # Prefix-sum form: the same with the windows (S(m), S(m+1)].
    for x in range(1, N + 1):
        row = bytearray(x - 1) + b"\1" * (N - x + 1)
        for m in range(0, len(sizes)):
            if x > S[m]:
                _take_one(row, x, S[m + 1])
        yield row


_LABEL_ROUTES = {"label_delta": _rows_delta, "label_knuth": _rows_knuth,
                 "label_S": _rows_S}


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
        if not (1 <= r <= self.n and 1 <= s <= self.n):
            raise ValueError(f"level pair ({r}, {s}) out of range 1..{self.n}")
        return self.entries[r - 1][s - 1]


def _check_coding_levels(n: int) -> None:
    if n < 1:
        raise ValueError(f"coding matrix needs n >= 1, got {n}")


def coding_matrix(F: FSequence, n: int) -> CodingMatrix:
    """Closed form: c_(r,s) = interval_mobius(F, r, s) on and above the
    diagonal, 0 below it."""
    _check_coding_levels(n)
    return CodingMatrix(tuple(
        tuple(interval_mobius(F, r, s) if s >= r else 0 for s in range(1, n + 1))
        for r in range(1, n + 1)))


def coding_recurrence(F: FSequence, n: int) -> CodingMatrix:
    """The coding matrix grown from the Moebius recurrence instead of the
    closed form.

    Summing mu(x_r, z) over the half-open interval [x_r, y_s) level by level
    gives c_(r,s) = -(c_(r,r) + sum over r < i < s of i_F * c_(r,i)): every
    intermediate level contributes all i_F of its elements.  Solving this
    recurrence is the independent route the closed form is checked against.
    The sum is kept running along the row, so a row costs O(n).
    """
    _check_coding_levels(n)
    ent = []
    for r in range(1, n + 1):
        row = [0] * n
        row[r - 1] = 1
        acc = 1  # the bottom element x_r itself, then each finished level
        for s in range(r + 1, n + 1):
            row[s - 1] = -acc
            if s < n:  # only levels below n enter a sum: F is read up to n - 1
                acc += F.value(s) * row[s - 1]
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
        return _solve(P, zeta(P).rows, INT, True)
    if method == "recurrence":
        return BlockMatrix(P.level_sizes, _mobius_recurrence_rows(P), INT)
    if method == "closed_form":
        if not P.is_cobweb:
            raise PosetError("closed form Moebius is defined for cobwebs only")
        return level_mobius(P, "closed_form").to_block()
    raise ValueError(f"unknown mobius method {method!r}")


def reachable_sets(P: GradedPoset) -> List[int]:
    """reachable_sets(P)[x] has bit y set when x <= y, for 0-based global
    labels x and y, with no sentinel slot: one int per node, computed by
    graph traversal of the cover digraph (no matrix algebra).  Each node ORs
    the rows of its up-covers, read from its row of the cover block."""
    off = P._offsets
    reach = [1 << g for g in range(P.node_count)]
    for k in range(P.n_levels - 2, -1, -1):
        above = reach[off[k + 1]:off[k + 2]]
        for g, row in enumerate(P.blocks[k], off[k]):
            reach[g] = reduce(or_, compress(above, row), reach[g])
    return reach


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _bit_row(bits: int, width: int = 0) -> bytes:
    """The bits of `bits`, lowest first, one 0/1 byte each, padded with
    zeros to `width` bytes; built in C, with no Python loop over the bits."""
    return f"{bits:0{width}b}"[::-1].encode().translate(_ZERO_ONE)


# rows of mu solved together: each packed column holds one field per row
_BAND = 64


def _down_terms(P: GradedPoset):
    """Per node y, (L, holes, head): the strict down-set of y is every node
    of the levels below L but those in holes, plus the nodes in head, each
    list in label order.  Below L lie the levels whole in the down-set and
    then each next level at least half in it, so a level costs the fewer of
    its members and its gaps; a cobweb node has no holes and no head."""
    off, sizes = P._offsets, P.level_sizes
    # one downward traversal, the mirror of reachable_sets: each node ORs
    # the down-sets of its down-covers, read from its column of the cover
    # block; a column equal to the one before shares its OR
    down = [1 << g for g in range(P.node_count)]
    for k, blk in enumerate(P.blocks):
        below = down[off[k]:off[k + 1]]
        prev = None
        for g, column in enumerate(zip(*blk), off[k + 1]):
            if column != prev:
                prev, covered = column, reduce(or_, compress(below, column), 0)
            down[g] |= covered
    terms = []
    for lvl in range(P.n_levels):
        end = off[lvl]  # the strict down-set lies in 0 .. end - 1
        for y in range(end, off[lvl + 1]):
            strict = down[y] ^ 1 << y
            # every level below the lowest node strict misses is whole
            L = bisect_right(off, ((strict + 1) & ~strict).bit_length() - 1) - 1
            m0 = off[L]
            if m0 == end:
                terms.append((L, (), ()))
                continue
            row = _bit_row(strict >> m0, end - m0)
            while L < lvl and 2 * row.count(1, off[L] - m0, off[L + 1] - m0) >= sizes[L]:
                L += 1
            m = off[L] - m0
            terms.append((L, list(compress(count(m0), row[:m].translate(_HOLES))),
                          list(compress(count(m0 + m), row[m:]))))
    return terms


def _mobius_recurrence_rows(P: GradedPoset):
    # The rows of mu, _BAND at a time, solved from mu = I - mu N, N the
    # strict zeta, column by column from the left: mu(x, y) = [x = y] minus
    # the sum of mu(x, z) over the strict down-set of y, which _down_terms
    # reads off the cover blocks.  Column y of a band is one packed int, the
    # sum of mu(b0 + i, y) times 2^(w*i) (see blockmat), so the down-set
    # sum is a sum of whole columns: column y is minus the running total of
    # the levels below L, plus the holes, minus the head, plus its unit
    # field when y is a row of the band.  Columns left of the band's first
    # row b0 are 0 there.  |mu(x, y)| <= B_k on level k, where B_0 = 1 and
    # B_(k+1) = B_k (1 + size of level k), since mu(x, y) is minus a sum
    # over the nodes below y; w doubles from 64 while that bound can reach
    # 2^(w-2), so every field holds its entry.  blockmat._unpack_columns
    # reads the fields back as rows; no other step of the inversion runs.
    N, n, off = P.node_count, P.n_levels, P._offsets
    terms = _down_terms(P)
    bound, w = prod(size + 1 for size in P.level_sizes[:-1]), 64
    while bound >= 1 << (w - 2):
        w *= 2
    lvl = 0
    for b0 in range(0, N, _BAND):
        b1 = min(b0 + _BAND, N)
        while off[lvl + 1] <= b0:
            lvl += 1
        col = [0] * N
        get = col.__getitem__
        # minus[k]: minus the sum of the columns on the levels below k
        minus = [0] * n
        for k in range(lvl, n):
            if k > lvl:
                minus[k] = minus[k - 1] - sum(col[off[k - 1]:off[k]])
            for y in range(max(off[k], b0), off[k + 1]):
                L, holes, head = terms[y]
                v = minus[L]
                if holes:
                    v += sum(map(get, holes))
                if head:
                    v -= sum(map(get, head))
                col[y] = v + (1 << w * (y - b0)) if y < b1 else v
        zeros = [0] * b0
        for row in _unpack_columns(col[b0:], b1 - b0, w):
            yield zeros + row


def interval_mobius(F: FSequence, r: int, s: int) -> int:
    """Moebius value between any node of level r and any node of level s in
    a cobweb; depends only on the two ranks."""
    if s < r:
        warnings.warn(f"interval_mobius called with s={s} < r={r}; returning 0")
        return 0
    if s == r:
        return 1
    return (-1) ** (s - r) * kroton(F, r, s)


# -- maximal chain counting matrix -----------------------------------------

def max_matrix(P: GradedPoset) -> BlockMatrix:
    """Integer closure of the cover matrix; entry (x, y) counts the maximal
    chains of the interval [x, y], with all-ones diagonal."""
    return _solve(P, _cover_rows(P), INT)


def max_inverse(P: GradedPoset) -> BlockMatrix:
    """Identity minus the cover matrix: the exact inverse of max_matrix."""
    # a cover row is 0 on and left of the diagonal; tuples hold no spare slots
    return BlockMatrix(P.level_sizes, [(0,) * x + (1, *map(neg, row[x + 1:]))
                                       for x, row in enumerate(_cover_rows(P))], INT)


def logic_L(M: BlockMatrix) -> BlockMatrix:
    """Entrywise positivity indicator, mapping a chain-counting matrix back
    to the underlying zeta.  Refuses negative entries."""
    return BlockMatrix(M.level_sizes, _logic_L_rows(M), BOOL)


def _logic_L_rows(M: BlockMatrix):
    """The rows of logic_L(M), one at a time."""
    for i, row in enumerate(M.rows):
        for j, v in enumerate(row):
            if v < 0:
                raise MatrixError(
                    f"logic_L is undefined on negative entry {v} at ({i + 1}, {j + 1})")
        yield bytes([v > 0 for v in row])


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
    # R = I + N R (negate false) or R = I - N R on the size-weighted table;
    # over BOOL J J = J, so the weight is 1.  Column s of R then carries the
    # factor s_F right of the diagonal, and dividing it out is exact.
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
