"""Exact square block matrices over the integers or the Boolean semiring.

Matrices are indexed by the natural labeling of a graded poset: block (r, s)
spans the rows of level r and the columns of level s.  Entries are plain
Python ints (so integer arithmetic is unbounded); the ring object only fixes
the meaning of + and *.  The Boolean semiring uses (or, and) and refuses
negation outright rather than faking it.

One level rule serves the product and the row solve: where row x of A holds
one value c across a whole level, the sum over that level's k of
A[x][k] * B[k] is c times the sum of B's rows of that level, added once.
Distributivity makes this exact in both rings; it is the reduced incidence
algebra of Doubilet, Rota and Stanley, and zeta, mu and max of a cobweb hold
one value across every level above a row's own.

mul applies it to every level of more than one node, building each level's
sum on first use; every other nonzero a of A walks the nonzero (j, b) pairs
of its row of B.  No triangular shape is assumed.

The closure I + K + K^2 + ... = (I - K)^-1 of a strictly upper K and the
inverse of a unitriangular I + N are one triangular system, solved a row at a
time from the bottom: row x of R is e_x plus (closure, R = I + K R) or minus
(inverse, R = I - N R) the sum over k > x of N[x][k] * R[k], with the level
rule on every higher level.  Row k of R is zero left of its diagonal, and in
a graded poset also across the rest of its own level and past its last
comparable node, so each finished row is kept right of its diagonal from its
first to its last nonzero: a coefficient adds only that trimmed span, with
one C-level map of the ring's addition.  The level algebra of cobwebs runs
the same solve on its n x n table once each column is weighted by the size
of its level (see incidence.py).
"""

from __future__ import annotations

import operator
from itertools import accumulate, repeat
from typing import Sequence, Tuple

from .poset import check_level_sizes


class RingError(TypeError):
    """Operation not supported by the ring (for example Boolean negation)."""


class MatrixError(ValueError):
    """Shape, ring, or structure violation."""


class IntegerRing:
    # builtins from operator do not bind as methods, and calling them costs
    # no Python frame per entry
    name = "int"
    zero = 0
    one = 1
    add = operator.add
    mul = operator.mul
    neg = operator.neg

    def __reduce__(self):
        # pickled and copied by name, so `ring is INT` survives a round trip
        return "INT"


class BooleanSemiring:
    """Two-element semiring: add = or, mul = and, no additive inverse."""
    name = "bool"
    zero = 0
    one = 1
    add = operator.or_
    mul = operator.and_

    @staticmethod
    def neg(a):
        raise RingError("the Boolean semiring has no negation")

    def __reduce__(self):
        return "BOOL"


INT = IntegerRing()
BOOL = BooleanSemiring()


class BlockMatrix:
    """Square matrix of size S(n) partitioned by level sizes."""

    def __init__(self, level_sizes: Sequence[int], rows, ring=INT):
        sizes = check_level_sizes(level_sizes, MatrixError)
        n = sum(sizes)
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise MatrixError(f"entries must form a {n}x{n} matrix")
        self.level_sizes = sizes
        self.rows = rows
        self.ring = ring
        self._offsets = tuple(accumulate(sizes, initial=0))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, level_sizes, ring=INT):
        n = sum(level_sizes)
        return cls(level_sizes, [[ring.zero] * n for _ in range(n)], ring)

    @classmethod
    def identity(cls, level_sizes, ring=INT):
        n = sum(level_sizes)
        rows = [[ring.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = ring.one
        return cls(level_sizes, rows, ring)

    @classmethod
    def from_band_blocks(cls, level_sizes, band_blocks, ring=INT):
        """Place the given blocks on the first superdiagonal block band.

        band_blocks[k] sits at block (k+1, k+2), the shape of a cover
        relation between adjacent levels.
        """
        sizes = check_level_sizes(level_sizes, MatrixError)
        if len(band_blocks) != len(sizes) - 1:
            raise MatrixError("one band block per adjacent level pair required")
        n = sum(sizes)
        rows = [[ring.zero] * n for _ in range(n)]
        r0 = 0
        for k, blk in enumerate(band_blocks):
            c0 = r0 + sizes[k]
            for i, row in enumerate(blk):
                rows[r0 + i][c0:c0 + len(row)] = row
            r0 = c0
        return cls(sizes, rows, ring)

    # -- bookkeeping ------------------------------------------------------

    @property
    def size(self) -> int:
        return self._offsets[-1]

    @property
    def n_levels(self) -> int:
        return len(self.level_sizes)

    def block(self, r: int, s: int) -> Tuple[Tuple[int, ...], ...]:
        """The (r, s) block, levels 1-based."""
        if not (1 <= r <= self.n_levels and 1 <= s <= self.n_levels):
            raise MatrixError(f"block ({r}, {s}) out of range 1..{self.n_levels}")
        off = self._offsets
        return tuple(tuple(row[off[s - 1]:off[s]])
                     for row in self.rows[off[r - 1]:off[r]])

    def with_ring(self, ring) -> "BlockMatrix":
        """Reinterpret the same entries over another ring."""
        return BlockMatrix(self.level_sizes, self.rows, ring)

    def __eq__(self, other):
        return (isinstance(other, BlockMatrix)
                and self.level_sizes == other.level_sizes
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.level_sizes, self.rows))

    def __repr__(self):
        return (f"BlockMatrix({self.ring.name}, sizes={list(self.level_sizes)}, "
                f"{self.size}x{self.size})")

    # -- structure predicates ----------------------------------------------
    # each row is one C-level count of the zeros where zeros must stand

    def is_strictly_upper_block(self) -> bool:
        """Zero at every (x, y) with level(x) >= level(y)."""
        zero, off = self.ring.zero, self._offsets
        return all(row[:end].count(zero) == end
                   for start, end in zip(off, off[1:]) for row in self.rows[start:end])

    def is_unitriangular(self) -> bool:
        """Ones on the diagonal, zeros strictly below."""
        zero, one = self.ring.zero, self.ring.one
        return all(row[i] == one and row[:i].count(zero) == i
                   for i, row in enumerate(self.rows))


def _check_compatible(A: BlockMatrix, B: BlockMatrix):
    if A.level_sizes != B.level_sizes:
        raise MatrixError(
            f"level size mismatch: {A.level_sizes} vs {B.level_sizes}")
    if A.ring is not B.ring:
        raise MatrixError(f"ring mismatch: {A.ring.name} vs {B.ring.name}")


def add(A: BlockMatrix, B: BlockMatrix) -> BlockMatrix:
    _check_compatible(A, B)
    radd = A.ring.add
    rows = [[radd(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(A.rows, B.rows)]
    return BlockMatrix(A.level_sizes, rows, A.ring)


def mul(A: BlockMatrix, B: BlockMatrix) -> BlockMatrix:
    """Exact ring product of two full matrices, by the level rule (see the
    module docstring); nonzero pairs and level sums of B are built on first
    use, once per product."""
    _check_compatible(A, B)
    ring = A.ring
    zero, one, radd, rmul = ring.zero, ring.one, ring.add, ring.mul
    n, off = A.size, A._offsets
    bnz = [None] * n
    sums = {}
    out = []
    for arow in A.rows:
        acc = [zero] * n
        for a, b in zip(off, off[1:]):
            c = arow[a]
            if b - a > 1 and arow[a:b].count(c) == b - a:
                if c != zero:
                    if a not in sums:
                        tot = [zero] * n
                        for brow in B.rows[a:b]:
                            tot = list(map(radd, tot, brow))
                        sums[a] = _span(tot, 0, zero)
                    s, vals = sums[a]
                    e = s + len(vals)
                    if c != one:
                        vals = map(rmul, repeat(c), vals)
                    acc[s:e] = map(radd, acc[s:e], vals)
                continue
            for k, v in enumerate(arow[a:b], a):
                if v != zero:
                    if bnz[k] is None:
                        bnz[k] = [(j, x) for j, x in enumerate(B.rows[k]) if x != zero]
                    for j, x in bnz[k]:
                        acc[j] = radd(acc[j], rmul(v, x))
        out.append(acc)
    return BlockMatrix(A.level_sizes, out, ring)


def _span(acc, s, zero):
    """(s', acc[s':e]): acc from column s on is zero outside s' .. e - 1."""
    e = len(acc)
    while s < e and acc[s] == zero:
        s += 1
    while e > s and acc[e - 1] == zero:
        e -= 1
    return s, acc[s:e]


def _unit_solve(rows, sizes, ring, negate):
    """Rows of R = I + N R (negate false) or R = I - N R (negate true),
    where N is the part of `rows` right of the diagonal and `sizes` are the
    level sizes; nothing else of `rows` is read."""
    n = len(rows)
    zero, one, radd, rmul = ring.zero, ring.one, ring.add, ring.mul
    off = tuple(accumulate(sizes, initial=0))
    out = [None] * n
    # parts[k] = (s, vals): row k of R right of its diagonal is zero outside
    # columns s .. s + len(vals) - 1, where it holds vals
    parts = [None] * n
    sums = [None] * len(sizes)
    for lvl in reversed(range(len(sizes))):
        for x in reversed(range(off[lvl], off[lvl + 1])):
            # N R = N + N (R - I): N[x] itself carries every diagonal term
            row = rows[x]
            acc = [zero] * (x + 1) + list(row[x + 1:])
            terms = [(v, parts[k]) for k, v in enumerate(row[x + 1:off[lvl + 1]], x + 1)
                     if v != zero]
            for m in range(lvl + 1, len(sizes)):
                a, b = off[m], off[m + 1]
                c = row[a]
                if row[a:b].count(c) < b - a:
                    terms += [(v, parts[k]) for k, v in enumerate(row[a:b], a) if v != zero]
                elif c != zero:
                    # one c across level m: c times sums[m], its parts' sum
                    if sums[m] is None:
                        tot = [zero] * n
                        for s, vals in parts[a:b]:
                            tot[s:s + len(vals)] = map(radd, tot[s:s + len(vals)], vals)
                        sums[m] = (a, tot[a:])
                    terms.append((c, sums[m]))
            for c, (s, vals) in terms:
                e = s + len(vals)
                if c != one:
                    vals = map(rmul, repeat(c), vals)
                acc[s:e] = map(radd, acc[s:e], vals)
            if negate:
                acc[x + 1:] = map(ring.neg, acc[x + 1:])
            parts[x] = _span(acc, x + 1, zero)
            acc[x] = one
            out[x] = acc
    return out


def nilpotent_closure(K: BlockMatrix) -> BlockMatrix:
    """I + K + K^2 + ... for strictly upper block K; the series terminates."""
    if not K.is_strictly_upper_block():
        raise MatrixError("closure requires a strictly upper block matrix")
    return BlockMatrix(K.level_sizes, _unit_solve(K.rows, K.level_sizes, K.ring, False), K.ring)


def unitriangular_inverse(M: BlockMatrix) -> BlockMatrix:
    """Inverse of I + N with N strictly upper, over a ring with negation,
    so mul(M, result) == I exactly."""
    ring = M.ring
    ring.neg(ring.one)  # raises RingError over a ring without negation
    if not M.is_unitriangular():
        raise MatrixError("inverse requires a unitriangular matrix")
    return BlockMatrix(M.level_sizes, _unit_solve(M.rows, M.level_sizes, ring, True), ring)


def natural_join(A: BlockMatrix, B: BlockMatrix) -> BlockMatrix:
    """Glue two block matrices along a shared level, the matrix counterpart
    of joining posets: A's last diagonal block must equal B's first.  Entries
    outside both spans are zero."""
    if A.ring is not B.ring:
        raise MatrixError(f"ring mismatch: {A.ring.name} vs {B.ring.name}")
    if A.level_sizes[-1] != B.level_sizes[0]:
        raise MatrixError(
            f"join condition violated: {A.level_sizes[-1]} vs {B.level_sizes[0]}")
    if A.block(A.n_levels, A.n_levels) != B.block(1, 1):
        raise MatrixError("shared diagonal block disagrees between operands")
    sizes = A.level_sizes + B.level_sizes[1:]
    n = sum(sizes)
    shift = A.size - B.level_sizes[0]
    rows = [[A.ring.zero] * n for _ in range(n)]
    for i, row in enumerate(A.rows):
        rows[i][:A.size] = row
    for i, row in enumerate(B.rows):
        for j, v in enumerate(row):
            if v != B.ring.zero:
                rows[shift + i][shift + j] = v
    return BlockMatrix(sizes, rows, A.ring)
