"""Exact square block matrices over the integers or the Boolean semiring.

Matrices are indexed by the natural labeling of a graded poset: block (r, s)
spans the rows of level r and the columns of level s.  Entries are plain
Python ints (so integer arithmetic is unbounded); the ring object only fixes
the meaning of + and *.  The Boolean semiring uses (or, and) and refuses
negation outright rather than faking it.

The product and the row solve hold a whole row as one Python int, the sum
of entry y times 2^(w*y), so that adding a multiple of one row to another
is one big-int operation in C (Kronecker substitution).  Over BOOL, w = 8
and | is the ring's add, so every field stays 0 or 1; a BOOL row packs from
bytes and unpacks to bytes.  Over INT an entry is signed: a negative one
borrows from the field above it.  Packing is linear, so a sum of packed
rows is exactly the packed sum, whatever the fields hold on the way, and
rows are unpacked once, at the end (see _unpack).

One pass makes both, a row x at a time: the sum of c * V[k] over the
entries c = A[x][k], where V is B in the product and the finished rows of R
in the row solve.  It takes A[x] column by column up to a start level, then
level by level: where A[x] holds one value c across a whole level, that
level adds c times the sum of its rows V[k].  This level rule is exact in
both rings by distributivity, and zeta, mu and max of a cobweb hold one
value across every level above a row's own.  Over INT a level that holds
only 0 and 1, ones on more than half of it, adds the same level sum less
the rows of its holes, with the bound of the ones alone, since a zeta row
of a poset that is not a cobweb seldom holds a whole level, but often most
of one; subtraction is exact since packing is linear, and BOOL keeps OR,
which has no inverse.  The pass fails once a bound on its entries reaches
2^(w-2), so every entry fits its field.

The closure I + K + K^2 + ... = (I - K)^-1 of a strictly upper K and the
inverse of a unitriangular I + N are one triangular system, solved a row at
a time from the bottom: row x of R is e_x plus (closure, R = I + K R) or
minus (inverse, R = I - N R) the sum over k > x of N[x][k] * R[k].  The
product starts at level 1 and assumes no triangular shape.
"""

from __future__ import annotations

import operator
import sys
from functools import reduce
from itertools import accumulate, compress
from typing import Sequence, Tuple

from .poset import check_level_sizes


class RingError(TypeError):
    """Operation not supported by the ring (for example Boolean negation)."""


class MatrixError(ValueError):
    """Shape, ring, or structure violation."""


class IntegerRing:
    """The integers: add, mul and neg are the builtins of operator, which
    do not bind as methods and cost no Python frame per entry."""
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

# the 64-bit fields of a packed row are read as native machine words
_LITTLE = sys.byteorder == "little"
# a 0/1 row to the 0/1 mask of its holes
_HOLES = bytes.maketrans(b"\0\1", b"\1\0")


class BlockMatrix:
    """Square matrix of size S(n) partitioned by level sizes.  It keeps the
    rows it is given as they come, bytes for 0/1 rows and lists or tuples
    of ints otherwise, and owns them: no caller changes a row afterwards.
    Equality and the hash read entries, not containers, so a bytes row
    equals a tuple row with the same entries."""

    def __init__(self, level_sizes: Sequence[int], rows, ring=INT):
        sizes = check_level_sizes(level_sizes, MatrixError)
        n = sum(sizes)
        rows = tuple(rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise MatrixError(f"entries must form a {n}x{n} matrix")
        self.level_sizes = sizes
        self.rows = rows
        self.ring = ring
        self._offsets = tuple(accumulate(sizes, initial=0))

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, level_sizes, ring=INT):
        n = sum(level_sizes)
        rows = [[ring.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = ring.one
        return cls(level_sizes, rows, ring)

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

    def __eq__(self, other):
        return (isinstance(other, BlockMatrix)
                and self.level_sizes == other.level_sizes
                and all(a == b or tuple(a) == tuple(b)
                        for a, b in zip(self.rows, other.rows)))

    def __hash__(self):
        return hash((self.level_sizes, *map(tuple, self.rows)))

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
    """Entrywise ring sum of two full matrices."""
    _check_compatible(A, B)
    radd = A.ring.add
    rows = [[radd(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(A.rows, B.rows)]
    return BlockMatrix(A.level_sizes, rows, A.ring)


def mul(A: BlockMatrix, B: BlockMatrix) -> BlockMatrix:
    """Exact ring product of two full matrices: each row of A B is one sum
    of B's packed rows and level sums (see the module docstring)."""
    _check_compatible(A, B)
    packed, w = _packed_rows(A.rows, A.level_sizes, A.ring, B.rows)
    return BlockMatrix(A.level_sizes, _unpack(packed, A.size, w), A.ring)


def _dot(cs, vs):
    """The sum of c * v over the pairs; where every c is 1, of v alone."""
    return sum(vs) if cs.count(1) == len(cs) else sum(map(operator.mul, cs, vs))


def _top(n, w):
    """n fields of width w, each holding only its top bit."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")


def _pack(rows, w):
    """Each row of ints as one int with entry y in the field at bit w*y;
    every entry must fit a signed field of width w, and one byte per entry
    over BOOL (w = 8)."""
    if w == 8:
        return [int.from_bytes(bytes(row), "little") for row in rows]
    import struct  # kept off the import path of every CLI call
    n = len(rows[0])
    top = _top(n, w)
    if w == 64:
        fmt = struct.Struct(f"<{n}q")
        raw = [int.from_bytes(fmt.pack(*row), "little") for row in rows]
    else:
        raw = [int.from_bytes(b"".join(v.to_bytes(w // 8, "little", signed=True)
                                       for v in row), "little") for row in rows]
    # raw holds each field in two's complement; flipping the top bits gives
    # the field plus 2^(w-1), and taking top off again leaves the signed sum
    return [(v ^ top) - top for v in raw]


def _unpack(packed, n, w):
    """Rows of n entries from packed rows of field width w: the inverse of
    _pack."""
    if w == 8:
        return [v.to_bytes(n, "little") for v in packed]
    top = _top(n, w)
    size, step = n * w // 8, w // 8
    rows = []
    for v in packed:
        # adding top lifts every field into 0 .. 2^w - 1 without a carry out
        # of it, and the xor flips its top bit back: each field in two's
        # complement
        raw = ((v + top) ^ top).to_bytes(size, "little")
        rows.append(memoryview(raw).cast("q").tolist() if w == 64 and _LITTLE else
                    [int.from_bytes(raw[i:i + step], "little", signed=True)
                     for i in range(0, size, step)])
    return rows


def _unpack_columns(packed, n, w):
    """The transpose of _unpack(packed, n, w), one row at a time: row i
    lists field i of every packed int, so packed columns read back as
    rows.  At w = 64 on a little-endian machine the words of all the ints
    lie end to end, and each row is read off them with a stride of n."""
    if w != 64 or not _LITTLE:
        yield from map(list, zip(*_unpack(packed, n, w)))
        return
    top = _top(n, w)
    words = memoryview(b"".join([((v + top) ^ top).to_bytes(n * 8, "little")
                                 for v in packed])).cast("q")
    for i in range(n):
        yield words[i::n].tolist()


def _unit_solve(rows, sizes, ring, negate):
    """Rows of R = I + N R (negate false) or R = I - N R (negate true),
    where N is the part of `rows` right of the diagonal and `sizes` are the
    level sizes; nothing else of `rows` is read."""
    packed, w = _packed_rows(rows, sizes, ring, None, negate)
    return _unpack(packed, len(rows), w)


def _packed_rows(rows, sizes, ring, B, negate=False):
    """The packed rows of _packed_pass and their field width: w = 8 over
    BOOL, and over INT w = 64 doubled until the pass succeeds."""
    w = 8 if ring is BOOL else 64
    while (packed := _packed_pass(rows, sizes, w, B, negate)) is None:
        w *= 2
    return packed, w


def _packed_pass(rows, sizes, w, B=None, negate=False):
    """The packed rows of the product rows * B, or where B is None of the
    row solve R = I + N R (I - N R if negate), at field width w (8 means
    BOOL); None once the bound on some row's entries reaches 2^(w-2)."""
    boolean, limit, n = w == 8, 1 << (w - 2), len(rows)
    off = tuple(accumulate(sizes, initial=0))
    # bound[k] >= every |V[k][y]|: the largest |B[k]| entry in the product,
    # and in the solve the sum of |c| * bound(j) over its terms, at least 1,
    # filled from the bottom up; a level's sum carries the sum of its bounds
    if B is None:
        vals = out = [0] * n
        bound = [1] * n
    else:
        bound = [1] * n if boolean else [max(max(row), -min(row)) for row in B]
        if max(bound) >= limit:
            return None
        vals, out = _pack(B, w), [0] * n
    sums = [None] * len(sizes)
    for lvl in reversed(range(len(sizes))):
        for x in reversed(range(off[lvl], off[lvl + 1])):
            row = rows[x]
            # the solve takes its own level column by column right of the
            # diagonal, and the level rule from the next level on
            s, e, first = (x + 1, off[lvl + 1], lvl + 1) if B is None else (0, 0, 0)
            seg = row[s:e]
            cs = list(compress(seg, seg))
            vs = list(compress(vals[s:e], seg))
            bs = [] if boolean else list(compress(bound[s:e], seg))
            for m in range(first, len(sizes)):
                a, b = off[m], off[m + 1]
                seg = row[a:b]
                c = seg[0]
                k = seg.count(c)
                holes = None
                if k < b - a:
                    # the holes rule: k counts the ones where c is 1 and the
                    # holes where c is 0, and the other value fills the rest,
                    # so a level mostly zeros (a cover row) pays no second count
                    if (boolean or c not in (0, 1) or 2 * (k if c else b - a - k) <= b - a
                            or seg.count(1 - c) != b - a - k):
                        cs += compress(seg, seg)
                        vs += compress(vals[a:b], seg)
                        if not boolean:
                            bs += compress(bound[a:b], seg)
                        continue
                    c, holes = 1, bytes(seg).translate(_HOLES)
                elif not c:
                    continue
                # c across level m: c times the sum of its rows
                if sums[m] is None:
                    sums[m] = (reduce(operator.or_, vals[a:b]) if boolean
                               else sum(vals[a:b]), sum(bound[a:b]))
                v, bv = sums[m]
                if holes:
                    v -= sum(compress(vals[a:b], holes))
                    bv -= sum(compress(bound[a:b], holes))
                cs.append(c)
                vs.append(v)
                bs.append(bv)
            if boolean:
                out[x] = reduce(operator.or_, vs, 1 << 8 * x if B is None else 0)
                continue
            acc, bx = _dot(cs, vs), _dot(list(map(abs, cs)), bs)
            if bx >= limit:
                return None
            if B is None:
                bound[x] = bx or 1
                acc = (1 << w * x) + (-acc if negate else acc)
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
    n, zero = sum(sizes), A.ring.zero
    shift = A.size - B.level_sizes[0]
    # on the shared level B's rows repeat A's shared block and fill its zeros
    rows = [list(row) + [zero] * (n - A.size) for row in A.rows]
    rows += [[zero] * n for _ in range(n - A.size)]
    for i, row in enumerate(B.rows, shift):
        rows[i][shift:] = row
    return BlockMatrix(sizes, rows, A.ring)
