"""Exact square block matrices over the integers or the Boolean semiring.

Matrices are indexed by the natural labeling of a graded poset: block (r, s)
spans the rows of level r and the columns of level s.  Entries are plain
Python ints (so integer arithmetic is unbounded); a ring is a name and the
+ and * of its entries.  Where BOOL differs from INT beyond (or, and), the
code says so by `ring is BOOL`: the solve's field width, and the inverse,
which BOOL refuses since it has no negation.

The row solve holds a whole row as one Python int, the sum of entry y
times 2^(w*y), so that adding a multiple of one row to another is one
big-int operation in C (Kronecker substitution).  Over BOOL, w = 8 and | is
the ring's add, so every field stays 0 or 1; a BOOL row unpacks to bytes.
Over INT an entry is signed: a negative one borrows from the field above
it.  Packing is linear, so a sum of packed rows is exactly the packed sum,
whatever the fields hold on the way, and rows are unpacked once, at the end
(see _unpack).

The closure I + K + K^2 + ... = (I - K)^-1 of a strictly upper K and the
inverse of a unitriangular I + N are one triangular system, solved by one
pass a row at a time from the bottom: row x of R is e_x plus (closure,
R = I + K R) or minus (inverse, R = I - N R) the sum of c * R[k] over the
entries c = N[x][k], k > x.  The pass takes N[x] column by column across
x's own level, then level by level: where N[x] holds one value c across a
whole level, that level adds c times the sum of its rows R[k].  This level
rule is exact in both rings by distributivity, and zeta, mu and max of a
cobweb hold one value across every level above a row's own.  Over INT a
level that holds only 0 and 1, ones on more than half of it, adds the same
level sum less the rows of its holes, with the bound of the ones alone,
since a zeta row of a poset that is not a cobweb seldom holds a whole
level, but often most of one; subtraction is exact since packing is
linear, and BOOL keeps OR, which has no inverse.  The pass fails once a
bound on its entries reaches 2^(w-2), so every entry fits its field.

mul is a plain row product and shares no step with the pass, so an inverse
law read through it does not lean on the solve it checks.
"""

from __future__ import annotations

import operator
import sys
from functools import reduce
from itertools import accumulate, compress, repeat
from typing import Sequence, Tuple

from .poset import check_level_sizes


class RingError(TypeError):
    """Operation not supported by the ring (for example Boolean negation)."""


class MatrixError(ValueError):
    """Shape, ring, or structure violation."""


class Ring:
    """A ring by its name and the + and * of its entries, builtins of
    operator that cost no Python frame per entry; 0 and 1 are its zero and
    one."""

    def __init__(self, name, add, mul):
        self.name, self.add, self.mul = name, add, mul

    def __reduce__(self):
        # pickled and copied by name, so `ring is INT` survives a round trip
        return self.name.upper()

    __repr__ = __reduce__


INT = Ring("int", operator.add, operator.mul)
BOOL = Ring("bool", operator.or_, operator.and_)

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
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
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
        off = self._offsets
        return all(row[:end].count(0) == end
                   for start, end in zip(off, off[1:]) for row in self.rows[start:end])

    def is_unitriangular(self) -> bool:
        """Ones on the diagonal, zeros strictly below."""
        return all(row[i] == 1 and row[:i].count(0) == i
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
    """Exact ring product of two full matrices: row x of A B is the ring
    sum of c * B[k] over the nonzero entries c = A[x][k], and c = 1 adds
    B[k] as it is."""
    _check_compatible(A, B)
    ring = A.ring
    out = []
    for row in A.rows:
        acc = [0] * A.size
        for c, term in zip(row, B.rows):
            if c:
                acc = list(map(ring.add, acc, term if c == 1 else map(ring.mul, repeat(c), term)))
        out.append(acc)
    return BlockMatrix(A.level_sizes, out, ring)


def _dot(cs, vs):
    """The sum of c * v over the pairs; where every c is 1, of v alone."""
    return sum(vs) if cs.count(1) == len(cs) else sum(map(operator.mul, cs, vs))


def _top(n, w):
    """n fields of width w, each holding only its top bit."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")


def _unpack(packed, n, w):
    """Rows of n entries from packed rows of field width w, entry y of a
    row read from the field at bit w*y."""
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
    level sizes; nothing else of `rows` is read.  The fields are w = 8 wide
    over BOOL, and over INT w = 64 doubled until the pass succeeds."""
    w = 8 if ring is BOOL else 64
    while (packed := _packed_pass(rows, sizes, w, negate)) is None:
        w *= 2
    return _unpack(packed, len(rows), w)


def _packed_pass(rows, sizes, w, negate=False):
    """The packed rows of the row solve R = I + N R (I - N R if negate) at
    field width w (8 means BOOL); None once the bound on some row's entries
    reaches 2^(w-2)."""
    boolean, limit, n = w == 8, 1 << (w - 2), len(rows)
    off = tuple(accumulate(sizes, initial=0))
    # packed row vals[k] and, over INT only, bound[k] >= every |R[k][y]|,
    # the sum of |c| * bound(j) over its terms and at least 1, fill from the
    # bottom up; an INT level's sum carries the sum of its bounds
    vals, bound = [None] * n, [None] * n
    sums = [None] * len(sizes)
    for lvl in reversed(range(len(sizes))):
        e = off[lvl + 1]
        for x in reversed(range(off[lvl], e)):
            row = rows[x]
            # its own level column by column right of the diagonal, and the
            # level rule from the next level on
            seg = row[x + 1:e]
            vs = list(compress(vals[x + 1:e], seg))
            cs = [] if boolean else list(compress(seg, seg))
            bs = [] if boolean else list(compress(bound[x + 1:e], seg))
            for m in range(lvl + 1, len(sizes)):
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
                        vs += compress(vals[a:b], seg)
                        if not boolean:
                            cs += compress(seg, seg)
                            bs += compress(bound[a:b], seg)
                        continue
                    c, holes = 1, bytes(seg).translate(_HOLES)
                elif not c:
                    continue
                # c across level m: c times the sum of its rows
                if sums[m] is None:
                    sums[m] = ((reduce(operator.or_, vals[a:b]), None) if boolean
                               else (sum(vals[a:b]), sum(bound[a:b])))
                v, bv = sums[m]
                if holes:
                    v -= sum(compress(vals[a:b], holes))
                    bv -= sum(compress(bound[a:b], holes))
                cs.append(c)
                vs.append(v)
                bs.append(bv)
            if boolean:
                vals[x] = reduce(operator.or_, vs, 1 << 8 * x)
                continue
            acc, bx = _dot(cs, vs), _dot(list(map(abs, cs)), bs)
            if bx >= limit:
                return None
            bound[x] = bx or 1
            vals[x] = (1 << w * x) + (-acc if negate else acc)
    return vals


def nilpotent_closure(K: BlockMatrix) -> BlockMatrix:
    """I + K + K^2 + ... for strictly upper block K; the series terminates."""
    if not K.is_strictly_upper_block():
        raise MatrixError("closure requires a strictly upper block matrix")
    return BlockMatrix(K.level_sizes, _unit_solve(K.rows, K.level_sizes, K.ring, False), K.ring)


def unitriangular_inverse(M: BlockMatrix) -> BlockMatrix:
    """Inverse of I + N with N strictly upper, over a ring with negation,
    so mul(M, result) == I exactly."""
    if M.ring is BOOL:
        raise RingError("the Boolean semiring has no negation")
    if not M.is_unitriangular():
        raise MatrixError("inverse requires a unitriangular matrix")
    return BlockMatrix(M.level_sizes, _unit_solve(M.rows, M.level_sizes, M.ring, True), M.ring)


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
    n, shift = sum(sizes), A.size - B.level_sizes[0]
    # on the shared level B's rows repeat A's shared block and fill its zeros
    rows = [list(row) + [0] * (n - A.size) for row in A.rows]
    rows += [[0] * n for _ in range(n - A.size)]
    for i, row in enumerate(B.rows, shift):
        rows[i][shift:] = row
    return BlockMatrix(sizes, rows, A.ring)
