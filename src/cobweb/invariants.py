"""Rooted-poset quantities: Whitney numbers and characteristic polynomials.

Everything here needs a unique minimal element, so the operations only
accept RootedPoset; handing them a plain poset is a type error rather than a
silent reinterpretation.  Each closed form is evaluated next to a direct
summation over recurrence Moebius values and the two must agree exactly.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .formats import _json_text
from .fsequence import FSequence
from .incidence import interval_mobius, level_mobius
from .poset import GradedPoset, PosetError, ones_block


class RootedPoset(GradedPoset):
    """A cobweb with a singleton bottom level: rank r = level index r
    counting the root as rank 0."""

    def __init__(self, level_sizes, blocks, sequence_name=None):
        super().__init__(level_sizes, blocks, sequence_name)
        if self.level_sizes[0] != 1:
            raise PosetError("a rooted poset needs a singleton bottom level")
        if not self.is_cobweb:
            raise PosetError("rooted quantities are defined on cobwebs")

    @property
    def top_rank(self) -> int:
        return self.n_levels - 1

    def rank_size(self, r: int) -> int:
        if not 0 <= r <= self.top_rank:
            raise PosetError(f"rank {r} out of range 0..{self.top_rank}")
        return self.level_sizes[r]

    def rooted_sequence(self) -> FSequence:
        """Level sizes <1, 1_F, 2_F, ...> reread as a 1-based sequence, so
        rank r sits at sequence index r + 1."""
        return FSequence(list(self.level_sizes))

    @classmethod
    def from_poset(cls, P: GradedPoset) -> "RootedPoset":
        return cls(P.level_sizes, P.blocks, P.sequence_name)


def root(F: FSequence, n: int) -> RootedPoset:
    """Singleton root below the n-level cobweb of F; n = 0 is a point."""
    if n < 0:
        raise PosetError(f"root needs n >= 0, got {n}")
    sizes = [1] + F.prefix(n)
    blocks = [ones_block(sizes[k], sizes[k + 1]) for k in range(n)]
    return RootedPoset(sizes, blocks, sequence_name=F.name)


def _require_rooted(P) -> RootedPoset:
    if not isinstance(P, RootedPoset):
        raise TypeError("this operation needs a RootedPoset; "
                        "wrap with RootedPoset.from_poset or build with root()")
    return P


def whitney_first(P: RootedPoset, r: int) -> int:
    """Whitney number of the first kind: sum of mu(root, x) over rank r; see char_poly."""
    P = _require_rooted(P)
    P.rank_size(r)  # refuses a rank out of range
    return char_poly(P).coefficients[r]


def whitney_second(P: RootedPoset, r: int) -> int:
    """Whitney number of the second kind: the rank size itself."""
    P = _require_rooted(P)
    return P.rank_size(r)


class _CharPoly(NamedTuple):
    # a NamedTuple may not define __new__, so CharPoly checks the fields
    coefficients: Tuple[int, ...]


class CharPoly(_CharPoly):
    """Integer coefficients of the characteristic polynomial, highest
    degree first; coefficient of t^(n-k) is the k-th Whitney number."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("characteristic polynomial must be monic")
        return self

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = acc * t + c
        return acc

    def to_json(self) -> str:
        return _json_text(self.coefficients)


def char_poly(P: RootedPoset) -> CharPoly:
    """Characteristic polynomial: the coefficient of t^(n - r) is the Whitney
    number of rank r.  Each is computed both from the closed form (rank size
    times the signed Kroton value) and as the direct sum of mu(root, x) over
    rank r: every node of rank r carries c_(1, r+1) from row 1 of the coding
    recurrence, so the sum is the rank size times it.  A mismatch raises."""
    P = _require_rooted(P)
    F, row = P.rooted_sequence(), level_mobius(P, "recurrence").entries[0]
    coeffs = []
    for r, size in enumerate(P.level_sizes):
        closed = size * interval_mobius(F, 1, r + 1)
        direct = size * row[r]
        if closed != direct:
            raise ArithmeticError(
                f"whitney_first({r}): closed form {closed} != direct sum {direct}")
        coeffs.append(closed)
    return CharPoly(tuple(coeffs))
