"""Rooted-poset quantities: Moebius values from the root, Whitney numbers,
characteristic polynomials.

Everything here needs a unique minimal element, so the operations only
accept RootedPoset; handing them a plain poset is a type error rather than a
silent reinterpretation.  Each closed form is evaluated next to a direct
summation over recurrence Moebius values and the two must agree exactly.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Tuple

from .fsequence import FSequence
from .incidence import interval_mobius
from .poset import GradedPoset, NodeLabel, PosetError, ones_block


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
    sizes = F.rooted().prefix(n + 1)
    blocks = [ones_block(sizes[k], sizes[k + 1]) for k in range(n)]
    return RootedPoset(sizes, blocks, sequence_name=F.name)


def _require_rooted(P) -> RootedPoset:
    if not isinstance(P, RootedPoset):
        raise TypeError("this operation needs a RootedPoset; "
                        "wrap with RootedPoset.from_poset or build with root()")
    return P


def mobius_from_root(P: RootedPoset, x: NodeLabel) -> int:
    """mu(root, x): the rank-only interval value over the rooted sequence,
    an alternating product of (size - 1) over the ranks strictly between
    0 and rank(x)."""
    _require_rooted(P)
    return interval_mobius(P.rooted_sequence(), 1, x.level)


def _root_mobius_row(P: RootedPoset) -> List[int]:
    """mu(root, x) for every node, by the interval recurrence alone.

    In a rooted cobweb the half-open interval [root, x) is exactly the union
    of the levels below x, so mu(root, x) = -(sum of mu(root, z) over those
    levels).  This is the oracle the closed form is held to.
    """
    row = [0] * (P.node_count + 1)
    row[1] = 1
    below = 1  # running sum of mu(root, z) over all completed levels
    for level in range(2, P.n_levels + 1):
        val = -below
        size = P.level_sizes[level - 1]
        start = P.S(level - 1)
        for pos in range(1, size + 1):
            row[start + pos] = val
        below += size * val
    return row


def whitney_first(P: RootedPoset, r: int) -> int:
    """Whitney number of the first kind: sum of mu(root, x) over rank r.

    Computed both from the closed form (rank size times the signed Kroton
    value) and by direct summation of recurrence Moebius values; a mismatch
    raises.
    """
    P = _require_rooted(P)
    closed = P.rank_size(r) * interval_mobius(P.rooted_sequence(), 1, r + 1)
    row = _root_mobius_row(P)
    direct = sum(row[x.global_label] for x in P.nodes() if x.level - 1 == r)
    if closed != direct:
        raise ArithmeticError(
            f"whitney_first({r}): closed form {closed} != direct sum {direct}")
    return closed


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

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = acc * t + c
        return acc

    def to_json(self) -> str:
        return json.dumps(self.coefficients)

    def __str__(self):
        n = self.degree
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            deg = n - k
            mag = abs(c)
            if deg == 0:
                term = str(mag)
            else:
                base = "t" if deg == 1 else f"t^{deg}"
                term = base if mag == 1 else f"{mag}{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def char_poly(P: RootedPoset) -> CharPoly:
    """Characteristic polynomial: the coefficient of t^(n - r) is the Whitney
    number of rank r.  whitney_first holds each one to the direct sum of
    mu(root, x) over rank r, so the whole polynomial is cross-checked there."""
    P = _require_rooted(P)
    return CharPoly(tuple(whitney_first(P, r) for r in range(P.top_rank + 1)))
