"""F-sequences: the positive integer sequences that denominate graded posets.

A sequence F assigns to every level index k >= 1 the level cardinality
k_F = F(k).  Presets (nat, fib, gauss, const) extend themselves on demand;
custom sequences are finite and refuse indices past their end.  All derived
quantities (F-factorials, falling factorials, F-nomials) are exact: plain
Python integers and fractions.Fraction, never floats.
"""

from __future__ import annotations

from math import prod
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

if TYPE_CHECKING:
    from fractions import Fraction


class SequenceError(ValueError):
    """Invalid sequence construction or out-of-range index."""


class FSequence:
    """A positive-integer sequence with 1-based access k -> k_F.

    `values` holds the materialized prefix; `rule`, when present, produces
    the value at any 1-based index so presets can grow on demand.
    """

    def __init__(self, values, name: Optional[str] = None,
                 rule: Optional[Callable[[int], int]] = None):
        values = list(values)
        if rule is None and not values:
            raise SequenceError("custom sequence must be nonempty")
        for i, v in enumerate(values, start=1):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise SequenceError(
                    f"sequence value at index {i} must be a positive integer, got {v!r}")
        self.name = name
        self._values = values
        self._rule = rule

    def __repr__(self):
        head = ",".join(str(v) for v in self._values[:6])
        tail = ",..." if self._rule is not None or len(self._values) > 6 else ""
        return f"FSequence({self.name or 'custom'}: <{head}{tail}>)"

    def value(self, k: int) -> int:
        """k_F for a 1-based level index k."""
        if k < 1:
            raise SequenceError(f"level index must be >= 1, got {k}")
        if k > len(self._values):
            if self._rule is None:
                raise SequenceError(
                    f"sequence {self.name or 'custom'} is defined only up to index "
                    f"{len(self._values)}, got {k}")
            while k > len(self._values):
                nxt = self._rule(len(self._values) + 1)
                if nxt < 1:
                    raise SequenceError("sequence rule produced a non-positive value")
                self._values.append(nxt)
        return self._values[k - 1]

    def prefix(self, n: int):
        """List of <1_F, ..., n_F>."""
        return [self.value(k) for k in range(1, n + 1)]

    def rooted(self) -> "FSequence":
        """The sequence <1, 1_F, 2_F, ...>: a singleton level pinned in front.

        Index 1 of the result is the root level size (always 1); index k+1
        is this sequence's k_F.  Used for quantities measured from a unique
        minimal element.
        """
        parent = self
        return FSequence([1], name=f"rooted({self.name or 'custom'})",
                         rule=lambda k: parent.value(k - 1))


def preset(spec: str) -> FSequence:
    """Build a sequence from a spec string.

    Accepted forms: `nat`, `fib`, `gauss:q=<int>` with q >= 2,
    `const:<int>` with c >= 1, `file:<path>` (one positive integer per
    line, index 1 first).
    """
    if spec == "nat":
        return FSequence([], name="nat", rule=lambda k: k)
    if spec == "fib":
        # each new value adds the two stored before it
        F = FSequence([], name="fib",
                      rule=lambda k: 1 if k < 3 else F.value(k - 1) + F.value(k - 2))
        return F
    for prefix, build in (("gauss:q=", gauss), ("const:", const)):
        if spec.startswith(prefix):
            # parse here, build outside the try: SequenceError is a ValueError
            try:
                value = int(spec[len(prefix):])
            except ValueError:
                raise SequenceError(f"bad {prefix.split(':')[0]} spec {spec!r}")
            return build(value)
    if spec.startswith("file:"):
        return from_file(spec[len("file:"):])
    raise SequenceError(f"unknown sequence spec {spec!r}")


def nat() -> FSequence:
    return preset("nat")


def fib() -> FSequence:
    return preset("fib")


def gauss(q: int) -> FSequence:
    """k_F = 1 + q + ... + q^(k-1)."""
    if q < 2:
        raise SequenceError(f"gauss preset needs q >= 2, got {q}")
    # each new value is q times the stored one before it, plus 1
    F = FSequence([], name=f"gauss:q={q}",
                  rule=lambda k: 1 if k == 1 else q * F.value(k - 1) + 1)
    return F


def const(c: int) -> FSequence:
    if c < 1:
        raise SequenceError(f"const preset needs c >= 1, got {c}")
    return FSequence([], name=f"const:{c}", rule=lambda k: c)


def custom(values, name: Optional[str] = None) -> FSequence:
    """Fixed-length sequence; access past the end is an error."""
    return FSequence(values, name=name)


def from_file(path: str) -> FSequence:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    values = []
    for i, ln in enumerate(lines, start=1):
        if not ln:
            continue
        try:
            values.append(int(ln))
        except ValueError:
            raise SequenceError(f"{path}:{i}: not an integer: {ln!r}")
    return FSequence(values, name=f"file:{path}")


def f_factorial(F: FSequence, n: int) -> int:
    """n_F! = 1_F * 2_F * ... * n_F, with 0_F! = 1."""
    if n < 0:
        raise SequenceError(f"factorial index must be >= 0, got {n}")
    return prod(F.value(k) for k in range(1, n + 1))


def f_falling(F: FSequence, n: int, k: int) -> int:
    """Falling product n_F * (n-1)_F * ... * (n-k+1)_F; k = 0 gives 1."""
    if not 0 <= k <= n:
        raise SequenceError(f"falling factorial needs 0 <= k <= n, got n={n} k={k}")
    return prod(F.value(j) for j in range(n, n - k, -1))


def fnomial(F: FSequence, n: int, k: int) -> Fraction:
    """The F-nomial coefficient n_F! / (k_F! (n-k)_F!) as an exact rational."""
    if not 0 <= k <= n:
        raise SequenceError(f"fnomial needs 0 <= k <= n, got n={n} k={k}")
    from fractions import Fraction  # imported on first use: it loads decimal
    return Fraction(f_falling(F, n, k), f_factorial(F, k))


class AdmissibilityVerdict(NamedTuple):
    admissible: bool
    first_failure: Optional[tuple] = None  # (n, k) of the first non-integer F-nomial

    def __str__(self):
        if self.admissible:
            return "admissible"
        n, k = self.first_failure
        return f"first_failure({n},{k})"


def is_cobweb_admissible(F: FSequence, up_to: int) -> AdmissibilityVerdict:
    """Check that every F-nomial with 0 <= k <= n <= up_to is an integer:
    k_F! divides n_F * ... * (n-k+1)_F, which is positive since F is.
    Scans (n, k) in lexicographic order and reports the first failure."""
    if up_to < 0:
        raise SequenceError(f"up_to must be >= 0, got {up_to}")
    for n in range(0, up_to + 1):
        for k in range(0, n + 1):
            if f_falling(F, n, k) % f_factorial(F, k):
                return AdmissibilityVerdict(False, (n, k))
    return AdmissibilityVerdict(True)
