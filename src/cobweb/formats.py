"""Serialization and rendering: poset JSON, matrix CSV/JSON, DOT export,
and the ASCII staircase view of the zeta matrix."""

from __future__ import annotations

import json
from typing import IO, List, NamedTuple, Tuple

from .blockmat import INT, BlockMatrix
from .chains import Chain, HyperBox
from .incidence import CodingMatrix, level_zeta, zeta
from .poset import GradedPoset, PosetError, check_layer_bounds, check_level_sizes, \
    first_non_binary


class FormatError(ValueError):
    """Malformed serialized input; the message names the offending path."""


# -- poset JSON -------------------------------------------------------------

def poset_to_json(P: GradedPoset) -> str:
    """Canonical poset JSON, fields in fixed order."""
    obj = {
        "level_sizes": P.level_sizes,
        "blocks": P.blocks,
        "flags": {"cobweb": P.is_cobweb, "no_mute": not P.has_mute_nodes},
        "sequence": P.sequence_name,
    }
    return json.dumps(obj)


def _level_sizes(obj) -> Tuple[int, ...]:
    """obj["level_sizes"] through the poset's size check."""
    sizes = obj["level_sizes"]
    try:
        return check_level_sizes(sizes if isinstance(sizes, list) else ())
    except PosetError:
        raise FormatError("level_sizes: expected a nonempty list of positive integers") from None


def poset_from_json(text: str) -> GradedPoset:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise FormatError("top level: expected an object")
    for key in ("level_sizes", "blocks", "flags", "sequence"):
        if key not in obj:
            raise FormatError(f"{key}: missing field")
    sizes = _level_sizes(obj)
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or len(blocks) != len(sizes) - 1:
        raise FormatError(f"blocks: expected {len(sizes) - 1} blocks")
    for k, blk in enumerate(blocks):
        if not isinstance(blk, list) or len(blk) != sizes[k]:
            raise FormatError(f"blocks[{k}]: expected {sizes[k]} rows")
        for i, row in enumerate(blk):
            if not isinstance(row, list) or len(row) != sizes[k + 1]:
                raise FormatError(f"blocks[{k}][{i}]: expected {sizes[k + 1]} entries")
    name = obj["sequence"]
    # the shapes are sound, so the poset refuses only an entry that is not
    # the int 0 or 1; each entry is checked there, once
    try:
        P = GradedPoset(sizes, blocks, sequence_name=name)
    except PosetError:
        bad = first_non_binary(blocks)
        if bad is None:
            raise
        k, i, j, v = bad
        raise FormatError(f"blocks[{k}][{i}][{j}]: expected 0 or 1, got {v!r}") from None
    flags = obj["flags"]
    if (not isinstance(flags, dict) or set(flags) != {"cobweb", "no_mute"}
            or any(not isinstance(b, bool) for b in flags.values())):
        raise FormatError("flags: expected {cobweb: bool, no_mute: bool}")
    if name is not None and not isinstance(name, str):
        raise FormatError("sequence: expected a string or null")
    # flags are stored redundantly; recompute and insist they match
    if flags["cobweb"] != P.is_cobweb:
        raise FormatError(f"flags.cobweb: stored {flags['cobweb']}, recomputed {P.is_cobweb}")
    if flags["no_mute"] != (not P.has_mute_nodes):
        raise FormatError(
            f"flags.no_mute: stored {flags['no_mute']}, recomputed {not P.has_mute_nodes}")
    return P


# -- matrix CSV / JSON -------------------------------------------------------
#
# Both writers stream one row at a time and take a dense BlockMatrix or a
# cobweb LevelMatrix; the latter is expanded here and never held densely.

def write_matrix_csv(M, out: IO[str]):
    """Row-major CSV, plain decimal integers, streamed row by row."""
    for text in _row_texts(M, ","):
        out.write(text)
        out.write("\n")


def write_matrix_json(M, out: IO[str]):
    out.write('{"level_sizes":%s,"entries":[' % json.dumps(M.level_sizes))
    for i, text in enumerate(_row_texts(M, ", ")):
        out.write("," if i else "")
        out.write("[" + text + "]")
    out.write("]}")


def _row_texts(M, sep: str):
    """Each row's entries in decimal, joined by sep.  A LevelMatrix row is
    put together from text built once per level: the zeros left of the
    diagonal 1, and the constant tail right of the diagonal block."""
    if isinstance(M, BlockMatrix):
        for row in M.rows:
            yield sep.join(map(str, row))
        return
    zero, zsep = "0" + sep, sep + "0"
    for before, size, runs in M.level_rows():
        tail = "".join(sep + sep.join([str(v)] * count) for v, count in runs)
        for i in range(size):
            yield zero * (before + i) + "1" + zsep * (size - 1 - i) + tail


def matrix_from_json(text: str) -> BlockMatrix:
    """An integer BlockMatrix; every entry must be a JSON integer."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"not valid JSON: {e}")
    if not isinstance(obj, dict) or "level_sizes" not in obj or "entries" not in obj:
        raise FormatError("expected {level_sizes, entries}")
    sizes, entries = _level_sizes(obj), obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise FormatError("entries: expected a list of rows, each a list of integers")
    n = sum(sizes)
    if len(entries) != n or any(len(row) != n for row in entries):
        raise FormatError(f"entries: expected {n} rows of {n} integers")
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if type(v) is not int:
                raise FormatError(f"entries[{i}][{j}]: expected an integer, got {v!r}")
    return BlockMatrix(sizes, entries, INT)


def coding_to_json(C: CodingMatrix) -> str:
    return json.dumps({"c": C.entries},
                      separators=(",", ":"))


def chains_to_json(chains: List[Chain]) -> str:
    """Chains as arrays of [level, position] pairs."""
    return json.dumps([[[c.start_level + i, p] for i, p in enumerate(c.positions)]
                       for c in chains])


def write_chains_json(P: GradedPoset, k: int, n: int, out: IO[str]):
    """The maximal chains of levels k..n in the order and the bytes of
    chains_to_json(enumerate_max_chains(P, k, n)), built as text.  A depth-
    first walk over the blocks carries each chain's prefix as text, and the
    chains through one node of level n - 1 go out in one write."""
    check_layer_bounds(P, k, n)
    # frags[d][j]: the pair of position j + 1 on level k + d
    frags = [[f"[{k + d}, {p}]" for p in range(1, size + 1)]
             for d, size in enumerate(P.level_sizes[k - 1:n])]
    ups = [[[j for j, v in enumerate(row) if v] for row in blk]
           for blk in P.blocks[k - 1:n - 1]]
    sep = "["

    def walk(d, prefix, nodes):
        nonlocal sep
        if d < n - k:
            for j in nodes:
                walk(d + 1, prefix + frags[d][j] + ", ", ups[d][j])
        elif nodes:
            out.write(sep + ", ".join([prefix + frags[d][j] + "]" for j in nodes]))
            sep = ", "

    walk(0, "[", range(len(frags[0])))
    out.write("[]" if sep == "[" else "]")


def hyperbox_to_json(box: HyperBox, include_points: bool = False) -> str:
    obj = {"lo": box.lo, "hi": box.hi, "dims": box.dims}
    if include_points:
        obj["points"] = list(box.points())
    return json.dumps(obj)


# -- DOT export ---------------------------------------------------------------

def to_dot(P: GradedPoset) -> str:
    """Hasse digraph in DOT: nodes v<level>_<position>, one same-rank group
    per level, minimal elements drawn at the bottom, arcs directed upward."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for level, size in enumerate(P.level_sizes, start=1):
        names = " ".join(f"v{level}_{i};" for i in range(1, size + 1))
        lines.append(f"  {{ rank=same; {names} }}")
    for k, blk in enumerate(P.blocks, start=1):
        for i, row in enumerate(blk, start=1):
            for j, v in enumerate(row, start=1):
                if v == 1:
                    lines.append(f"  v{k}_{i} -> v{k + 1}_{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- La Scala rendering --------------------------------------------------------

class LaScalaRender(NamedTuple):
    """ASCII view of zeta: '1' where comparable, '.' for the staircase zeros
    above the diagonal, blank below it."""
    lines: Tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def __str__(self):
        return self.text


def la_scala(P: GradedPoset) -> LaScalaRender:
    """A cobweb is drawn from the rows of its level zeta, any other poset
    from its dense zeta closure."""
    rows = level_zeta(P).rows() if P.is_cobweb else zeta(P, "closure").rows
    out = []
    for i, row in enumerate(rows):
        cells = []
        for j, v in enumerate(row):
            if v:
                cells.append("1")
            elif j > i:
                cells.append(".")
            else:
                cells.append(" ")
        out.append(" ".join(cells))
    return LaScalaRender(tuple(out))
