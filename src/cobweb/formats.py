"""Serialization and rendering: poset JSON, matrix CSV/JSON, DOT export,
and the ASCII staircase view of the zeta matrix.

A poset's JSON and a gen --blocks file are canonical: the text json.dumps
writes of the object, in the field order of poset_to_json.  poset_to_json
writes it without the json module, a cobweb's blocks from its level sizes
and any other poset's 0/1 rows as digits.  A canonical text, optionally
followed by whitespace, is read back without the json module too: a cobweb
from its level sizes, without decoding one entry, and any other blocks by
splitting their rows on fixed separators.  Such a text is taken only when
what it builds writes the text itself again; every other text goes to
json.loads.  GradedPoset checks the blocks either way, so every text gives
the same poset, or the same message, on both routes.  Three plain kinds of
value are written and read by hand as well, each as json.dumps writes it:
a list of ints, each int as its str with ", " between; null; and a name of
printable ASCII with no '"' or '\\' in quotes, since json.dumps escapes
only those two and what is not printable ASCII.
"""

from __future__ import annotations

from typing import IO, List

from .chains import Chain, _walk
from .incidence import CodingMatrix, LevelMatrix, level_zeta, zeta
from .poset import GradedPoset, PosetError, check_layer_bounds, check_level_sizes, \
    cobweb_of_sizes


class FormatError(ValueError):
    """Malformed serialized input; the message names the offending path."""


# -- poset JSON -------------------------------------------------------------
#
# The loader reads a poset's sizes off the head of a text and its name off
# the tail.  A cobweb's text is checked for the length its sizes fix before
# any text or poset is built, so a short file that claims huge levels costs
# only its own length; any other poset's blocks are split out of the text.

_SIZES_HEAD = '{"level_sizes": '
_BLOCKS_KEY = ', "blocks": '
_FLAGS_KEY = ', "flags": {"cobweb": '
_COBWEB_FLAGS = 'true, "no_mute": true}'
_NAME_KEY = ', "sequence": '
# an entry 0..9 to its digit, any other byte to '?', and the digits 0 and 1
# back to their entries
_DIGITS = bytes.maketrans(bytes(range(256)), b"0123456789" + b"?" * 246)
_BITS = bytes.maketrans(b"01", b"\0\1")


def _json_text(value) -> str:
    """json.dumps(value), by hand for the plain texts of the module docstring."""
    if value is None:
        return "null"
    if (isinstance(value, str) and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):
        return f'"{value}"'
    if isinstance(value, (list, tuple)) and all(type(v) is int for v in value):
        return "[" + ", ".join(map(str, value)) + "]"
    import json  # kept off the import path of every CLI call
    return json.dumps(value)


def _ones_blocks_text(sizes) -> str:
    """json.dumps of the all-ones blocks between levels of these sizes."""
    return "[" + ", ".join("[" + ", ".join(["[" + "1, " * (b - 1) + "1]"] * a) + "]"
                           for a, b in zip(sizes, sizes[1:])) + "]"


def _ones_blocks_length(sizes) -> int:
    """len(_ones_blocks_text(sizes)), in O(levels): a row of b ones takes 3b
    characters, a block of a rows a(3b + 2), and each block 2 more for its
    separator or the brackets of the list."""
    return sum(a * (3 * b + 2) + 2 for a, b in zip(sizes, sizes[1:])) or 2


def _blocks_text(blocks) -> str:
    """json.dumps of 0/1 blocks whose rows are each as wide as the block's
    first: a row's entries, translated to digits, are laid over a template
    "0, 0, ..., 0" built once per block."""
    texts = []
    for blk in blocks:
        template = ("0, " * len(blk[0]))[:-2].encode()
        rows = []
        for row in blk:
            text = bytearray(template)
            text[::3] = bytes(row).translate(_DIGITS)
            rows.append(text.decode())
        texts.append("[[" + "], [".join(rows) + "]]")
    return "[" + ", ".join(texts) + "]"


def _bit_blocks(text: str):
    """json.loads(text) where text is what json.dumps writes of a list of
    0/1 blocks, each block's rows as wide as its first and at least 1 wide;
    None where it plainly is not.  Blocks are split on "]], [[" and rows on
    "], [", every third character of a block's rows is an entry, and only
    the digits 0 and 1 are read, in C.  Text out of place can still read as
    entries, so the caller compares the text of what it builds with text."""
    if not (text.startswith("[[[") and text.endswith("]]]")):
        return None
    blocks = []
    for blk in text[3:-3].split("]], [["):
        count = blk.count("], [") + 1
        digits = blk.replace("], [", ", ")[::3].encode()
        if not digits or digits.translate(None, b"01") or len(digits) % count:
            return None
        bits, width = digits.translate(_BITS), len(digits) // count
        blocks.append([list(bits[i:i + width]) for i in range(0, len(bits), width)])
    return blocks


def poset_to_json(P: GradedPoset) -> str:
    """Canonical poset JSON, fields in fixed order: the text of json.dumps
    of the object.  A cobweb's blocks are written from its level sizes."""
    blocks = _ones_blocks_text(P.level_sizes) if P.is_cobweb else _blocks_text(P.blocks)
    flags = f'{{"cobweb": {P.is_cobweb}, "no_mute": {not P.has_mute_nodes}}}'.lower()
    return (f'{_SIZES_HEAD}{_json_text(P.level_sizes)}{_BLOCKS_KEY}{blocks}, '
            f'"flags": {flags}, "sequence": {_json_text(P.sequence_name)}}}')


def _canonical_poset(text: str):
    """The poset whose poset_to_json is text up to trailing whitespace, or
    None."""
    body = text.rstrip(" \t\n\r")
    if not body.startswith(_SIZES_HEAD) or not body.endswith("}"):
        return None
    end = body.find("]", len(_SIZES_HEAD))
    flags = body.rfind(_FLAGS_KEY)
    named = body.find(_NAME_KEY, flags)
    if end < 0 or flags < 0 or named < 0:
        return None
    # int reads "+2" and "02" too, but poset_to_json(P) == body refuses them
    written = body[named + len(_NAME_KEY):-1]
    try:
        sizes = [int(s) for s in body[len(_SIZES_HEAD) + 1:end].split(", ")]
        name = None if written == "null" else written[1:-1]
        if _json_text(name) != written:
            import json  # kept off the import path of every CLI call
            name = json.loads(written)
    except (ValueError, RecursionError):
        return None
    # positive sizes bound a cobweb's blocks length by the text's own length
    if any(s < 1 for s in sizes) or not (name is None or isinstance(name, str)):
        return None
    # the blocks lie between the sizes and the flags
    start = end + 1 + len(_BLOCKS_KEY)
    try:
        if body.startswith(_COBWEB_FLAGS, flags + len(_FLAGS_KEY)):
            if flags - start != _ones_blocks_length(sizes):
                return None
            P = cobweb_of_sizes(sizes, name)
        else:
            blocks = _bit_blocks(body[start:flags])
            if blocks is None:
                return None
            P = GradedPoset(sizes, blocks, name)
    except PosetError:
        return None
    return P if poset_to_json(P) == body else None


def poset_from_json(text: str) -> GradedPoset:
    P = _canonical_poset(text) if isinstance(text, str) else None
    if P is not None:
        return P
    import json  # kept off the import path of every CLI call
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise FormatError("top level: expected an object")
    for key in ("level_sizes", "blocks", "flags", "sequence"):
        if key not in obj:
            raise FormatError(f"{key}: missing field")
    sizes = obj["level_sizes"]
    try:
        sizes = check_level_sizes(sizes if isinstance(sizes, list) else ())
    except PosetError:
        raise FormatError("level_sizes: expected a nonempty list of positive integers") from None
    name = obj["sequence"]
    # the poset checks the blocks and names a fault by its path
    try:
        P = GradedPoset(sizes, obj["blocks"], sequence_name=name)
    except PosetError as e:
        raise FormatError(str(e)) from None
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


def blocks_from_json(text: str) -> list:
    """The blocks of a `gen --blocks` file, json.loads(text); a text that is
    what json.dumps writes of 0/1 blocks, up to trailing whitespace, is read
    without the json module."""
    body = text.rstrip(" \t\n\r")
    blocks = _bit_blocks(body)
    if blocks is not None and _blocks_text(blocks) == body:
        return blocks
    import json  # kept off the import path of every CLI call
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FormatError(str(e)) from None


# -- matrix CSV / JSON -------------------------------------------------------


class _Texts(dict):
    """The decimal text of each value looked up, made on first lookup."""

    def __missing__(self, v):
        text = self[v] = str(+v)
        return text


def write_matrix_csv(M, out: IO[str]):
    """Row-major CSV, plain decimal integers, streamed row by row."""
    for text in _row_texts(M, ","):
        out.write(text)
        out.write("\n")


def write_matrix_json(M, out: IO[str]):
    """{"level_sizes": [...], "entries": [[...]]}, streamed row by row."""
    out.write('{"level_sizes":%s,"entries":[' % _json_text(M.level_sizes))
    for i, text in enumerate(_row_texts(M, ", ")):
        out.write("," if i else "")
        out.write("[" + text + "]")
    out.write("]}")


def _row_texts(M, sep: str):
    """Each row's entries in decimal, joined by sep, one row at a time, so
    neither a cobweb LevelMatrix nor the rows of a zeta label route, made as
    they are read, is ever held densely.  A LevelMatrix row is put together
    from text built once per level: the zeros left of the diagonal 1, and
    the constant tail right of the diagonal block.  Any other M gives its
    rows as int sequences, a BlockMatrix's or a label route's bytearrays.
    A row of entries 0..9 goes out without one str() per entry: bytes(row)
    checks range and type in C, a translation makes each byte its digit
    (any other byte becomes '?'), and the digits are laid over a template
    "0<sep>0<sep>...0".  Any other row is joined from one text cache per
    matrix, which converts each distinct value once, when a row first holds
    it, and so holds at most the values of a matrix already held; +v writes
    a bool as 1 or 0 there too, as the digit path does, and leaves every
    other number as str() writes it.  Row x of a unitriangular matrix opens
    with x zeros, which go out as one slice of a prebuilt "0<sep>0<sep>..."
    text; a row with an entry left of its diagonal is joined whole."""
    if not isinstance(M, LevelMatrix):
        zeros = ("0" + sep) * sum(M.level_sizes)
        template, step = zeros[:-len(sep)].encode(), len(sep) + 1
        texts = _Texts()
        for x, row in enumerate(M.rows):
            try:
                digits = bytes(row).translate(_DIGITS)
            except (ValueError, TypeError):  # an entry outside 0..255, or not an int
                digits = b"?"
            if b"?" in digits:
                if row[:x].count(0) == x:
                    yield zeros[:step * x] + sep.join(map(texts.__getitem__, row[x:]))
                else:
                    yield sep.join(map(texts.__getitem__, row))
            else:
                text = bytearray(template)
                text[::step] = digits
                yield text.decode()
        return
    zero, zsep = "0" + sep, sep + "0"
    for before, size, runs in M.level_rows():
        tail = "".join(sep + sep.join([str(v)] * count) for v, count in runs)
        for i in range(size):
            yield zero * (before + i) + "1" + zsep * (size - 1 - i) + tail


def coding_to_json(C: CodingMatrix) -> str:
    import json  # kept off the import path of every CLI call
    return json.dumps({"c": C.entries}, separators=(",", ":"))


def chains_to_json(chains: List[Chain]) -> str:
    """Chains as arrays of [level, position] pairs."""
    return _json_text([[[c.start_level + i, p] for i, p in enumerate(c.positions)]
                       for c in chains])


def write_chains_json(P: GradedPoset, k: int, n: int, out: IO[str]):
    """The maximal chains of levels k..n in the order and the bytes of
    chains_to_json(enumerate_max_chains(P, k, n)), built as text.  The chain
    walk carries each chain's prefix as text, and the chains through one
    node of level n - 1 go out in one write."""
    check_layer_bounds(P, k, n)
    last = [f"[{n}, {p}]]" for p in range(1, P.level_sizes[n - 1] + 1)]
    sep = "["
    for prefix, tops in _walk(P, k, n, "[", lambda level, p: f"[{level}, {p}], "):
        if tops:
            out.write(sep + prefix + (", " + prefix).join([last[p - 1] for p in tops]))
            sep = ", "
    out.write("[]" if sep == "[" else "]")


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

# zeta entries are 0 or 1: a zero is blank at or left of the diagonal and '.'
# right of it, and a nonzero is '1'
_LEFT = bytes.maketrans(bytes(range(256)), b" " + b"1" * 255)
_RIGHT = bytes.maketrans(bytes(range(256)), b"." + b"1" * 255)


def la_scala(P: GradedPoset) -> str:
    """ASCII view of zeta, one line per row: '1' where comparable, '.' for
    the staircase zeros above the diagonal, blank below it.  A cobweb is
    drawn from the rows of its level zeta, any other poset from its dense
    zeta closure."""
    rows = level_zeta(P).rows() if P.is_cobweb else zeta(P, "closure").rows
    out = []
    for i, row in enumerate(rows):
        cells = bytes(row[:i + 1]).translate(_LEFT) + bytes(row[i + 1:]).translate(_RIGHT)
        out.append(" ".join(cells.decode()))
    return "\n".join(out) + "\n"
