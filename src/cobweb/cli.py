"""Command-line front door.

Exit codes: 0 on success, 1 on any domain or usage error, 2 when a check
suite fails.  Data goes to stdout (or -o), diagnostics to stderr.  The
environment variable COBWEB_MAX_LEVELS (default 12) caps requested level
counts so a stray argument cannot trigger a huge computation.

Called with no argv, as the process entry (`python -m cobweb.cli` or the
`cobweb` console script), main freezes the import-time heap with
gc.freeze: no collection examines it again, so interpreter exit skips the
full passes over the module graph.  In-process callers pass an explicit
argv and their heap is left as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

from . import formats
from .blockmat import MatrixError, RingError
from .chains import count_interval_chains, count_layer_chains
from .fsequence import SequenceError, fnomial, is_cobweb_admissible, preset
from .incidence import MOBIUS_METHODS, ZETA_METHODS, coding_matrix, eta, \
    eta_inverse, kroton, level_eta, level_eta_inverse, level_max, \
    level_max_inverse, level_mobius, level_zeta, max_inverse, max_matrix, \
    mobius, zeta
from .invariants import RootedPoset, char_poly, root, whitney_second
from .poset import GradedPoset, PosetError, cobweb, from_blocks, ones_block
from .suites import run_checks


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _max_levels() -> int:
    raw = os.environ.get("COBWEB_MAX_LEVELS", "12")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"COBWEB_MAX_LEVELS must be an integer, got {raw!r}")


def _check_levels(n: int, what: str = "levels"):
    cap = _max_levels()
    if n > cap:
        raise CliError(f"{what} {n} exceeds COBWEB_MAX_LEVELS={cap}")


def _load_poset(path: str) -> GradedPoset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    P = formats.poset_from_json(text)
    _check_levels(P.n_levels, f"poset {path}: level count")
    return P


@contextlib.contextmanager
def _output(args):
    """The -o file, closed on exit, or stdout when none is given."""
    if not getattr(args, "output", None):
        yield sys.stdout
        return
    with open(args.output, "w", encoding="utf-8") as out:
        yield out


def _emit_matrix(M, args) -> int:
    with _output(args) as out:
        if args.format == "json":
            formats.write_matrix_json(M, out)
            out.write("\n")
        else:
            formats.write_matrix_csv(M, out)
    return 0


def _emit_text(args, *parts: str) -> int:
    with _output(args) as out:
        for text in parts:
            out.write(text)
    return 0


def _load_rooted(args, command: str) -> RootedPoset:
    P = _load_poset(args.poset)
    if P.level_sizes[0] != 1 or not P.is_cobweb:
        raise CliError(f"{command} needs a rooted cobweb (singleton bottom level)")
    return RootedPoset.from_poset(P)


ZETA_FLAG_TO_METHOD = {m.lower().replace("_", "-"): m for m in ZETA_METHODS}
MOBIUS_FLAG_TO_METHOD = {m.lower().replace("_", "-"): m for m in MOBIUS_METHODS}


class _NotBuilt:
    """Stands in for a subparser that one call does not need."""
    def add_argument(self, *args, **kwargs):
        pass


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` only, or with all of them
    when `command` is None."""
    p = _Parser(prog="cobweb",
                description="Exact incidence algebra of graded posets built "
                            "as natural joins of bipartite layers.")
    sub = p.add_subparsers(dest="command", metavar="command")

    def add_parser(name, **kwargs):
        return sub.add_parser(name, **kwargs) if command in (None, name) else _NotBuilt()

    # parent parsers: the poset and -o of the commands that read a poset and
    # write a result, and the --format of the csv/json matrix commands
    poset_io = argparse.ArgumentParser(add_help=False)
    poset_io.add_argument("poset")
    poset_io.add_argument("-o", "--output")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv")

    g = add_parser("gen", help="generate a poset and write its JSON")
    g.add_argument("--seq", help="sequence spec: nat|fib|gauss:q=<int>|const:<int>|file:<path>")
    g.add_argument("--levels", type=int, help="number of levels")
    g.add_argument("--root", action="store_true",
                   help="prepend a singleton bottom level")
    g.add_argument("--blocks", help="JSON file with explicit 0/1 blocks")
    g.add_argument("-o", "--output", help="output path (default stdout)")

    z = add_parser("zeta", parents=[poset_io], help="zeta matrix of a poset")
    z.add_argument("--method", choices=sorted(ZETA_FLAG_TO_METHOD), default="closure")
    z.add_argument("--format", choices=["csv", "json", "ascii"], default="csv")

    m = add_parser("mobius", parents=[poset_io, fmt], help="Moebius matrix of a poset")
    m.add_argument("--method", choices=sorted(MOBIUS_FLAG_TO_METHOD), default="invert")

    x = add_parser("max", parents=[poset_io, fmt], help="maximal-chain counting matrix")
    x.add_argument("--inverse", action="store_true")

    e = add_parser("eta", parents=[poset_io, fmt], help="reflexive cover matrix")
    e.add_argument("--inverse", action="store_true")

    c = add_parser("chains", parents=[poset_io], help="maximal chains of a layer")
    c.add_argument("--from", dest="from_level", type=int)
    c.add_argument("--to", dest="to_level", type=int)
    c.add_argument("--count-only", action="store_true")
    c.add_argument("--interval", nargs=2, type=int, metavar=("X", "Y"),
                   help="count chains between two global labels")

    f = add_parser("fnomial", help="F-nomial coefficient")
    f.add_argument("--seq", required=True)
    f.add_argument("n", type=int)
    f.add_argument("k", type=int)

    a = add_parser("admissible", help="cobweb admissibility verdict")
    a.add_argument("--seq", required=True)
    a.add_argument("--up-to", dest="up_to", type=int, required=True)

    w = add_parser("whitney", help="Whitney numbers of a rooted poset")
    w.add_argument("poset")

    cp = add_parser("charpoly", help="characteristic polynomial of a rooted poset")
    cp.add_argument("poset")

    co = add_parser("coding", parents=[fmt], help="coding matrix of a sequence")
    co.add_argument("--seq", required=True)
    co.add_argument("--levels", type=int, required=True)
    co.add_argument("-o", "--output")

    kr = add_parser("kroton", help="coding entry magnitude between two levels")
    kr.add_argument("--seq", required=True)
    kr.add_argument("r", type=int)
    kr.add_argument("s", type=int)

    ch = add_parser("check", help="run invariant suites on a poset")
    ch.add_argument("poset")
    ch.add_argument("--suite", default="all",
                    choices=["all", "zeta", "mobius", "max", "markov", "whitney"])

    add_parser("dot", parents=[poset_io], help="DOT export of the Hasse digraph")
    add_parser("lascala", parents=[poset_io], help="ASCII staircase view of zeta")
    return p


def _is_matrix(b) -> bool:
    return (isinstance(b, list) and len(b) > 0
            and all(isinstance(row, list) and len(row) == len(b[0]) > 0 for row in b))


def _cmd_gen(args) -> int:
    if args.blocks:
        try:
            with open(args.blocks, "r", encoding="utf-8") as fh:
                blocks = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as e:
            raise CliError(f"cannot read blocks file {args.blocks}: {e}")
        if not isinstance(blocks, list) or not blocks or not all(map(_is_matrix, blocks)):
            raise CliError("blocks file must hold a nonempty list of nonempty "
                           "rectangular 0/1 matrices")
        sizes = [len(blocks[0])] + [len(b[0]) for b in blocks]
        if args.levels is not None and args.levels != len(sizes):
            raise CliError(f"--levels {args.levels} disagrees with {len(sizes)} "
                           f"levels implied by the blocks file")
        name = None
        if args.seq:
            F = preset(args.seq)
            if F.prefix(len(sizes)) != sizes:
                raise CliError("--seq level sizes disagree with the blocks file")
            name = F.name
        if args.root:
            sizes, blocks = [1] + sizes, [ones_block(1, sizes[0])] + blocks
        _check_levels(len(sizes))
        P = from_blocks(sizes, blocks, sequence_name=name)
    else:
        if not args.seq or args.levels is None:
            raise CliError("gen needs --seq and --levels (or --blocks)")
        _check_levels(args.levels + (1 if args.root else 0))
        F = preset(args.seq)
        if args.root:
            P = root(F, args.levels)
        else:
            P = cobweb(F, args.levels)
    return _emit_text(args, formats.poset_to_json(P), "\n")


def _cmd_chains(args) -> int:
    P = _load_poset(args.poset)
    with _output(args) as out:
        if args.interval:
            x = P.node_by_global(args.interval[0])
            y = P.node_by_global(args.interval[1])
            out.write(f"{count_interval_chains(P, x, y)}\n")
            return 0
        if args.from_level is None or args.to_level is None:
            raise CliError("chains needs --from and --to (or --interval)")
        if args.count_only:
            out.write(f"{count_layer_chains(P, args.from_level, args.to_level)}\n")
        else:
            formats.write_chains_json(P, args.from_level, args.to_level, out)
            out.write("\n")
        return 0


# Cobweb matrices are computed in the level algebra and expanded to node rows
# only while being written; every other poset, and the label formulas of
# zeta, take the dense route.

def _cmd_zeta(args) -> int:
    P = _load_poset(args.poset)
    method = ZETA_FLAG_TO_METHOD[args.method]
    # every label route equals the closure where it is defined; elsewhere
    # zeta() below refuses it, whatever the format
    if args.format == "ascii" and (P.is_cobweb or method == "closure"):
        return _emit_text(args, formats.la_scala(P))
    if P.is_cobweb and method == "closure":
        return _emit_matrix(level_zeta(P), args)
    return _emit_matrix(zeta(P, method), args)


def _cmd_mobius(args) -> int:
    P = _load_poset(args.poset)
    method = MOBIUS_FLAG_TO_METHOD[args.method]
    if P.is_cobweb:
        return _emit_matrix(level_mobius(P, method), args)
    return _emit_matrix(mobius(P, method), args)


def _cmd_max(args) -> int:
    P = _load_poset(args.poset)
    if P.is_cobweb:
        return _emit_matrix(level_max_inverse(P) if args.inverse else level_max(P), args)
    return _emit_matrix(max_inverse(P) if args.inverse else max_matrix(P), args)


def _cmd_eta(args) -> int:
    P = _load_poset(args.poset)
    if P.is_cobweb:
        return _emit_matrix(level_eta_inverse(P) if args.inverse else level_eta(P), args)
    return _emit_matrix(eta_inverse(P) if args.inverse else eta(P), args)


def _cmd_fnomial(args) -> int:
    print(fnomial(preset(args.seq), args.n, args.k))
    return 0


def _cmd_admissible(args) -> int:
    _check_levels(args.up_to, "--up-to")
    print(is_cobweb_admissible(preset(args.seq), args.up_to))
    return 0


def _cmd_whitney(args) -> int:
    R = _load_rooted(args, "whitney")
    for r, w in enumerate(char_poly(R).coefficients):
        print(f"{r} {w} {whitney_second(R, r)}")
    return 0


def _cmd_charpoly(args) -> int:
    print(char_poly(_load_rooted(args, "charpoly")).to_json())
    return 0


def _cmd_coding(args) -> int:
    _check_levels(args.levels)
    C = coding_matrix(preset(args.seq), args.levels)
    if args.format == "json":
        return _emit_text(args, formats.coding_to_json(C), "\n")
    return _emit_text(args, *(",".join(map(str, row)) + "\n" for row in C.entries))


def _cmd_kroton(args) -> int:
    print(kroton(preset(args.seq), args.r, args.s))
    return 0


def _cmd_check(args) -> int:
    P = _load_poset(args.poset)
    results = run_checks(P, args.suite)
    first_fail = None
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        detail = f": {r.detail}" if r.detail else ""
        print(f"{tag} {r.suite}/{r.name}{detail}")
        if not r.passed and first_fail is None:
            first_fail = r
    if first_fail is not None:
        print(f"check failed: {first_fail.suite}/{first_fail.name}", file=sys.stderr)
        return 2
    return 0


def _cmd_dot(args) -> int:
    return _emit_text(args, formats.to_dot(_load_poset(args.poset)))


def _cmd_lascala(args) -> int:
    return _emit_text(args, formats.la_scala(_load_poset(args.poset)))


COMMANDS = {"gen": _cmd_gen, "zeta": _cmd_zeta, "mobius": _cmd_mobius,
            "max": _cmd_max, "eta": _cmd_eta, "chains": _cmd_chains,
            "fnomial": _cmd_fnomial, "admissible": _cmd_admissible,
            "whitney": _cmd_whitney, "charpoly": _cmd_charpoly,
            "coding": _cmd_coding, "kroton": _cmd_kroton, "check": _cmd_check,
            "dot": _cmd_dot, "lascala": _cmd_lascala}


def run(argv) -> int:
    # only the named command's subparser is built; -h, an unknown command or
    # none at all get every one, for the full usage and the list of choices
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required")
    return COMMANDS[args.command](args)


def main(argv=None) -> int:
    # results are exact, so no integer is too long to print
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        # the whole process is this one call, so nothing imported so far
        # becomes garbage before exit
        gc.freeze()
        argv = sys.argv[1:]
    try:
        return run(argv)
    except (CliError, SequenceError, PosetError, MatrixError, RingError,
            formats.FormatError, ValueError, TypeError, OSError) as e:
        print(f"cobweb: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
