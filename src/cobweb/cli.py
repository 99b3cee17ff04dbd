"""Command-line front door.

Exit codes: 0 on success, 1 on any domain or usage error, 2 when a check
suite fails.  Data goes to stdout (or -o), diagnostics to stderr.  The
environment variable COBWEB_MAX_LEVELS (default 12) caps requested level
counts so a stray argument cannot trigger a huge computation.

The grammar is one table, _GRAMMAR, in add_argument terms.  A well-formed
call is read from it directly; argparse is imported and built from the same
table only for the rest (-h, a usage error, an abbreviated option or any
other unusual form), so its help, usage and error text stay the only ones.
The process entry (`python -m cobweb.cli` or the `cobweb` console script),
help included, flushes stdout and stderr itself, so a failed write is a
`cobweb: ...` error like any other, and then ends with os._exit: the process
is this one call, and tearing down the modules it imported is wasted work.
"""

from __future__ import annotations

import contextlib
import os
import sys
import types

from . import formats
from .chains import count_interval_chains, count_layer_chains
from .fsequence import fnomial, is_cobweb_admissible, preset
from .incidence import MOBIUS_METHODS, ZETA_METHODS, _label_rows, coding_matrix, \
    eta, eta_inverse, kroton, level_eta, level_eta_inverse, level_max, \
    level_max_inverse, level_mobius, level_zeta, max_inverse, max_matrix, \
    mobius, zeta
from .invariants import RootedPoset, char_poly, root, whitney_second
from .poset import GradedPoset, check_layer_bounds, cobweb, from_blocks, ones_block
from .suites import run_checks


class CliError(Exception):
    """A usage or domain error of one call: one `cobweb: ...` line, exit 1."""


def _check_levels(n: int, what: str = "levels"):
    raw = os.environ.get("COBWEB_MAX_LEVELS", "12")
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(f"COBWEB_MAX_LEVELS must be an integer, got {raw!r}")
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


# command -> (help, arguments), each argument as the (flags, keywords) of
# its add_argument call
_POSET = (("poset",), {})
_OUTPUT = (("-o", "--output"), {})
_FORMAT = (("--format",), {"choices": ["csv", "json"], "default": "csv"})
_INVERSE = (("--inverse",), {"action": "store_true"})
_SEQ = (("--seq",), {"required": True})
_GRAMMAR = {
    "gen": ("generate a poset and write its JSON", [
        (("--seq",), {"help": "sequence spec: nat|fib|gauss:q=<int>|const:<int>|file:<path>"}),
        (("--levels",), {"type": int, "help": "number of levels"}),
        (("--root",), {"action": "store_true", "help": "prepend a singleton bottom level"}),
        (("--blocks",), {"help": "JSON file with explicit 0/1 blocks"}),
        (("-o", "--output"), {"help": "output path (default stdout)"})]),
    "zeta": ("zeta matrix of a poset", [
        _POSET, _OUTPUT,
        (("--method",), {"choices": sorted(ZETA_FLAG_TO_METHOD), "default": "closure"}),
        (("--format",), {"choices": ["csv", "json", "ascii"], "default": "csv"})]),
    "mobius": ("Moebius matrix of a poset", [
        _POSET, _OUTPUT, _FORMAT,
        (("--method",), {"choices": sorted(MOBIUS_FLAG_TO_METHOD), "default": "invert"})]),
    "max": ("maximal-chain counting matrix", [_POSET, _OUTPUT, _FORMAT, _INVERSE]),
    "eta": ("reflexive cover matrix", [_POSET, _OUTPUT, _FORMAT, _INVERSE]),
    "chains": ("maximal chains of a layer", [
        _POSET, _OUTPUT,
        (("--from",), {"dest": "from_level", "type": int}),
        (("--to",), {"dest": "to_level", "type": int}),
        (("--count-only",), {"action": "store_true"}),
        (("--interval",), {"nargs": 2, "type": int, "metavar": ("X", "Y"),
                           "help": "count chains between two global labels"})]),
    "fnomial": ("F-nomial coefficient", [_SEQ, (("n",), {"type": int}), (("k",), {"type": int})]),
    "admissible": ("cobweb admissibility verdict", [
        _SEQ, (("--up-to",), {"dest": "up_to", "type": int, "required": True})]),
    "whitney": ("Whitney numbers of a rooted poset", [_POSET]),
    "charpoly": ("characteristic polynomial of a rooted poset", [_POSET]),
    "coding": ("coding matrix of a sequence", [
        _FORMAT, _SEQ, (("--levels",), {"type": int, "required": True}), _OUTPUT]),
    "kroton": ("coding entry magnitude between two levels",
               [_SEQ, (("r",), {"type": int}), (("s",), {"type": int})]),
    "check": ("run invariant suites on a poset", [
        _POSET, (("--suite",), {"default": "all", "choices": [
            "all", "zeta", "mobius", "max", "markov", "whitney"]})]),
    "dot": ("DOT export of the Hasse digraph", [_POSET, _OUTPUT]),
    "lascala": ("ASCII staircase view of zeta", [_POSET, _OUTPUT]),
}


def build_parser(command=None):
    """The argparse parser of the grammar, with the subparser of `command`
    only, or with all of them when `command` is None."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with 2 on bad usage; the contract here is exit 1
        def error(self, message):
            self.print_usage(sys.stderr)
            raise CliError(message)

        # argparse's own drops a failed write of the help; this one raises it
        def print_help(self, file=None):
            (file or sys.stdout).write(self.format_help())

    p = _Parser(prog="cobweb",
                description="Exact incidence algebra of graded posets built "
                            "as natural joins of bipartite layers.")
    sub = p.add_subparsers(dest="command", metavar="command")
    for name, (text, arguments) in _GRAMMAR.items():
        if command in (None, name):
            s = sub.add_parser(name, help=text)
            for flags, kw in arguments:
                s.add_argument(*flags, **kw)
    return p


def _strict_parse(argv):
    """The namespace argparse makes of argv when argv is a command followed
    by its exact option strings, each given once with values that do not
    start with `-` and pass their type and choices, every required option and
    exactly its positionals; None for any other argv, which argparse reads."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    args, options, positionals, required = {"command": argv[0]}, {}, [], set()
    for flags, kw in _GRAMMAR[argv[0]][1]:
        if flags[0].startswith("-"):
            # argparse's dest: the long flag, which each grammar entry puts last
            dest = kw.get("dest", flags[-1].lstrip("-").replace("-", "_"))
            args[dest] = kw.get("default", False if kw.get("action") == "store_true" else None)
            options.update((flag, (dest, kw)) for flag in flags)
            if kw.get("required"):
                required.add(dest)
        else:
            positionals.append((flags[0], kw))
    given, values = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            values.append(token)
            continue
        if token not in options or options[token][0] in given:
            return None
        dest, kw = options[token]
        given.add(dest)
        if kw.get("action") == "store_true":
            args[dest] = True
            continue
        # a missing value reads as "-", which _value refuses
        taken = [_value(next(tokens, "-"), kw) for _ in range(kw.get("nargs", 1))]
        if None in taken:
            return None
        args[dest] = taken if "nargs" in kw else taken[0]
    if len(values) != len(positionals) or not required <= given:
        return None
    for (dest, kw), token in zip(positionals, values):
        args[dest] = _value(token, kw)
        if args[dest] is None:
            return None
    return types.SimpleNamespace(**args)


def _value(token, kw):
    """token as argparse stores it for the argument kw, or None where
    argparse must read it: a leading `-`, a failed type or a bad choice."""
    if token.startswith("-"):
        return None
    try:
        value = kw.get("type", str)(token)
    except ValueError:
        return None
    return value if value in kw.get("choices", (value,)) else None


def _cmd_gen(args) -> int:
    if args.blocks:
        try:
            with open(args.blocks, "r", encoding="utf-8") as fh:
                blocks = formats.blocks_from_json(fh.read())
        except (OSError, formats.FormatError) as e:
            raise CliError(f"cannot read blocks file {args.blocks}: {e}")
        # the level sizes are read off each block's first row; the poset
        # checks the rest and names a fault by its path in the file
        if not isinstance(blocks, list) or not blocks or not all(
                isinstance(b, list) and b and isinstance(b[0], list) and b[0] for b in blocks):
            raise CliError("blocks file must hold a nonempty list of 0/1 matrices, "
                           "each with a nonempty first row")
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
        _check_levels(len(sizes) + (1 if args.root else 0))
        # the file's blocks are checked unrooted, so a fault has its path in the file
        P = from_blocks(sizes, blocks, sequence_name=name)
        if args.root:
            P = from_blocks([1] + sizes, [ones_block(1, sizes[0])] + blocks, sequence_name=name)
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
    # every refusal comes before _output opens, and so empties, the -o file
    P = _load_poset(args.poset)
    if args.interval:
        x, y = map(P.node_by_global, args.interval)
        return _emit_text(args, f"{count_interval_chains(P, x, y)}\n")
    if args.from_level is None or args.to_level is None:
        raise CliError("chains needs --from and --to (or --interval)")
    if args.count_only:
        return _emit_text(args, f"{count_layer_chains(P, args.from_level, args.to_level)}\n")
    check_layer_bounds(P, args.from_level, args.to_level)
    with _output(args) as out:
        formats.write_chains_json(P, args.from_level, args.to_level, out)
        out.write("\n")
    return 0


def _cmd_zeta(args) -> int:
    P = _load_poset(args.poset)
    method = ZETA_FLAG_TO_METHOD[args.method]
    # every label route equals the closure where it is defined; elsewhere
    # _label_rows below refuses it, whatever the format
    if args.format == "ascii" and (P.is_cobweb or method == "closure"):
        return _emit_text(args, formats.la_scala(P))
    if method != "closure":
        return _emit_matrix(_label_rows(P, method), args)
    return _emit_matrix(level_zeta(P) if P.is_cobweb else zeta(P, method), args)


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
    """The exit code of one call, errors raised.  argparse is built with the
    subparser of the named command only, or with every one for -h, an
    unknown command or none at all, for the full usage and the list of
    choices."""
    args = _strict_parse(argv)
    if args is None:
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:  # the help, printed
            return e.code
        if args.command is None:
            parser.error("a command is required")
    return COMMANDS[args.command](args)


def main(argv=None) -> int:
    """The exit code of one call, each error as one `cobweb: ...` line;
    with no argv, the process entry."""
    # results are exact, so no integer is too long to print
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    entry = argv is None
    try:
        code = run(sys.argv[1:] if entry else argv)
        if entry:
            sys.stdout.flush()
    except (CliError, ValueError, TypeError, OSError, OverflowError, MemoryError) as e:
        print(f"cobweb: {'out of memory' if isinstance(e, MemoryError) else e}", file=sys.stderr)
        code = 1
    if entry:
        sys.stderr.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
