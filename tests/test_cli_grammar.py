"""The strict parse against argparse.

cli._strict_parse reads a well-formed call from the grammar table without
argparse.  Whatever the argv, it returns None or the namespace that the
argparse parser built from the same table returns, and it reads every call
of the golden set but the error calls.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import cli

from test_cli_contract import argvs
from test_cli_golden import ERROR_CALLS, all_calls, posets


def argparse_vars(argv):
    return vars(cli.build_parser(argv[0]).parse_args(argv))


def test_every_golden_call_parses_as_argparse_parses_it():
    for argv in all_calls(posets()):
        args = cli._strict_parse(argv)
        if args is None:
            assert argv in ERROR_CALLS
        else:
            assert vars(args) == argparse_vars(argv), argv


@st.composite
def mangled_argvs(draw):
    """A call from the contract test's vocabulary, its tokens after the
    command shuffled, one of them dropped or one repeated, or left as is."""
    argv = draw(argvs(Path("work")))
    tail = argv[1:]
    how = draw(st.sampled_from(["none", "shuffle", "drop", "repeat"]))
    if how == "shuffle":
        tail = draw(st.permutations(tail))
    elif tail and how in ("drop", "repeat"):
        i = draw(st.integers(0, len(tail) - 1))
        tail = tail[:i] + tail[i + (how == "drop"):] + (tail[i:i + 1] if how == "repeat" else [])
    return argv[:1] + tail


@settings(max_examples=400, deadline=None)
@given(argv=mangled_argvs())
def test_the_strict_parse_is_argparse_or_none(argv):
    args = cli._strict_parse(argv)
    if args is not None:
        assert vars(args) == argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["mobius", "p.json", "--meth", "invert"],
    ["mobius", "p.json", "--method=invert"],
    ["zeta", "p.json", "-oout.csv"],
    ["zeta", "p.json", "-o", "a", "--output", "b"],
    ["max", "p.json", "--inverse", "--inverse"],
    ["zeta", "-h"],
    ["fnomial", "--seq", "nat", "-1", "2"],
    ["gen", "--seq", "nat", "--levels", "-1"],
    ["zeta", "--", "p.json"],
    ["zeta", "p.json", "--inverse"],
    ["zeta", "p.json", "--method", "bogus"],
    ["gen", "--seq", "nat", "--levels", "x"],
    ["chains", "p.json", "--interval", "1"],
    ["fnomial", "--seq", "nat", "4"],
    ["fnomial", "--seq", "nat", "4", "2", "1"],
    ["admissible", "--seq", "nat"],
    ["bogus"],
    [],
], ids=" ".join)
def test_the_strict_parse_leaves_unusual_forms_to_argparse(argv):
    assert cli._strict_parse(argv) is None


@pytest.mark.parametrize("argv, want", [
    (["chains", "p.json", "--interval", "1", "3", "-o", "c.txt"],
     {"poset": "p.json", "output": "c.txt", "from_level": None, "to_level": None,
      "count_only": False, "interval": [1, 3]}),
    (["admissible", "--up-to", "4", "--seq", "fib"], {"seq": "fib", "up_to": 4}),
    (["kroton", "2", "--seq", "nat", "5"], {"seq": "nat", "r": 2, "s": 5}),
    (["coding", "--seq", "nat", "--levels", "3", "--output", "c.csv"],
     {"format": "csv", "seq": "nat", "levels": 3, "output": "c.csv"}),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_the_strict_parse_reads_options_in_any_order(argv, want):
    assert vars(cli._strict_parse(argv)) == dict(want, command=argv[0]) == argparse_vars(argv)
