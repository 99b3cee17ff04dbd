"""The CLI exit contract under arbitrary input.

Whatever the argv and whatever the poset or blocks file holds, cli.main
ends in 0, 1 or 2 (argparse's SystemExit counts by its code), lets no other
exception out, never writes a traceback, and on exit 1 ends stderr with a
one-line `cobweb: ` diagnostic and leaves the -o file as it was.  The argv comes from a fixed vocabulary of
every command and flag; the files are small valid posets put through one
malformation each.  COBWEB_MAX_LEVELS is set to 5, so level counts up to 14
reach the cap refusal without building a large cobweb.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import cli, cobweb, from_blocks, nat, root
from cobweb.formats import poset_to_json

# command -> (takes a poset, int positionals, required flags, other flags)
COMMANDS = {
    "check": (True, 0, [], ["--suite"]),
    "gen": (False, 0, [], ["--seq", "--levels", "--root", "--blocks", "-o"]),
    "zeta": (True, 0, [], ["--method", "--format", "-o"]),
    "mobius": (True, 0, [], ["--method", "--format", "--output"]),
    "max": (True, 0, [], ["--inverse", "--format", "-o"]),
    "eta": (True, 0, [], ["--inverse", "--format", "-o"]),
    "chains": (True, 0, [], ["--from", "--to", "--count-only", "--interval", "-o"]),
    "fnomial": (False, 2, ["--seq"], []),
    "admissible": (False, 0, ["--seq", "--up-to"], []),
    "whitney": (True, 0, [], []),
    "charpoly": (True, 0, [], []),
    "coding": (False, 0, ["--seq", "--levels"], ["--format", "-o"]),
    "kroton": (False, 2, ["--seq"], []),
    "dot": (True, 0, [], ["-o"]),
    "lascala": (True, 0, [], ["-o"]),
    "bogus": (False, 0, [], []),
}
BARE_FLAGS = ["--root", "--inverse", "--count-only", "-h", "--help", "--bogus"]
# hypothesis leans to the first entry of each list, so a useful one leads
INTS = [str(i) for i in (3, 2, 1, 4, 0, 5, -1, -2, *range(6, 15))] + ["x", "1.5", ""]
SEQ_SPECS = ["nat", "fib", "gauss:q=2", "gauss:q=3", "gauss:q=1", "gauss:q=x", "const:2",
             "const:0", "const:", "nope", "", "file:seq.txt", "file:badseq.txt",
             "file:missing.txt"]
METHODS = ["closure", "label-delta", "label-knuth", "label-s", "closed-form", "invert",
           "recurrence", "bogus"]
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(allow_nan=False),
                 st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2))
BAD_ENTRIES = [2, -1, "1", True, 1.0, None, [1]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    fixed = {"nat3.json": cobweb(nat(), 3), "rooted.json": root(nat(), 2),
             "antichain.json": from_blocks([2, 1], [[[1], [0]]])}
    for name, P in fixed.items():
        (d / name).write_text(poset_to_json(P))
    (d / "bad.json").write_text("{not json")
    (d / "seq.txt").write_text("1\n2\n3\n4\n5\n6\n")
    (d / "badseq.txt").write_text("1\n0\nx\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COBWEB_MAX_LEVELS", "5")
        yield d


def vocabulary(d):
    """flag -> the values it is drawn with, and the positional tokens."""
    def path(name):
        return str(d / name)

    posets = [path(n) for n in ("poset.json", "rooted.json", "nat3.json", "antichain.json",
                                "bad.json", "missing.json")]
    specs = [s.replace("file:", f"file:{d}/") for s in SEQ_SPECS]
    valued = {"--seq": specs, "--levels": INTS, "--from": INTS, "--to": INTS,
              "--up-to": INTS, "--method": METHODS,
              "--format": ["csv", "json", "ascii", "xml"],
              "--suite": ["all", "zeta", "mobius", "max", "markov", "whitney", "bogus"],
              "--blocks": [path("blocks.json"), path("poset.json"), path("missing.json")],
              "-o": [path("out.txt"), path("no-such-dir/out.txt"), str(d)],
              "--output": [path("out.txt")], "--interval": INTS}
    return valued, posets


@st.composite
def poset_texts(draw):
    """The JSON of a poset of at most 4 levels of at most 3 nodes, put
    through one malformation (or none)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    blocks = [[[rng.randint(0, 1) for _ in range(b)] for _ in range(a)]
              for a, b in zip(sizes, sizes[1:])]
    doc = json.loads(poset_to_json(from_blocks(sizes, blocks)))
    how = draw(st.sampled_from(["none", "drop", "junk", "ragged", "entry", "flag",
                                "sizes", "top", "text"]))
    key = draw(st.sampled_from(["level_sizes", "blocks", "flags", "sequence"]))
    if how == "drop":
        del doc[key]
    elif how == "junk":
        doc[key] = draw(JUNK)
    elif how in ("ragged", "entry") and doc["blocks"]:
        row = rng.choice(rng.choice(doc["blocks"]))
        if how == "ragged":
            row.append(1) if rng.random() < 0.5 else row.pop()
        else:
            row[rng.randrange(len(row))] = draw(st.sampled_from(BAD_ENTRIES))
    elif how == "flag":
        flag = draw(st.sampled_from(["cobweb", "no_mute"]))
        doc["flags"][flag] = not doc["flags"][flag]
    elif how == "sizes":
        doc["level_sizes"][rng.randrange(len(sizes))] = draw(
            st.sampled_from([0, -1, "2", 2.5, None, 5]))
    elif how == "top":
        doc = draw(JUNK)
    elif how == "text":
        return draw(st.sampled_from(["", "{", "[1,", "nul", "\x00"]))
    return json.dumps(doc)


@st.composite
def blocks_texts(draw):
    """A --blocks file: a list of at most 3 small 0/1 matrices, or one of
    the shapes the file must refuse."""
    n = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1))
    blocks = [[[draw(st.integers(0, 1)) for _ in range(b)] for _ in range(a)]
              for a, b in zip(sizes, sizes[1:])]
    how = draw(st.sampled_from(["none", "ragged", "entry", "empty", "junk", "text"]))
    if how == "ragged":
        blocks[0][0].append(1)
    elif how == "entry":
        blocks[-1][0][0] = draw(st.sampled_from(BAD_ENTRIES))
    elif how == "empty":
        blocks = draw(st.sampled_from([[], [[]], [[[]]], [[[1]], []]]))
    elif how == "junk":
        blocks = draw(JUNK)
    elif how == "text":
        return "[[[1, 0]"
    return json.dumps(blocks)


def flag_args(draw, valued, flag):
    """flag followed by its values: none for a bare flag, two for --interval."""
    values = valued.get(flag, [])
    count = 2 if flag == "--interval" else min(len(values), 1)
    return [flag] + [draw(st.sampled_from(values)) for _ in range(count)]


@st.composite
def argvs(draw, d):
    """Mostly the shape a command expects, with its own flags in any order
    and number; sometimes a token from anywhere in the vocabulary."""
    valued, positional = vocabulary(d)
    command = draw(st.sampled_from([*COMMANDS, None]))
    if command is None:
        return draw(st.lists(st.sampled_from(positional + INTS + BARE_FLAGS), max_size=2))
    takes_poset, ints, required, optional = COMMANDS[command]
    argv = [command]
    if takes_poset:
        argv.append(draw(st.sampled_from(positional)))
    argv += [draw(st.sampled_from(INTS)) for _ in range(ints)]
    for flag in required + (draw(st.lists(st.sampled_from(optional), max_size=4))
                            if optional else []):
        argv += flag_args(draw, valued, flag)
    if draw(st.integers(0, 4)) == 4:
        noise = draw(st.sampled_from([*valued, *BARE_FLAGS, *INTS]))
        argv += flag_args(draw, valued, noise)
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data(), poset=poset_texts(), blocks=blocks_texts())
def test_every_call_keeps_the_exit_contract(workdir, data, poset, blocks):
    (workdir / "poset.json").write_text(poset)
    (workdir / "blocks.json").write_text(blocks)
    (workdir / "out.txt").write_text("kept\n")
    argv = data.draw(argvs(workdir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.splitlines()[-1].startswith("cobweb: ")
        assert (workdir / "out.txt").read_text() == "kept\n"


# one refused call per command that takes -o; the refusal comes before the
# -o file is opened, so the file keeps what it held
REFUSED_WITH_O = [
    ["gen", "--seq", "nope", "--levels", "3"],
    ["gen", "--seq", "nat", "--levels", "6"],
    ["gen", "--blocks", "entry.json"],
    ["zeta", "bad.json"],
    ["zeta", "antichain.json", "--method", "label-delta"],
    ["mobius", "antichain.json", "--method", "closed-form"],
    ["max", "nat3.json", "--format", "xml"],
    ["eta", "bad.json", "--inverse"],
    ["chains", "nat3.json", "--from", "3", "--to", "1"],
    ["chains", "nat3.json", "--interval", "1", "99"],
    ["coding", "--seq", "nat", "--levels", "0"],
    ["dot", "entry-poset.json"],
    ["lascala", "missing.json"],
]


@pytest.mark.parametrize("argv", REFUSED_WITH_O, ids=" ".join)
def test_every_command_with_o_keeps_the_file_on_a_refusal(workdir, argv):
    (workdir / "entry.json").write_text("[[[1, 1.0]]]")
    (workdir / "entry-poset.json").write_text(
        poset_to_json(cobweb(nat(), 3)).replace("[[1, 1]]", "[[1, 1.0]]"))
    (workdir / "out.txt").write_text("kept\n")
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["-o", str(workdir / "out.txt")])
    lines = err.getvalue().splitlines()
    assert code == 1 and out.getvalue() == ""
    # argparse puts its usage above the diagnostic; nothing else comes before it
    assert lines[-1].startswith("cobweb: ")
    assert all(line.startswith("usage: ") or line.startswith(" ") for line in lines[:-1])
    assert (workdir / "out.txt").read_text() == "kept\n"
