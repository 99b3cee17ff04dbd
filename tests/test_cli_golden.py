"""Byte identity of the CLI against recorded digests.

Every argv of all_calls runs through cli.main in process, in a scratch working
directory that holds the posets this module builds.  The exit code, stdout,
stderr and, where the call names one, the -o file are hashed together and
held to tests/data/cli_golden.json.  A refactor that must not change any
output passes unchanged; a change that alters output on purpose rewrites the
file with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of the JSON names the calls whose output moved.  argparse wraps
its usage text to the terminal width, so COLUMNS is pinned for every call;
its help and usage wording can change between Python minor versions, so the
digests hold for the version that wrote them (CPython 3.11 for the
committed file).
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from cobweb import cli, from_blocks, preset, root
from cobweb.formats import poset_to_json
from cobweb.poset import cobweb

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
SEQS = ("nat", "fib", "gauss:q=2", "const:2")
OUT = "out.txt"


def _random_blocks(rng, sizes):
    return [[[rng.randint(0, 1) for _ in range(sizes[k + 1])] for _ in range(sizes[k])]
            for k in range(len(sizes) - 1)]


def block_posets():
    """Four seeded 0/1-block posets: a plain one, one with mute nodes, one
    whose middle block is zero, and a deep one of 6 levels x 4 nodes."""
    rng = random.Random(20)
    plain = from_blocks([2, 3, 2, 3], _random_blocks(rng, [2, 3, 2, 3]))
    mute = from_blocks([3, 2, 3], [[[1, 0], [0, 0], [1, 1]], [[0, 0, 0], [1, 0, 1]]])
    assert mute.has_mute_nodes
    sizes = [2, 2, 3, 1]
    blocks = _random_blocks(rng, sizes)
    blocks[1] = [[0] * 3 for _ in range(2)]
    deep = from_blocks([4] * 6, _random_blocks(random.Random(22), [4] * 6))
    return {"blocks-plain": plain, "blocks-mute": mute,
            "blocks-zero": from_blocks(sizes, blocks), "blocks-deep": deep}


def posets():
    """file stem -> poset: every preset cobweb of 1-5 levels, rooted and
    unrooted, and the block posets."""
    out = {}
    for spec in SEQS:
        F = preset(spec)
        tag = spec.replace(":q=", "").replace(":", "")
        for n in range(1, 6):
            out[f"{tag}-{n}"] = cobweb(F, n)
            out[f"{tag}-{n}-root"] = root(F, n)
    out.update(block_posets())
    return out


# the posets that run every method, format, flag and suite; the rest run
# LIGHT_CALLS, which between them reach every kernel on every poset
FULL_SWEEP = ("nat-4", "fib-3-root", "gauss2-5", "const2-2-root",
              "blocks-plain", "blocks-mute", "blocks-zero")


def light_calls(f):
    return [["check", f], ["zeta", f], ["mobius", f, "--format", "json"], ["max", f, "--inverse"]]


def general_calls(f):
    """Dense rows that mix multi-digit, negative and one-digit entries:
    chain counts up to 18, Moebius values -3..2, eta inverse -18..13."""
    calls = [["max", f], ["eta", f, "--inverse"]]
    calls += [["mobius", f, "--method", method] for method in ("invert", "recurrence")]
    return [argv + ["--format", fmt] for argv in calls for fmt in ("csv", "json")]


def full_calls(f, P):
    n = P.n_levels
    calls = []
    for method in ("closure", "label-delta", "label-knuth", "label-s"):
        calls += [["zeta", f, "--method", method, "--format", fmt]
                  for fmt in ("csv", "json", "ascii")]
    for method in ("closed-form", "invert", "recurrence"):
        calls += [["mobius", f, "--method", method, "--format", fmt] for fmt in ("csv", "json")]
    for cmd in ("max", "eta"):
        calls += [[cmd, f, *inv, "--format", fmt]
                  for inv in ([], ["--inverse"]) for fmt in ("csv", "json")]
    calls += [["check", f, "--suite", s]
              for s in ("zeta", "mobius", "max", "markov", "whitney")]
    return calls + [
        ["whitney", f], ["charpoly", f], ["dot", f], ["lascala", f],
        ["chains", f, "--from", "1", "--to", str(n)],
        ["chains", f, "--from", "1", "--to", str(n), "--count-only"],
        ["chains", f, "--from", str(max(1, n - 1)), "--to", str(n)],
        ["chains", f, "--interval", "1", str(P.node_count)],
        ["zeta", f, "-o", OUT], ["mobius", f, "--format", "json", "-o", OUT],
        ["max", f, "--inverse", "-o", OUT], ["eta", f, "-o", OUT],
        ["dot", f, "-o", OUT], ["chains", f, "--from", "1", "--to", str(n), "-o", OUT]]


def sequence_calls():
    calls = []
    for spec in SEQS:
        for n in range(1, 6):
            calls += [["gen", "--seq", spec, "--levels", str(n)],
                      ["gen", "--seq", spec, "--levels", str(n), "--root"],
                      ["coding", "--seq", spec, "--levels", str(n),
                       "--format", ("csv", "json")[n % 2]],
                      ["admissible", "--seq", spec, "--up-to", str(n)],
                      ["fnomial", "--seq", spec, str(n), str(n // 2)],
                      ["kroton", "--seq", spec, "1", str(n)]]
        calls += [["gen", "--seq", spec, "--levels", "3", "-o", OUT],
                  ["coding", "--seq", spec, "--levels", "3", "--format", "json", "-o", OUT]]
    return calls


ERROR_CALLS = [
    [], ["zeta"], ["bogus"], ["zeta", "missing.json"], ["zeta", "bad.json"],
    ["zeta", "nat-3.json", "--method", "bogus"], ["check", "nat-3.json", "--suite", "bogus"],
    ["zeta", "nat-3.json", "-o", "no-such-dir/out.csv"],
    ["gen"], ["gen", "--seq", "nat"], ["gen", "--seq", "nope", "--levels", "3"],
    ["gen", "--seq", "nat", "--levels", "13"], ["gen", "--seq", "nat", "--levels", "x"],
    ["gen", "--seq", "gauss:q=1", "--levels", "3"], ["gen", "--seq", "const:x", "--levels", "3"],
    ["gen", "--blocks", "blocks.json"], ["gen", "--blocks", "blocks.json", "--root"],
    ["gen", "--blocks", "blocks.json", "--levels", "5"],
    ["gen", "--blocks", "blocks.json", "--seq", "nat"],
    ["gen", "--blocks", "ragged.json"], ["gen", "--blocks", "missing.json"],
    ["chains", "nat-3.json"], ["chains", "nat-3.json", "--from", "0", "--to", "2"],
    ["chains", "nat-3.json", "--from", "3", "--to", "1"],
    ["chains", "nat-3.json", "--interval", "0", "6"],
    ["chains", "nat-3.json", "--interval", "1", "99"],
    ["whitney", "nat-3.json"], ["charpoly", "blocks-plain.json"],
    ["fnomial", "--seq", "nat", "-1", "2"], ["fnomial", "--seq", "nat", "2", "3"],
    ["kroton", "--seq", "nat", "3", "1"], ["kroton", "--seq", "nat", "0", "2"],
    ["coding", "--seq", "nat", "--levels", "0"], ["coding", "--seq", "nat", "--levels", "13"],
    ["admissible", "--seq", "nat", "--up-to", "13"], ["admissible", "--seq", "nat", "--up-to", "0"],
    ["-h"], ["zeta", "-h"], ["gen", "-h"],
]


def write_inputs(workdir: Path, table):
    for name, P in table.items():
        (workdir / f"{name}.json").write_text(poset_to_json(P))
    (workdir / "bad.json").write_text("{not json")
    (workdir / "blocks.json").write_text(json.dumps(
        [[list(row) for row in b] for b in table["blocks-plain"].blocks]))
    (workdir / "ragged.json").write_text(json.dumps([[[1, 0], [1]]]))


def all_calls(table):
    calls = []
    for name, P in table.items():
        f = f"{name}.json"
        calls += light_calls(f) + (full_calls(f, P) if name in FULL_SWEEP else [])
    calls += general_calls("blocks-deep.json")
    return calls + sequence_calls() + ERROR_CALLS


def run_one(argv, workdir: Path) -> str:
    """sha256 over the exit code, stdout, stderr and the -o file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    target = workdir / OUT
    written = target.read_text() if OUT in argv and target.exists() else None
    if written is not None:
        target.unlink()
    record = json.dumps([code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()


def digests(workdir: Path):
    """argv joined by spaces -> digest, for every call, run in workdir."""
    table = posets()
    write_inputs(workdir, table)
    return {" ".join(argv): run_one(argv, workdir) for argv in all_calls(table)}


def test_cli_output_matches_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COBWEB_MAX_LEVELS", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    got = digests(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    assert [argv for argv in want if got[argv] != want[argv]] == []


if __name__ == "__main__":
    os.environ.pop("COBWEB_MAX_LEVELS", None)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            table = digests(Path(tmp))
        finally:
            os.chdir(here)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
