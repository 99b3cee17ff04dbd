"""The CLI as its own process.

Called with no argv, cli.main is the process entry: it flushes stdout and
stderr itself, turns a failed flush into the one-line `cobweb: ...` error,
and ends the process with os._exit.  Called with an argv it is an in-process
call that returns its code and leaves the collector as it was.  The process
path is held to the same golden digests as the in-process one, a well-formed
call of every benchmark shape is checked to run without importing argparse,
and a fresh `import cobweb.cli` is checked to load every module the
benchmark tracer binds in.
"""

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cobweb as cobweb_pkg
from cobweb import cli, const
from cobweb.formats import poset_to_json
from cobweb.poset import cobweb

from test_cli_golden import GOLDEN, OUT, all_calls, posets, write_inputs

REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(cobweb_pkg.__file__).parents[1])
FNOMIAL = ["fnomial", "--seq", "nat", "4", "2"]
REFUSED = ["fnomial", "--seq", "nat", "2", "3"]


def process_env():
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    env.pop("COBWEB_MAX_LEVELS", None)
    # a block-buffered stdout, so output the entry does not flush is lost
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_in_process_call_leaves_the_collector_as_it_was(capsys):
    before = (gc.get_freeze_count(), gc.isenabled())
    assert cli.main(list(FNOMIAL)) == 0
    assert capsys.readouterr().out == "6\n"
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# the three ways into the entry call; an entry that returned, or raised
# SystemExit, would print "returned" after the command's own output
ENTRY_PATHS = {
    "-m": lambda argv: ["-m", "cobweb.cli", *argv],
    "runpy": lambda argv: ["-c", "import runpy, sys\n"
                                 f"sys.argv = ['cobweb', *{argv!r}]\n"
                                 "try:\n"
                                 "    runpy.run_module('cobweb.cli', run_name='__main__')\n"
                                 "except SystemExit:\n"
                                 "    pass\n"
                                 "print('returned')"],
    "sys.argv": lambda argv: ["-c", "import sys\n"
                                    "from cobweb import cli\n"
                                    f"sys.argv = ['cobweb', *{argv!r}]\n"
                                    "cli.main()\n"
                                    "print('returned')"],
}


@pytest.mark.parametrize("path", ENTRY_PATHS)
@pytest.mark.parametrize("argv, want", [
    (FNOMIAL, (0, "6\n", "")),
    (REFUSED, (1, "", "cobweb: fnomial needs 0 <= k <= n, got n=2 k=3\n")),
], ids=["ok", "refused"])
def test_entry_path_exits_with_the_code_and_its_flushed_output(path, argv, want):
    proc = subprocess.run([sys.executable, *ENTRY_PATHS[path](argv)], capture_output=True,
                          text=True, env=process_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_failed_final_flush_is_one_error_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cobweb.cli", *FNOMIAL], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=process_env())
    assert (proc.returncode, proc.stderr) == \
        (1, "cobweb: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["-h"], ["zeta", "-h"]], ids=["-h", "zeta -h"])
def test_failed_help_write_is_one_error_line(argv, unbuffered):
    # buffered, the help fails in the final flush; unbuffered, in its write,
    # which argparse's own print_help would drop for an exit 0
    env = dict(process_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cobweb.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env)
    assert (proc.returncode, proc.stderr) == \
        (1, "cobweb: [Errno 28] No space left on device\n")


def test_closed_pipe_is_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cobweb.cli", *FNOMIAL], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=process_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "cobweb: [Errno 32] Broken pipe\n")


# one call of each shape the benchmark workloads run, on files made by the
# first three
FAST_CALLS = [
    ["gen", "--seq", "nat", "--levels", "4", "-o", "p.json"],
    ["gen", "--seq", "fib", "--levels", "3", "--root", "-o", "r.json"],
    ["gen", "--blocks", "b.json", "-o", "g.json"],
    ["zeta", "p.json", "--method", "label-s", "-o", "z.csv"],
    ["zeta", "g.json"],
    ["mobius", "p.json", "--method", "closed-form", "--format", "json"],
    ["mobius", "g.json", "--method", "recurrence", "-o", "m.csv"],
    ["max", "g.json"],
    ["eta", "p.json", "--inverse", "-o", "e.csv"],
    ["check", "r.json", "--suite", "all"],
    ["chains", "p.json", "--from", "1", "--to", "4"],
    ["chains", "p.json", "--from", "2", "--to", "4", "--count-only", "-o", "c.txt"],
    ["chains", "p.json", "--interval", "1", "10"],
    ["fnomial", "--seq", "fib", "6", "3"],
    ["kroton", "--seq", "gauss:q=2", "2", "5"],
    ["coding", "--seq", "const:2", "--levels", "4"],
    ["admissible", "--seq", "nat", "--up-to", "6"],
    ["whitney", "r.json"],
    ["charpoly", "r.json"],
    ["dot", "p.json", "-o", "d.txt"],
    ["lascala", "r.json"],
]


def test_benchmark_call_shapes_never_import_argparse(tmp_path):
    (tmp_path / "b.json").write_text("[[[1, 0], [1, 1]], [[0, 1, 1], [1, 0, 0]]]")
    code = ("import contextlib, io, sys\n"
            "import cobweb.cli as cli\n"
            "loaded = ['argparse' in sys.modules]\n"
            f"for argv in {FAST_CALLS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        loaded.append((cli.main(argv), 'argparse' in sys.modules))\n"
            "print(loaded)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=process_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{[False] + [(0, False)] * len(FAST_CALLS)}\n"


def test_console_script_is_the_entry_call():
    module, attr = re.search(r'^cobweb = "([\w.]+):(\w+)"$',
                             (REPO / "pyproject.toml").read_text(), re.M).groups()
    assert getattr(importlib.import_module(module), attr) is cli.main


def golden_record(code, out, err, written):
    """The digest test_cli_golden.run_one takes of one call."""
    record = json.dumps([code, out, err, written])
    return hashlib.sha256(record.encode()).hexdigest()


def run_process(argv, cwd):
    proc = subprocess.run([sys.executable, "-m", "cobweb.cli", *argv], cwd=cwd,
                          capture_output=True, env=process_env())
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_process_output_matches_recorded_digests(tmp_path):
    # every 20th golden call, with stdout a real pipe flushed at exit
    table = posets()
    write_inputs(tmp_path, table)
    want = json.loads(GOLDEN.read_text())
    calls = all_calls(table)[::20]
    assert len(calls) >= 30
    moved = []
    for argv in calls:
        code, out, err = run_process(argv, tmp_path)
        target = tmp_path / OUT
        written = target.read_text() if OUT in argv and target.exists() else None
        if written is not None:
            target.unlink()
        if golden_record(code, out, err, written) != want[" ".join(argv)]:
            moved.append(argv)
    assert moved == []


def test_process_listing_matches_the_in_process_listing(tmp_path):
    path = tmp_path / "const5.json"
    path.write_text(poset_to_json(cobweb(const(5), 6)))
    argv = ["chains", str(path), "--from", "1", "--to", "6"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    code, out, err = run_process(argv, tmp_path)
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 15625
    assert hashlib.sha256(out.encode()).hexdigest() == \
        hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_import_loads_every_module_the_tracer_binds_in():
    # perfbench/tracer.py looks each TARGETS module up in sys.modules after
    # `import cobweb.cli`; a lazy import would break the traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = sorted({mod for mod, _ in tracer.TARGETS})
    assert "cobweb.cli" in wanted and len(wanted) > 5
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, cobweb.cli; "
                           f"print([m for m in {wanted!r} if m not in sys.modules])"],
                          capture_output=True, text=True, env=process_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
