"""The CLI as its own process.

Called with no argv, cli.main is the process entry and freezes the heap it
was imported with; called with an argv it is an in-process call and leaves
the collector as it was.  The process path is held to the same golden
digests as the in-process one, and a fresh `import cobweb.cli` is checked to
load every module the benchmark tracer binds in.
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

import cobweb as cobweb_pkg
from cobweb import cli, const
from cobweb.formats import poset_to_json
from cobweb.poset import cobweb

from test_cli_golden import GOLDEN, OUT, all_calls, posets, write_inputs

REPO = Path(__file__).resolve().parents[1]
SRC = str(Path(cobweb_pkg.__file__).parents[1])
FNOMIAL = ["fnomial", "--seq", "nat", "4", "2"]


def process_env():
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    env.pop("COBWEB_MAX_LEVELS", None)
    return env


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=process_env())
    assert proc.stderr == ""
    return proc.stdout


def test_in_process_call_leaves_the_collector_as_it_was(capsys):
    before = (gc.get_freeze_count(), gc.isenabled())
    assert cli.main(list(FNOMIAL)) == 0
    assert capsys.readouterr().out == "6\n"
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_entry_call_freezes_the_import_heap():
    out = run_python("import gc, sys; from cobweb import cli; "
                     f"sys.argv = ['cobweb', *{FNOMIAL!r}]; code = cli.main(); "
                     "print(code, gc.get_freeze_count() > 0, gc.isenabled())")
    assert out == "6\n0 True True\n"


def test_module_run_goes_through_the_entry_call():
    # the body of the __main__ block, run as `python -m cobweb.cli` runs it
    out = run_python("import gc, runpy, sys\n"
                     f"sys.argv = ['cobweb', *{FNOMIAL!r}]\n"
                     "try:\n"
                     "    runpy.run_module('cobweb.cli', run_name='__main__')\n"
                     "except SystemExit as e:\n"
                     "    print(e.code, gc.get_freeze_count() > 0)")
    assert out == "6\n0 True\n"


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
