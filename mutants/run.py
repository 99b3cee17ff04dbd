"""Seeded AST mutation sampling of the cobweb package, stdlib only.

Each mutation point of the named modules is one small change to the parsed
source: a swap of + and -, | and &, << and >>, < and <=, > and >=, == and
!=, `and` and `or`; * to //; or an int constant c to c + 1.  A seeded
sample of the points runs one mutant at a time: the module, unparsed with
the one change, is written into a temporary copy of the repository, and
`pytest -x` runs there, first on the test files that import the mutated
module and then on the rest of tests/, so that most mutants die in the
first run; tests/test_mutants.py is left out, since it reads the
allowlist's source lines, which the unparsed copy no longer has.  The
checkout is never written.

The sample is SAMPLE points drawn with the fixed SEED, so two runs on the
same source run the same mutants.  A mutant is killed when the tests fail,
survives when they pass, and times out when they run past the limit.  A
survivor that equivalent.json names is reported as equivalent instead: each
entry gives the module, the stripped source line, the column, the mutation
and the reason no test can tell it from the original, and
tests/test_mutants.py holds each entry to a current mutation point.  A
control run of the unparsed, unmutated modules comes first, and three times
its duration is the limit.

    python3 mutants/run.py suites incidence chains

The exit status is 1 when the control run fails or a mutant survives that
equivalent.json does not name, and 0 otherwise.
"""

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cobweb"
ALLOWLIST = Path(__file__).resolve().parent / "equivalent.json"
SEED, SAMPLE = 0, 60
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                     ".perfbench_*", "*.egg-info", "build", "dist")

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr,
         ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.Mult: ast.FloorDiv,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.BitOr: "|", ast.BitAnd: "&", ast.LShift: "<<",
           ast.RShift: ">>", ast.Mult: "*", ast.FloorDiv: "//", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and",
           ast.Or: "or"}


def _changes(node):
    """(field, index, new value) for each mutation of node; index is None
    where the field holds one value, not a list."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
        yield "op", None, SWAPS[type(node.op)]()
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                yield "ops", i, SWAPS[type(op)]()
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield "value", None, node.value + 1


def _walk_changes(tree):
    return [(node, *change) for node in ast.walk(tree) for change in _changes(node)]


def mutation_points(module, source):
    """(module, index, line number, column, stripped line, mutation) for
    each mutation of the module's source, index counting them in ast.walk
    order."""
    lines = source.splitlines()
    points = []
    for index, (node, field, i, new) in enumerate(_walk_changes(ast.parse(source))):
        old = getattr(node, field) if i is None else getattr(node, field)[i]
        what = (f"{old} -> {new}" if field == "value"
                else f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}")
        points.append((module, index, node.lineno, node.col_offset + 1,
                       lines[node.lineno - 1].strip(), what))
    return points


def mutant_source(source, index=None):
    """The source unparsed with mutation `index` applied, or with none."""
    tree = ast.parse(source)
    if index is not None:
        node, field, i, new = _walk_changes(tree)[index]
        if i is None:
            setattr(node, field, new)
        else:
            getattr(node, field)[i] = new
    return ast.unparse(tree) + "\n"


def importing_tests(module):
    """The test files, relative to the checkout, that import the module:
    `from cobweb.<module> import`, `import cobweb.<module>` or
    `from cobweb import <module>`."""
    name = f"cobweb.{module}"
    files = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and (node.module == name or (
                    node.module == "cobweb" and any(a.name == module for a in node.names))) or
                    isinstance(node, ast.Import) and any(a.name == name for a in node.names)):
                files.append(path.relative_to(ROOT).as_posix())
                break
    return files


def run_tests(copy, timeout, first=()):
    """'killed', 'survived' or 'timed out', and the seconds the run took:
    the test files `first` run before the rest of tests/, and the rest runs
    only if they pass."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
              "--hypothesis-seed=0", "--ignore=tests/test_mutants.py"]
    runs = [list(first), [f"--ignore={f}" for f in first] + ["tests"]] if first else [["tests"]]
    start = time.monotonic()
    for args in runs:
        left = None if timeout is None else timeout - (time.monotonic() - start)
        try:
            done = subprocess.run(pytest + args, cwd=copy, env=env, timeout=left,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timed out", time.monotonic() - start
        if done.returncode != 0:
            return "killed", time.monotonic() - start
    return "survived", time.monotonic() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/cobweb, e.g. suites")
    args = parser.parse_args(argv)

    # read once, so that an edit of the checkout during the run changes nothing
    sources = {m: (SRC / f"{m}.py").read_text(encoding="utf-8") for m in args.modules}
    points = [p for m in args.modules for p in mutation_points(m, sources[m])]
    sample = sorted(random.Random(SEED).sample(points, min(SAMPLE, len(points))),
                    key=lambda p: (p[0], p[2], p[3], p[1]))
    allowed = {(e["module"], e["line"], e["column"], e["mutation"])
               for e in json.loads(ALLOWLIST.read_text(encoding="utf-8"))}
    print(f"{len(points)} mutation points in {', '.join(args.modules)}; "
          f"running {len(sample)} (seed {SEED})", flush=True)

    tally = dict.fromkeys(("killed", "survived", "equivalent", "timed out"), 0)
    with tempfile.TemporaryDirectory(prefix="cobweb-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        target = copy / "src" / "cobweb"
        for m in args.modules:
            (target / f"{m}.py").write_text(mutant_source(sources[m]), encoding="utf-8")
        status, seconds = run_tests(copy, None)
        print(f"control (unparsed, unmutated): {status} in {seconds:.1f} s", flush=True)
        if status != "survived":
            return 1
        timeout = 3 * seconds
        first = {m: importing_tests(m) for m in args.modules}
        for module, index, lineno, col, line, what in sample:
            path = target / f"{module}.py"
            path.write_text(mutant_source(sources[module], index), encoding="utf-8")
            status, seconds = run_tests(copy, timeout, first[module])
            path.write_text(mutant_source(sources[module]), encoding="utf-8")
            if status == "survived" and (module, line, col, what) in allowed:
                status = "equivalent"
            tally[status] += 1
            print(f"{status:<10} {module}.py:{lineno}:{col}  {what:<8}  {line}  ({seconds:.1f} s)",
                  flush=True)
    print(", ".join(f"{n} {k}" for k, n in tally.items()))
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
