"""Every entry of the mutation sampler's allowlist, mutants/equivalent.json,
names a mutation point that the current source still has."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_sampler():
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowlisted_mutant_is_a_current_mutation_point():
    sampler = load_sampler()
    entries = json.loads(sampler.ALLOWLIST.read_text(encoding="utf-8"))
    current = set()
    for module in {e["module"] for e in entries}:
        source = (sampler.SRC / f"{module}.py").read_text(encoding="utf-8")
        current |= {(module, line, col, what)
                    for _, _, _, col, line, what in sampler.mutation_points(module, source)}
    stale = [e for e in entries
             if (e["module"], e["line"], e["column"], e["mutation"]) not in current]
    assert entries and stale == []


def test_the_test_files_that_import_a_module_run_first():
    sampler = load_sampler()
    first = sampler.importing_tests("blockmat")
    # `from cobweb.blockmat import` and `from cobweb import ..., blockmat, ...`
    assert {"tests/test_blockmat.py", "tests/test_pull_oracles.py"} <= set(first)
    # importing the package alone does not count
    assert "tests/test_cli.py" not in first
    assert first == sorted(first)
    assert all((ROOT / f).is_file() for f in first)
