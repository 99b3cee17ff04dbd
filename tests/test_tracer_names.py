"""The names the benchmark tracer binds in the package.

perfbench/tracer.py wraps functions by (module, attribute) and looks the
zeta, mobius, max and eta kernels up in cobweb.cli by name.  A refactor that
drops one of them breaks the traced benchmark run, so they are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cobweb.cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # the tracer imports only the standard library at the top
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracer):
    missing = [(mod, attr) for mod, attr in tracer.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_every_kernel_is_bound_in_the_cli(tracer):
    assert [name for name in tracer.KERNELS if not hasattr(cobweb.cli, name)] == []
