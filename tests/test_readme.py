"""README.md names only what the package has."""

import importlib
import pkgutil
import re
from pathlib import Path

import cobweb

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_backticked_module_name_in_the_readme_resolves():
    modules = {m.name for m in pkgutil.iter_modules(cobweb.__path__)}
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    cited = {m.group(1, 2) for m in (re.match(r"(?:cobweb\.)?(\w+)\.(\w+)", s) for s in spans)
             if m and m.group(1) in modules}
    assert cited, "the README names no <module>.<name>"
    missing = sorted(f"{mod}.{name}" for mod, name in cited
                     if not hasattr(importlib.import_module(f"cobweb.{mod}"), name))
    assert missing == []
