import importlib
import pkgutil
import re
from pathlib import Path

import cactusops

ROOT = Path(__file__).resolve().parents[1]


def _module_names():
    # __main__ is skipped: importing it runs the command line.
    return [
        f"cactusops.{info.name}"
        for info in pkgutil.iter_modules(cactusops.__path__)
        if info.name != "__main__"
    ]


def test_every_exported_name_resolves():
    for module_name in ["cactusops"] + _module_names():
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


def test_every_exported_name_is_used_or_documented():
    # A public name that only its own definition and __all__ entry mention
    # exists only for tests: it must be used in the package or named in
    # the README.
    lines = [
        line
        for path in sorted((ROOT / "src" / "cactusops").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for module_name in _module_names():
        for name in getattr(importlib.import_module(module_name), "__all__", []):
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = re.compile(rf'\s*((def|class) {re.escape(name)}\b|"{re.escape(name)}",$)')
            used = any(word.search(line) and not own.match(line) for line in lines)
            if not used and not word.search(readme):
                unused.append(f"{module_name}.{name}")
    assert unused == []
