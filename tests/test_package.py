import importlib
import pkgutil
import re
import subprocess
import sys
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


def test_only_the_structure_maps_are_memoized():
    # A process-wide memo keeps what it built until the process ends: only
    # the word images and psi_n, which later checks read again, may keep it.
    memos = sorted(
        f"{module_name}.{name}"
        for module_name in _module_names()
        for name, value in vars(importlib.import_module(module_name)).items()
        if getattr(value, "__module__", None) == module_name and hasattr(value, "cache_info")
    )
    assert memos == ["cactusops.ainfty.a_infinity_image", "cactusops.ainfty.word_image"]


def test_failing_property_is_reported_not_fatal(tmp_path):
    # Under the project's warning filters a failing @given test is reported
    # like any other failure, and the session goes on to the next test.
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *config, "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
