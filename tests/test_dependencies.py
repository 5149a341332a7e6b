"""Every third-party import is a declared dependency.

``src/repro`` may import only the standard library, itself and
``[project].dependencies``; the test suite may additionally import the
``test`` optional-dependency group that CI installs.  A module imported
anywhere in a file counts, including imports deferred into functions.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _requirement_names(block: str) -> set[str]:
    """Import names of the quoted requirements in a TOML array body."""
    names = set()
    for req in re.findall(r'"([^"]+)"', block):
        name = re.match(r"[A-Za-z0-9_.-]+", req).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _declared() -> tuple[set[str], set[str]]:
    """(runtime dependencies, the ``test`` extra) from pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    runtime = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    test = re.search(r"^test\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert runtime and test, "pyproject.toml lost a dependency list"
    return _requirement_names(runtime.group(1)), _requirement_names(test.group(1))


def _third_party(root: Path, first_party: set[str]) -> dict[str, str]:
    """Top-level third-party module -> one file importing it."""
    found: dict[str, str] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if (top in sys.stdlib_module_names or top in first_party
                        or top == "__future__"):
                    continue
                found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_src_imports_only_declared_dependencies():
    runtime, _ = _declared()
    used = _third_party(ROOT / "src" / "repro", {"repro"})
    undeclared = {m: f for m, f in used.items() if m.lower() not in runtime}
    assert not undeclared, (
        f"imports missing from [project].dependencies: {undeclared}")


def test_tests_import_only_declared_dependencies():
    runtime, test = _declared()
    used = _third_party(ROOT / "tests", {"repro", "tests"})
    undeclared = {m: f for m, f in used.items()
                  if m.lower() not in runtime | test}
    assert not undeclared, (
        f"test imports missing from the 'test' extra: {undeclared}")
