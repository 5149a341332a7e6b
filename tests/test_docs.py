"""Documentation consistency checks."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).parent.parent


class TestDocsPresent:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/ARCHITECTURE.md", "docs/PROTOCOL.md",
                 "docs/HISTORY.md"]
    )
    def test_exists_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 1000, f"{name} is a stub"


class TestProtocolDocInSync:
    def test_protocol_md_matches_table(self):
        from repro.coma.protocol import format_table

        doc = (ROOT / "docs" / "PROTOCOL.md").read_text()
        assert format_table() in doc, (
            "docs/PROTOCOL.md is stale; regenerate it from "
            "repro.coma.protocol.format_table()"
        )


class TestPublicApiDocumented:
    def test_package_docstrings(self):
        """Every repro subpackage carries a module docstring."""
        import importlib
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(info.name)
            assert mod.__doc__, f"{info.name} lacks a docstring"

    def test_version_exposed(self):
        assert repro.__version__

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


# ---------------------------------------------------------------------------
# every documented `coma-sim ...` invocation must parse
# ---------------------------------------------------------------------------

_DOC_SOURCES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
                ".claude/skills/verify/SKILL.md")
# `coma-sim` as a command word, not inside a path or `inline code`.
_COMMAND = re.compile(r"(?<![\w`/-])coma-sim(?=\s|$)")
# Shell syntax that ends the coma-sim argument list.
_CUT = re.compile(r"\s(?:\d?>|<|\||&|#)")


def _fenced_blocks(text: str):
    """(first line number, lines) of each ``` fenced block."""
    block, start = None, 0
    for no, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            if block is None:
                block, start = [], no + 1
            else:
                yield start, block
                block = None
        elif block is not None:
            block.append(line)


def _run_blocks(text: str):
    """(first line number, lines) of each ``run:`` step in a workflow."""
    block, start, indent = None, 0, 0
    for no, line in enumerate(text.splitlines(), 1):
        if block is not None:
            if not line.strip() or len(line) - len(line.lstrip()) > indent:
                block.append(line)
                continue
            yield start, block
            block = None
        m = re.match(r"^(\s*)(?:- )?run:\s*(\|)?\s*(.*)$", line)
        if m and m.group(2):
            block, start, indent = [], no + 1, len(m.group(1))
        elif m:
            yield no, [m.group(3)]
    if block is not None:
        yield start, block


def _invocations(start: int, lines: list):
    """(line number, argv) of each coma-sim command in a shell block:
    ``\\`` continuations joined, comment lines skipped, each command cut
    at the first redirection, pipe, ``&`` or trailing comment."""
    pending, first = "", start
    for no, line in enumerate(lines, start):
        text = line.strip()
        if not pending:
            first = no
        text = f"{pending} {text}" if pending else text
        if text.endswith("\\"):
            pending = text[:-1]
            continue
        pending = ""
        m = _COMMAND.search(text)
        if text.startswith("#") or m is None:
            continue
        command = _CUT.split(text[m.start():])[0]
        yield first, shlex.split(command)[1:]


def documented_invocations() -> list:
    found = []
    sources = [p for pattern in _DOC_SOURCES for p in sorted(ROOT.glob(pattern))]
    for path in sources:
        name = path.relative_to(ROOT).as_posix()
        for start, block in _fenced_blocks(path.read_text()):
            found += [(f"{name}:{no}", argv)
                      for no, argv in _invocations(start, block)]
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    for start, block in _run_blocks(ci.read_text()):
        found += [(f"ci.yml:{no}", argv)
                  for no, argv in _invocations(start, block)]
    return found


_INVOCATIONS = documented_invocations()


class TestDocumentedInvocations:
    """A flag the CLI drops or renames fails here, before it breaks CI
    or leaves a stale example in the docs."""

    @pytest.mark.parametrize(
        "argv", [argv for _, argv in _INVOCATIONS],
        ids=[where for where, _ in _INVOCATIONS])
    def test_parses(self, argv, capsys):
        from repro.cli import build_parser

        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"coma-sim {' '.join(argv)}: "
                        f"{capsys.readouterr().err.strip()}")

    def test_extractor_finds_ci_and_readme_commands(self):
        where = {w.split(":")[0] for w, _ in _INVOCATIONS}
        assert {"ci.yml", "README.md"} <= where
