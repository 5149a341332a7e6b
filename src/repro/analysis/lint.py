"""Simulator-hygiene linter: a custom ``ast`` pass over ``src/repro``.

The simulator's results must be bit-reproducible (the golden tests and
the result cache depend on it), so a handful of Python constructs are
banned outright in the deterministic core — the ``sim``, ``coma``,
``numa``, ``uma``, ``bus``, ``timing``, ``obs``, ``workloads`` and
``common`` subsystems — and a few more are banned everywhere:

=======  ==============================================================
rule     meaning
=======  ==============================================================
DET001   wall-clock call (``time.time``, ``datetime.now``, …) in a
         deterministic module: simulated time comes from the event loop
DET002   unseeded randomness (global ``random.*`` functions, argless
         ``random.Random()`` / ``numpy.random.default_rng()``,
         ``SystemRandom``) in a deterministic module: seed through
         :func:`repro.common.rng.derive_seed`
MUT001   mutable default argument (shared across calls; use None)
FLT001   float ``==``/``!=`` against a float literal in a deterministic
         module: cycle/latency accounting must stay integral
EXC001   bare ``except:`` (swallows KeyboardInterrupt and typos alike)
SYN001   file does not parse
=======  ==============================================================

Functions decorated ``@hotpath`` (:mod:`repro.common.hotpath`) are
additionally held to the hot-path discipline anywhere in the
tree — the decorator is the claim, these rules are the check:

=======  ==============================================================
HOT001   tuple- or string-keyed dict lookup in a ``@hotpath`` function:
         interpreted table dispatch; intern the key to a small int at
         build time (int-keyed index dicts are fine)
HOT002   allocation (list/dict/set display, comprehension, ``list()``,
         ``sorted()``, ...) in a ``@hotpath`` function; tuples are
         exempt
HOT003   attribute chain of depth >= 2 (``a.b.c``) re-resolved two or
         more times in one ``@hotpath`` function — hoist the prefix
         into a local
=======  ==============================================================

Suppress a finding for one line with a trailing ``# noqa: RULE`` (or
``# lint: disable=RULE``; comma-separate several IDs; a bare ``# noqa``
suppresses everything on the line).  See ``docs/VERIFICATION.md``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Optional

from repro.analysis.report import AnalysisReport, Finding

RULES = {
    "DET001": "wall-clock call in a deterministic module",
    "DET002": "unseeded randomness in a deterministic module",
    "MUT001": "mutable default argument",
    "FLT001": "float equality in timing/latency code",
    "EXC001": "bare except",
    "SYN001": "syntax error",
    "HOT001": "tuple/string-keyed dict lookup in a @hotpath function",
    "HOT002": "allocation in a @hotpath function",
    "HOT003": "attribute chain re-resolved in a @hotpath function",
}

#: Subsystems whose results feed simulated time / coherence decisions.
#: ``obs`` is included because trace files must be deterministic: sinks
#: take timestamps as parameters, never from the wall clock.
#: ``workloads`` generates the reference streams every figure is
#: computed from, so it is held to the same standard: all randomness
#: must flow through the seeded per-purpose RNGs.  ``numa`` and ``uma``
#: are the baseline machines, and ``common`` holds the write front every
#: machine shares: all three decide pinned results as ``coma`` does.
RESTRICTED_SUBSYSTEMS = frozenset({
    "sim", "coma", "numa", "uma", "bus", "timing", "obs", "workloads",
    "common",
})

#: Files *inside* restricted subsystems that are explicitly exempt from
#: the DET rules.  The metrics exporters stamp wall-clock
#: provenance on their output — host facts, like ``obs/manifest.py``'s
#: git revision — so they live outside the deterministic core even
#: though they sit next to the (restricted) registry they export.
#: Paths are package-relative ``(subsystem, ..., filename)`` tuples.
UNRESTRICTED_FILES = frozenset({
    ("obs", "openmetrics.py"),
})

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: random-module calls that use the hidden global (unseeded) generator.
_GLOBAL_RANDOM = re.compile(r"^random\.(?!Random$|SystemRandom$)\w+$")

_NUMPY_LEGACY_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "seed",
})

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.deque", "collections.Counter",
    "collections.OrderedDict",
})

#: Constructor calls HOT002 treats as allocations (``tuple`` is exempt:
#: packing a fixed-arity return is cheap and has no growth cost).
_HOT_ALLOC_CALLS = frozenset({
    "list", "dict", "set", "frozenset", "bytearray", "sorted",
})

_SUPPRESS = re.compile(r"#\s*(?:noqa|lint:\s*disable=?)\s*:?\s*([A-Z0-9, ]*)")


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, restricted: bool) -> None:
        self.path = path
        self.restricted = restricted
        self.findings: list[Finding] = []
        #: local name -> fully dotted module/attribute it refers to
        self.imports: dict[str, str] = {}

    # -- import tracking ----------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.imports[local] = alias.name if alias.asname else local
            if alias.asname:
                self.imports[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def _dotted(self, node: ast.expr) -> Optional[str]:
        """Resolve an expression to a dotted name through the imports."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    # -- findings ------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule=rule, message=message, path=self.path,
                    line=getattr(node, "lineno", 0))
        )

    # -- DET001 / DET002 ----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.restricted:
            name = self._dotted(node.func)
            if name is not None:
                self._check_wall_clock(node, name)
                self._check_randomness(node, name)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, name: str) -> None:
        if name in _WALL_CLOCK:
            self._report(
                "DET001", node,
                f"call to {name}() — results must be reproducible; simulated "
                "time comes from the event loop, never the host clock",
            )

    def _check_randomness(self, node: ast.Call, name: str) -> None:
        argless = not node.args and not node.keywords
        if name == "random.SystemRandom":
            self._report(
                "DET002", node,
                "SystemRandom is nondeterministic by design — use "
                "random.Random(derive_seed(...)) from repro.common.rng",
            )
        elif name == "random.Random" and argless:
            self._report(
                "DET002", node,
                "random.Random() without a seed — pass "
                "derive_seed(config.seed, ...) from repro.common.rng",
            )
        elif _GLOBAL_RANDOM.match(name):
            self._report(
                "DET002", node,
                f"{name}() uses the hidden global generator — create a "
                "random.Random(derive_seed(...)) instance instead",
            )
        elif name == "numpy.random.default_rng" and argless:
            self._report(
                "DET002", node,
                "numpy.random.default_rng() without a seed — use "
                "repro.common.rng.make_rng(root, *tags)",
            )
        elif name.startswith("numpy.random.") and \
                name.rsplit(".", 1)[1] in _NUMPY_LEGACY_RANDOM:
            self._report(
                "DET002", node,
                f"{name}() uses numpy's global legacy generator — use "
                "repro.common.rng.make_rng(root, *tags)",
            )

    # -- MUT001 --------------------------------------------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in (*args.defaults, *args.kw_defaults):
            if default is None:
                continue
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                       ast.ListComp, ast.DictComp, ast.SetComp))
            if not bad and isinstance(default, ast.Call):
                name = self._dotted(default.func)
                bad = name in _MUTABLE_CALLS
            if bad:
                self._report(
                    "MUT001", default,
                    f"mutable default argument in {node.name}() is shared "
                    "across calls — default to None and create it inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_hotpath(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_hotpath(node)
        self.generic_visit(node)

    # -- HOT001 / HOT002 / HOT003 -------------------------------------
    def _is_hotpath(self, node) -> bool:
        for dec in node.decorator_list:
            name = self._dotted(dec)
            if name is not None and (
                name == "hotpath" or name.endswith(".hotpath")
            ):
                return True
        return False

    def _check_hotpath(self, node) -> None:
        if not self._is_hotpath(node):
            return
        scan = _HotScan()
        for stmt in node.body:
            scan.visit(stmt)
        for rule, target, message in scan.findings:
            self._report(rule, target, f"{message} in @hotpath {node.name}()")
        for chain, (count, first) in scan.chains.items():
            if count >= 2:
                prefix = chain.rsplit(".", 1)[0]
                self._report(
                    "HOT003", first,
                    f"attribute chain {chain} resolved {count} times in "
                    f"@hotpath {node.name}() — hoist {prefix} into a local",
                )

    # -- FLT001 --------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if self.restricted and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.Constant) and \
                        isinstance(operand.value, float):
                    self._report(
                        "FLT001", node,
                        "float equality on timing arithmetic — keep "
                        "cycle/latency accounting in integers (or compare "
                        "with a tolerance)",
                    )
                    break
        self.generic_visit(node)

    # -- EXC001 --------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "EXC001", node,
                "bare except swallows KeyboardInterrupt and typos alike — "
                "catch a specific exception (repro.common.errors has the "
                "hierarchy)",
            )
        self.generic_visit(node)


class _HotScan(ast.NodeVisitor):
    """Collects HOT-rule evidence inside one ``@hotpath`` function body.

    Nested function and lambda bodies are skipped — a nested def is
    judged by its own decorators, not its enclosing function's.
    """

    def __init__(self) -> None:
        self.findings: list[tuple[str, ast.AST, str]] = []
        #: pure dotted chain (depth >= 2) -> (load count, first node)
        self.chains: dict[str, tuple[int, ast.AST]] = {}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- HOT001 --------------------------------------------------------
    @staticmethod
    def _key_kind(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Tuple):
            return "tuple"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return "string"
        return None

    def visit_Subscript(self, node: ast.Subscript) -> None:
        kind = self._key_kind(node.slice)
        if kind is not None:
            self.findings.append((
                "HOT001", node,
                f"{kind}-keyed subscript — intern the key to a small int "
                "at build time",
            ))
        self.generic_visit(node)

    # -- HOT002 --------------------------------------------------------
    def _alloc(self, node: ast.AST, what: str) -> None:
        self.findings.append((
            "HOT002", node,
            f"{what} allocates per call — precompute it at build time or "
            "hoist it out of the hot path",
        ))

    def visit_List(self, node: ast.List) -> None:
        self._alloc(node, "list display")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._alloc(node, "dict display")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._alloc(node, "set display")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._alloc(node, "generator expression")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "get" and node.args:
            kind = self._key_kind(node.args[0])
            if kind is not None:
                self.findings.append((
                    "HOT001", node,
                    f"{kind}-keyed .get() lookup — intern the key to a "
                    "small int at build time",
                ))
        elif isinstance(func, ast.Name) and func.id in _HOT_ALLOC_CALLS:
            self._alloc(node, f"{func.id}()")
        self.generic_visit(node)

    # -- HOT003 --------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Maximal pure-name chains only (a.b.c, not f().a.b).  Store and
        # augmented-assignment targets count too: ``a.b.c = x`` resolves
        # the a.b prefix exactly like a load does.
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name) and len(parts) >= 2:
            chain = ".".join([cur.id, *reversed(parts)])
            count, first = self.chains.get(chain, (0, node))
            self.chains[chain] = (count + 1, first)
            return  # pure name chain: nothing else underneath
        self.generic_visit(node)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def _suppressed(source_line: str) -> Optional[frozenset[str]]:
    """IDs suppressed on this line; empty set = suppress everything."""
    m = _SUPPRESS.search(source_line)
    if m is None:
        return None
    ids = frozenset(x.strip() for x in m.group(1).split(",") if x.strip())
    return ids


def lint_source(
    source: str, path: str = "<string>", restricted: bool = False
) -> list[Finding]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="SYN001", message=str(exc.msg or "syntax error"),
                        path=path, line=exc.lineno or 0)]
    linter = _Linter(path, restricted)
    linter.visit(tree)
    lines = source.splitlines()
    kept = []
    for f in linter.findings:
        if 0 < f.line <= len(lines):
            ids = _suppressed(lines[f.line - 1])
            if ids is not None and (not ids or f.rule in ids):
                continue
        kept.append(f)
    return kept


def is_restricted(rel_parts: tuple[str, ...]) -> bool:
    """Whether a path (relative to the package root) is deterministic core.

    ``rel_parts`` may name a directory (subsystem scoping only) or a
    file — file paths are additionally checked against the
    ``UNRESTRICTED_FILES`` allowlist.
    """
    if not rel_parts or rel_parts[0] not in RESTRICTED_SUBSYSTEMS:
        return False
    return tuple(rel_parts) not in UNRESTRICTED_FILES


def lint_file(path: Path, package_root: Optional[Path] = None) -> list[Finding]:
    """Lint one file; ``package_root`` anchors the subsystem scoping
    (defaults to the installed ``repro`` package directory)."""
    root = package_root or default_root()
    try:
        rel = path.resolve().relative_to(root.resolve()).parts
    except ValueError:
        rel = ()
    return lint_source(path.read_text(), str(path), restricted=is_restricted(rel))


def lint_tree(root: Path) -> AnalysisReport:
    """Lint every ``*.py`` under ``root`` (treated as the package root)."""
    report = AnalysisReport()
    for path in sorted(root.rglob("*.py")):
        report.findings.extend(lint_file(path, package_root=root))
        report.stats["files"] = report.stats.get("files", 0) + 1
    return report


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).parent
