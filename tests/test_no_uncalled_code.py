"""Guard against library code that nothing runs.

Two checks. *Modules:* every module under ``src/`` must be imported,
directly or through other modules, from a shipped entry point — the
``autosens`` console script (``repro.cli.main``), ``python -m repro``
(``repro.__main__``), or a file under ``perfbench/``, ``benchmarks/``,
``examples/`` or ``tools/``. Any import statement counts, a function-level
one included; importing a module also runs its parent packages. A set of
modules that only import each other is unreachable.

*Names:* every top-level ``def``/``class`` under ``src/`` must be referenced from
somewhere that ships or runs: ``src/`` itself, ``perfbench/``,
``benchmarks/``, ``examples/``, ``tools/`` or ``.github/``. In Python
files only code counts: names, attributes and imported names from the
syntax tree, plus string constants that are a bare identifier (an
``__all__`` entry, a ``getattr`` name). A mention in a docstring, a
comment or a prose string is not a call. Tests do not count as callers,
a name's uses inside its own definition do not count, and neither do
re-exports in an ``__init__.py`` (its imports, its ``__all__`` and a
lazy module ``__getattr__``).
"""

from __future__ import annotations

import ast
import re
import shutil
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "perfbench", "benchmarks", "examples", "tools",
               ".github")

#: Names kept without a production caller, each with its reason.
ALLOWLIST = {
    "ar1_series": "AR(1) data generator the locality-statistics tests draw from",
    "is_guid_shaped": "checker the anonymisation tests apply to emitted tokens",
    "iter_jsonl": "per-row JSONL reference the batch-reader tests compare against",
    "iter_csv": "per-row CSV reference the batch-reader tests compare against",
}

#: Programs that import ``src/``, besides the two entry modules below.
SHIPPED_DIRS = ("perfbench", "benchmarks", "examples", "tools")
#: Modules run as programs: the console script and ``python -m repro``.
ENTRY_MODULES = ("repro.cli.main", "repro.__main__")

#: Modules kept without a shipped importer, each with its reason.
MODULE_ALLOWLIST: Dict[str, str] = {}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_reexport(node: ast.stmt) -> bool:
    """An ``__init__.py`` statement that only re-exports names."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _code_names(node: ast.AST) -> Counter:
    """Identifiers ``node``'s code uses; bare string statements
    (docstrings) are prose, not code."""
    docstrings = {id(sub.value) for sub in ast.walk(node)
                  if isinstance(sub, ast.Expr)}
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub.value.isidentifier() and id(sub) not in docstrings):
            names[sub.value] += 1
    return names


def _scan() -> tuple:
    """(top-level definitions in src/ by name, identifier counts over every
    caller file with each definition's own name left out of its body)."""
    defs: Dict[str, List[str]] = {}
    refs: Counter = Counter()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            if path.suffix != ".py":
                if top == ".github":
                    refs.update(_IDENT.findall(text))
                continue
            for node in ast.parse(text).body:
                if path.name == "__init__.py" and _is_reexport(node):
                    continue
                names = _code_names(node)
                if isinstance(node, _DEFS) and not node.name.startswith("__"):
                    names.pop(node.name, None)
                    if top == "src":
                        defs.setdefault(node.name, []).append(
                            f"{path.relative_to(ROOT)}::{node.name}")
                refs.update(names)
    return defs, refs


def test_every_top_level_definition_has_a_caller():
    defs, refs = _scan()
    uncalled = sorted(site for name, sites in defs.items()
                      if not refs[name] and name not in ALLOWLIST
                      for site in sites)
    assert not uncalled, (
        "top-level definitions that nothing outside tests references "
        "(delete them, or allowlist with a reason):\n  "
        + "\n  ".join(uncalled))


def test_allowlist_names_exist_and_are_still_uncalled():
    defs, refs = _scan()
    for name in ALLOWLIST:
        assert name in defs, f"allowlisted {name!r} is no longer defined"
        assert not refs[name], f"allowlisted {name!r} now has a caller"


def _imported_modules(tree: ast.AST, package: Optional[List[str]]) -> Set[str]:
    """Every dotted name an import in ``tree`` may load: the module, its
    parent packages and, for ``from m import x``, ``m.x``. ``package`` is
    the importing module's package, for relative imports (``None`` skips
    them)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            if node.level:
                if package is None:
                    continue
                base = package[:len(package) - node.level + 1] + base
            targets = [".".join(base + [alias.name]) for alias in node.names]
            targets.append(".".join(base))
        else:
            continue
        for target in targets:
            parts = target.split(".")
            names.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return names


def _unreachable_modules(src: Path, shipped_root: Path = ROOT) -> List[str]:
    """Modules under ``src`` that no shipped entry point reaches."""
    graph: Dict[str, Set[str]] = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[".".join(parts)] = _imported_modules(tree, package)
    frontier = set(ENTRY_MODULES)
    for top in SHIPPED_DIRS:
        for path in sorted((shipped_root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            frontier |= _imported_modules(tree, None)
    seen: Set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in graph and module not in seen:
            seen.add(module)
            frontier |= graph[module]
    return sorted(set(graph) - seen)


def test_every_module_is_reachable_from_an_entry_point():
    unreachable = [module for module in _unreachable_modules(ROOT / "src")
                   if module not in MODULE_ALLOWLIST]
    assert not unreachable, (
        "modules that no shipped entry point imports (delete them, or "
        "allowlist with a reason):\n  " + "\n  ".join(unreachable))


def test_module_allowlist_entries_exist_and_are_still_unreachable():
    unreachable = _unreachable_modules(ROOT / "src")
    for module in MODULE_ALLOWLIST:
        assert module in unreachable, (
            f"allowlisted module {module!r} is gone or now reachable")


def test_a_planted_island_is_unreachable(tmp_path):
    """Two modules that import only each other and ``repro.errors`` are
    caught; the copy's real modules are not."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (src / "repro" / "island.py").write_text(
        "from repro.errors import ConfigError\nfrom repro import islet\n")
    (src / "repro" / "islet.py").write_text("from . import island\n")
    assert _unreachable_modules(src) == sorted(
        ["repro.island", "repro.islet", *MODULE_ALLOWLIST])
