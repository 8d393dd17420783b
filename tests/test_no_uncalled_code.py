"""Guard against library code that nothing runs.

Every top-level ``def``/``class`` under ``src/`` must be referenced from
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
from collections import Counter
from pathlib import Path
from typing import Dict, List

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
