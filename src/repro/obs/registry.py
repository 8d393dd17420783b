"""Persistent run registry: an append-only index over run artifacts.

A registry is a ``--runs-dir`` directory with one subdirectory per recorded
run (``<seq:04d>-<run_id>`` holding ``manifest.json`` and ``metrics.prom``,
plus the final ``/progress`` snapshot as ``progress.json`` when the run
was served with ``--serve-obs``) and ``index.jsonl``, one JSON line per
run whose ``wall_s`` times the whole invocation. The index
is append-only — recording never rewrites history — and reads are tolerant
of a torn final line, so a run killed mid-append cannot corrupt the
registry for later ones.

The registry powers ``autosens runs ls|show|diff``; ``runs diff`` applies
:func:`repro.obs.diff.diff_artifacts` classification to two recorded runs.

Fleet-level surveillance over the *whole* history — rolling baselines,
change-point attribution, SLO burn rates — lives in
:mod:`repro.obs.watch` (``autosens watch``) and builds on
:meth:`RunRegistry.entries` / :meth:`RunRegistry.read_manifest`.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import SchemaError
from repro.obs import _schema
from repro.obs.manifest import load_manifest

__all__ = [
    "REGISTRY_SCHEMA",
    "RunRegistry",
    "load_registry",
    "render_runs_table",
]

#: Bump when index-line fields change incompatibly.
REGISTRY_SCHEMA = 1

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(value: str, fallback: str = "run") -> str:
    slug = _SAFE_ID.sub("-", value).strip("-.")
    return slug or fallback


class RunRegistry:
    """Append-only index of recorded runs under one ``runs_dir``."""

    def __init__(self, runs_dir: Union[str, Path]) -> None:
        self.runs_dir = Path(runs_dir)
        self.index_path = self.runs_dir / "index.jsonl"

    # -- reads ---------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """Index entries in recorded order; torn/alien lines are skipped."""
        if not self.index_path.is_file():
            return []
        entries: List[Dict[str, Any]] = []
        with open(self.index_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn append from a killed run
                if isinstance(entry, dict) and "seq" in entry:
                    entries.append(entry)
        return entries

    def find(self, selector: str) -> Optional[Dict[str, Any]]:
        """Look up one entry by seq number, run id, or directory name.

        Run ids may repeat across recordings; the *latest* match wins,
        matching what ``runs show`` should mean by default.
        """
        entries = self.entries()
        for entry in reversed(entries):
            if selector == str(entry.get("seq")) \
                    or selector == entry.get("run_id") \
                    or selector == entry.get("dir"):
                return entry
        return None

    def run_path(self, entry: Dict[str, Any]) -> Path:
        return self.runs_dir / str(entry.get("dir", ""))

    def read_manifest(self, entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The recorded manifest for one entry, or ``None`` when the run
        directory (or its manifest) has been deleted or corrupted —
        callers degrade to index-line fields rather than failing."""
        try:
            return load_manifest(self.run_path(entry) / "manifest.json")
        except SchemaError:
            return None

    # -- writes --------------------------------------------------------------

    def next_seq(self) -> int:
        entries = self.entries()
        return 1 + max((int(e.get("seq", 0)) for e in entries), default=0)

    def new_run_dir(self, run_id: str) -> Path:
        """Create and return the artifact directory for the next run."""
        seq = self.next_seq()
        path = self.runs_dir / f"{seq:04d}-{_slug(run_id)}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def record(self, run_dir: Path, **fields: Any) -> Dict[str, Any]:
        """Append one index line describing a recorded run directory.

        The single ``write`` of one line keeps concurrent recorders from
        interleaving partial lines on POSIX appends; readers skip torn
        lines regardless.
        """
        entry: Dict[str, Any] = {
            "schema": REGISTRY_SCHEMA,
            "seq": int(Path(run_dir).name.split("-", 1)[0]),
            "dir": Path(run_dir).name,
        }
        entry.update({k: v for k, v in fields.items() if v is not None})
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        # A run killed mid-append leaves a torn line with no newline; start
        # on a fresh line so the tear stays confined to that one entry.
        needs_newline = False
        try:
            with open(self.index_path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                needs_newline = fh.read(1) != b"\n"
        except OSError:
            pass
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(("\n" if needs_newline else "") + line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return entry


# ---------------------------------------------------------------------------
# CLI rendering.
# ---------------------------------------------------------------------------


def load_registry(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a registry (its directory or ``index.jsonl``) back, validating
    on read — unlike :meth:`RunRegistry.entries`, which skips torn lines:
    stamped index lines with strictly increasing ``seq``, each pointing at
    a run directory whose manifest passes :func:`load_manifest`."""
    path = Path(path)
    index = path / "index.jsonl" if path.is_dir() else path
    if not index.is_file():
        raise SchemaError(f"{index}: registry index missing")
    rows, errors = _schema.read_json_lines(index, "registry index")
    last_seq = 0
    for lineno, entry in rows:
        entry = entry if isinstance(entry, dict) else {}
        seq, run_dir = entry.get("seq"), index.parent / str(entry.get("dir"))
        if entry.get("schema") != REGISTRY_SCHEMA or \
                not _schema.is_count(seq) or seq <= last_seq:
            errors.append(f"{index}:{lineno}: not a schema-{REGISTRY_SCHEMA} "
                          f"entry with seq after {last_seq}")
        else:
            last_seq = seq
        try:
            load_manifest(run_dir / "manifest.json")
        except SchemaError as exc:
            errors += exc.violations
    _schema.raise_if(errors or (
        [] if rows else [f"{index}: no registry entries"]))
    return [entry for _, entry in rows]


def render_runs_table(entries: List[Dict[str, Any]]) -> str:
    """``runs ls`` table: one row per recorded run, newest last."""
    if not entries:
        return "(no recorded runs)"
    header = ("seq", "run_id", "command", "seed", "det", "verdict",
              "wall_s", "dir")
    rows = [header]
    for entry in entries:
        wall = entry.get("wall_s")
        rows.append((
            str(entry.get("seq", "?")),
            str(entry.get("run_id", "-") or "-"),
            str(entry.get("command", "-")),
            str(entry.get("seed", "-")),
            "yes" if entry.get("deterministic") else "no",
            str(entry.get("verdict", "-") or "-"),
            f"{wall:.2f}" if isinstance(wall, (int, float)) else "-",
            str(entry.get("dir", "-")),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j])
                               for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
