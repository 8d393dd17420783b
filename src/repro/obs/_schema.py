"""Shared plumbing for the obs artifact writers and for the loaders that
validate artifacts on read.

Every artifact is written by :func:`write_json`. A loader collects every
violation, then raises one :class:`~repro.errors.SchemaError` carrying all
of them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple, Union)

from repro.errors import SchemaError


class Parsed(NamedTuple):
    """A file's already-parsed JSON: a loader validates ``payload`` and
    names ``path`` in its violations, without reading the file again."""

    path: Path
    payload: Any


def owner(source: Any, what: str) -> str:
    """The prefix of every violation: the file, or the artifact kind."""
    if isinstance(source, Parsed):
        return str(source.path)
    return str(source) if isinstance(source, (str, Path)) else what


def read_json(source: Any, what: str) -> Any:
    """A path's parsed JSON, or ``source`` itself when already parsed."""
    if isinstance(source, Parsed):
        return source.payload
    if not isinstance(source, (str, Path)):
        return source
    try:
        return json.loads(Path(source).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what} {source}: {exc}") from exc


def read_object(source: Any, what: str,
                schema: Any) -> Tuple[Dict[str, Any], str, List[str]]:
    """``source`` as a JSON object, its violation prefix, and a violation
    when it is not stamped ``schema``. Raises when it is not an object."""
    payload = read_json(source, what)
    where = owner(source, what)
    if not isinstance(payload, dict):
        raise SchemaError(f"{where}: not a JSON object")
    stamped = payload.get("schema") == schema
    return payload, where, [] if stamped else [f"{where}: schema != {schema}"]


def read_json_lines(path: Any, what: str) -> Tuple[List[Tuple[int, Any]],
                                                   List[str]]:
    """``(lineno, value)`` per non-blank line, and a violation per line
    that is not JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from exc
    rows: List[Tuple[int, Any]] = []
    errors: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            if line.strip():
                rows.append((lineno, json.loads(line)))
        except ValueError as exc:
            errors.append(f"{path}:{lineno}: not JSON ({exc})")
    return rows, errors


def is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_count(value: Any) -> bool:
    """A non-negative int (bools excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def missing(obj: Any, fields: Iterable[str]) -> List[str]:
    """The ``fields`` absent from ``obj`` (all of them if not a dict)."""
    return [f for f in fields if not isinstance(obj, dict) or f not in obj]


def raise_if(errors: List[str]) -> None:
    """Raise one :class:`SchemaError` naming every violation, if any."""
    if errors:
        raise SchemaError("; ".join(errors), violations=errors)


def write_json(payload: Any, path: Union[str, Path],
               indent: Optional[int] = None,
               default: Optional[Callable[[Any], Any]] = None) -> Path:
    """Write ``payload`` atomically as key-sorted JSON and a newline:
    compact, or indented by ``indent``. The payload is serialized before
    any file is opened, and the temp file that replaces ``path`` is
    removed if the write fails, so a failed write leaves nothing behind."""
    path = Path(path)
    text = json.dumps(payload, sort_keys=True, indent=indent, default=default,
                      separators=None if indent else (",", ":")) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
