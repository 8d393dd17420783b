"""Every artifact kind's validating loader, and the validator built on them.

Each kind's loader must accept what its writer emits and raise
:class:`~repro.errors.SchemaError` on a wrong-schema copy, a wrong-shape
copy and one semantic inconsistency. ``tools/validate_obs.py`` dispatches
to the same loaders, so a corrupted artifact prints ``INVALID:`` lines and
exits 1 — never a traceback.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.analysis.sensitivity import load_frontier
from repro.errors import SchemaError
from repro.obs import ProgressTracker
from repro.obs.diff import diff_paths, load_diff, write_diff
from repro.obs.health import load_health_report
from repro.obs.manifest import load_manifest, load_summary, manifest_rows
from repro.obs.metrics import load_metrics_json, load_metrics_prometheus
from repro.obs.profile import (
    SpanProfiler,
    build_profile,
    load_profile,
    write_profile,
)
from repro.obs.progress import load_progress
from repro.obs.registry import RunRegistry, load_registry
from repro.obs.trace import load_chrome_trace, load_trace_jsonl
from repro.obs.watch import (
    build_watch_report,
    load_watch_artifact,
    write_watch_artifact,
)

GOLDEN = Path(__file__).parent / "golden"
FRONTIER = (Path(__file__).parents[1] / "analysis" / "golden"
            / "sensitivity" / "mnar-latency.frontier.json")
TOOL = Path(__file__).parents[2] / "tools" / "validate_obs.py"

#: Key placeholder: the first key of a dict, whatever it is.
FIRST = object()


# ---------------------------------------------------------------------------
# Writers: each puts one valid artifact under tmp and returns its path.
# ---------------------------------------------------------------------------


def _copy(source: Path) -> Callable[[Path], Path]:
    def make(tmp: Path) -> Path:
        if source.is_dir():
            return Path(shutil.copytree(source, tmp / source.name))
        return Path(shutil.copy(source, tmp / source.name))
    return make


def _profile(tmp: Path) -> Path:
    profiler = SpanProfiler()
    profiler.on_enter("outer")
    profiler.on_enter("inner")
    sum(range(20000))
    profiler.on_exit("inner")
    profiler.on_exit("outer")
    return write_profile(build_profile(profiler), tmp / "profile.json")


def _diff(tmp: Path) -> Path:
    manifest = GOLDEN / "baseline_manifest.json"
    return write_diff(diff_paths(manifest, manifest), tmp / "diff.json")


def _progress(tmp: Path) -> Path:
    """A small live run's tracker snapshot, as ``progress.json``."""
    tracker = ProgressTracker()
    tracker.run_id = "loaders"
    tracker.add_total("sweep", 8)
    tracker.add_done("sweep", 3)
    tracker.add_done("sweep", 2)
    (tmp / "progress.json").write_text(json.dumps(tracker.snapshot()))
    return tmp / "progress.json"


def _watch(name: str) -> Callable[[Path], Path]:
    def make(tmp: Path) -> Path:
        report = build_watch_report(RunRegistry(GOLDEN / "registry" / "clean"))
        return write_watch_artifact(report[name], tmp / f"{name}.json")
    return make


def _summary(tmp: Path) -> Path:
    rows = manifest_rows(load_manifest(GOLDEN / "baseline_manifest.json"))
    path = tmp / "summary.json"
    path.write_text(json.dumps([[f, v] for f, v in rows], default=str))
    return path


# ---------------------------------------------------------------------------
# Corruptions: each rewrites an artifact in place.
# ---------------------------------------------------------------------------


def _put(*keys, value):
    """An edit setting ``payload[k0][k1]...`` to ``value`` (or to
    ``value(old)`` when callable); :data:`FIRST` picks a dict's first key."""
    def edit(payload):
        parent, key = None, None
        target = payload
        for key in keys:
            key = next(iter(target)) if key is FIRST else key
            parent, target = target, target[key]
        parent[key] = value(target) if callable(value) else value
        return payload
    return edit


def _json(edit):
    def apply(path: Path) -> None:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return apply


def _lines(edit):
    """Edit a JSON-lines artifact (a registry directory's index)."""
    def apply(path: Path) -> None:
        path = path / "index.jsonl" if path.is_dir() else path
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps(r) + "\n" for r in edit(rows)))
    return apply


def _text(edit):
    def apply(path: Path) -> None:
        path.write_text(edit(path.read_text()))
    return apply


def _not_an_object(payload):
    return []


@dataclass(frozen=True)
class Kind:
    name: str
    flag: str  # the validate_obs.py flag
    make: Callable[[Path], Path]
    load: Callable[[Path], object]
    schema: Callable[[Path], None]
    shape: Callable[[Path], None]
    semantic: Callable[[Path], None]
    #: A fragment of the semantic violation's message.
    semantic_match: str
    #: The corruption the validator mishandled before it dispatched to
    #: the loaders (a traceback or an acceptance).
    red: str = "shape"


KINDS = [
    Kind("trace-jsonl", "trace", _copy(GOLDEN / "trace_spans.jsonl"),
         load_trace_jsonl,
         _lines(_put(0, "schema", value=99)),
         _lines(_put(0, value=[])),
         _lines(_put(0, "parent", value="feedfacefeedface")),
         "not in file"),
    Kind("trace-chrome", "trace", _copy(GOLDEN / "trace_chrome.json"),
         load_chrome_trace,
         _json(_put("otherData", "schema", value=99)),
         _json(_not_an_object),
         _json(_put("traceEvents", 0, "args", "parent_id",
                    value="feedfacefeedface")),
         "unresolved"),
    Kind("metrics-prom", "metrics", _copy(GOLDEN / "metrics.prom"),
         load_metrics_prometheus,
         _text(lambda t: t.replace(" gauge\n", " summary\n")),
         _text(lambda t: "[]\n"),
         _text(lambda t: t.replace('"hit"} 3', '"hit"} -3')),
         "is negative", red="semantic"),
    Kind("metrics-json", "metrics", _copy(GOLDEN / "metrics.json"),
         load_metrics_json,
         _json(_put("autosens_active_workers", "kind", value="summary")),
         _json(_not_an_object),
         _json(_put("autosens_slice_cache_total", "series", FIRST,
                    value=lambda n: -n)),
         "is negative", red="semantic"),
    Kind("manifest", "manifest", _copy(GOLDEN / "baseline_manifest.json"),
         load_manifest,
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("health", "verdict", value="fail")),
         "disagrees with the findings", red="semantic"),
    Kind("health", "health", _copy(GOLDEN / "baseline_health.json"),
         load_health_report,
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("verdict", value="fail")),
         "disagrees with the findings", red="semantic"),
    Kind("profile", "profile", _profile, load_profile,
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("spans", FIRST, "cpu_self_s", value=1e9)),
         "self CPU exceeds total CPU"),
    Kind("diff", "diff", _diff, load_diff,
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("summary", "unchanged", value=lambda n: n + 1)),
         "disagrees with the entries"),
    Kind("sensitivity", "sensitivity", _copy(FRONTIER), load_frontier,
         _json(_put("schema", value="autosens.sensitivity/v0")),
         _json(_not_an_object),
         _json(_put("cells", 0, "gate_passed", value=lambda g: not g)),
         "disagrees with its verdict"),
    Kind("progress", "progress", _progress, load_progress,
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("stages", "sweep", "done", value=9)),
         "done 9 > total 8"),
    Kind("registry", "registry", _copy(GOLDEN / "registry" / "clean"),
         load_registry,
         _lines(_put(0, "schema", value=99)),
         _lines(_put(0, value=[])),
         _lines(_put(2, "seq", value=1)),
         "with seq after 2"),
    Kind("baseline", "baseline", _watch("baseline"),
         lambda p: load_watch_artifact(p, "watch-baseline"),
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("series", FIRST, "lo", value=1e9)),
         "lo > hi"),
    Kind("trend", "trend", _watch("trend"),
         lambda p: load_watch_artifact(p, "watch-trend"),
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("series", FIRST, "state", value="stepped")),
         "has no change_seq"),
    Kind("slo", "slo", _watch("slo"),
         lambda p: load_watch_artifact(p, "watch-slo"),
         _json(_put("schema", value=99)),
         _json(_not_an_object),
         _json(_put("slos", 0, "met", value=False)),
         "disagrees with its series details"),
    Kind("summary", "summary", _summary, load_summary,
         _json(_put(0, value={"run id": "x"})),
         _json(lambda rows: {"rows": rows}),
         _json(lambda rows: [[f, "eleven" if f == "seed" else v]
                             for f, v in rows]),
         "'seed' row missing or not of type int", red="semantic"),
]

_IDS = [kind.name for kind in KINDS]


@pytest.mark.parametrize("kind", KINDS, ids=_IDS)
def test_written_artifact_loads(kind, tmp_path):
    assert kind.load(kind.make(tmp_path))


@pytest.mark.parametrize("case", ["schema", "shape", "semantic"])
@pytest.mark.parametrize("kind", KINDS, ids=_IDS)
def test_corrupted_copy_raises(kind, case, tmp_path):
    path = kind.make(tmp_path)
    getattr(kind, case)(path)
    match = kind.semantic_match if case == "semantic" else None
    with pytest.raises(SchemaError, match=match) as info:
        kind.load(path)
    assert info.value.violations


@pytest.mark.parametrize("kind", KINDS, ids=_IDS)
def test_validator_prints_invalid_without_traceback(kind, tmp_path):
    path = kind.make(tmp_path)
    getattr(kind, kind.red)(path)
    proc = subprocess.run(
        [sys.executable, str(TOOL), f"--{kind.flag}", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith("INVALID: ")
    assert "Traceback" not in proc.stderr
