#!/usr/bin/env python
"""Validate observability artifacts against their schemas (CI gate).

Checks any combination of the artifact kinds the CLI emits::

    PYTHONPATH=src python tools/validate_obs.py \\
        --trace out/trace.json --metrics out/metrics.prom \\
        --manifest out/manifest.json --health out/health.json \\
        --profile out/profile.json --diff out/diff.json

Each flag dispatches to the loader of the module that writes the
artifact; the loader validates on read and raises one ``SchemaError``
listing every violation. This tool holds no schema of its own.

Exit status 0 when everything validates, 1 with one ``INVALID:`` line per
violation otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import SchemaError  # noqa: E402
from repro.obs.diff import load_diff  # noqa: E402
from repro.obs.health import load_health_report  # noqa: E402
from repro.obs.manifest import load_manifest, load_summary  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    load_metrics_json,
    load_metrics_prometheus,
)
from repro.obs.profile import load_profile  # noqa: E402
from repro.obs.progress import load_progress  # noqa: E402
from repro.obs.registry import load_registry  # noqa: E402
from repro.obs.trace import load_chrome_trace, load_trace_jsonl  # noqa: E402
from repro.obs.watch import load_watch_artifact  # noqa: E402


def _load_frontier(path: Path):
    # Imported only for --sensitivity, so no other flag pulls in the
    # analysis package and its scientific stack.
    from repro.analysis.sensitivity import load_frontier

    return load_frontier(path)


#: flag -> (help, loader). Loaders raise SchemaError on any violation.
LOADERS = {
    "trace": ("Chrome trace (*.json) or span JSONL (*.jsonl)",
              lambda p: (load_trace_jsonl if p.suffix == ".jsonl"
                         else load_chrome_trace)(p)),
    "metrics": ("Prometheus text (*.prom) or snapshot (*.json)",
                lambda p: (load_metrics_json if p.suffix == ".json"
                           else load_metrics_prometheus)(p)),
    "manifest": ("run manifest JSON", load_manifest),
    "health": ("health report JSON (autosens doctor)", load_health_report),
    "profile": ("span profile JSON (--profile-out)", load_profile),
    "diff": ("diff report JSON (autosens obs diff --out)", load_diff),
    "sensitivity": ("sensitivity frontier JSON (autosens sensitivity "
                    "--out-dir)", _load_frontier),
    "progress": ("progress snapshot JSON (/progress or a recorded "
                 "progress.json)", load_progress),
    "registry": ("run registry: a --runs-dir directory or its index.jsonl",
                 load_registry),
    "baseline": ("watch baseline artifact (autosens watch --out-dir "
                 "baseline.json)",
                 lambda p: load_watch_artifact(p, "watch-baseline")),
    "trend": ("watch trend artifact (autosens watch --out-dir trend.json)",
              lambda p: load_watch_artifact(p, "watch-trend")),
    "slo": ("watch SLO verdict artifact (autosens watch --out-dir slo.json)",
            lambda p: load_watch_artifact(p, "watch-slo")),
    "summary": ("an 'autosens obs summary --format json' payload",
                load_summary),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag, (help_text, _) in LOADERS.items():
        parser.add_argument(f"--{flag}", type=Path, default=None,
                            help=help_text)
    args = parser.parse_args(argv)
    chosen = [(flag, getattr(args, flag)) for flag in LOADERS
              if getattr(args, flag) is not None]
    if not chosen:
        parser.error("nothing to validate; pass "
                     + "/".join(f"--{flag}" for flag in LOADERS))

    errors = []
    for flag, path in chosen:
        try:
            LOADERS[flag][1](path)
        except SchemaError as exc:
            errors += exc.violations
    if errors:
        for line in errors:
            print(f"INVALID: {line}", file=sys.stderr)
        return 1
    print("ok: all artifacts validate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
