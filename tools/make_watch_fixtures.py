#!/usr/bin/env python
"""Regenerate the committed watch registry fixtures (clean + stepped).

The fixtures under ``tests/obs/golden/registry/`` are two small run
registries, eight deterministic runs each, exercised by the obs-watch CI
job and ``tests/obs/test_watch.py``:

- ``clean``: every series jitters a couple of percent around a stable
  mean — ``autosens watch --check`` must exit 0 with all SLOs met.
- ``stepped``: identical except the ``preference_compute`` span seconds
  step from 2.0s to 3.2s at seq 6 and stays there — the watch gate must
  exit non-zero, name ``span_seconds[preference_compute]``, and attribute
  the change-point to seq 6.

The *watch artifacts computed from* these registries are byte-reproducible
by contract. The fixture files themselves are committed rather than
regenerated in CI because manifests embed interpreter/package versions::

    PYTHONPATH=src python tools/make_watch_fixtures.py tests/obs/golden/registry
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.health import HEALTH_SCHEMA  # noqa: E402
from repro.obs.manifest import build_manifest, write_manifest  # noqa: E402
from repro.obs.registry import RunRegistry  # noqa: E402

N_RUNS = 8
STEP_AT_SEQ = 6        # first run of the regressed regime
STEP_FACTOR = 1.6      # 2.0s -> 3.2s
JITTER = 0.02          # +/-2% run-to-run noise, far inside every envelope

SPAN_BASE_S = {
    "ingest": 0.40,
    "preference_compute": 2.00,
    "slotted_counts": 0.55,
    "corrected_histograms": 0.30,
}


def _health_ok() -> dict:
    return {
        "schema": HEALTH_SCHEMA,
        "verdict": "ok",
        "counts": {"ok": 0, "warn": 0, "fail": 0},
        "findings": [],
        "stages": {},
    }


def build_fixture(root: Path, stepped: bool) -> None:
    if root.exists():
        shutil.rmtree(root)
    registry = RunRegistry(root)
    rng = random.Random(20260808)
    for i in range(N_RUNS):
        seq = i + 1
        run_dir = registry.new_run_dir("experiment-11")
        timings = {}
        for name, base in SPAN_BASE_S.items():
            seconds = base * (1.0 + rng.uniform(-JITTER, JITTER))
            if stepped and name == "preference_compute" and seq >= STEP_AT_SEQ:
                seconds = base * STEP_FACTOR * \
                    (1.0 + rng.uniform(-JITTER, JITTER))
            timings[name] = {"seconds": round(seconds, 6), "count": 1}
        manifest = build_manifest(
            experiment_id="experiment",
            seed=11,
            config_fingerprint="watch-fixture",
            ingest={"n_rows": 1000, "n_good": 990, "n_bad": 10,
                    "mode": "lenient"},
            metrics={},
            deterministic=True,
            extra={
                "health": _health_ok(),
                "span_timings": timings,
                "exit_status": 0,
            },
        )
        write_manifest(manifest, run_dir / "manifest.json")
        (run_dir / "metrics.prom").write_text("", encoding="utf-8")
        wall = sum(cell["seconds"] for cell in timings.values())
        registry.record(
            run_dir,
            run_id=manifest["run_id"],
            command="experiment",
            seed=11,
            deterministic=True,
            verdict="ok",
            wall_s=round(wall + 0.25, 3),
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_root", nargs="?",
                        default=str(REPO_ROOT / "tests/obs/golden/registry"),
                        help="directory to hold the clean/ and stepped/ "
                             "registries")
    args = parser.parse_args()
    out_root = Path(args.out_root)
    build_fixture(out_root / "clean", stepped=False)
    build_fixture(out_root / "stepped", stepped=True)
    print(f"wrote {N_RUNS}-run clean + stepped registries under {out_root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
