"""One run manifest per CLI invocation: every copy is the same record, every
command's manifest carries a health report, and ingest totals reach it."""

import json
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.obs import file_digest

FIXTURE = (Path(__file__).parent / "golden" / "registry" / "clean"
           / "0001-experiment-11" / "manifest.json")


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """A small generated log and a copy with every tenth line unparseable."""
    root = tmp_path_factory.mktemp("run-manifest")
    clean = root / "g.jsonl"
    assert main(["generate", "--scenario", "owa", "--seed", "3", "--days", "2",
                 "--users", "40", "--out", str(clean)]) == 0
    lines = clean.read_text().splitlines()
    dirty = root / "dirty.jsonl"
    dirty.write_text("".join("{not json\n" if i % 10 == 0 else line + "\n"
                             for i, line in enumerate(lines)))
    return clean, dirty


def _recorded(runs_dir):
    (path,) = runs_dir.glob("0001-*/manifest.json")
    return json.loads(path.read_text())


def test_experiment_copies_are_one_manifest(tmp_path):
    manifest = tmp_path / "m.json"
    health = tmp_path / "h.json"
    assert main(["experiment", "bottleneck", "--scale", "small", "--seed", "11",
                 "--no-plots", "--deterministic-trace",
                 "--manifest-out", str(manifest), "--health-out", str(health),
                 "--runs-dir", str(tmp_path / "R")]) == 0
    written = json.loads(manifest.read_text())
    recorded = _recorded(tmp_path / "R")
    assert recorded.pop("exit_status") == 0
    assert recorded == written
    assert written["experiment_id"] == "bottleneck"
    assert json.loads(health.read_text()) == written["health"]


def test_analyze_manifest_passes_doctor_and_names_its_input(logs, tmp_path):
    clean, _ = logs
    manifest = tmp_path / "m.json"
    assert main(["analyze", str(clean), "--manifest-out", str(manifest)]) == 0
    assert main(["doctor", str(manifest)]) == 0
    payload = json.loads(manifest.read_text())
    assert payload["inputs"] == {str(clean): file_digest(clean)}
    assert payload["span_timings"]


def test_quality_manifest_names_its_input(logs, tmp_path):
    clean, _ = logs
    manifest = tmp_path / "m.json"
    main(["quality", str(clean), "--manifest-out", str(manifest)])
    payload = json.loads(manifest.read_text())
    assert payload["inputs"] == {str(clean): file_digest(clean)}
    assert payload["ingest"]["n_rows"] == payload["ingest"]["n_good"] > 0


def test_rejected_rows_reach_the_ingest_slo(logs, tmp_path, capsys):
    _, dirty = logs
    runs_dir = tmp_path / "R"
    assert main(["analyze", str(dirty), "--on-bad-rows", "lenient",
                 "--max-bad-share", "0.2", "--runs-dir", str(runs_dir)]) == 0
    ingest = _recorded(runs_dir)["ingest"]
    n_lines = len(dirty.read_text().splitlines())
    n_bad = -(-n_lines // 10)
    assert ingest == {"mode": "lenient", "n_rows": n_lines,
                      "n_good": n_lines - n_bad, "n_bad": n_bad,
                      "reasons": {"json-decode": n_bad}}
    capsys.readouterr()
    assert main(["watch", str(runs_dir), "--check"]) == 1
    assert "[BREACH] ingest-reject-rate" in capsys.readouterr().out


def test_ingest_keys_match_the_registry_fixtures(logs, tmp_path):
    """The committed watch fixtures read the shape the writer writes."""
    clean, _ = logs
    runs_dir = tmp_path / "R"
    assert main(["analyze", str(clean), "--on-bad-rows", "lenient",
                 "--runs-dir", str(runs_dir)]) == 0
    fixture = json.loads(FIXTURE.read_text())["ingest"]
    assert set(_recorded(runs_dir)["ingest"]) == set(fixture)


def test_obs_summary_shows_the_ingest_mode(logs, tmp_path, capsys):
    _, dirty = logs
    runs_dir = tmp_path / "R"
    assert main(["analyze", str(dirty), "--on-bad-rows", "lenient",
                 "--max-bad-share", "0.2", "--runs-dir", str(runs_dir)]) == 0
    (path,) = runs_dir.glob("0001-*/manifest.json")
    capsys.readouterr()
    assert main(["obs", "summary", str(path), "--format", "json"]) == 0
    rows = dict(json.loads(capsys.readouterr().out))
    assert rows["ingest mode"] == "lenient"


def test_each_experiment_manifest_holds_only_its_own_records(tmp_path, capsys):
    """Two ids in one invocation: the second id's manifest carries none of
    the first id's health findings or spans; metrics stay cumulative."""
    manifest = tmp_path / "m.json"
    assert main(["experiment", "fig3", "table1", "--scale", "small",
                 "--seed", "7", "--no-plots",
                 "--manifest-out", str(manifest)]) == 0
    capsys.readouterr()
    fig3 = json.loads((tmp_path / "m.fig3.json").read_text())
    table1 = json.loads(manifest.read_text())
    assert fig3["health"]["findings"], "fig3 must record findings"
    assert "preference_compute" in fig3["span_timings"]
    assert table1["experiment_id"] == "table1"
    assert table1["health"]["findings"] == []
    assert table1["degradations"] == []
    assert set(table1["span_timings"]) == {"experiment"}
    # Metrics are the invocation's totals: fig3's findings still count.
    assert (table1["metrics"]["autosens_health_findings_total"]
            == fig3["metrics"]["autosens_health_findings_total"])
