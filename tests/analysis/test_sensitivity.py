"""Sensitivity suite: fixtures, verdicts, determinism, artifacts, CLI.

The contract pinned here: every frontier cell either stays within
tolerance of its clean same-seed twin (``robust``) or degrades *loudly*
(``degraded-explained`` — a probe finding, a health warning, or a typed
refusal). A drifted curve with a clean bill of health — ``silent-bias`` —
fails the gate. Frontier artifacts are a pure function of
``(fixture, scenario, seed, scale)``: byte-identical across executors
and reruns.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.paired import VERDICT_EXPLAINED, VERDICT_SILENT_BIAS
from repro.analysis.sensitivity import (
    DEFAULT_SENSITIVITY_NAMES,
    SENSITIVITY_FIXTURES,
    SENSITIVITY_SCHEMA,
    VERDICT_ROBUST,
    SensitivityFixture,
    load_frontier,
    run_sensitivity,
    run_sensitivity_suite,
)
from repro.errors import ConfigError, SchemaError

GOLDEN_DIR = Path(__file__).parent / "golden" / "sensitivity"


@pytest.fixture(scope="module")
def default_suite(tmp_path_factory):
    """The default matrix, run once for the whole module."""
    out_dir = tmp_path_factory.mktemp("sensitivity")
    outcomes = run_sensitivity_suite(out_dir=out_dir)
    return outcomes, out_dir


class TestFixtureRegistry:
    def test_catalog_covers_every_operator_family(self):
        assert set(SENSITIVITY_FIXTURES) == {
            "diurnal-thinning", "mnar-latency", "user-skew-mild",
            "subsample-events", "subsample-users", "subsample-time",
            "user-skew-heavy",
        }

    def test_default_matrix_excludes_the_silent_demo(self):
        assert "user-skew-heavy" not in DEFAULT_SENSITIVITY_NAMES
        assert set(DEFAULT_SENSITIVITY_NAMES) == set(SENSITIVITY_FIXTURES) - {
            "user-skew-heavy"
        }

    def test_fixtures_well_formed(self):
        for fixture in SENSITIVITY_FIXTURES.values():
            assert fixture.levels
            assert fixture.tolerance > 0
            assert fixture.compare_max_ms > 0

    def test_subsample_fixture_maps_to_policy(self):
        policy = SENSITIVITY_FIXTURES["subsample-users"].subsample_policy(0.25)
        assert policy.user_fraction == 0.25
        assert policy.event_fraction == 1.0
        assert policy.time_fraction == 1.0

    def test_bad_kind_and_operator_rejected(self):
        with pytest.raises(ConfigError):
            SensitivityFixture(name="x", description="", kind="mangle",
                               operator="diurnal-thinning", levels=(0.5,))
        with pytest.raises(ConfigError):
            SensitivityFixture(name="x", description="", kind="degrade",
                               operator="no-such-op", levels=(0.5,))
        with pytest.raises(ConfigError):
            SensitivityFixture(name="x", description="", kind="degrade",
                               operator="mnar-latency", levels=())

    def test_unknown_fixture_name_rejected(self):
        with pytest.raises(ConfigError):
            run_sensitivity("no-such-fixture")

    def test_unknown_scenario_and_scale_rejected(self):
        with pytest.raises(ConfigError):
            run_sensitivity("user-skew-mild", scenario="no-such-scenario")
        with pytest.raises(ConfigError):
            run_sensitivity("user-skew-mild", scale="no-such-scale")


class TestCleanTwinInvariance:
    def test_zero_level_degrade_cell_is_exactly_clean(self):
        # Level zero is the identity, the engine seed is shared: the cell
        # IS the clean twin, so the bias is exactly zero — not just small.
        fixture = SensitivityFixture(
            name="zero", description="identity ladder", kind="degrade",
            operator="diurnal-thinning", levels=(0.0,),
        )
        outcome = run_sensitivity(fixture)
        (cell,) = outcome.cells
        assert cell["verdict"] == VERDICT_ROBUST
        assert cell["bias_linf"] == 0.0
        assert cell["bias_signed_area"] == 0.0
        assert cell["ci_band_inflation"] == 1.0
        assert cell["n_compared_bins"] > 0
        assert cell["n_actions"] == outcome.clean["n_actions"]

    def test_full_fraction_subsample_cell_is_exactly_clean(self):
        # All fractions at 1.0 deactivate the in-engine hook entirely.
        fixture = SensitivityFixture(
            name="full", description="identity fractions", kind="subsample",
            operator="event", levels=(1.0,),
        )
        outcome = run_sensitivity(fixture)
        (cell,) = outcome.cells
        assert cell["verdict"] == VERDICT_ROBUST
        assert cell["bias_linf"] == 0.0
        assert cell["ci_band_inflation"] == 1.0


class TestExecutorEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_frontier_bit_identical_to_serial(self, tmp_path,
                                                      workers):
        serial_dir = tmp_path / "serial"
        proc_dir = tmp_path / f"proc{workers}"
        run_sensitivity_suite(["user-skew-mild"], executor="serial",
                              out_dir=serial_dir)
        run_sensitivity_suite(["user-skew-mild"], executor=workers,
                              out_dir=proc_dir)
        name = "user-skew-mild.frontier.json"
        assert ((serial_dir / name).read_text()
                == (proc_dir / name).read_text())
        assert ((serial_dir / "summary.json").read_text()
                == (proc_dir / "summary.json").read_text())


class TestSuiteArtifacts:
    def test_default_matrix_gates_green_with_all_verdict_classes(
            self, default_suite):
        outcomes, _ = default_suite
        verdicts = {c["verdict"] for o in outcomes.values()
                    for c in o.cells}
        assert VERDICT_ROBUST in verdicts          # user-skew-mild
        assert VERDICT_EXPLAINED in verdicts       # thinning/MNAR/subsample
        assert VERDICT_SILENT_BIAS not in verdicts
        assert all(o.gate_passed for o in outcomes.values())

    def test_every_nonclean_cell_is_loud_or_robust(self, default_suite):
        outcomes, _ = default_suite
        for outcome in outcomes.values():
            for cell in outcome.cells:
                if cell["verdict"] == VERDICT_ROBUST:
                    continue
                loud = (
                    any(f["severity"] != "ok" for f in cell["probes"])
                    or cell["error"] is not None
                    or cell["health"]["verdict"] != "ok"
                    or cell["health"]["counts"]["warn"] > 0
                )
                assert loud, (outcome.fixture, cell["level"])

    def test_artifacts_self_diff_clean(self, default_suite):
        from repro.obs import diff_exit_code, diff_paths

        _, out_dir = default_suite
        frontier = out_dir / "diurnal-thinning.frontier.json"
        assert frontier.exists()
        report = diff_paths(frontier, frontier)
        assert report["kind"] == "sensitivity"
        assert diff_exit_code(report) == 0
        assert all(e["classification"] == "unchanged"
                   for e in report["entries"])

    def test_summary_mirrors_outcomes(self, default_suite):
        outcomes, out_dir = default_suite
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["schema"] == SENSITIVITY_SCHEMA
        assert summary["gate_passed"] is True
        assert set(summary["fixtures"]) == set(outcomes)
        # Wall-clock lives only in the ungated sidecar.
        assert "executor" not in summary
        timings = json.loads((out_dir / "timings.json").read_text())
        assert timings["executor"] == "serial"
        # Instrumentation lives only in the sidecar, per fixture and level.
        for name, outcome in outcomes.items():
            assert set(timings[name]) == {"clean"} | {
                f"level_{c['level']:g}" for c in outcome.cells}
            assert timings[name]["clean"]["span_counts"]
            assert all("span_counts" not in c for c in outcome.cells)

    def test_silent_bias_demo_fails_the_gate(self):
        outcome = run_sensitivity("user-skew-heavy")
        (cell,) = outcome.cells
        assert cell["verdict"] == VERDICT_SILENT_BIAS
        assert cell["gate_passed"] is False
        assert outcome.gate_passed is False
        # Silent means silent: every probe quiet, health clean.
        assert all(f["severity"] == "ok" for f in cell["probes"])
        assert cell["health"]["verdict"] == "ok"


class TestValidatorAgreement:
    """The frontier loader that ``tools/validate_obs.py --sensitivity``
    dispatches to accepts what the suite writes and rejects drift."""

    def test_validator_accepts_fresh_frontiers(self, default_suite):
        _, out_dir = default_suite
        for frontier in sorted(out_dir.glob("*.frontier.json")):
            assert load_frontier(frontier)["fixture"]

    def test_validator_rejects_gate_inconsistency(self, tmp_path,
                                                  default_suite):
        _, out_dir = default_suite
        payload = json.loads(
            (out_dir / "diurnal-thinning.frontier.json").read_text())
        payload["cells"][0]["gate_passed"] = False  # verdict says passed
        bad = tmp_path / "bad.frontier.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="disagrees with its verdict"):
            load_frontier(bad)


class TestGoldens:
    def test_committed_goldens_cover_every_verdict_class(self):
        frontiers = sorted(GOLDEN_DIR.glob("*.frontier.json"))
        assert frontiers, f"no committed goldens in {GOLDEN_DIR}"
        verdicts = set()
        gates = {}
        for path in frontiers:
            payload = json.loads(path.read_text())
            assert payload["schema"] == SENSITIVITY_SCHEMA
            verdicts |= {c["verdict"] for c in payload["cells"]}
            gates[path.stem.replace(".frontier", "")] = payload["gate_passed"]
        assert verdicts == {VERDICT_ROBUST, VERDICT_EXPLAINED,
                            VERDICT_SILENT_BIAS}
        # The silent-bias fixture is committed gated red; the default
        # matrix is committed green.
        assert gates["user-skew-heavy"] is False
        for name in DEFAULT_SENSITIVITY_NAMES:
            assert gates[name] is True, name

    def test_default_goldens_match_a_fresh_run(self, default_suite):
        # Byte-identity against the committed baseline. A frontier holds
        # only science (verdicts, distances, bias, band inflation,
        # findings); span counts and wall seconds live in timings.json, so
        # a tracing change cannot move it. CI's `--baseline-dir` gate is
        # looser: it runs `obs diff`, which compares each cell's series
        # under tolerances.
        _, out_dir = default_suite
        for name in DEFAULT_SENSITIVITY_NAMES:
            fresh = (out_dir / f"{name}.frontier.json").read_text()
            golden = (GOLDEN_DIR / f"{name}.frontier.json").read_text()
            assert fresh == golden, f"{name} frontier drifted from golden"
        assert ((out_dir / "summary.json").read_text()
                == (GOLDEN_DIR / "summary.json").read_text())


class TestSensitivityCLI:
    def test_unknown_fixture_exits_2(self, capsys):
        from repro.cli.main import main

        assert main(["sensitivity", "no-such-fixture"]) == 2

    def test_unknown_scenario_exits_2(self, capsys):
        from repro.cli.main import main

        assert main(["sensitivity", "--scenario", "no-such-scenario"]) == 2

    def test_baseline_dir_requires_out_dir(self):
        from repro.cli.main import main

        assert main(["sensitivity", "user-skew-mild",
                     "--baseline-dir", "/tmp/nowhere"]) == 2

    def test_single_fixture_gate_passes_and_rebaselines(self, tmp_path,
                                                        capsys):
        from repro.cli.main import main

        out_dir = tmp_path / "run"
        assert main(["sensitivity", "user-skew-mild", "--smoke",
                     "--out-dir", str(out_dir)]) == 0
        assert "sensitivity gate: PASS" in capsys.readouterr().out
        cand = tmp_path / "cand"
        assert main(["sensitivity", "user-skew-mild", "--smoke",
                     "--out-dir", str(cand),
                     "--baseline-dir", str(out_dir)]) == 0
        assert "no baseline drift" in capsys.readouterr().out

    def test_silent_bias_exits_1(self, capsys):
        from repro.cli.main import main

        assert main(["sensitivity", "user-skew-heavy", "--smoke"]) == 1
        assert "FAIL — silent bias" in capsys.readouterr().out
