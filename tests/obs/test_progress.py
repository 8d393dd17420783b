"""Progress tracking: stage folding, EWMA throughput, ETA, rendering."""

import math

import repro.obs as obs
from repro.obs.progress import (
    DEFAULT_HALFLIFE_S,
    PROGRESS_SCHEMA,
    ProgressTracker,
    render_progress,
    snapshot_from_manifest,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _tracker():
    clock = FakeClock()
    return ProgressTracker(clock=clock), clock


class TestStageFolding:
    def test_stage_then_tasks_fold_into_done_over_total(self):
        tracker, clock = _tracker()
        tracker.add_total("sweep", 10)
        clock.advance(1.0)
        tracker.add_done("sweep", 4)
        snap = tracker.snapshot()
        assert snap["schema"] == PROGRESS_SCHEMA
        stage = snap["stages"]["sweep"]
        assert stage["done"] == 4
        assert stage["total"] == 10
        assert stage["rate_per_s"] == 4.0

    def test_repeated_stage_announcements_accumulate_the_total(self):
        tracker, _ = _tracker()
        tracker.add_total("shard", 3)
        tracker.add_total("shard", 3)
        assert tracker.snapshot()["stages"]["shard"]["total"] == 6

    def test_tasks_before_stage_announcement_still_count(self):
        tracker, _ = _tracker()
        tracker.add_done("late", 2)
        stage = tracker.snapshot()["stages"]["late"]
        assert stage["done"] == 2
        assert stage["total"] is None
        assert stage["eta_s"] is None  # no total, no ETA


class TestRateAndEta:
    def test_eta_tracks_remaining_over_rate(self):
        tracker, clock = _tracker()
        tracker.add_total("s", 100)
        clock.advance(2.0)
        tracker.add_done("s", 20)
        stage = tracker.snapshot()["stages"]["s"]
        assert stage["rate_per_s"] == 10.0
        assert stage["eta_s"] == 8.0  # 80 remaining at 10/s

    def test_rate_is_an_ewma_not_a_lifetime_mean(self):
        tracker, clock = _tracker()
        tracker.add_total("s", 1000)
        clock.advance(1.0)
        tracker.add_done("s", 100)  # 100/s
        # Long enough after the half-life, the old rate should mostly decay.
        clock.advance(DEFAULT_HALFLIFE_S * 10)
        tracker.add_done("s", 1)
        rate = tracker.snapshot()["stages"]["s"]["rate_per_s"]
        assert rate < 10.0

    def test_completed_stage_advertises_no_eta(self):
        tracker, clock = _tracker()
        tracker.add_total("s", 2)
        clock.advance(1.0)
        tracker.add_done("s", 2)
        assert tracker.snapshot()["stages"]["s"]["eta_s"] is None


class TestClamps:
    """Pathological inputs must never leak impossible frames to /progress
    (``load_progress``, which ``validate_obs --progress`` dispatches to,
    enforces done <= total and finite, non-negative rates/ETAs)."""

    def _assert_frame_sane(self, snap):
        for stage in snap["stages"].values():
            if stage["total"] is not None:
                assert stage["done"] <= stage["total"]
            for key in ("rate_per_s", "eta_s"):
                if stage[key] is not None:
                    assert math.isfinite(stage[key])
                    assert stage[key] >= 0.0

    def test_done_over_total_is_clamped_in_the_snapshot(self):
        tracker, clock = _tracker()
        tracker.add_total("s", 5)
        clock.advance(1.0)
        # Retried tasks over-report: 8 completions against a total of 5.
        tracker.add_done("s", 8)
        stage = tracker.snapshot()["stages"]["s"]
        assert stage["done"] == 5
        assert stage["eta_s"] is None  # nothing "remaining" to estimate
        self._assert_frame_sane(tracker.snapshot())

    def test_zero_duration_window_yields_finite_rate_and_eta(self):
        tracker, clock = _tracker()
        tracker.add_total("s", 1000)
        # Two task batches with the clock frozen: dt == 0 exactly.
        tracker.add_done("s", 10)
        tracker.add_done("s", 10)
        self._assert_frame_sane(tracker.snapshot())

    def test_backwards_clock_never_emits_negative_rate_or_eta(self):
        tracker, clock = _tracker()
        tracker.add_total("s", 100)
        clock.advance(1.0)
        tracker.add_done("s", 10)
        clock.advance(-5.0)  # e.g. a clock source swap under the tracker
        tracker.add_done("s", 10)
        self._assert_frame_sane(tracker.snapshot())


class TestManifestSnapshot:
    def _manifest(self, exit_status=0):
        return {
            "run_id": "exp:11",
            "exit_status": exit_status,
            "span_timings": {
                "preference_compute": {"seconds": 2.0, "count": 3},
                "ingest": {"seconds": 0.4, "count": 1},
            },
        }

    def test_snapshot_carries_state_spans_and_elapsed(self):
        snap = snapshot_from_manifest(self._manifest())
        assert snap["schema"] == PROGRESS_SCHEMA
        assert snap["state"] == "done"
        assert snap["run_id"] == "exp:11"
        assert snap["spans"] == {"ingest": 1, "preference_compute": 3}
        # Without a wall clock, the longest span bounds the run from
        # below; summing would count nested spans twice.
        assert snap["elapsed_s"] == 2.0
        assert snap["source"] == "manifest"

    def test_registry_wall_clock_is_the_elapsed_time(self):
        snap = snapshot_from_manifest(self._manifest(), wall_s=3.25)
        assert snap["elapsed_s"] == 3.25

    def test_failed_exit_status_maps_to_failed_state(self):
        snap = snapshot_from_manifest(self._manifest(exit_status=3))
        assert snap["state"] == "failed"

    def test_render_labels_the_manifest_only_summary(self):
        frame = render_progress(snapshot_from_manifest(self._manifest()),
                                source="runs/0001-exp-11")
        assert "manifest-only summary" in frame
        assert "preference_compute" in frame


class TestLifecycle:
    def test_run_id_and_finish_set_identity_and_terminal_state(self):
        tracker, clock = _tracker()
        tracker.run_id = "exp:11"
        assert tracker.snapshot()["run_id"] == "exp:11"
        clock.advance(3.0)
        tracker.finish("done")
        snap = tracker.snapshot()
        assert snap["state"] == "done"
        assert snap["elapsed_s"] == 3.0

    def test_spans_and_open_path_are_read_from_the_tracer(self):
        with obs.session(enabled=True, deterministic=True) as ctx:
            tracker = ProgressTracker(tracer=ctx.tracer)
            with obs.span("sweep"):
                with obs.span("alpha"):
                    assert tracker.snapshot()["current"] == "/sweep/alpha"
                with obs.span("alpha"):
                    pass
            snap = tracker.snapshot()
        assert snap["spans"] == {"alpha": 2, "sweep": 1}
        assert snap["current"] is None

    def test_terminal_snapshot_freezes_elapsed(self):
        tracker, clock = _tracker()
        clock.advance(2.0)
        tracker.finish("failed")
        clock.advance(50.0)
        snap = tracker.snapshot()
        assert snap["state"] == "failed"
        assert snap["elapsed_s"] == 2.0


class TestRender:
    def test_render_shows_bars_counts_and_eta(self):
        tracker, clock = _tracker()
        tracker.run_id = "r1"
        tracker.add_total("sweep", 10)
        clock.advance(1.0)
        tracker.add_done("sweep", 5)
        frame = render_progress(tracker.snapshot(), source="host:1234")
        assert "run r1" in frame
        assert "[host:1234]" in frame
        assert "5/10" in frame
        assert "sweep" in frame
        assert "#" in frame and "." in frame  # a half-full bar

    def test_render_tolerates_an_empty_snapshot(self):
        tracker, _ = _tracker()
        frame = render_progress(tracker.snapshot())
        assert "no stage progress yet" in frame
