"""The experiment registry: every paper figure/table, runnable by id.

Experiments are also *resumable*: pass ``checkpoint_dir`` and every
completed sweep task (and each finished experiment outcome) is journaled to
disk through :class:`~repro.parallel.checkpoint.CheckpointJournal`. A rerun
after a crash serves journaled work from disk and computes only what is
missing — bit-identical to an uninterrupted run, because every task draws
its randomness purely from its payload.
"""

from __future__ import annotations

import contextlib
import inspect
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import repro.obs as obs

from repro.analysis.base import FULL, SMALL, ExperimentOutcome, Scale
from repro.analysis.bottleneck import run_bottleneck
from repro.analysis.fig_locality import run_fig1, run_fig2
from repro.analysis.fig_methodology import run_fig3, run_table1
from repro.analysis.fig_preferences import run_fig4, run_fig5, run_fig6
from repro.analysis.fig_time import run_fig7, run_fig8, run_fig9
from repro.analysis.regions_ext import run_regions
from repro.analysis.sessions_ext import run_sessions
from repro.errors import ConfigError
from repro.parallel import CheckpointJournal, JournaledExecutor, resolve_executor
from repro.runtime.supervisor import Supervisor

#: Every experiment, in the paper's presentation order. Values take
#: ``(seed, scale)`` keyword arguments except table1 (deterministic).
EXPERIMENTS: Dict[str, Callable[..., ExperimentOutcome]] = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "table1": lambda seed=0, scale=FULL: run_table1(),
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "bottleneck": run_bottleneck,
    "sessions": run_sessions,
    "regions": run_regions,
}


def _accepts_executor(driver: Callable[..., ExperimentOutcome]) -> bool:
    try:
        return "executor" in inspect.signature(driver).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return False


def _resolve_scale(scale: Union[Scale, str]) -> Scale:
    if isinstance(scale, str):
        resolved = {"small": SMALL, "full": FULL}.get(scale)
        if resolved is None:
            raise ConfigError("scale must be 'small', 'full', or a Scale")
        return resolved
    return scale


def run_experiment(
    experiment_id: str,
    seed: int | None = None,
    scale: Scale | str = FULL,
    executor=None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    manifest_out: Optional[Union[str, Path]] = None,
    supervisor: Optional[Supervisor] = None,
) -> ExperimentOutcome:
    """Run one experiment by id (e.g. ``"fig4"``).

    ``executor`` (see :mod:`repro.parallel`) is forwarded to drivers whose
    sweeps can fan out; drivers without an ``executor`` parameter run as
    before. Results are backend-independent either way.

    ``checkpoint_dir`` enables resume: each completed sweep task is
    journaled there as the driver runs, and the finished outcome itself is
    journaled too. A rerun with the same ``(experiment_id, seed, scale)``
    skips journaled work — an interrupted sweep continues where it
    stopped, bit-identical to a run that was never interrupted.

    ``supervisor`` (a :class:`~repro.runtime.supervisor.Supervisor`) puts
    the whole run under supervision by entering its scope: its deadline
    becomes ambient for every cooperative checkpoint, its circuit breaker
    guards the process backend's lost-chunk recovery, and its memory
    governor admits and bounds sweep working sets. Everything supervision
    sheds or trips lands in the run manifest under ``supervision`` plus
    the regular degradations list.

    The run is wrapped in one root span per experiment. With observability
    on, the run's manifest (seed, scale fingerprint, versions,
    degradations, metric totals, health report) is built once after the
    outcome lands, and ``manifest_out`` writes it atomically — see
    :func:`repro.obs.manifest.run_manifest`.
    """
    if experiment_id not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}"
        )
    scale = _resolve_scale(scale)
    driver = EXPERIMENTS[experiment_id]

    # A run that raises must not leave an earlier run's manifest behind
    # for the CLI to record as its own, and its manifest records only what
    # happened since it began.
    obs.current().manifest = None
    since = obs.run_mark()
    with obs.span("experiment", key=f"experiment:{experiment_id}:{seed}",
                  experiment=experiment_id, seed=seed) as root:
        journal: Optional[CheckpointJournal] = None
        outcome_key: Optional[str] = None
        cached_hit = False
        outcome: Optional[ExperimentOutcome] = None
        if checkpoint_dir is not None:
            namespace = (
                f"{experiment_id}/seed={seed}/"
                f"scale={scale.duration_days}d-{scale.n_users}u-"
                f"{scale.candidates_per_user_day}c"
            )
            journal = CheckpointJournal(checkpoint_dir, namespace=namespace)
            outcome_key = journal.key_for("outcome")
            hit, cached = journal.fetch(outcome_key)
            if hit:
                cached_hit = True
                outcome = cached
                root.set(cached=True)
                obs.inc("autosens_checkpoint_total", outcome="outcome-hit")

        if outcome is None:
            if journal is not None:
                executor = JournaledExecutor(resolve_executor(executor), journal)

            kwargs = {"scale": scale} if seed is None else {"seed": seed, "scale": scale}
            if executor is not None and _accepts_executor(driver):
                kwargs["executor"] = executor
            with supervisor.scope() if supervisor is not None else contextlib.nullcontext():
                outcome = driver(**kwargs)
            if journal is not None:
                journal.put(outcome_key, outcome)

    if obs.current().enabled or manifest_out is not None:
        extra: Dict[str, object] = {"outcome_cached": cached_hit}
        if supervisor is not None and supervisor.enabled:
            extra["supervision"] = supervisor.summary()
        fingerprint = (("experiment", experiment_id), ("seed", seed),
                       ("duration_days", scale.duration_days), ("n_users", scale.n_users),
                       ("candidates_per_user_day", scale.candidates_per_user_day))
        manifest = obs.run_manifest(experiment_id, seed, fingerprint,
                                    extra=extra, since=since)
        outcome.health = manifest["health"]
        if manifest_out is not None:
            obs.write_manifest(manifest, manifest_out)
    return outcome
