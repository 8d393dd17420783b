"""Command-line interface.

Subcommands::

    autosens generate --scenario owa --seed 7 --out logs.jsonl
    autosens analyze logs.jsonl --action SelectMail --user-class business
    autosens analyze dirty.jsonl --on-bad-rows quarantine --quarantine-path bad.jsonl
    autosens experiment fig4 --scale full --checkpoint-dir .autosens-ckpt
    autosens watch .autosens-runs --check
    autosens list

(Or ``python -m repro ...`` without installing the entry point.)

Exit codes follow the error taxonomy in :mod:`repro.errors`: 0 success,
1 generic failure (including failed experiment checks), 2 bad
request/config, 3 schema violation, 4 ingest error budget exceeded,
5 empty/insufficient data, 6 privacy refusal, 7 task retries exhausted,
8 deadline exceeded, 9 circuit breaker open, 10 memory budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import List, Optional

from repro._version import __version__
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
    EmptyDataError,
    IngestError,
    InsufficientDataError,
    MemoryBudgetError,
    PrivacyError,
    ReproError,
    SchemaError,
    TaskFailedError,
)

#: Exit code per error class; first matching entry wins (order matters:
#: subclasses before ReproError).
_EXIT_CODES = (
    (ConfigError, 2),
    (SchemaError, 3),
    (IngestError, 4),
    (EmptyDataError, 5),
    (InsufficientDataError, 5),
    (PrivacyError, 6),
    (TaskFailedError, 7),
    (DeadlineExceededError, 8),
    (CircuitOpenError, 9),
    (MemoryBudgetError, 10),
    (ReproError, 1),
)


def _exit_code_for(exc: ReproError) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 1  # pragma: no cover - ReproError entry is a catch-all


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags (off by default, near-free when off)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level", choices=["debug", "info", "warning", "error"],
        default=None,
        help="emit structured logs at this level and above (default: off)")
    group.add_argument(
        "--log-json", action="store_true",
        help="logs as JSON lines instead of key=value text")
    group.add_argument(
        "--trace-out", default=None,
        help="write the run's span trace here: .json selects Chrome "
             "trace_event format (open in chrome://tracing or Perfetto), "
             ".jsonl one span record per line")
    group.add_argument(
        "--metrics-out", default=None,
        help="write the run's metrics here: .json for a snapshot, any "
             "other suffix for Prometheus text format")
    group.add_argument(
        "--manifest-out", default=None,
        help="write a run-provenance manifest (seed, config fingerprint, "
             "versions, degradations) here, atomically")
    group.add_argument(
        "--deterministic-trace", action="store_true",
        help="timestamp spans from a monotonic event clock instead of wall "
             "time, making every emitted artifact byte-deterministic for a "
             "fixed seed")
    group.add_argument(
        "--health-out", default=None,
        help="write the estimator-health report (probe findings + per-stage "
             "verdicts, see 'autosens doctor') here as JSON")
    group.add_argument(
        "--profile-out", default=None,
        help="attach the span profiler and write per-span CPU/RSS "
             "attribution plus folded stacks here as JSON; all other "
             "artifacts stay byte-identical with or without this flag")
    group.add_argument(
        "--serve-obs", default=None, metavar="HOST:PORT",
        help="serve live telemetry over HTTP while the command runs: "
             "/metrics (Prometheus text), /healthz (rolling probe verdict), "
             "/progress (JSON for 'autosens top'); port 0 picks a free "
             "port; all artifacts stay byte-identical with or without "
             "this flag")
    group.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="record this run into the persistent run registry at DIR "
             "(manifest + metrics, plus progress when served; indexed "
             "append-only); inspect with 'autosens runs ls|show|diff'")
    return parent


def _configure_obs(args: argparse.Namespace) -> bool:
    """Install an observability context when any obs flag asks for one."""
    import repro.obs as obs

    # Inspection commands read artifacts others produced; their flags
    # (e.g. `runs --runs-dir`) never mean "instrument this invocation".
    if args.command in ("obs", "doctor", "top", "runs", "watch", "list"):
        return False
    flags = ("log_level", "trace_out", "metrics_out", "manifest_out",
             "deterministic_trace", "health_out", "profile_out", "serve_obs",
             "runs_dir")
    if not any(getattr(args, flag, None) for flag in flags):
        return False
    seed = getattr(args, "seed", None)
    run_id = f"{args.command}:{seed if seed is not None else 'default'}"
    obs.configure(
        enabled=True,
        level=args.log_level or "warning",
        log_json=getattr(args, "log_json", False),
        deterministic=getattr(args, "deterministic_trace", False),
        run_id=run_id,
        profile=bool(getattr(args, "profile_out", None)),
    )
    return True


def _start_obs_services(args: argparse.Namespace) -> dict:
    """Start the live telemetry plane this invocation asked for.

    Returns a services dict consumed by :func:`_finish_obs`.
    The server reads the already-configured context; a bad
    ``--serve-obs`` address is a :class:`~repro.errors.ConfigError`
    (exit 2) like any other bad flag.
    """
    import time

    services: dict = {"server": None, "t0": time.monotonic()}
    spec = getattr(args, "serve_obs", None)
    if spec:
        from repro.obs.serve import ObsServer, parse_serve_addr

        try:
            host, port = parse_serve_addr(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        server = ObsServer(host, port).start()
        services["server"] = server
        print(f"obs: serving live telemetry on {server.url} "
              "(/metrics /healthz /progress)", file=sys.stderr)
    return services


def _finish_obs(args: argparse.Namespace, services: dict,
                status: int) -> None:
    """Stop the obs server and write every artifact the obs flags asked for.

    The run has one manifest: the one ``run_experiment`` built, or else
    one built here for this invocation. ``--manifest-out``, ``--health-out``
    and ``--runs-dir`` all write from it. Recording happens even for failed
    runs — a registry that only holds successes cannot show when a
    regression started.
    """
    import json
    import time

    import repro.obs as obs

    ctx = obs.current()
    server = services.get("server")
    if server is not None:
        server.tracker.finish("done" if status == 0 else "failed")
        server.close()
    if args.trace_out:
        records = ctx.tracer.finished()
        if Path(args.trace_out).suffix == ".jsonl":
            n = obs.write_trace_jsonl(records, args.trace_out)
        else:
            n = obs.write_chrome_trace(records, args.trace_out,
                                       trace_id=ctx.run_id or "autosens")
        print(f"trace: {n} spans written to {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        if Path(args.metrics_out).suffix == ".json":
            obs.write_metrics_json(ctx.metrics, args.metrics_out)
        else:
            obs.write_metrics_prometheus(ctx.metrics, args.metrics_out)
        print(f"metrics: {len(ctx.metrics)} instruments written to "
              f"{args.metrics_out}", file=sys.stderr)
    manifest = ctx.manifest
    if manifest is None:
        logs = getattr(args, "logs", None)
        manifest = obs.run_manifest(
            args.command, getattr(args, "seed", None), ctx.run_id,
            inputs=[logs] if logs and Path(logs).is_file() else ())
        if args.manifest_out:
            obs.write_manifest(manifest, args.manifest_out)
            print(f"manifest written to {args.manifest_out}", file=sys.stderr)
    report = obs.HealthReport(manifest["health"]["findings"])
    if args.health_out:
        obs.write_health_report(report, args.health_out)
        print(f"health: verdict {report.verdict} ({len(report.findings)} "
              f"findings) written to {args.health_out}", file=sys.stderr)
    if args.profile_out:
        payload = obs.build_profile(
            obs.profiler(), records=ctx.tracer.finished(),
            run_id=ctx.run_id or "autosens")
        obs.write_profile(payload, args.profile_out)
        print(f"profile: {len(payload['spans'])} spans written to "
              f"{args.profile_out}", file=sys.stderr)
    if not args.runs_dir:
        return
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(args.runs_dir)
    run_dir = registry.new_run_dir(ctx.run_id or args.command)
    obs.write_manifest({**manifest, "exit_status": status},
                       run_dir / "manifest.json")
    obs.write_metrics_prometheus(ctx.metrics, run_dir / "metrics.prom")
    if server is not None:
        (run_dir / "progress.json").write_text(
            json.dumps(server.tracker.snapshot(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
    entry = {
        "run_id": ctx.run_id,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "deterministic": ctx.deterministic,
        "verdict": report.verdict,
        "wall_s": round(time.monotonic() - services.get("t0", 0.0), 3),
    }
    if not ctx.deterministic:
        entry["created_at"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    registry.record(run_dir, **entry)
    print(f"run recorded: {run_dir}", file=sys.stderr)


def _runtime_parent() -> argparse.ArgumentParser:
    """Shared supervision flags (``--deadline-s`` & friends; off by default)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("supervision")
    group.add_argument(
        "--deadline-s", type=float, default=None,
        help="wall-clock budget in seconds; over-budget sweeps shed the "
             "remaining slices (recorded as deadline_exceeded degradations) "
             "and other stages stop with exit code 8")
    group.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="memory budget for sweep working sets; a sweep runs as many "
             "slices at once as the budget holds, and a single slice that "
             "cannot fit at all stops with exit code 10")
    group.add_argument(
        "--breaker", action="store_true",
        help="guard ingestion and the process backend's lost-chunk "
             "recovery with a circuit breaker: repeated failures open the "
             "circuit (exit code 9) instead of retrying into a known-bad "
             "dependency")
    return parent


def _supervisor_from(args: argparse.Namespace):
    """Build the run's Supervisor, or ``None`` when no flag asks for one."""
    deadline_s = getattr(args, "deadline_s", None)
    memory_budget_mb = getattr(args, "memory_budget_mb", None)
    breaker = getattr(args, "breaker", False)
    if deadline_s is None and memory_budget_mb is None and not breaker:
        return None
    from repro.runtime import Supervisor

    return Supervisor(
        deadline_s=deadline_s,
        memory_budget_mb=memory_budget_mb,
        breaker=breaker,
    )


def _ingest_parent() -> argparse.ArgumentParser:
    """Shared ``--on-bad-rows``/``--quarantine-path`` flags."""
    from repro.telemetry import INGEST_MODES

    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("ingestion")
    group.add_argument(
        "--on-bad-rows", choices=list(INGEST_MODES), default="strict",
        help="malformed-row handling: strict fails on the first bad row, "
             "lenient skips and counts, quarantine also writes rejects to "
             "--quarantine-path (default: strict)")
    group.add_argument(
        "--quarantine-path", default=None,
        help="JSONL sink for rejected rows (required with "
             "--on-bad-rows quarantine)")
    group.add_argument(
        "--max-bad-share", type=float, default=0.05,
        help="error budget: maximum tolerated share of bad rows before "
             "ingestion fails (default: 0.05)")
    return parent


def _ingest_policy(args: argparse.Namespace):
    from repro.telemetry import IngestPolicy

    return IngestPolicy(
        mode=args.on_bad_rows,
        max_bad_share=args.max_bad_share,
        quarantine_path=args.quarantine_path,
    )


def _read_logs(path: Path, args: argparse.Namespace, supervisor=None):
    """Read a telemetry file honouring the command's ingest flags.

    With a supervised circuit breaker the reader call routes through it, so
    repeatedly-failing inputs open the circuit instead of being hammered.
    """
    from repro.telemetry import read_csv, read_jsonl

    policy = _ingest_policy(args)
    reader = read_csv if path.suffix == ".csv" else read_jsonl
    if supervisor is not None and supervisor.breaker is not None:
        return supervisor.breaker.call(reader, path, policy=policy)
    return reader(path, policy=policy)


def _report_ingest(logs) -> None:
    """Print a one-line note when rows were rejected during ingestion."""
    report = getattr(logs, "ingest_report", None)
    if report is not None and report.n_bad:
        print(f"note: {report.summary()}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    from repro.obs.diff import DEFAULT_CURVE_TOL, DEFAULT_REL_TOL

    parser = argparse.ArgumentParser(
        prog="autosens",
        description="AutoSens (IMC 2021) reproduction: latency-sensitivity "
                    "inference through natural experiments.",
    )
    parser.add_argument("--version", action="version", version=f"autosens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    ingest = _ingest_parent()
    observability = _obs_parent()
    supervision = _runtime_parent()

    gen = sub.add_parser("generate", help="generate synthetic telemetry",
                         parents=[ingest, observability])
    gen.add_argument("--scenario", default="owa",
                     help="scenario name (see 'autosens list')")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--days", type=float, default=None, help="duration in days")
    gen.add_argument("--users", type=int, default=None, help="population size")
    gen.add_argument("--latency-backend", choices=["ou", "queue"], default=None,
                     help="override the scenario's latency generator: 'ou' "
                          "(diurnal Ornstein-Uhlenbeck level) or 'queue' "
                          "(M/G/k discrete-event simulation)")
    gen.add_argument("--out", required=True,
                     help="output path (.jsonl, .jsonl.gz or .csv)")

    ana = sub.add_parser("analyze", help="compute an NLP curve from a log file",
                         parents=[ingest, observability, supervision])
    ana.add_argument("logs", help="telemetry file (.jsonl, .jsonl.gz, .csv) "
                              "or an exported counts table (counts .json)")
    ana.add_argument("--action", default=None)
    ana.add_argument("--user-class", default=None)
    ana.add_argument("--reference-ms", type=float, default=300.0)
    ana.add_argument("--no-time-correction", action="store_true")
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--export", default=None,
                     help="write the curve series to this CSV path")

    exp = sub.add_parser("experiment", help="run paper experiments",
                         parents=[observability, supervision])
    exp.add_argument("ids", nargs="*", default=[],
                     help="experiment ids (default: all)")
    exp.add_argument("--scale", choices=["small", "full"], default="full")
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--no-plots", action="store_true")
    exp.add_argument("--checkpoint-dir", default=None,
                     help="journal completed work here; a rerun resumes "
                          "instead of recomputing")

    counts = sub.add_parser(
        "export-counts",
        help="export privacy-preserving sufficient statistics from a log file",
        parents=[ingest],
    )
    counts.add_argument("logs", help="telemetry file (.jsonl, .jsonl.gz or .csv)")
    counts.add_argument("--action", default=None)
    counts.add_argument("--user-class", default=None)
    counts.add_argument("--scheme", default="hour-of-day")
    counts.add_argument("--seed", type=int, default=0)
    counts.add_argument("--out", required=True, help="output JSON path")

    qual = sub.add_parser("quality", help="data-quality report for a log file",
                          parents=[ingest, observability])
    qual.add_argument("logs", help="telemetry file (.jsonl, .jsonl.gz or .csv)")

    pre = sub.add_parser("preflight",
                         help="check whether a log slice supports AutoSens",
                         parents=[ingest])
    pre.add_argument("logs", help="telemetry file (.jsonl, .jsonl.gz or .csv)")
    pre.add_argument("--action", default=None)
    pre.add_argument("--user-class", default=None)

    obs_cmd = sub.add_parser(
        "obs", help="inspect observability artifacts")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summary = obs_sub.add_parser(
        "summary", help="render a run manifest as a human-readable table")
    summary.add_argument("manifest", help="path to a run manifest JSON file")
    summary.add_argument("--format", choices=["table", "json"],
                         default="table",
                         help="output format: a text table or a JSON array "
                              "of [field, value] pairs (default: table)")
    diff = obs_sub.add_parser(
        "diff", help="compare two run artifacts (manifest/metrics/curve/"
                     "health/sensitivity) with tolerance classification")
    diff.add_argument("a", help="baseline artifact (JSON file or run dir)")
    diff.add_argument("b", help="candidate artifact (JSON file or run dir)")
    diff.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                      help="relative tolerance for ratio-ish quantities "
                           "(default: %(default)s)")
    diff.add_argument("--curve-tol", type=float, default=DEFAULT_CURVE_TOL,
                      help="absolute tolerance for NLP curve values "
                           "(default: %(default)s)")
    diff.add_argument("--out", default=None,
                      help="also write the classified diff as JSON here")
    diff.add_argument("--show-unchanged", action="store_true",
                      help="list unchanged entries too, not just drift")

    doctor = sub.add_parser(
        "doctor",
        help="diagnose a finished run: estimator-health findings and "
             "per-stage verdicts")
    doctor.add_argument(
        "run", help="a run directory (containing manifest.json), a manifest "
                    "file, or a health-report file")
    doctor.add_argument("--strict", action="store_true",
                        help="exit non-zero on 'warn' too, not just 'fail'")
    doctor.add_argument("--max-findings", type=int, default=15,
                        help="how many findings to list, worst first "
                             "(default: 15)")

    def paired_parser(name: str, help: str, scales: List[str],
                      artifact: str, suffix: str) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, help=help, parents=[observability])
        parser.add_argument("fixtures", nargs="*", default=[],
                            help="fixture names (default: the default matrix)")
        parser.add_argument("--seed", type=int, default=7)
        parser.add_argument("--scale", choices=scales, default=scales[0])
        parser.add_argument(
            "--executor", default="serial",
            help=f"execution backend (serial or process; {artifact}s are "
                 "bit-identical across backends)")
        parser.add_argument(
            "--out-dir", default=None,
            help=f"write per-fixture {artifact} artifacts and a summary.json "
                 "here")
        parser.add_argument(
            "--baseline-dir", default=None,
            help=f"obs-diff each fixture's {artifact} against "
                 f"<dir>/<name>{suffix} and fail on drift (requires --out-dir)")
        parser.add_argument(
            "--curve-tol", type=float, default=DEFAULT_CURVE_TOL,
            help="absolute NLP tolerance for the baseline diff "
                 "(default: %(default)s)")
        return parser

    paired_parser(
        "recover",
        "run incident recovery fixtures: each must recover the "
        "incident-free NLP curve or degrade loudly",
        ["small", "full"], "curve", ".curve.json")
    sens = paired_parser(
        "sensitivity",
        "sweep the estimator across degradation fixtures: each cell must "
        "stay within tolerance of its clean twin or degrade loudly "
        "(silent bias gates red)",
        ["smoke", "full"], "frontier", ".frontier.json")
    sens.add_argument("--scenario", default="owa-queue",
                      help="workload scenario to degrade (default: "
                           "owa-queue)")
    sens.add_argument("--smoke", action="store_true",
                      help="alias for --scale smoke (the CI invocation)")

    top = sub.add_parser(
        "top",
        help="live progress view: per-stage completion bars, throughput "
             "and ETA from a --serve-obs endpoint (or a recorded run dir)")
    top.add_argument(
        "target",
        help="a --serve-obs address (HOST:PORT or URL) to poll, or a "
             "recorded run directory holding progress.json")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between frames when polling a live "
                          "endpoint (default: 1.0)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")

    runs = sub.add_parser(
        "runs", help="inspect the persistent run registry (--runs-dir)")
    runs_dir_parent = argparse.ArgumentParser(add_help=False)
    runs_dir_parent.add_argument(
        "--runs-dir", default=".autosens-runs",
        help="registry directory (default: .autosens-runs)")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser("ls", parents=[runs_dir_parent],
                        help="list recorded runs, oldest first")
    runs_show = runs_sub.add_parser(
        "show", parents=[runs_dir_parent],
        help="show one recorded run: index entry plus its manifest summary")
    runs_show.add_argument("run", help="seq number, run id, or dir name")
    runs_diff = runs_sub.add_parser(
        "diff", parents=[runs_dir_parent],
        help="obs-diff two recorded runs with tolerance classification")
    runs_diff.add_argument("a", help="baseline run (seq/run id/dir name)")
    runs_diff.add_argument("b", help="candidate run (seq/run id/dir name)")
    runs_diff.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    runs_diff.add_argument("--curve-tol", type=float,
                           default=DEFAULT_CURVE_TOL)

    watch = sub.add_parser(
        "watch",
        help="fleet surveillance over a run registry: rolling EWMA+MAD "
             "baselines, change-point drift attribution, and SLO burn-rate "
             "verdicts over the whole recorded history")
    watch.add_argument(
        "runs_dir",
        help="registry directory (the --runs-dir runs were recorded into)")
    watch.add_argument(
        "--slo", default=None, metavar="PATH",
        help="SLO config as TOML ([[slo]] tables) or JSON; default: the "
             "built-in fleet SLO set (health, ingest rejects, span "
             "stability)")
    watch.add_argument(
        "--last", type=int, default=0,
        help="only consider the last N recorded runs (default: all)")
    watch.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write baseline.json / trend.json / slo.json here "
             "(byte-deterministic: identical registries yield identical "
             "artifacts)")
    watch.add_argument(
        "--check", action="store_true",
        help="CI gate: exit 1 when any SLO breaches (0 when all met)")
    watch.add_argument(
        "--follow", action="store_true",
        help="keep watching: re-evaluate whenever the registry index "
             "grows (ctrl-C to stop)")
    watch.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between registry polls with --follow (default: 2.0)")
    watch.add_argument(
        "--max-polls", type=int, default=0,
        help="stop --follow after this many polls (0 = until interrupted)")

    sub.add_parser("list", help="list scenarios and experiments")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.telemetry import write_csv, write_jsonl
    from repro.workload.scenarios import SCENARIOS

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; known: {', '.join(SCENARIOS)}",
              file=sys.stderr)
        return 2
    kwargs = {"seed": args.seed}
    if args.days is not None:
        kwargs["duration_days"] = args.days
    if args.users is not None:
        kwargs["n_users"] = args.users
    scenario = SCENARIOS[args.scenario](**kwargs)
    if args.latency_backend is not None:
        scenario = scenario.with_latency_backend(args.latency_backend)
    result = scenario.generate()
    out = Path(args.out)
    write = write_csv if out.suffix == ".csv" else write_jsonl
    count = write(result.logs, out)
    print(f"wrote {count} actions ({result.n_candidates} candidates, "
          f"{result.acceptance_rate:.1%} accepted) to {out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core import AutoSens, AutoSensConfig
    from repro.viz import line_plot, save_series_csv
    from repro.viz.table import format_table

    path = Path(args.logs)
    config = AutoSensConfig(
        reference_ms=args.reference_ms,
        time_correction=not args.no_time_correction,
        seed=args.seed,
    )
    supervisor = _supervisor_from(args)
    if path.suffix == ".json":
        from repro.core.aggregate import curve_from_counts, load_counts

        if args.action or args.user_class:
            print("note: counts tables are pre-sliced; --action/--user-class "
                  "are ignored", file=sys.stderr)
        curve = curve_from_counts(load_counts(path), config,
                                  slice_description=path.stem)
    else:
        with supervisor.scope() if supervisor is not None else contextlib.nullcontext():
            logs = _read_logs(path, args, supervisor=supervisor)
            _report_ingest(logs)
            curve = AutoSens(config).preference_curve(
                logs, action=args.action, user_class=args.user_class
            )
    probes = [400.0, 500.0, 800.0, 1000.0, 1500.0, 2000.0]
    rows = []
    for probe in probes:
        try:
            value = float(curve.at(probe))
        except Exception:
            value = float("nan")
        rows.append([f"{probe:.0f} ms",
                     None if np.isnan(value) else value,
                     None if np.isnan(value) else 1.0 - value])
    print(f"slice: {curve.slice_description}  (n={curve.n_actions})")
    print(format_table(["latency", "NLP", "activity drop"], rows))
    mask = curve.valid & (curve.latencies <= 2000.0)
    if mask.any():
        print(line_plot(
            {"NLP": (curve.latencies[mask], curve.nlp[mask])},
            title="normalized latency preference",
            x_label="latency ms",
        ))
    if args.export:
        save_series_csv(curve.series(), args.export)
        print(f"series written to {args.export}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS, run_experiment
    from repro.analysis.summary import summarize

    ids = args.ids or list(EXPERIMENTS)
    status = 0
    outcomes = []
    supervisor = _supervisor_from(args)
    for i, experiment_id in enumerate(ids):
        # One manifest per invocation: with several ids, the last run wins
        # the flag's path and earlier ones get an id-suffixed sibling.
        manifest_out = args.manifest_out
        if manifest_out and len(ids) > 1 and i < len(ids) - 1:
            base = Path(manifest_out)
            manifest_out = str(base.with_name(
                f"{base.stem}.{experiment_id}{base.suffix}"))
        outcome = run_experiment(experiment_id, seed=args.seed, scale=args.scale,
                                 checkpoint_dir=args.checkpoint_dir,
                                 manifest_out=manifest_out,
                                 supervisor=supervisor)
        outcomes.append(outcome)
        print(outcome.render(include_plots=not args.no_plots))
        print()
        if not outcome.passed:
            status = 1
    if len(outcomes) > 1:
        print(summarize(outcomes))
    return status


def _cmd_export_counts(args: argparse.Namespace) -> int:
    from repro.core import AutoSensConfig
    from repro.core.aggregate import save_counts
    from repro.core.alpha import slotted_counts

    path = Path(args.logs)
    logs = _read_logs(path, args)
    _report_ingest(logs)
    sliced = logs.where(action=args.action, user_class=args.user_class)
    if sliced.is_empty:
        print("the requested slice is empty", file=sys.stderr)
        return 2
    config = AutoSensConfig(seed=args.seed, slot_scheme=args.scheme)
    counts = slotted_counts(sliced, config.bins(), scheme=args.scheme)
    save_counts(counts, args.out)
    print(f"wrote sufficient statistics for {len(sliced)} actions "
          f"({counts.slot_ids.size} slots x {counts.bins.count} bins) to {args.out}")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.telemetry import quality_report
    from repro.viz.table import format_table

    path = Path(args.logs)
    logs = _read_logs(path, args)
    report = quality_report(logs)
    print(format_table(["metric", "value"], report.rows()))
    for flag in report.flags:
        print(f"[{flag.severity.upper()}] {flag.message}")
    if not report.flags:
        print("no quality concerns detected")
    return 0 if report.ok else 1


def _cmd_preflight(args: argparse.Namespace) -> int:
    from repro.core.preflight import preflight
    from repro.viz.table import format_table

    path = Path(args.logs)
    logs = _read_logs(path, args)
    _report_ingest(logs)
    sliced = logs.where(action=args.action, user_class=args.user_class)
    if sliced.is_empty:
        print("the requested slice is empty", file=sys.stderr)
        return 2
    report = preflight(sliced)
    print(format_table(["check", "result"], report.rows()))
    print("recommendations:")
    for recommendation in report.recommendations:
        print(f"  - {recommendation}")
    return 0 if report.ready else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    import json as _json

    from repro.obs import load_manifest, manifest_rows
    from repro.viz.table import format_table

    manifest = load_manifest(args.manifest)
    rows = manifest_rows(manifest)
    if getattr(args, "format", "table") == "json":
        print(_json.dumps([[field, value] for field, value in rows],
                          sort_keys=False, default=str))
    else:
        print(format_table(["field", "value"], rows))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import repro.obs as obs

    report = obs.diff_paths(args.a, args.b, rel_tol=args.rel_tol,
                            curve_tol=args.curve_tol)
    print(obs.render_diff(report, show_unchanged=args.show_unchanged))
    if args.out:
        obs.write_diff(report, args.out)
        print(f"diff written to {args.out}", file=sys.stderr)
    return obs.diff_exit_code(report)


def _resolve_doctor_source(run: Path):
    """A health report from a run dir, a manifest file, or a health file."""
    from repro.obs import load_health_report
    from repro.obs.diff import load_artifact, sniff_kind

    if run.is_dir():
        candidates = ([run / "manifest.json"]
                      + sorted(run.glob("*manifest*.json"))
                      + sorted(run.glob("*health*.json")))
        for candidate in candidates:
            if candidate.exists():
                run = candidate
                break
        else:
            raise SchemaError(
                f"{run} holds no manifest.json or health report to diagnose")
    payload = load_artifact(run)  # validated by its kind's loader
    if sniff_kind(payload) == "health":
        return load_health_report(payload), None
    if "health" not in payload:
        raise SchemaError(
            f"{run} carries no health report, so no autosens command wrote "
            "it (every manifest they write has one); pass a --health-out "
            "artifact or a manifest from --manifest-out/--runs-dir")
    return load_health_report(payload["health"]), payload


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.viz.table import format_table

    report, manifest = _resolve_doctor_source(Path(args.run))
    if manifest is not None:
        print(f"run {manifest.get('run_id', '?')} "
              f"({manifest.get('experiment_id', '?')}, "
              f"seed {manifest.get('seed', '?')})")
    counts = report.counts()
    print(f"verdict: {report.verdict}  "
          f"(ok={counts['ok']} warn={counts['warn']} fail={counts['fail']})")
    stage_rows = [[stage, verdict] for stage, verdict in
                  sorted(report.stages.items())]
    if stage_rows:
        print(format_table(["stage", "verdict"], stage_rows))
    shown = report.worst_findings(args.max_findings)
    interesting = [f for f in shown if f.get("severity") != "ok"]
    for finding in interesting:
        print(f"[{finding.get('severity', '?').upper()}] "
              f"{finding.get('stage', '?')}/{finding.get('probe', '?')}: "
              f"{finding.get('message', '')}")
    if not interesting:
        print("no warnings or failures; all probes within thresholds")
    hidden = len(report.findings) - len(shown)
    if hidden > 0:
        print(f"({hidden} more findings not shown; raise --max-findings)")
    if args.strict and report.verdict != "ok":
        return 1
    return report.exit_code


def _paired_gate(args: argparse.Namespace, gate: str, names: List[str],
                 known, run, headers: List[str], rows,
                 suffix: str) -> int:
    """Shared body of ``recover`` and ``sensitivity``.

    Checks fixture names, runs the suite (``run(names)``), prints the
    table (``rows(outcome)`` per fixture), obs-diffs each fixture's
    ``<name><suffix>`` artifact against ``--baseline-dir``, and prints the
    PASS/FAIL line. Silent bias or baseline drift exits 1; usage errors 2.
    """
    from repro.viz.table import format_table

    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown fixture(s) {', '.join(unknown)}; "
              f"known: {', '.join(sorted(known))}", file=sys.stderr)
        return 2
    artifact = suffix.split(".")[1]
    if args.baseline_dir and not args.out_dir:
        print("--baseline-dir requires --out-dir (the diff needs the "
              f"candidate {artifact} artifacts on disk)", file=sys.stderr)
        return 2

    outcomes = run(names)
    print(format_table(headers, [row for name in names
                                 for row in rows(outcomes[name])]))

    biased = [n for n in names if not outcomes[n].gate_passed]
    drifted: List[str] = []
    if args.baseline_dir:
        import repro.obs as obs

        baseline_dir = Path(args.baseline_dir)
        out_dir = Path(args.out_dir)
        for name in names:
            baseline = baseline_dir / f"{name}{suffix}"
            if not baseline.exists():
                print(f"{name}: no committed baseline at {baseline}",
                      file=sys.stderr)
                drifted.append(name)
                continue
            report = obs.diff_paths(baseline, out_dir / f"{name}{suffix}",
                                    curve_tol=args.curve_tol)
            if obs.diff_exit_code(report) != 0:
                summary = report["summary"]
                print(f"{name}: {artifact} drifted from baseline "
                      f"({summary['regressed']} regressed, "
                      f"{summary['added'] + summary['removed']} "
                      f"added/removed)", file=sys.stderr)
                drifted.append(name)

    if biased:
        print(f"{gate} gate: FAIL — silent bias in {', '.join(biased)}")
        return 1
    if drifted:
        print(f"{gate} gate: FAIL — baseline drift in {', '.join(drifted)}")
        return 1
    print(f"{gate} gate: PASS ({len(names)} fixture(s); no silent bias"
          + (", no baseline drift)" if args.baseline_dir else ")"))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.analysis.recovery import RECOVERY_FIXTURES, run_recovery_suite

    def rows(outcome):
        flagged = sorted({f["probe"] for f in outcome.regime
                          if f.get("severity") != "ok"})
        return [[outcome.fixture, outcome.verdict,
                 f"{outcome.max_abs_nlp_diff:.4f}", f"{outcome.tolerance:g}",
                 ", ".join(flagged) or "-"]]

    return _paired_gate(
        args, "recovery", args.fixtures or sorted(RECOVERY_FIXTURES),
        RECOVERY_FIXTURES,
        lambda names: run_recovery_suite(
            names, seed=args.seed, scale=args.scale, executor=args.executor,
            out_dir=args.out_dir),
        ["fixture", "verdict", "max |dNLP|", "tol", "regime flags"], rows,
        ".curve.json",
    )


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import (
        DEFAULT_SENSITIVITY_NAMES,
        SENSITIVITY_FIXTURES,
        run_sensitivity_suite,
    )

    def rows(outcome):
        return [[outcome.fixture, f"{c['level']:g}", c["verdict"],
                 "-" if c["bias_linf"] is None else f"{c['bias_linf']:.4f}",
                 f"{outcome.tolerance:g}", c["error"] or "-"]
                for c in outcome.cells]

    return _paired_gate(
        args, "sensitivity", args.fixtures or list(DEFAULT_SENSITIVITY_NAMES),
        SENSITIVITY_FIXTURES,
        lambda names: run_sensitivity_suite(
            names, scenario=args.scenario, seed=args.seed,
            scale="smoke" if args.smoke else args.scale,
            executor=args.executor, out_dir=args.out_dir),
        ["fixture", "level", "verdict", "|bias|inf", "tol", "error"], rows,
        ".frontier.json",
    )


def _fetch_progress(target: str) -> dict:
    """One progress snapshot from a live endpoint or a recorded run dir."""
    import json as _json
    import urllib.error
    import urllib.request

    path = Path(target)
    if path.is_dir():
        from repro.obs.manifest import load_manifest
        from repro.obs.progress import load_progress, snapshot_from_manifest
        from repro.obs.registry import RunRegistry

        if (path / "progress.json").is_file():
            return load_progress(path / "progress.json")
        # Runs recorded without --serve-obs persist no progress.json;
        # degrade to a manifest-only summary instead of erroring, timed by
        # the registry's wall clock when the dir sits in a registry.
        manifest = path / "manifest.json"
        if manifest.is_file():
            wall_s = next((entry.get("wall_s") for entry
                           in RunRegistry(path.parent).entries()
                           if entry.get("dir") == path.name), None)
            return snapshot_from_manifest(load_manifest(manifest), wall_s)
        raise SchemaError(f"{path} holds no progress.json or "
                          "manifest.json (is it a recorded run dir?)")
    url = target if target.startswith("http") else f"http://{target}"
    try:
        with urllib.request.urlopen(f"{url}/progress", timeout=5) as response:
            return _json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ConfigError(
            f"cannot reach obs server at {url}: {exc} "
            "(is the run started with --serve-obs?)") from exc


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.progress import render_progress

    live = not Path(args.target).is_dir()
    while True:
        snapshot = _fetch_progress(args.target)
        frame = render_progress(snapshot, source=args.target)
        if args.once or not live:
            print(frame)
            return 0
        # In-place refresh: clear screen, home cursor, draw the frame.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        if snapshot.get("state") != "running":
            return 0
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def _resolve_run_dir(registry, selector: str) -> Path:
    entry = registry.find(selector)
    if entry is None:
        raise ConfigError(
            f"no recorded run matches {selector!r} in {registry.runs_dir} "
            "(see 'autosens runs ls')")
    run_dir = registry.run_path(entry)
    if not run_dir.is_dir():
        raise SchemaError(f"recorded run directory {run_dir} is missing")
    return run_dir


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.registry import RunRegistry, render_runs_table

    registry = RunRegistry(args.runs_dir)
    if args.runs_command == "ls":
        print(render_runs_table(registry.entries()))
        return 0
    if args.runs_command == "show":
        import repro.obs as obs
        from repro.viz.table import format_table

        entry = registry.find(args.run)
        if entry is None:
            raise ConfigError(
                f"no recorded run matches {args.run!r} in {registry.runs_dir} "
                "(see 'autosens runs ls')")
        for key in ("seq", "run_id", "command", "seed", "deterministic",
                    "verdict", "wall_s", "created_at", "dir"):
            if key in entry:
                print(f"{key}: {entry[key]}")
        manifest_path = registry.run_path(entry) / "manifest.json"
        if manifest_path.is_file():
            manifest = obs.load_manifest(manifest_path)
            print(format_table(["field", "value"],
                               obs.manifest_rows(manifest)))
        return 0
    # diff
    import repro.obs as obs

    report = obs.diff_paths(
        _resolve_run_dir(registry, args.a),
        _resolve_run_dir(registry, args.b),
        rel_tol=args.rel_tol, curve_tol=args.curve_tol)
    print(obs.render_diff(report))
    return obs.diff_exit_code(report)


def _cmd_watch(args: argparse.Namespace) -> int:
    """Fleet surveillance: baselines + drift + SLO verdicts over a registry.

    Exit codes: 0 when every SLO is met (always 0 without ``--check``
    unless evaluation itself fails), 1 on a breach under ``--check`` or
    ``--follow``, 2 for a missing/empty registry, 3 for a malformed SLO
    config — the same taxonomy as every other command.
    """
    import time

    from repro.obs.registry import RunRegistry
    from repro.obs.watch import (
        WatchConfigError,
        build_watch_report,
        load_slo_config,
        render_watch,
        watch_exit_code,
        write_watch_artifact,
    )

    registry = RunRegistry(args.runs_dir)
    if not registry.index_path.is_file():
        raise ConfigError(
            f"no run registry at {args.runs_dir} (missing index.jsonl — "
            "record runs with --runs-dir first)")
    try:
        slos = load_slo_config(args.slo)
    except WatchConfigError as exc:
        raise SchemaError(str(exc)) from exc

    def evaluate() -> dict:
        try:
            return build_watch_report(registry, slos=slos, last=args.last)
        except WatchConfigError as exc:
            raise ConfigError(str(exc)) from exc

    report = evaluate()
    print(render_watch(report))
    if args.out_dir:
        out = Path(args.out_dir)
        for name in ("baseline", "trend", "slo"):
            write_watch_artifact(report[name], out / f"{name}.json")
        print(f"watch artifacts written to {out}", file=sys.stderr)
    if not args.follow:
        return watch_exit_code(report) if args.check else 0
    seen = len(registry.entries())
    polls = 1
    status = watch_exit_code(report)
    while args.max_polls <= 0 or polls < args.max_polls:
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            break
        polls += 1
        n = len(registry.entries())
        if n == seen:
            continue
        seen = n
        report = evaluate()
        print()
        print(render_watch(report))
        status = watch_exit_code(report)
    return status if args.check else 0


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS
    from repro.workload.scenarios import SCENARIOS

    print("scenarios:")
    for name, builder in SCENARIOS.items():
        doc = (builder.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:20s} {doc}")
    print("experiments:")
    for name, fn in EXPERIMENTS.items():
        doc = (getattr(fn, "__doc__", "") or "").strip().splitlines()
        print(f"  {name:20s} {doc[0] if doc else ''}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status.

    Library errors are not tracebacks to the end user: every
    :class:`~repro.errors.ReproError` becomes a one-line message on stderr
    and a taxonomy-specific exit code (see the module docstring).
    """
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "experiment": _cmd_experiment,
        "export-counts": _cmd_export_counts,
        "quality": _cmd_quality,
        "preflight": _cmd_preflight,
        "obs": _cmd_obs,
        "doctor": _cmd_doctor,
        "recover": _cmd_recover,
        "sensitivity": _cmd_sensitivity,
        "top": _cmd_top,
        "runs": _cmd_runs,
        "watch": _cmd_watch,
        "list": _cmd_list,
    }
    observing = _configure_obs(args)
    services: dict = {}
    status = 1
    try:
        if observing:
            services = _start_obs_services(args)
        status = handlers[args.command](args)
        return status
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = _exit_code_for(exc)
        return status
    finally:
        if observing:
            import repro.obs as obs

            try:
                _finish_obs(args, services, status)
            finally:
                obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
