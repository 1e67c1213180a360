"""The ``deeprh`` command-line interface.

Examples::

    deeprh list-modules
    deeprh run fig5 --preset quick
    deeprh run fig14 --preset bench
    deeprh observations --preset quick
    deeprh campaign temperature --checkpoint-dir ckpt --fault-plan campaign.unit=0.05
    deeprh campaign temperature --checkpoint-dir ckpt --resume
    deeprh campaign temperature --workers 4 --module-deadline 120
    deeprh campaign --verify ckpt
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from repro.core import config as config_mod
from repro.core import report
from repro.core.acttime_study import ActiveTimeStudy, ActiveTimeStudyResult
from repro.core.observations import check_all_observations
from repro.core.spatial_study import SpatialStudy, SpatialStudyResult
from repro.core.temperature_study import TemperatureStudy, TemperatureStudyResult
from repro.dram.timing import DDR4_2400
from repro.errors import CampaignParked, ConfigError


class StudyCache:
    """Runs each study at most once per CLI invocation."""

    def __init__(self, config: config_mod.StudyConfig) -> None:
        self.config = config
        self._temperature: Optional[TemperatureStudyResult] = None
        self._acttime: Optional[ActiveTimeStudyResult] = None
        self._spatial: Optional[SpatialStudyResult] = None

    def temperature(self) -> TemperatureStudyResult:
        if self._temperature is None:
            self._temperature = TemperatureStudy(self.config).run()
        return self._temperature

    def acttime(self) -> ActiveTimeStudyResult:
        if self._acttime is None:
            self._acttime = ActiveTimeStudy(self.config).run()
        return self._acttime

    def spatial(self) -> SpatialStudyResult:
        if self._spatial is None:
            self._spatial = SpatialStudy(self.config).run()
        return self._spatial


def _experiment_renderers(cache: StudyCache) -> Dict[str, Callable[[], str]]:
    return {
        "table1": report.table1,
        "table2": report.table2,
        "table3": lambda: report.table3(cache.temperature()),
        "table4": report.table4,
        "fig3": lambda: "\n\n".join(
            report.fig3(cache.temperature(), m)
            for m in cache.temperature().manufacturers),
        "fig4": lambda: report.fig4(cache.temperature()),
        "fig5": lambda: report.fig5(cache.temperature()),
        "fig6": lambda: report.fig6(DDR4_2400),
        "fig7": lambda: report.fig7(cache.acttime()),
        "fig8": lambda: report.fig8(cache.acttime()),
        "fig9": lambda: report.fig9(cache.acttime()),
        "fig10": lambda: report.fig10(cache.acttime()),
        "fig11": lambda: report.fig11(cache.spatial()),
        "fig12": lambda: report.fig12(cache.spatial()),
        "fig13": lambda: "\n\n".join(
            report.fig13(cache.spatial(), m)
            for m in cache.spatial().manufacturers),
        "fig14": lambda: report.fig14(cache.spatial()),
        "fig15": lambda: report.fig15(cache.spatial()),
    }


def _add_governor_args(parser: argparse.ArgumentParser) -> None:
    """Resource-governor flags shared by ``campaign`` and ``serve``.

    Any budget flag implies ``--governor``; budgets left unset fall back
    to ``[tool.deeprh.governor]`` in pyproject.toml.
    """
    parser.add_argument("--governor", action="store_true",
                        help="enable the resource governor: under "
                             "RSS/fd/disk pressure the run degrades down "
                             "a deterministic ladder (shrink caches, "
                             "serial, shed, park) instead of crashing; "
                             "results stay byte-identical at every rung. "
                             "'deeprh serve' always counts worker-pool "
                             "losses: 3 step it down to serial, with or "
                             "without this flag")
    parser.add_argument("--rss-budget-mb", type=int, default=None,
                        metavar="MB",
                        help="process RSS ceiling (implies --governor)")
    parser.add_argument("--fd-budget", type=int, default=None, metavar="N",
                        help="open file-descriptor ceiling (implies "
                             "--governor)")
    parser.add_argument("--disk-headroom-mb", type=int, default=None,
                        metavar="MB",
                        help="minimum free space on the checkpoint "
                             "volume (implies --governor)")
    parser.add_argument("--cache-entry-budget", type=int, default=None,
                        metavar="N",
                        help="shared oracle-cache occupancy ceiling "
                             "(implies --governor)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deeprh",
        description="Reproduce 'A Deeper Look into RowHammer's "
                    "Sensitivities' (MICRO 2021) on simulated DRAM.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-modules", help="print the Table 4 module catalog")

    run = sub.add_parser("run", help="regenerate one table or figure")
    run.add_argument("experiment",
                     help="table1|table2|table3|table4|fig3..fig15")
    run.add_argument("--preset", default="quick",
                     choices=sorted(config_mod.PRESETS))
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--save-json", metavar="DIR", default=None,
                     help="also dump the raw study results as JSON files")

    obs = sub.add_parser("observations",
                         help="run all studies and check the 16 observations")
    obs.add_argument("--preset", default="quick",
                     choices=sorted(config_mod.PRESETS))
    obs.add_argument("--seed", type=int, default=None)

    repro = sub.add_parser(
        "reproduce",
        help="run everything: all studies, every table/figure, the "
             "observation scorecard and raw JSON, into one directory")
    repro.add_argument("--outdir", default="reproduction")
    repro.add_argument("--preset", default="quick",
                       choices=sorted(config_mod.PRESETS))
    repro.add_argument("--seed", type=int, default=None)

    campaign = sub.add_parser(
        "campaign",
        help="run one study through the resilient campaign runner "
             "(bounded retry, quarantine, checkpoint/resume, supervised "
             "parallel workers, optional fault injection)")
    campaign.add_argument("study", nargs="?", default=None,
                          choices=("temperature", "acttime", "spatial"))
    campaign.add_argument("--preset", default="quick",
                          choices=sorted(config_mod.PRESETS))
    campaign.add_argument("--seed", type=int, default=None)
    campaign.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                          help="write per-module checkpoints into DIR")
    campaign.add_argument("--resume", action="store_true",
                          help="resume a previous campaign from "
                               "--checkpoint-dir")
    campaign.add_argument("--fault-plan", metavar="SPEC", default=None,
                          help="inject substrate faults, e.g. "
                               "'campaign.unit=0.1,"
                               "thermal.settle:overshoot=0.25'")
    campaign.add_argument("--fault-seed", type=int, default=None,
                          help="seed of the fault plan (default: the "
                               "study seed)")
    campaign.add_argument("--max-attempts", type=int, default=3,
                          help="retry budget per unit of work")
    campaign.add_argument("--workers", type=int, default=1, metavar="N",
                          help="run modules in N supervised worker "
                               "processes; results and checkpoints are "
                               "byte-identical to a serial run (default: 1)")
    campaign.add_argument("--module-deadline", type=float, default=None,
                          metavar="S",
                          help="wall-clock seconds one worker may spend on "
                               "one module before the supervisor declares "
                               "it hung and requeues it (workers > 1; "
                               "default: no deadline)")
    campaign.add_argument("--max-requeues", type=int, default=2, metavar="N",
                          help="extra dispatches a module may consume "
                               "after losing its worker before it is "
                               "quarantined (default: 2)")
    campaign.add_argument("--shared-cache-entries", type=int, default=None,
                          metavar="N",
                          help="bound on the worker-side oracle matrix "
                               "cache (default: [tool.deeprh.cache] in "
                               "pyproject.toml, else 4096)")
    campaign.add_argument("--row-cache-rows", type=int, default=None,
                          metavar="N",
                          help="bound on the per-population row cell "
                               "cache (default: [tool.deeprh.cache] in "
                               "pyproject.toml, else 4096)")
    campaign.add_argument("--verify", metavar="DIR", default=None,
                          help="audit the integrity of a checkpoint "
                               "directory (sha256/length vs journal) and "
                               "exit; no study runs")
    campaign.add_argument("--save-json", metavar="FILE", default=None,
                          help="also dump the merged study result as JSON")
    campaign.add_argument("--trace", metavar="DIR", default=None,
                          help="record a span trace of the campaign into "
                               "DIR/trace.jsonl (off by default; results "
                               "are byte-identical either way)")
    campaign.add_argument("--metrics", action="store_true",
                          help="collect campaign metrics (counters, "
                               "gauges, histograms); printed after the "
                               "run and written to DIR/metrics.json when "
                               "--trace DIR is also given")
    campaign.add_argument("--profile", metavar="N", nargs="?", type=int,
                          const=25, default=None,
                          help="profile the campaign under cProfile and "
                               "print the top N cumulative entries "
                               "(default N: 25)")
    campaign.add_argument("--journal-max-entries", type=int, default=None,
                          metavar="N",
                          help="compact the checkpoint journal once it "
                               "exceeds N lines (default: 512)")
    _add_governor_args(campaign)

    serve = sub.add_parser(
        "serve",
        help="run campaigns as a long-lived service on a Unix socket "
             "(bounded admission, per-request deadlines, governed "
             "parallelism, graceful drain on SIGTERM)")
    serve.add_argument("--socket", required=True, metavar="PATH",
                       help="Unix domain socket to listen on")
    serve.add_argument("--max-inflight", type=int, default=2, metavar="N",
                       help="campaigns executing concurrently (default: 2)")
    serve.add_argument("--max-queue", type=int, default=8, metavar="N",
                       help="admitted requests waiting beyond the inflight "
                            "bound; the next one is rejected 'overloaded' "
                            "(default: 8)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="retry budget per unit of work (default: 3)")
    serve.add_argument("--fault-plan", metavar="SPEC", default=None,
                       help="service-level fault injection, e.g. "
                            "'serve.request:reject=0.2,"
                            "campaign.worker:crash=0.1'")
    serve.add_argument("--fault-seed", type=int, default=None,
                       help="seed of the service fault plan (default: 0)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       metavar="S",
                       help="seconds in-flight campaigns get to finish on "
                            "SIGTERM before they are cancelled at the "
                            "next checkpoint boundary (default: 5)")
    serve.add_argument("--resume-manifest", metavar="FILE", default=None,
                       help="where the drain manifest of interrupted "
                            "requests is written (default: "
                            "SOCKET.resume.json)")
    serve.add_argument("--shared-cache-entries", type=int, default=None,
                       metavar="N",
                       help="size of the cross-request oracle matrix "
                            "cache; 0 disables sharing (default: "
                            "[tool.deeprh.cache] in pyproject.toml, "
                            "else 4096)")
    serve.add_argument("--row-cache-rows", type=int, default=None,
                       metavar="N",
                       help="bound on the per-population row cell cache "
                            "(default: [tool.deeprh.cache] in "
                            "pyproject.toml, else 4096)")
    serve.add_argument("--metrics", action="store_true",
                       help="collect service metrics; printed on exit")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="also serve the Prometheus scrape exposition "
                            "over HTTP on 127.0.0.1:PORT (0 picks a free "
                            "port; off by default)")
    serve.add_argument("--trace", metavar="DIR", default=None,
                       help="export request-scoped span traces into "
                            "DIR/trace.jsonl (rotated at a size bound; "
                            "clients opt in per request)")
    _add_governor_args(serve)

    top = sub.add_parser(
        "top",
        help="live terminal view of a running 'deeprh serve' instance")
    top.add_argument("--socket", required=True, metavar="PATH",
                     help="unix socket of the service to watch")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="seconds between polls (default: 2.0)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no clearing)")

    trace = sub.add_parser(
        "trace",
        help="inspect a trace recorded with 'deeprh campaign --trace'")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    for name, help_text in (
            ("summarize", "per-phase wall-clock totals plus campaign "
                          "health metrics"),
            ("slowest", "the longest individual spans"),
            ("export", "dump the spans as JSON or CSV")):
        trace_cmd = trace_sub.add_parser(name, help=help_text)
        trace_cmd.add_argument("path", metavar="TRACE",
                               help="trace.jsonl file or the directory "
                                    "holding it")
        if name == "summarize":
            trace_cmd.add_argument("--request", metavar="ID", default=None,
                                   help="reconstruct one serve request's "
                                        "span tree (server + worker "
                                        "spans) instead of the phase "
                                        "table")
        if name == "slowest":
            trace_cmd.add_argument("--top", type=int, default=10,
                                   metavar="N",
                                   help="how many spans to show "
                                        "(default: 10)")
        if name == "export":
            trace_cmd.add_argument("--format", dest="output_format",
                                   default="json",
                                   choices=("json", "csv"),
                                   help="output format (default: json)")
            trace_cmd.add_argument("-o", "--output", metavar="FILE",
                                   default=None,
                                   help="write to FILE instead of stdout")

    lint = sub.add_parser(
        "lint",
        help="statically check determinism & unit-discipline invariants "
             "(DRH001-DRH006) over python sources")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to check "
                           "(default: the installed repro package)")
    lint.add_argument("--format", dest="output_format", default="text",
                      choices=("text", "json"),
                      help="report format (default: text)")
    lint.add_argument("--config", metavar="PYPROJECT", default=None,
                      help="pyproject.toml holding [tool.deeprh.lint] "
                           "(default: nearest pyproject.toml above the "
                           "first path)")
    lint.add_argument("--list-rules", action="store_true",
                      help="describe every rule and exit")
    return parser


#: Exit code of a campaign stopped by SIGINT/SIGTERM (128 + SIGINT).
INTERRUPTED_EXIT = 130

#: Exit code of a campaign the resource governor parked (EX_TEMPFAIL:
#: "try again later" — the checkpoints and parked.json are on disk).
PARKED_EXIT = 75


def _build_governor_from_args(args, faults=None):
    """Flags + ``[tool.deeprh.governor]`` -> governor (or ``None``)."""
    from repro.core.toolconfig import load_governor_config
    from repro.runner import build_governor

    return build_governor(
        load_governor_config(),
        enabled=args.governor,
        rss_budget_mb=args.rss_budget_mb,
        fd_budget=args.fd_budget,
        disk_headroom_mb=args.disk_headroom_mb,
        cache_entry_budget=args.cache_entry_budget,
        faults=faults)


def _install_sigterm_as_interrupt() -> None:
    """Let SIGTERM take the same graceful-checkpoint path as Ctrl-C.

    Only possible on the main thread; elsewhere (embedded use, tests)
    SIGTERM keeps its default disposition and the interrupt handling
    simply never triggers.
    """
    import signal

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:
        pass


def _campaign(args, config: config_mod.StudyConfig) -> int:
    import pathlib

    from repro.faults import parse_fault_plan
    from repro.obs import MetricsRegistry, Tracer, observed
    from repro.obs.trace import METRICS_FILENAME, TRACE_FILENAME
    from repro.runner import (
        CampaignRunner,
        RetryPolicy,
        SupervisorPolicy,
        audit_checkpoint_dir,
    )

    if args.verify is not None:
        audit = audit_checkpoint_dir(args.verify)
        print(audit.render())
        return 0 if audit.ok else 1
    if args.study is None:
        print("error: a study (temperature|acttime|spatial) is required "
              "unless --verify is given", file=sys.stderr)
        return 1
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 1
    fault_plan = None
    if args.fault_plan:
        fault_seed = args.fault_seed if args.fault_seed is not None \
            else config.seed
        fault_plan = parse_fault_plan(args.fault_plan, seed=fault_seed)
    if args.module_deadline is not None:
        config = config.scaled(module_deadline_s=args.module_deadline)
    from repro.core.toolconfig import load_cache_config, resolve_cache_setting

    cache_config = load_cache_config()
    governor = _build_governor_from_args(args, faults=fault_plan)
    tracer = Tracer() if args.trace else None
    metrics = MetricsRegistry() if (args.metrics or args.trace) else None
    _install_sigterm_as_interrupt()
    try:
        with observed(tracer=tracer, metrics=metrics):
            runner = CampaignRunner(
                config,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                fault_plan=fault_plan,
                retry=RetryPolicy(max_attempts=args.max_attempts),
                workers=args.workers,
                supervisor=SupervisorPolicy(
                    module_deadline_s=config.module_deadline_s,
                    max_requeues=args.max_requeues),
                shared_cache_entries=resolve_cache_setting(
                    args.shared_cache_entries,
                    cache_config.shared_cache_entries),
                row_cache_rows=resolve_cache_setting(
                    args.row_cache_rows, cache_config.row_cache_rows),
                governor=governor,
                journal_max_entries=args.journal_max_entries)
            if args.profile is not None:
                from repro.obs.profile import profile_call

                outcome, profile_report = profile_call(
                    lambda: runner.run(args.study), top_n=args.profile)
            else:
                outcome, profile_report = runner.run(args.study), None
    except CampaignParked as parked:
        # The governor ran out of ladder: the campaign checkpointed,
        # wrote parked.json, and stopped cleanly.  EX_TEMPFAIL tells
        # schedulers to retry the same command later with --resume.
        print(f"\nparked: {parked}", file=sys.stderr)
        if governor is not None:
            print(governor.render(), file=sys.stderr)
        if args.checkpoint_dir is not None:
            seed_flag = f" --seed {args.seed}" if args.seed is not None \
                else ""
            print(f"{parked.completed} module(s) checkpointed in "
                  f"{args.checkpoint_dir}; once resources recover, "
                  "resume with:", file=sys.stderr)
            print(f"  deeprh campaign {args.study} --preset {args.preset}"
                  f"{seed_flag} --checkpoint-dir {args.checkpoint_dir} "
                  "--resume", file=sys.stderr)
        return PARKED_EXIT
    except KeyboardInterrupt:
        # Graceful stop: no traceback, an honest account of what is on
        # disk, and a copy-pasteable way to pick the campaign back up.
        print("\ninterrupted", file=sys.stderr)
        if args.checkpoint_dir is not None:
            print("completed modules are checkpointed in "
                  f"{args.checkpoint_dir}; resume with:", file=sys.stderr)
            seed_flag = f" --seed {args.seed}" if args.seed is not None \
                else ""
            print(f"  deeprh campaign {args.study} --preset {args.preset}"
                  f"{seed_flag} --checkpoint-dir {args.checkpoint_dir} "
                  "--resume", file=sys.stderr)
        else:
            print("no --checkpoint-dir was given, so nothing was saved; "
                  "rerun with --checkpoint-dir to make campaigns "
                  "resumable", file=sys.stderr)
        return INTERRUPTED_EXIT
    print(outcome.degradation_report())
    if args.trace:
        import json

        directory = pathlib.Path(args.trace)
        directory.mkdir(parents=True, exist_ok=True)
        trace_path = directory / TRACE_FILENAME
        tracer.write_jsonl(trace_path)
        print(f"wrote {trace_path}", file=sys.stderr)
        metrics_path = directory / METRICS_FILENAME
        metrics_path.write_text(
            json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n")
        print(f"wrote {metrics_path}", file=sys.stderr)
    if args.metrics and metrics is not None:
        print()
        print(metrics.render())
    if profile_report is not None:
        print()
        print(profile_report.render())
    if args.save_json:
        from repro.core.serialize import save_result

        path = save_result(outcome.result, args.save_json)
        print(f"wrote {path}", file=sys.stderr)
    return 0 if outcome.ok else 2


def _serve(args) -> int:
    import asyncio

    from repro.faults import parse_fault_plan
    from repro.obs import MetricsRegistry, observed
    from repro.serve.server import CampaignService

    fault_plan = None
    if args.fault_plan:
        fault_seed = args.fault_seed if args.fault_seed is not None else 0
        fault_plan = parse_fault_plan(args.fault_plan, seed=fault_seed)
    from repro.core.toolconfig import load_cache_config, resolve_cache_setting

    cache_config = load_cache_config()
    shared_cache_entries = resolve_cache_setting(
        args.shared_cache_entries, cache_config.shared_cache_entries)
    service = CampaignService(
        args.socket,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        fault_plan=fault_plan,
        drain_grace_s=args.drain_grace,
        resume_manifest=args.resume_manifest,
        shared_cache_entries=shared_cache_entries
        if shared_cache_entries is not None else 4096,
        row_cache_rows=resolve_cache_setting(
            args.row_cache_rows, cache_config.row_cache_rows),
        max_attempts=args.max_attempts,
        governor=_build_governor_from_args(args, faults=fault_plan),
        metrics_port=args.metrics_port,
        trace_dir=args.trace)
    collect_metrics = args.metrics or args.metrics_port is not None
    metrics = MetricsRegistry() if collect_metrics else None
    print(f"deeprh serve: listening on {args.socket} "
          f"(max {args.max_inflight} inflight + {args.max_queue} queued); "
          "SIGTERM drains gracefully", file=sys.stderr)
    if args.trace:
        print(f"deeprh serve: request traces into {args.trace}",
              file=sys.stderr)

    async def _run() -> int:
        # The scrape banner waits for the bind: with --metrics-port 0 the
        # kernel picks the port, and only the bound address is useful.
        ready = asyncio.Event()
        serving = asyncio.ensure_future(service.serve_forever(ready=ready))
        await ready.wait()
        if service.metrics_address is not None:
            print(f"deeprh serve: scrape endpoint on "
                  f"http://{service.metrics_address}/metrics",
                  file=sys.stderr, flush=True)
        return await serving

    with observed(metrics=metrics):
        status = asyncio.run(_run())
    print(f"deeprh serve: drained; resume manifest at "
          f"{service.resume_manifest}", file=sys.stderr)
    if metrics is not None and args.metrics:
        print(metrics.render())
    return status


def _top(args) -> int:
    from repro.serve.client import ServeClient, ServeClientError
    from repro.serve.top import poll_once

    poll = 0
    try:
        with ServeClient(args.socket, timeout=5.0) as client:
            while True:
                frame = poll_once(client, poll=poll)
                if args.once:
                    print(frame)
                    return 0
                # ANSI clear + home keeps the frame in place like top(1).
                print("\x1b[2J\x1b[H" + frame, flush=True)
                poll += 1
                client.clock.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (ServeClientError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _trace(args) -> int:
    from repro.obs import summary

    try:
        if args.trace_command == "summarize":
            if getattr(args, "request", None):
                print(summary.request_tree(args.path, args.request))
            else:
                print(summary.summarize(args.path))
        elif args.trace_command == "slowest":
            print(summary.slowest(args.path, top=args.top))
        elif args.trace_command == "export":
            text = summary.export(args.path, args.output_format)
            if args.output:
                import pathlib

                pathlib.Path(args.output).write_text(text)
                print(f"wrote {args.output}", file=sys.stderr)
            else:
                print(text, end="")
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _lint(args) -> int:
    import pathlib

    from repro.statcheck import (
        find_pyproject,
        iter_rules,
        lint_paths,
        load_config,
        render_json,
        render_text,
    )
    from repro.statcheck.engine import discover_files

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0
    paths = args.paths
    if not paths:
        paths = [str(pathlib.Path(__file__).resolve().parent)]
    config_path = args.config
    if config_path is None:
        config_path = find_pyproject(paths[0])
    try:
        config = load_config(config_path)
        files = discover_files(paths)
        violations = lint_paths(files, config=config)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    render = render_json if args.output_format == "json" else render_text
    print(render(violations, files_checked=len(files)))
    return 1 if violations else 0


def _reproduce(cache: StudyCache, outdir: str) -> int:
    """The one-command reproduction: every artifact into ``outdir``."""
    import pathlib

    from repro.core.serialize import save_result

    directory = pathlib.Path(outdir)
    directory.mkdir(parents=True, exist_ok=True)
    renderers = _experiment_renderers(cache)
    for name in sorted(renderers):
        text = renderers[name]()
        (directory / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {directory / f'{name}.txt'}")
    checks = check_all_observations(cache.temperature(), cache.acttime(),
                                    cache.spatial())
    scorecard = "\n".join(str(c) for c in checks)
    passed = sum(c.passed for c in checks)
    scorecard += f"\n\n{passed}/{len(checks)} observations reproduced\n"
    (directory / "observations.txt").write_text(scorecard)
    print(f"wrote {directory / 'observations.txt'}")
    for label, result in (("temperature", cache.temperature()),
                          ("acttime", cache.acttime()),
                          ("spatial", cache.spatial())):
        path = save_result(result, directory / f"{label}.json")
        print(f"wrote {path}")
    print(f"\n{passed}/{len(checks)} observations reproduced")
    return 0 if passed == len(checks) else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-modules":
        print(report.table4())
        return 0

    if args.command == "lint":
        return _lint(args)

    if args.command == "trace":
        return _trace(args)

    if args.command == "serve":
        try:
            return _serve(args)
        except ConfigError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.command == "top":
        return _top(args)

    config = config_mod.preset(args.preset)
    if args.seed is not None:
        config = config.scaled(seed=args.seed)
    cache = StudyCache(config)

    if args.command == "run":
        renderers = _experiment_renderers(cache)
        try:
            renderer = renderers[args.experiment]
        except KeyError:
            parser.error(
                f"unknown experiment {args.experiment!r}; choose from "
                f"{', '.join(sorted(renderers))}")
        try:
            print(renderer())
        except ConfigError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if getattr(args, "save_json", None):
            from repro.core.serialize import save_result

            directory = args.save_json
            for label, result in (("temperature", cache._temperature),
                                  ("acttime", cache._acttime),
                                  ("spatial", cache._spatial)):
                if result is not None:
                    path = save_result(result, f"{directory}/{label}.json")
                    print(f"wrote {path}", file=sys.stderr)
        return 0

    if args.command == "campaign":
        try:
            return _campaign(args, config)
        except ConfigError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.command == "reproduce":
        return _reproduce(cache, args.outdir)

    if args.command == "observations":
        checks = check_all_observations(cache.temperature(), cache.acttime(),
                                        cache.spatial())
        for check in checks:
            print(check)
        failed = [c for c in checks if not c.passed]
        print(f"\n{len(checks) - len(failed)}/{len(checks)} observations "
              "reproduced")
        return 0 if not failed else 2

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def run() -> None:  # pragma: no cover
    """Console entry point: exit quietly when a pager closes the pipe."""
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `deeprh trace summarize ... | head` closes stdout early; the
        # interpreter would otherwise traceback while flushing at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(128 + 13)


if __name__ == "__main__":  # pragma: no cover
    run()
