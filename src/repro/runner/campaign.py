"""The resilient campaign runner: studies as a fault-tolerant service.

Wraps the three characterization studies with the machinery a weeks-long
run on real hardware needs:

* **bounded retry** with exponential backoff + seeded jitter per unit of
  work (one module preparation, one (module, point) measurement);
* **deadline guards** so a wedged unit cannot stall the campaign forever;
* **quarantine** — a module whose unit keeps failing is pulled from the
  campaign and reported in the degradation report instead of crashing the
  sweep;
* **per-module checkpointing** via :mod:`repro.core.serialize`, so an
  interrupted campaign resumes from the last completed module and the
  merged result is bit-identical to an uninterrupted run with the same
  seed;
* optional **fault injection** (:mod:`repro.faults`) at the unit-of-work
  boundary, for testing exactly this machinery;
* **process-based parallelism** across modules (``workers > 1``): each
  worker runs one module's full unit sequence in its own process and
  ships back the module's serialized payload, which the parent merges in
  spec order.  Modules are mutually independent and every unit draws its
  randomness structurally from the seed, so the merged result — and every
  checkpoint file — is byte-identical to a serial run.

Because every study draws its randomness structurally from the
configuration seed, retried and resumed units converge to exactly the
values an undisturbed run produces — resilience never changes the science.
"""

from __future__ import annotations

import errno
import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import StudyConfig
from repro.dram.catalog import ModuleSpec
from repro.errors import (
    CampaignParked,
    ConfigError,
    RetryExhaustedError,
    SubstrateFault,
)
from repro.faults.injector import perform_worker_fault
from repro.faults.plan import FaultEvent, FaultPlan, FaultSpec
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    TraceContext,
    Tracer,
    bound_recorders,
    get_metrics,
    get_tracer,
    observation_active,
    observed,
)
from repro.rng import SeedSequenceTree
from repro.runner import cancel as cancel_mod
from repro.runner.adapters import StudyAdapter, adapter_for
from repro.runner.cancel import CancelToken
from repro.runner.checkpoint import (
    CheckpointStore,
    CorruptionRecord,
    PathLike,
)
from repro.runner.governor import (
    RUNG_SERIAL,
    ResourceGovernor,
    rung_name,
)
from repro.runner.retry import RetryPolicy, VirtualClock, call_with_retry
from repro.runner.supervisor import (
    CampaignSupervisor,
    SupervisionLog,
    SupervisorPolicy,
)


@dataclass
class QuarantineRecord:
    """One module pulled from the campaign after exhausting retries."""

    module_id: str
    unit: str
    attempts: int
    cause: str

    def __str__(self) -> str:
        return (f"{self.module_id}: unit {self.unit} failed "
                f"{self.attempts} attempt(s); last cause: {self.cause}")


@dataclass
class CampaignStats:
    """Counters the degradation report summarizes."""

    modules_requested: int = 0
    modules_completed: int = 0
    modules_resumed: int = 0
    units_run: int = 0
    units_retried: int = 0
    backoff_slept_s: float = 0.0
    # Supervision counters (workers > 1): module dispatches repeated after
    # worker loss or deadline expiry, and worker-pool respawns.
    modules_requeued: int = 0
    workers_respawned: int = 0
    # Checkpoint files that failed integrity verification on resume and
    # were quarantined (their modules re-ran).
    checkpoints_quarantined: int = 0


@dataclass
class CampaignOutcome:
    """Everything one resilient campaign produced."""

    study: str
    config: StudyConfig
    result: object                      # the usual *StudyResult
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)
    fault_plan: Optional[FaultPlan] = None
    #: Supervision event log (workers > 1; None on the serial path).
    supervision: Optional[SupervisionLog] = None
    #: Checkpoint files quarantined on resume (integrity failures).
    checkpoint_corruption: List[CorruptionRecord] = field(
        default_factory=list)
    #: Old ``*.corrupt`` quarantine generations pruned on resume.
    checkpoint_pruned: List[str] = field(default_factory=list)
    #: Resource-governor snapshot at campaign end (None when ungoverned).
    governor: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """True when every requested module completed."""
        return not self.quarantined

    def degradation_report(self) -> str:
        """Human-readable account of how gracefully the campaign degraded."""
        stats = self.stats
        done = stats.modules_completed + stats.modules_resumed
        lines = [
            f"resilient campaign '{self.study}' "
            f"(preset {self.config.name!r}, seed {self.config.seed})",
            f"  modules: {done}/{stats.modules_requested} completed "
            f"({stats.modules_resumed} from checkpoint), "
            f"{len(self.quarantined)} quarantined",
            f"  units:   {stats.units_run} run, {stats.units_retried} "
            f"retries; backoff slept {stats.backoff_slept_s:.2f} s (virtual)",
        ]
        if self.supervision is not None and self.supervision.eventful():
            log = self.supervision
            lines.append(
                f"  superv:  {stats.modules_requeued} requeue(s), "
                f"{stats.workers_respawned} pool respawn(s), "
                f"{log.count('deadline')} deadline expiry(ies), "
                f"{log.count('give-up')} module(s) lost")
        if self.checkpoint_corruption:
            lines.append(f"  ckpt:    {len(self.checkpoint_corruption)} "
                         "corrupted checkpoint(s) quarantined and re-run:")
            for record in self.checkpoint_corruption:
                lines.append(f"    - {record}")
        if self.checkpoint_pruned:
            lines.append(f"  ckpt:    pruned "
                         f"{len(self.checkpoint_pruned)} old quarantine "
                         f"file(s): {', '.join(self.checkpoint_pruned)}")
        if self.governor is not None and (self.governor.get("escalations")
                                          or self.governor.get("recoveries")):
            lines.append(
                f"  governor: peak rung {self.governor['peak_rung']}, "
                f"{self.governor['escalations']} escalation(s), "
                f"{self.governor['recoveries']} recovery(ies); "
                f"final rung {self.governor['rung']}")
        if self.fault_plan is not None:
            histogram = self.fault_plan.log.by_site_kind()
            summary = ", ".join(f"{label}: {fires}"
                                for label, fires in histogram.items())
            lines.append(f"  faults:  {len(self.fault_plan.log)} injected"
                         + (f" ({summary})" if summary else ""))
        if self.quarantined:
            lines.append("  quarantined modules:")
            for record in self.quarantined:
                lines.append(f"    - {record}")
        else:
            lines.append("  no modules quarantined")
        return "\n".join(lines)


class CampaignRunner:
    """Drives one study to completion through faults and interruptions."""

    def __init__(self, config: StudyConfig, *,
                 checkpoint_dir: Optional[PathLike] = None,
                 resume: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 clock=None,
                 workers: int = 1,
                 supervisor: Optional[SupervisorPolicy] = None,
                 cancel: Optional[CancelToken] = None,
                 on_module: Optional[Callable[[str, Dict, bool], None]]
                 = None,
                 shared_cache_entries: Optional[int] = None,
                 row_cache_rows: Optional[int] = None,
                 governor: Optional[ResourceGovernor] = None,
                 journal_max_entries: Optional[int] = None,
                 trace: Optional[TraceContext] = None) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.config = config
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.fault_plan = fault_plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock = clock if clock is not None else VirtualClock()
        self.workers = int(workers)
        self.supervisor = supervisor if supervisor is not None \
            else SupervisorPolicy(module_deadline_s=config.module_deadline_s)
        #: Cooperative stop flag checked at module/unit boundaries (serial)
        #: and at every supervision tick (parallel).  Set by `deeprh serve`
        #: request deadlines, client cancels, and graceful drain.
        self.cancel = cancel
        #: Incremental per-module hook: ``on_module(module_id, payload,
        #: resumed)`` fires as each module's serialized payload becomes
        #: available — serially right after the module's checkpoint is
        #: published, in parallel as worker reports arrive.  `deeprh
        #: serve` streams these to the requesting client.
        self.on_module = on_module
        #: Worker-side cache bounds (None = library defaults): the
        #: BatchOracle shared matrix cache entry count and the
        #: CellPopulation row-cache LRU bound, applied inside each worker
        #: process before the module runs.
        self.shared_cache_entries = shared_cache_entries
        self.row_cache_rows = row_cache_rows
        #: Optional resource governor: budgets are assessed at unit/module
        #: boundaries (serial) and supervision ticks (parallel), and the
        #: degradation ladder adjusts parallelism/caching
        #: without ever changing result bytes.  Parent-process only — the
        #: ladder steers dispatch, never the science inside workers.
        self.governor = governor
        #: Checkpoint journal compaction bound (None = store default).
        self.journal_max_entries = journal_max_entries
        #: Request-scoped trace identity (serve only).  When set, the run
        #: opens a ``campaign.run`` root span carrying the request id and
        #: adopted worker spans are tagged with it — `deeprh trace
        #: summarize --request` reassembles the cross-process tree.  The
        #: default (None) leaves the historical span structure untouched.
        self.trace = trace
        # Jitter streams are derived from the config seed, one per unit id,
        # so the retry schedule is reproducible and order-independent.
        self._tree = SeedSequenceTree(config.seed, "campaign")

    # ------------------------------------------------------------------
    def run(self, study: str = "temperature",
            specs: Optional[Sequence[ModuleSpec]] = None) -> CampaignOutcome:
        """Run ``study`` over ``specs`` (default: the config's modules)."""
        if self.trace is None:
            return self._run_study(study, specs)
        with get_tracer().span("campaign.run", study=study,
                               request=self.trace.request_id):
            return self._run_study(study, specs)

    def _run_study(self, study: str,
                   specs: Optional[Sequence[ModuleSpec]]) -> CampaignOutcome:
        adapter = adapter_for(study, self.config)
        store = None
        corruption: List[CorruptionRecord] = []
        pruned: List[str] = []
        if self.checkpoint_dir is not None:
            store = CheckpointStore(self.checkpoint_dir, study, self.config,
                                    resume=self.resume,
                                    faults=self.fault_plan,
                                    journal_max_entries=
                                    self.journal_max_entries)
            corruption = list(store.corrupted)
            pruned = list(store.pruned_corrupt)
        specs = list(specs) if specs is not None \
            else self.config.module_specs()
        stats = CampaignStats(modules_requested=len(specs),
                              checkpoints_quarantined=len(corruption))
        workers = self.workers
        if self.governor is not None:
            if self.checkpoint_dir is not None:
                self.governor.attach_disk_path(str(self.checkpoint_dir))
            # One assessment up front so a campaign started under pressure
            # begins on the right rung instead of discovering it mid-run.
            self.governor.assess()
            workers = self.governor.effective_workers(workers)
        if workers > 1:
            return self._run_parallel(adapter, study, specs, store, stats,
                                      corruption, pruned)
        metrics = get_metrics()
        completed: Dict[str, object] = {}
        quarantined: List[QuarantineRecord] = []
        self._run_specs_serially(adapter, study, specs, store, stats,
                                 completed, quarantined, metrics)
        modules = [completed[spec.module_id] for spec in specs
                   if spec.module_id in completed]
        stats.backoff_slept_s = getattr(self.clock, "slept_s", 0.0)
        self._clear_park_manifest(store)
        return CampaignOutcome(study=study, config=self.config,
                               result=adapter.make_result(modules),
                               quarantined=quarantined, stats=stats,
                               fault_plan=self.fault_plan,
                               checkpoint_corruption=corruption,
                               checkpoint_pruned=pruned,
                               governor=self.governor.snapshot()
                               if self.governor is not None else None)

    # ------------------------------------------------------------------
    # Serial execution (also the parallel path's degraded continuation)
    # ------------------------------------------------------------------
    def _run_specs_serially(self, adapter: StudyAdapter, study: str,
                            specs: Sequence[ModuleSpec],
                            store: Optional[CheckpointStore],
                            stats: CampaignStats,
                            completed: Dict[str, object],
                            quarantined: List[QuarantineRecord],
                            metrics,
                            all_specs: Optional[Sequence[ModuleSpec]]
                            = None) -> None:
        """Run ``specs`` in order, filling ``completed`` keyed by module.

        Shared between the serial path and the governed continuation of a
        degraded parallel run: module results are identical either way, so
        the ladder can hand work from one to the other mid-campaign.
        ``all_specs`` (when given) is the campaign's full spec list, so a
        park manifest written mid-continuation accounts for every module,
        not just the remaining ones.
        """
        manifest_specs = all_specs if all_specs is not None else specs
        for spec in specs:
            cancel_mod.check(self.cancel)
            module_id = spec.module_id
            if self.governor is not None:
                self.governor.tick()
                if self.governor.should_park():
                    self._park(study, manifest_specs, store, completed,
                               quarantined,
                               f"rung {rung_name(self.governor.rung())} "
                               f"before module {module_id}")
            if module_id in completed:
                continue
            if store is not None and store.has(module_id):
                payload = store.load(module_id)
                completed[module_id] = adapter.from_dict(payload)
                stats.modules_resumed += 1
                metrics.counter("campaign.modules_resumed").inc()
                if self.on_module is not None:
                    self.on_module(module_id, payload, True)
                continue
            try:
                module_result = self._run_module(adapter, study, spec, stats)
            except RetryExhaustedError as error:
                quarantined.append(QuarantineRecord(
                    module_id=module_id, unit=error.unit,
                    attempts=error.attempts, cause=repr(error.last_cause)))
                metrics.counter("campaign.modules_quarantined").inc()
                continue
            if store is not None or self.on_module is not None:
                payload = adapter.to_dict(module_result)
                if store is not None:
                    self._save_checkpoint(store, module_id, payload, study,
                                          manifest_specs, completed,
                                          quarantined)
                if self.on_module is not None:
                    self.on_module(module_id, payload, False)
            completed[module_id] = module_result
            stats.modules_completed += 1
            metrics.counter("campaign.modules_completed").inc()

    def _save_checkpoint(self, store: CheckpointStore, module_id: str,
                         payload: Dict, study: str,
                         specs: Sequence[ModuleSpec],
                         completed: Dict[str, object],
                         quarantined: List[QuarantineRecord]) -> None:
        """Persist one module; a full disk escalates to park, not a crash.

        ENOSPC from the publish (real or injected via
        ``checkpoint.publish:enospc``) means no further module can be made
        durable — retrying would only tear more temp files.  With a
        governor the campaign parks on what is already checkpointed; the
        failed module simply re-runs on resume.  Without one — or with
        the budget-less governor of an ungoverned service — the error
        propagates.
        """
        try:
            store.save(module_id, payload)
        except OSError as error:
            if error.errno == errno.ENOSPC and self.governor is not None \
                    and self.governor.governed:
                self.governor.record_enospc(module_id)
                self._park(study, specs, store, completed, quarantined,
                           f"checkpoint ENOSPC at {module_id}")
            raise

    def _park(self, study: str, specs: Sequence[ModuleSpec],
              store: Optional[CheckpointStore],
              completed: Dict[str, object],
              quarantined: List[QuarantineRecord],
              reason: str) -> None:
        """Last rung: publish a resume manifest and stop cleanly.

        Everything checkpointed so far stays durable and verified;
        ``parked.json`` records what remains so an operator (or `deeprh
        serve`) can resume once pressure clears.  Raises
        :class:`~repro.errors.CampaignParked` — never returns.
        """
        quarantined_ids = {record.module_id for record in quarantined}
        if store is not None:
            done = [spec.module_id for spec in specs
                    if store.has(spec.module_id)]
        else:
            done = [spec.module_id for spec in specs
                    if spec.module_id in completed]
        remaining = [spec.module_id for spec in specs
                     if spec.module_id not in done
                     and spec.module_id not in quarantined_ids]
        directory = str(self.checkpoint_dir) \
            if self.checkpoint_dir is not None else ""
        if directory:
            manifest = {
                "study": study,
                "preset": self.config.name,
                "seed": self.config.seed,
                "reason": reason,
                "completed": sorted(done),
                "remaining": remaining,
                "governor": self.governor.snapshot()
                if self.governor is not None else None,
                "resume": f"re-run with --checkpoint-dir {directory} "
                          "--resume once resources recover",
            }
            try:
                (pathlib.Path(directory) / "parked.json").write_text(
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
            except OSError:
                # A manifest that cannot be written (e.g. the very ENOSPC
                # that parked us) must not mask the park itself; the
                # checkpoint journal still names every completed module.
                pass
        get_metrics().counter("campaign.parked").inc()
        raise CampaignParked(
            f"campaign parked by resource governor ({reason}): "
            f"{len(done)} module(s) checkpointed, {len(remaining)} "
            "remaining; resume with --resume once resources recover",
            checkpoint_dir=directory, completed=len(done),
            remaining=len(remaining), reason=reason)

    def _clear_park_manifest(self, store: Optional[CheckpointStore]) -> None:
        """Drop a stale ``parked.json`` once a campaign runs to the end."""
        if self.checkpoint_dir is None:
            return
        manifest = pathlib.Path(str(self.checkpoint_dir)) / "parked.json"
        try:
            manifest.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Parallel execution across modules
    # ------------------------------------------------------------------
    def _check_parallel_safe(self) -> None:
        """Reject fault specs whose semantics depend on global call order.

        ``after`` / ``max_fires`` count opportunities across the whole
        campaign; with per-module worker processes each module sees its own
        counters, which would silently change which units fault.  Pure
        rate-based specs decide from ``(seed, site, kind, key)`` alone and
        are order-independent, so they parallelize exactly.

        Sites rolled only in the parent process (checkpoint publishes, the
        resource governor, the serve layer) keep a single campaign-wide
        counter regardless of worker count, so their windowed specs stay
        reproducible and are allowed through.
        """
        if self.fault_plan is None:
            return
        parent_rolled = ("checkpoint.", "governor.", "serve.")
        for spec in self.fault_plan.specs:
            if spec.site.startswith(parent_rolled):
                continue
            if spec.after > 0 or spec.max_fires is not None:
                raise ConfigError(
                    "fault specs using 'after' or 'max_fires' count "
                    "opportunities in campaign call order and are not "
                    "reproducible with workers > 1; use rate-based specs "
                    "or run serially")

    def _run_parallel(self, adapter: StudyAdapter, study: str,
                      specs: List[ModuleSpec],
                      store: Optional[CheckpointStore],
                      stats: CampaignStats,
                      corruption: List[CorruptionRecord],
                      pruned: List[str]) -> CampaignOutcome:
        """Fan module runs out to supervised workers; merge in spec order.

        Workers never touch the checkpoint store — they return serialized
        payloads and the parent persists them, so checkpoint files are
        written exactly once and in a single process.  Dispatch runs under
        :class:`~repro.runner.supervisor.CampaignSupervisor`: per-module
        wall-clock deadlines, ``BrokenProcessPool`` detection, pool
        respawn and bounded requeue, with every decision recorded in a
        :class:`~repro.runner.supervisor.SupervisionLog`.
        """
        self._check_parallel_safe()
        fault_seed = self.fault_plan.seed if self.fault_plan is not None \
            else None
        fault_specs = self.fault_plan.specs if self.fault_plan is not None \
            else ()

        metrics = get_metrics()
        resumed: Dict[str, object] = {}
        pending: List[ModuleSpec] = []
        for spec in specs:
            if store is not None and store.has(spec.module_id):
                payload = store.load(spec.module_id)
                resumed[spec.module_id] = adapter.from_dict(payload)
                stats.modules_resumed += 1
                metrics.counter("campaign.modules_resumed").inc()
                if self.on_module is not None:
                    self.on_module(spec.module_id, payload, True)
            else:
                pending.append(spec)

        supervision = SupervisionLog()
        reports: Dict[str, dict] = {}
        lost_by_module: Dict[str, object] = {}
        first_error: Optional[BaseException] = None
        supervision_cancelled = False
        degraded_reason = ""
        if pending:
            # Workers mirror the parent's observation state: each traces
            # into its own recorders and ships them home in the report.
            observe = observation_active()

            def make_task(spec: ModuleSpec, dispatch: int) -> "_WorkerTask":
                # Governed dispatch: the ladder is consulted per dispatch,
                # so a requeue after a mid-run escalation ships with the
                # shrunk caches while earlier dispatches keep theirs —
                # results are byte-identical either way.
                entries = self.shared_cache_entries
                rows = self.row_cache_rows
                if self.governor is not None:
                    entries = self.governor.cache_entries_for(entries)
                    rows = self.governor.row_cache_rows_for(rows)
                return _WorkerTask(study=study, config=self.config,
                                   spec=spec, retry=self.retry,
                                   fault_seed=fault_seed,
                                   fault_specs=fault_specs,
                                   dispatch=dispatch,
                                   observe=observe,
                                   shared_cache_entries=entries,
                                   row_cache_rows=rows)

            on_report = None
            if self.on_module is not None:
                def on_report(module_id: str, report: dict) -> None:
                    if report.get("status") == "ok":
                        self.on_module(module_id, report["payload"], False)

            on_tick = None
            if self.governor is not None:
                governor = self.governor

                def on_tick() -> Optional[str]:
                    # The supervision tick doubles as the governor's
                    # heartbeat while workers run; at rung *serial* (or
                    # worse) parallel dispatch stands down and the runner
                    # continues on the serial path below.
                    rung = governor.tick()
                    if rung >= RUNG_SERIAL:
                        return f"governor rung {rung_name(rung)}"
                    return None

            outcome = CampaignSupervisor(
                _run_module_worker, make_task, workers=self.workers,
                policy=self.supervisor, log=supervision,
                cancel=self.cancel, on_report=on_report,
                on_tick=on_tick).run(pending)
            reports = outcome.reports
            lost_by_module = {err.module_id: err for err in outcome.lost}
            first_error = outcome.first_error
            supervision_cancelled = outcome.cancelled
            degraded_reason = outcome.degraded_reason
        stats.modules_requeued = supervision.count("requeue")
        stats.workers_respawned = supervision.count("respawn")
        if self.governor is not None:
            # Every respawn is a lost pool: the governor, not the caller,
            # decides when losses are a storm worth running serially.
            for _ in range(stats.workers_respawned):
                self.governor.record_pool_loss()

        completed: Dict[str, object] = dict(resumed)
        quarantined: List[QuarantineRecord] = []
        worker_slept = 0.0
        for spec in specs:
            module_id = spec.module_id
            if module_id in resumed:
                continue
            report = reports.get(module_id)
            if report is None:
                error = lost_by_module.get(module_id)
                if error is not None:
                    # Requeue budget spent: quarantine exactly like the
                    # serial retry path would.
                    quarantined.append(QuarantineRecord(
                        module_id=module_id,
                        unit=self._unit_id(study, module_id, "worker"),
                        attempts=error.dispatches, cause=error.cause))
                continue  # fatal fault; first_error re-raised below
            if "obs_metrics" in report:
                # Spec-order merge: aggregates never depend on which
                # worker finished first.
                metrics.merge_dict(report["obs_metrics"])
                if self.trace is not None:
                    get_tracer().adopt(report["obs_spans"],
                                       module=module_id,
                                       request=self.trace.request_id)
                else:
                    get_tracer().adopt(report["obs_spans"],
                                       module=module_id)
            worker_stats = report["stats"]
            stats.units_run += worker_stats.units_run
            stats.units_retried += worker_stats.units_retried
            worker_slept += report["slept_s"]
            if self.fault_plan is not None:
                for event in report["fault_events"]:
                    self.fault_plan.log.record(FaultEvent(
                        site=event["site"], kind=event["kind"],
                        key=tuple(event["key"]),
                        magnitude=event["magnitude"]))
            if report["status"] == "quarantined":
                quarantined.append(QuarantineRecord(
                    module_id=module_id, unit=report["unit"],
                    attempts=report["attempts"], cause=report["cause"]))
                metrics.counter("campaign.modules_quarantined").inc()
                continue
            payload = report["payload"]
            completed[module_id] = adapter.from_dict(payload)
            stats.modules_completed += 1
            metrics.counter("campaign.modules_completed").inc()
            if store is not None:
                self._save_checkpoint(store, module_id, payload, study,
                                      specs, completed, quarantined)
        if first_error is not None:
            raise first_error
        if supervision_cancelled:
            # Completed reports reached the checkpoint store above, so the
            # cancelled campaign is resumable up to the last full module.
            cancel_mod.check(self.cancel)
        if degraded_reason:
            # The governor stood parallel dispatch down.  Park right away
            # at the last rung; otherwise finish the remaining modules on
            # the serial path (which keeps ticking the governor and can
            # itself escalate to park).
            accounted = set(completed) | {record.module_id
                                          for record in quarantined}
            remaining = [spec for spec in specs
                         if spec.module_id not in accounted]
            if remaining:
                if self.governor is not None and self.governor.should_park():
                    self._park(study, specs, store, completed, quarantined,
                               degraded_reason)
                metrics.counter("campaign.governor.serialized").inc(
                    len(remaining))
                self._run_specs_serially(adapter, study, remaining, store,
                                         stats, completed, quarantined,
                                         metrics, all_specs=specs)
        modules = [completed[spec.module_id] for spec in specs
                   if spec.module_id in completed]
        stats.backoff_slept_s = (getattr(self.clock, "slept_s", 0.0)
                                 + worker_slept)
        self._clear_park_manifest(store)
        return CampaignOutcome(study=study, config=self.config,
                               result=adapter.make_result(modules),
                               quarantined=quarantined, stats=stats,
                               fault_plan=self.fault_plan,
                               supervision=supervision,
                               checkpoint_corruption=corruption,
                               checkpoint_pruned=pruned,
                               governor=self.governor.snapshot()
                               if self.governor is not None else None)

    # ------------------------------------------------------------------
    def _run_module(self, adapter: StudyAdapter, study: str,
                    spec: ModuleSpec, stats: CampaignStats):
        with get_tracer().span("campaign.module", study=study,
                               module=spec.module_id):
            prepare_unit = self._unit_id(study, spec.module_id, "prepare")
            run = self._run_unit(prepare_unit, stats,
                                 lambda attempt: adapter.prepare(spec))
            for point in adapter.points():
                cancel_mod.check(self.cancel)
                unit = self._unit_id(study, spec.module_id,
                                     adapter.point_label(point))
                self._run_unit(
                    unit, stats,
                    lambda attempt, p=point: adapter.run_point(run, p))
            return adapter.finalize(run)

    @staticmethod
    def _unit_id(study: str, module_id: str, label: str) -> str:
        return f"{study}/{module_id}/{label}"

    def _run_unit(self, unit: str, stats: CampaignStats, fn):
        stats.units_run += 1
        if self.governor is not None:
            # Unit boundaries are the serial path's supervision ticks: the
            # rung may climb mid-module, but park only happens between
            # modules (a half-run module is simply not durable yet).
            self.governor.tick()

        def attempt_once(attempt: int):
            if attempt > 1:
                stats.units_retried += 1
            if self.fault_plan is not None:
                event = self.fault_plan.roll("campaign.unit", unit, attempt)
                if event is not None:
                    raise SubstrateFault(
                        f"injected campaign fault at {unit} "
                        f"(attempt {attempt})", site="campaign.unit",
                        kind=event.kind, unit=unit)
            return fn(attempt)

        with get_tracer().span("campaign.unit", unit=unit):
            return call_with_retry(attempt_once, unit=unit,
                                   policy=self.retry, clock=self.clock,
                                   gen=self._tree.generator("retry", unit))


@dataclass(frozen=True)
class _WorkerTask:
    """Everything one worker process needs to run one module end-to-end."""

    study: str
    config: StudyConfig
    spec: ModuleSpec
    retry: RetryPolicy
    fault_seed: Optional[int]
    fault_specs: Tuple[FaultSpec, ...]
    #: 1-based dispatch count; increments when the supervisor requeues the
    #: module after a worker loss, so worker fault kinds re-roll.
    dispatch: int = 1
    #: Mirror of the parent's observation state: when True the worker
    #: records into fresh local recorders and ships them in its report.
    observe: bool = False
    #: Worker-side cache bounds (None = library defaults).
    shared_cache_entries: Optional[int] = None
    row_cache_rows: Optional[int] = None


def _apply_worker_cache_bounds(task: _WorkerTask) -> None:
    """Apply the parent's cache bounds inside a worker process.

    Installs a per-worker :class:`~repro.faultmodel.batch.SharedMatrixCache`
    LRU and the row-cache bound before the module runs.  Cache bounds
    only change where matrices come from, never their bytes, so this is
    invisible to the science — and to the serial/parallel byte-parity
    contract.

    The LRU is *fresh per module*: cache keys are namespaced by model
    identity, so entries from a previous module on this worker can never
    hit again — carrying them over would only hold dead memory and make
    eviction counts depend on which modules this pool worker happened to
    run (scheduling state, which must not reach the seed-deterministic
    metrics).
    """
    if task.row_cache_rows is not None:
        from repro.faultmodel.population import set_default_row_cache_rows
        set_default_row_cache_rows(task.row_cache_rows)
    if task.shared_cache_entries is None:
        return
    from repro.faultmodel.batch import (
        SharedMatrixCache,
        install_shared_matrix_cache,
    )
    install_shared_matrix_cache(
        SharedMatrixCache(entries=task.shared_cache_entries))


def _run_module_worker(task: _WorkerTask) -> dict:
    """Run one module's full unit sequence in a worker process.

    Rebuilds the runner from the task (fresh virtual clock, fresh fault
    plan from the same seed, same retry policy): unit ids, jitter streams
    and fault decisions are derived structurally from the seeds, so the
    module's result is identical to what the serial runner computes.
    Returns a picklable report; quarantine travels as data rather than as
    an exception so one bad module cannot poison the pool.

    ``campaign.worker`` faults fire here, keyed by ``(module_id,
    dispatch)``: a ``crash`` kills this process outright (breaking the
    pool, which the supervisor detects and requeues), a ``hang`` stalls it
    until the per-module deadline expires.  A requeued dispatch re-rolls
    under a fresh key, so chaos campaigns converge deterministically.
    """
    adapter = adapter_for(task.study, task.config)
    _apply_worker_cache_bounds(task)
    plan = None
    if task.fault_seed is not None:
        plan = FaultPlan(seed=task.fault_seed, specs=task.fault_specs)
        event = plan.roll("campaign.worker", task.spec.module_id,
                          f"dispatch{task.dispatch}")
        if event is not None:
            perform_worker_fault(event)
    # Fresh recorders per task (or explicit no-ops): a pool worker must
    # neither inherit the parent's recorders across a fork nor leak spans
    # between the modules it is reused for.  The context-bound layer is
    # shadowed explicitly — a fork taken while the parent had a request
    # tracer bound (deeprh serve) would otherwise win over `observed`
    # here and swallow this task's spans into the dead parent copy.
    tracer = Tracer() if task.observe else None
    metrics = MetricsRegistry() if task.observe else None
    with observed(tracer=tracer, metrics=metrics), \
            bound_recorders(
                tracer=tracer if tracer is not None else NULL_TRACER,
                metrics=metrics if metrics is not None else NULL_METRICS):
        runner = CampaignRunner(task.config, fault_plan=plan,
                                retry=task.retry)
        stats = CampaignStats()
        try:
            result = runner._run_module(adapter, task.study, task.spec,
                                        stats)
        except RetryExhaustedError as error:
            report: dict = {"status": "quarantined", "unit": error.unit,
                            "attempts": error.attempts,
                            "cause": repr(error.last_cause)}
        else:
            report = {"status": "ok", "payload": adapter.to_dict(result)}
    report["stats"] = stats
    report["slept_s"] = getattr(runner.clock, "slept_s", 0.0)
    report["fault_events"] = plan.log.to_dicts() if plan is not None else []
    if task.observe:
        report["obs_spans"] = tracer.to_dicts()
        report["obs_metrics"] = metrics.to_dict()
    return report
