"""Supervised dispatch of parallel campaign workers.

The bare ``ProcessPoolExecutor`` path of PR 2 assumed workers always
return; a weeks-long campaign cannot.  This module owns the dispatch loop
for ``workers > 1``: it arms a wall-clock :class:`~repro.runner.retry.
Deadline` per dispatched module, polls futures with a short tick, and
reacts to the two ways a worker stops making progress —

* **worker loss** — the worker process dies (``BrokenProcessPool``), e.g.
  an injected ``campaign.worker:crash``, a segfault, or an OOM kill;
* **hang** — the module's deadline expires while its future is still
  running (``concurrent.futures`` cannot cancel a running future, so the
  whole pool is killed and respawned).

Either way the affected modules are *requeued* in spec order onto the
fresh pool, with a bounded per-module dispatch budget
(:attr:`SupervisorPolicy.max_requeues`); a module that keeps losing its
worker is given up as :class:`~repro.errors.WorkerLostError`, which the
runner converts into the same quarantine records the serial retry path
produces.  Every decision is appended to a structured
:class:`SupervisionLog` so the degradation report can account for the
campaign's operational history, not just its measurements.

Determinism: module *results* are pure functions of the configuration
seed, so requeues and respawns never change the merged output — the
supervisor only decides *when* and *where* a module runs, never *what* it
computes.  Which dispatch number a module reaches can depend on wall-clock
scheduling (who shared a pool with a crasher), which is why worker fault
kinds key their rolls by ``(module_id, dispatch)`` — the decision for a
given dispatch is seed-pure even though the set of dispatches is
operational.
"""

from __future__ import annotations

import multiprocessing
import signal
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, WorkerLostError
from repro.obs import get_metrics, get_tracer
from repro.obs.clock import monotonic_ns
from repro.runner.cancel import CancelToken
from repro.runner.retry import Deadline, WallClock

#: Event kinds a :class:`SupervisionLog` may record, in lifecycle order.
EVENT_KINDS: Tuple[str, ...] = (
    "dispatch",     # module handed to a worker slot
    "complete",     # worker returned a report
    "worker-lost",  # the worker process died under the module
    "deadline",     # the module's wall-clock deadline expired (hang)
    "requeue",      # module queued for another dispatch
    "respawn",      # the worker pool was killed and recreated
    "give-up",      # requeue budget spent; module goes to quarantine
    "cancel",       # a CancelToken fired; dispatch stopped cooperatively
    "degrade",      # the resource governor asked dispatch to stand down
)


@dataclass(frozen=True)
class SupervisorPolicy:
    """How patiently the parallel dispatch loop babysits its workers.

    ``module_deadline_s`` is the wall-clock budget per dispatched module
    (``None`` disables hang detection); ``max_requeues`` bounds how many
    *extra* dispatches a module may consume after losing workers before it
    is given up; ``poll_interval_s`` is the supervision tick — how long
    one ``wait()`` blocks before deadlines are re-checked.
    """

    module_deadline_s: Optional[float] = None
    max_requeues: int = 2
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.module_deadline_s is not None and self.module_deadline_s <= 0:
            raise ConfigError("module_deadline_s must be positive (or None)")
        if self.max_requeues < 0:
            raise ConfigError("max_requeues must be >= 0")
        if self.poll_interval_s <= 0:
            raise ConfigError("poll_interval_s must be positive")


@dataclass(frozen=True)
class SupervisionEvent:
    """One supervision decision: what happened to which dispatch."""

    kind: str
    module_id: str = ""
    dispatch: int = 0
    detail: str = ""

    def __str__(self) -> str:
        label = self.kind
        if self.module_id:
            label += f" {self.module_id}#{self.dispatch}"
        if self.detail:
            label += f" ({self.detail})"
        return label


class SupervisionLog:
    """Structured, append-only record of every supervision decision."""

    def __init__(self) -> None:
        self.events: List[SupervisionEvent] = []

    def record(self, event: SupervisionEvent) -> None:
        if event.kind not in EVENT_KINDS:
            raise ConfigError(f"unknown supervision event kind "
                              f"{event.kind!r}; choose from {EVENT_KINDS}")
        self.events.append(event)
        # One counter per lifecycle kind, so `deeprh trace summarize` can
        # report requeue/respawn rates without replaying the event list.
        get_metrics().counter(f"supervisor.{event.kind}").inc()

    def __len__(self) -> int:
        return len(self.events)

    def count(self, kind: Optional[str] = None,
              module_id: Optional[str] = None) -> int:
        return sum(1 for e in self.events
                   if (kind is None or e.kind == kind)
                   and (module_id is None or e.module_id == module_id))

    def by_kind(self) -> Dict[str, int]:
        """``{kind: occurrences}`` in lifecycle order, zero-free."""
        return {kind: fires for kind in EVENT_KINDS
                if (fires := self.count(kind))}

    def eventful(self) -> bool:
        """True when anything beyond routine dispatch/complete happened."""
        return any(e.kind not in ("dispatch", "complete")
                   for e in self.events)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [
            {"kind": e.kind, "module_id": e.module_id,
             "dispatch": e.dispatch, "detail": e.detail}
            for e in self.events
        ]

    def render(self) -> str:
        if not self.events:
            return "no supervision events"
        lines = [f"{len(self.events)} supervision event(s):"]
        for kind, fires in self.by_kind().items():
            lines.append(f"  {kind}: {fires}")
        return "\n".join(lines)


@dataclass
class SupervisionResult:
    """Everything one supervised dispatch run produced."""

    #: module_id -> the worker's report dict, for every module that
    #: completed (including worker-side quarantines, which travel as data).
    reports: Dict[str, dict]
    #: Modules whose requeue budget was spent; quarantined by the runner.
    lost: List[WorkerLostError]
    #: First fatal exception a worker re-raised (e.g. an injected
    #: ``campaign.unit:crash`` power cut); re-raised by the runner after
    #: completed modules reach the checkpoint store.
    first_error: Optional[BaseException]
    log: SupervisionLog
    #: True when a CancelToken stopped dispatch before every module ran;
    #: ``reports`` then holds only the modules that completed in time.
    cancelled: bool = False
    #: Non-empty when the ``on_tick`` hook (the resource governor) stopped
    #: parallel dispatch; the runner finishes the remaining modules
    #: serially (or parks) instead of treating the run as failed.
    degraded_reason: str = ""


@dataclass
class _Dispatched:
    """Book-keeping for one in-flight (module, dispatch)."""

    spec: object
    dispatch: int
    deadline: Deadline
    #: Trace timestamp of the dispatch (0 when tracing is off).
    started_ns: int = 0


class CampaignSupervisor:
    """Drives worker tasks through crashes and hangs to completion.

    ``worker_fn`` must be a picklable module-level function and
    ``make_task(spec, dispatch)`` must build its (picklable) argument; the
    supervisor stays agnostic of what a "module" is beyond its
    ``module_id`` attribute on ``spec``.
    """

    def __init__(self, worker_fn: Callable, make_task: Callable,
                 workers: int, policy: Optional[SupervisorPolicy] = None,
                 log: Optional[SupervisionLog] = None, clock=None,
                 cancel: Optional[CancelToken] = None,
                 on_report: Optional[Callable] = None,
                 on_tick: Optional[Callable] = None) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.worker_fn = worker_fn
        self.make_task = make_task
        self.workers = int(workers)
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.log = log if log is not None else SupervisionLog()
        self.clock = clock if clock is not None else WallClock()
        self.cancel = cancel
        #: ``on_report(module_id, report)`` fires as each worker report
        #: arrives — the incremental streaming seam for `deeprh serve`.
        self.on_report = on_report
        #: ``on_tick()`` runs once per supervision tick and may return a
        #: reason string to stop parallel dispatch (the resource governor's
        #: seam).  In-flight modules are abandoned like on cancel — they
        #: re-run on the degraded path — and the reason travels back on
        #: :attr:`SupervisionResult.degraded_reason`.
        self.on_tick = on_tick

    # ------------------------------------------------------------------
    def run(self, specs: Sequence) -> SupervisionResult:
        with get_tracer().span("supervisor.run", workers=self.workers,
                               modules=len(specs)):
            return self._run(specs)

    def _run(self, specs: Sequence) -> SupervisionResult:
        tracer = get_tracer()
        order = {spec.module_id: index for index, spec in enumerate(specs)}
        queue: Deque[Tuple[object, int]] = deque(
            (spec, 1) for spec in specs)
        in_flight: Dict[Future, _Dispatched] = {}
        reports: Dict[str, dict] = {}
        lost: List[WorkerLostError] = []
        first_error: Optional[BaseException] = None

        cancelled = False
        degraded_reason = ""
        pool = self._new_pool()
        try:
            while queue or in_flight:
                if self.on_tick is not None:
                    reason = self.on_tick()
                    if reason:
                        # Same shape as cancel: stop dispatching, kill the
                        # pool, hand back what completed.  The runner owns
                        # what happens next (serial continuation or park).
                        self.log.record(SupervisionEvent(
                            "degrade", detail=reason))
                        degraded_reason = reason
                        break
                if self.cancel is not None and self.cancel.cancelled():
                    # Stop at the tick: nothing new is dispatched, the pool
                    # is killed (in-flight modules simply never complete —
                    # they re-run on resume), and every report collected so
                    # far goes back to the runner for checkpointing.
                    self.log.record(SupervisionEvent(
                        "cancel", detail=self.cancel.reason))
                    cancelled = True
                    break
                while queue and len(in_flight) < self.workers:
                    spec, dispatch = queue.popleft()
                    try:
                        future = pool.submit(self.worker_fn,
                                             self.make_task(spec, dispatch))
                    except BrokenProcessPool:
                        # A sibling died and the pool noticed before we
                        # collected its future: submit refuses new work.
                        # The module we were about to dispatch never ran
                        # — put it back uncharged.  Everything in flight
                        # gets the usual broken-pool treatment (charged;
                        # the crasher cannot be identified), then the
                        # pool respawns and dispatch resumes.
                        queue.appendleft((spec, dispatch))
                        for broken in list(in_flight):
                            entry = in_flight.pop(broken)
                            self._requeue(queue, entry, lost,
                                          cause="worker pool broke while "
                                                "the module was in flight")
                        pool = self._respawn(pool)
                        queue = deque(sorted(
                            queue,
                            key=lambda item: order[item[0].module_id]))
                        continue
                    in_flight[future] = _Dispatched(
                        spec, dispatch,
                        Deadline(self.policy.module_deadline_s,
                                 clock=self.clock),
                        started_ns=monotonic_ns() if tracer.enabled else 0)
                    self.log.record(SupervisionEvent(
                        "dispatch", spec.module_id, dispatch))
                done, _ = wait(list(in_flight),
                               timeout=self.policy.poll_interval_s,
                               return_when=FIRST_COMPLETED)
                pool_broken = False
                for future in [f for f in list(in_flight) if f in done]:
                    entry = in_flight.pop(future)
                    module_id = entry.spec.module_id
                    try:
                        reports[module_id] = future.result()
                        self.log.record(SupervisionEvent(
                            "complete", module_id, entry.dispatch,
                            f"{entry.deadline.elapsed_s():.2f} s"))
                        if self.on_report is not None:
                            self.on_report(module_id, reports[module_id])
                        if tracer.enabled:
                            # Dispatch-to-completion, timed in the parent:
                            # covers queueing + pickling + the worker run.
                            tracer.record_span(
                                "supervisor.module", entry.started_ns,
                                monotonic_ns(), module=module_id,
                                dispatch=entry.dispatch)
                    except BrokenProcessPool as error:
                        pool_broken = True
                        self.log.record(SupervisionEvent(
                            "worker-lost", module_id, entry.dispatch,
                            type(error).__name__))
                        self._requeue(queue, entry, lost,
                                      cause=f"worker process died "
                                            f"({type(error).__name__})")
                    except BaseException as error:  # noqa: BLE001
                        # Fatal faults (e.g. injected campaign.unit power
                        # cuts) and genuine bugs propagate like in a serial
                        # run; keep draining so completed modules still
                        # reach the checkpoint store first.
                        if first_error is None:
                            first_error = error
                expired = [f for f in list(in_flight)
                           if in_flight[f].deadline.expired()]
                if expired or pool_broken:
                    for future in expired:
                        entry = in_flight.pop(future)
                        budget = entry.deadline.budget_s or 0.0
                        self.log.record(SupervisionEvent(
                            "deadline", entry.spec.module_id, entry.dispatch,
                            f"exceeded {budget:.1f} s"))
                        self._requeue(queue, entry, lost,
                                      cause=f"module deadline of "
                                            f"{budget:.1f} s exceeded")
                    for future in list(in_flight):
                        entry = in_flight.pop(future)
                        if pool_broken:
                            # The crasher cannot be identified, so every
                            # module on the broken pool is charged — the
                            # bounded budget must cover the actual culprit.
                            self._requeue(queue, entry, lost,
                                          cause="worker pool broke while "
                                                "the module was in flight")
                        else:
                            # Hang victims are known innocent: re-dispatch
                            # at the same budget, uncharged.
                            queue.append((entry.spec, entry.dispatch))
                            self.log.record(SupervisionEvent(
                                "requeue", entry.spec.module_id,
                                entry.dispatch,
                                "pool killed to clear a hung sibling"))
                    pool = self._respawn(pool)
                if len(queue) > 1:
                    # Deterministic dispatch: requeued modules rejoin in
                    # spec order regardless of which worker died when.
                    queue = deque(sorted(
                        queue, key=lambda item: order[item[0].module_id]))
        finally:
            _terminate_pool(pool)
        return SupervisionResult(reports=reports, lost=lost,
                                 first_error=first_error, log=self.log,
                                 cancelled=cancelled,
                                 degraded_reason=degraded_reason)

    # ------------------------------------------------------------------
    def _requeue(self, queue: Deque, entry: _Dispatched,
                 lost: List[WorkerLostError], cause: str) -> None:
        module_id = entry.spec.module_id
        if entry.dispatch > self.policy.max_requeues:
            error = WorkerLostError(
                f"module {module_id} lost after {entry.dispatch} "
                f"dispatch(es): {cause}", module_id=module_id,
                dispatches=entry.dispatch, cause=cause)
            lost.append(error)
            self.log.record(SupervisionEvent(
                "give-up", module_id, entry.dispatch, cause))
        else:
            queue.append((entry.spec, entry.dispatch + 1))
            self.log.record(SupervisionEvent(
                "requeue", module_id, entry.dispatch + 1, cause))

    def _respawn(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        _terminate_pool(pool)
        self.log.record(SupervisionEvent(
            "respawn", detail=f"fresh pool of {self.workers} worker(s)"))
        return self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        """A worker pool on the ``fork`` start method, named explicitly.

        Workers inherit the parent's imported modules and installed
        caches by forking; Python 3.14 changes the Linux default to
        forkserver, so the method is pinned rather than implied.
        """
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_reset_worker_signals,
            mp_context=multiprocessing.get_context("fork"))


def _reset_worker_signals() -> None:
    """Detach a forked worker from its parent's signal plumbing.

    When the parent runs an asyncio loop with ``add_signal_handler`` (the
    ``deeprh serve`` process), forked workers inherit both the Python-level
    handlers and the loop's signal wakeup fd.  A worker that then receives
    SIGTERM — which the executor sends to surviving siblings when its pool
    breaks — would write the signal number into the parent's wakeup pipe,
    making the parent's loop dispatch its own SIGTERM handler and
    spuriously drain the service.  Resetting both in the child keeps its
    death its own.
    """
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool even when a worker is wedged.

    ``shutdown`` alone would join a hung worker forever, so the worker
    processes are killed first.  SIGKILL, not SIGTERM: a worker forked
    from a parent with a Python SIGTERM handler can take the signal
    before :func:`_reset_worker_signals` runs, and the reset then drops
    the pending handler — the worker survives, blocks on a queue lock a
    killed sibling held, and ``shutdown`` joins it forever.
    ``_processes`` is a private attribute of :class:`ProcessPoolExecutor`,
    but there is no public kill switch; the ``getattr`` guard keeps this
    safe against stdlib refactors (worst case the shutdown blocks as
    before).
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.kill()
    pool.shutdown(wait=True, cancel_futures=True)
