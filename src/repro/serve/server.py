"""``deeprh serve`` — the campaign runner as a long-lived service.

One asyncio process listens on a Unix domain socket and runs
characterization campaigns on behalf of NDJSON clients (see
:mod:`repro.serve.protocol` for the wire format).  The service exists to
make the *operational* half of the paper's methodology shareable: a lab
queues sweeps from several analysis notebooks against one warm process —
one shared oracle-matrix cache, one supervised worker budget — instead of
cold-starting a CLI per figure.

Robustness model, in one paragraph: admission is **bounded and honest**
(:class:`~repro.serve.admission.AdmissionController` — a full service
rejects with ``overloaded`` rather than queueing unbounded work), every
request carries an optional **deadline** and a cooperative
:class:`~repro.runner.cancel.CancelToken`, one process-wide
:class:`~repro.runner.governor.ResourceGovernor` decides every "run
less" step (worker-pool losses degrade parallel requests to serial;
budgets, when configured, also shrink caches, shed and park), and
SIGTERM/SIGINT triggers a **graceful drain**: stop admitting, give
in-flight campaigns a grace period, then cancel them at module
boundaries (completed modules are already checkpointed) and write a
resume manifest of everything interrupted.  The service's own failure
modes are injectable through the ``serve.accept`` / ``serve.request`` /
``serve.stream`` fault sites, so the chaos suite can drive all of this
deterministically.

Determinism: a campaign result is a pure function of ``(seed, spec)``.
The service never touches that function — it only decides *when* and
*with how many workers* a request runs, and serial/parallel execution is
byte-identical by construction — so a served result is byte-for-byte the
result the CLI computes for the same request
(:func:`repro.serve.protocol.canonical_result_bytes` is the comparison
every test uses).
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import pathlib
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.serialize import result_to_dict
from repro.errors import CampaignCancelled, CampaignParked, ConfigError
from repro.faultmodel.batch import SharedMatrixCache, install_shared_matrix_cache
from repro.faultmodel.population import set_default_row_cache_rows
from repro.faults.plan import FaultPlan
from repro.obs import bound_recorders, get_metrics
from repro.obs.clock import monotonic_ns
from repro.obs.expo import CONTENT_TYPE, render_prometheus
from repro.obs.trace import (
    DEFAULT_TRACE_MAX_BYTES,
    DEFAULT_TRACE_SEGMENTS,
    RotatingTraceWriter,
    TraceContext,
    Tracer,
    reroot_spans,
)
from repro.runner import CampaignRunner, RetryPolicy, SupervisorPolicy
from repro.runner.cancel import CancelToken
from repro.runner.governor import ResourceGovernor, rung_name
from repro.serve import protocol
from repro.serve.admission import ADMIT, DRAINING, AdmissionController
from repro.serve.latency import LatencyTracker
from repro.serve.protocol import CampaignRequest, ProtocolError

#: CancelToken reasons -> protocol error reasons.
_CANCEL_REASONS = {
    "deadline": protocol.ERROR_DEADLINE,
    "drain": protocol.ERROR_DRAIN,
    "aborted": protocol.ERROR_ABORTED,
    "client-cancel": protocol.ERROR_CANCELLED,
    "client-disconnect": protocol.ERROR_CANCELLED,
}


@dataclass(eq=False)
class _Connection:
    """One client connection: serialized writes through an outbox queue."""

    index: int
    writer: asyncio.StreamWriter
    outbox: "asyncio.Queue[Optional[bytes]]" = field(
        default_factory=asyncio.Queue)
    jobs: Dict[str, "_Job"] = field(default_factory=dict)
    alive: bool = True
    task: Optional[asyncio.Task] = None

    def send(self, event: Dict[str, Any]) -> None:
        if self.alive:
            self.outbox.put_nowait(protocol.encode(event))


@dataclass(eq=False)
class _Job:
    """One admitted campaign request moving through the service."""

    request: CampaignRequest
    conn: _Connection
    token: CancelToken = field(default_factory=CancelToken)
    abort_injected: bool = False
    started: bool = False
    degraded: bool = False
    modules_streamed: int = 0
    modules_total: int = 0
    flips: int = 0


class CampaignService:
    """Admission-controlled, drain-capable campaign server."""

    def __init__(self, socket_path, *,
                 max_inflight: int = 2, max_queue: int = 8,
                 fault_plan: Optional[FaultPlan] = None,
                 drain_grace_s: float = 5.0,
                 resume_manifest=None,
                 shared_cache_entries: int = 4096,
                 row_cache_rows: Optional[int] = None,
                 max_attempts: int = 3,
                 governor: Optional[ResourceGovernor] = None,
                 health_interval_s: float = 0.25,
                 metrics_port: Optional[int] = None,
                 trace_dir=None,
                 trace_max_bytes: int = DEFAULT_TRACE_MAX_BYTES,
                 trace_segments: int = DEFAULT_TRACE_SEGMENTS) -> None:
        if drain_grace_s < 0:
            raise ConfigError("drain_grace_s must be >= 0")
        if health_interval_s <= 0:
            raise ConfigError("health_interval_s must be positive")
        if metrics_port is not None and not 0 <= int(metrics_port) <= 65535:
            raise ConfigError("metrics_port must be in [0, 65535]")
        self.socket_path = pathlib.Path(socket_path)
        self.admission = AdmissionController(max_inflight=max_inflight,
                                             max_queue=max_queue)
        self.fault_plan = fault_plan
        self.drain_grace_s = float(drain_grace_s)
        self.resume_manifest = pathlib.Path(
            resume_manifest if resume_manifest is not None
            else str(socket_path) + ".resume.json")
        self.shared_cache_entries = int(shared_cache_entries)
        self.row_cache_rows = row_cache_rows
        self.retry = RetryPolicy(max_attempts=max_attempts)
        self._prev_row_cache_rows: Optional[int] = None
        self._queue: "asyncio.Queue[Optional[_Job]]" = asyncio.Queue()
        self._jobs: Set[_Job] = set()
        self._conns: Set[_Connection] = set()
        self._conn_count = 0
        self._draining = False
        self._drain_reason = ""
        self._manifest_entries: List[Dict[str, Any]] = []
        self._shutdown: Optional[asyncio.Event] = None
        self._consumers: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._prev_cache: Optional[SharedMatrixCache] = None
        #: The one degradation policy.  Campaigns executed by this
        #: service share the governor, so pressure (or pool losses) seen
        #: by any request degrades — and recovers — the whole process.
        #: Without budgets it is the budget-less governor: pool losses
        #: only, at most down to serial.
        self.governor = governor if governor is not None \
            else ResourceGovernor()
        self.health_interval_s = float(health_interval_s)
        self._health_task: Optional[asyncio.Task] = None
        #: Telemetry plane.  The latency tracker holds wall-clock request
        #: percentiles (deliberately outside the deterministic metrics
        #: registry); the trace writer, when configured, receives every
        #: traced request's spans rerooted under a unique ``r<n>`` prefix.
        self.latency = LatencyTracker()
        self.metrics_port = int(metrics_port) \
            if metrics_port is not None else None
        self.metrics_address: Optional[str] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._trace_writer = RotatingTraceWriter(
            trace_dir, max_bytes=trace_max_bytes,
            max_segments=trace_segments) if trace_dir is not None else None
        self._request_seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve_forever(self, *, install_signals: bool = True,
                            ready: Optional[asyncio.Event] = None) -> int:
        """Run until drained; returns 0 on a clean drain."""
        loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self.shared_cache_entries > 0:
            self._prev_cache = install_shared_matrix_cache(
                SharedMatrixCache(entries=self.shared_cache_entries))
        if self.row_cache_rows is not None:
            self._prev_row_cache_rows = set_default_row_cache_rows(
                self.row_cache_rows)
        if install_signals:
            for signum, name in ((signal.SIGTERM, "SIGTERM"),
                                 (signal.SIGINT, "SIGINT")):
                with contextlib.suppress(NotImplementedError, RuntimeError,
                                         ValueError):
                    loop.add_signal_handler(
                        signum, self.begin_drain, name)
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path))
        if self.metrics_port is not None:
            # Localhost-only scrape listener: same exposition text as the
            # ``metrics`` protocol op, for Prometheus-shaped pollers that
            # speak HTTP rather than the NDJSON socket.
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, host="127.0.0.1",
                port=self.metrics_port)
            bound_port = self._metrics_server.sockets[0].getsockname()[1]
            self.metrics_address = f"127.0.0.1:{bound_port}"
        self._consumers = [
            asyncio.ensure_future(self._consume())
            for _ in range(self.admission.max_inflight)]
        self._health_task = asyncio.ensure_future(self._health_loop())
        if ready is not None:
            ready.set()
        try:
            await self._shutdown.wait()
        finally:
            await self._close()
        return 0

    async def _close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for _ in self._consumers:
            self._queue.put_nowait(None)
        for task in self._consumers:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for conn in list(self._conns):
            self._close_connection(conn)
        if self.shared_cache_entries > 0:
            install_shared_matrix_cache(self._prev_cache)
        if self.row_cache_rows is not None:
            set_default_row_cache_rows(self._prev_row_cache_rows)
        if self._trace_writer is not None:
            self._trace_writer.close()
        with contextlib.suppress(OSError):
            self.socket_path.unlink()

    @property
    def governed(self) -> bool:
        """True when budgets were requested (flag, config or caller)."""
        return self.governor.governed

    async def _health_loop(self) -> None:
        """The service's tick source: tick the governor even while idle.

        Campaigns tick the shared governor from their own loops; this
        task covers the gaps so a starved-but-idle service still climbs
        (and, crucially, recovers down) the ladder between requests, and
        keeps the installed shared cache clamped to the current rung.
        """
        while True:
            self.governor.tick()
            self.governor.apply_cache_policy()
            await asyncio.sleep(self.health_interval_s)

    # ------------------------------------------------------------------
    def begin_drain(self, reason: str = "drain") -> None:
        """Stop admitting; finish or cancel in-flight work; shut down.

        Idempotent; safe to call from a signal handler registered on the
        event loop.  The actual drain runs as a task so the handler
        returns immediately.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_reason = reason
        self.admission.begin_drain()
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        grace_until = loop.time() + self.drain_grace_s
        while not self.admission.idle() and loop.time() < grace_until:
            await asyncio.sleep(0.02)
        # Grace spent: cancel whatever is still running or queued.  The
        # runner stops at the next module/unit boundary; every module
        # completed so far is already checkpointed, so the manifest's
        # requests resume rather than restart.
        for job in list(self._jobs):
            job.token.cancel("drain")
        while not self.admission.idle():
            await asyncio.sleep(0.02)
        self._write_manifest()
        assert self._shutdown is not None
        self._shutdown.set()

    def _write_manifest(self) -> None:
        manifest = {
            "reason": self._drain_reason,
            "socket": str(self.socket_path),
            "interrupted": [entry for entry in self._manifest_entries
                            if entry["state"] == "interrupted"],
            "queued": [entry for entry in self._manifest_entries
                       if entry["state"] == "queued"],
        }
        self.resume_manifest.parent.mkdir(parents=True, exist_ok=True)
        self.resume_manifest.write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    def _record_drained(self, job: _Job, state: str) -> None:
        entry = job.request.describe()
        entry["state"] = state
        entry["modules_streamed"] = job.modules_streamed
        self._manifest_entries.append(entry)

    # ------------------------------------------------------------------
    # Connection handling (event-loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._conn_count += 1
        index = self._conn_count
        if self.fault_plan is not None:
            event = self.fault_plan.roll("serve.accept", "conn", index)
            if event is not None and event.kind == "emfile":
                # Injected descriptor exhaustion: the accept itself
                # succeeded (asyncio already holds the fd) but the
                # process is at its limit, so shed this connection and
                # keep serving — a real EMFILE must never kill the loop.
                get_metrics().counter("serve.accept.emfile").inc()
                writer.close()
                return
            if event is not None:
                # Injected accept failure: the peer sees an immediate
                # close, exactly like an accept-queue overflow.
                get_metrics().counter("serve.accept.dropped").inc()
                writer.close()
                return
        conn = _Connection(index=index, writer=writer)
        conn.task = asyncio.ensure_future(self._writer_loop(conn))
        self._conns.add(conn)
        get_metrics().counter("serve.connections").inc()
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                self._dispatch(conn, line)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except OSError as error:
            # Transient accept/read errors (EMFILE, ENFILE, ECONNABORTED)
            # cost one connection, never the server.
            if error.errno not in (errno.EMFILE, errno.ENFILE,
                                   errno.ECONNABORTED):
                raise
            get_metrics().counter("serve.accept.emfile").inc()
        finally:
            # A departed client cannot receive results; cancel its
            # unfinished requests so their capacity frees immediately.
            for job in list(conn.jobs.values()):
                job.token.cancel("client-disconnect")
            self._close_connection(conn)

    def _close_connection(self, conn: _Connection) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        conn.alive = False
        conn.outbox.put_nowait(None)

    async def _writer_loop(self, conn: _Connection) -> None:
        try:
            while True:
                data = await conn.outbox.get()
                if data is None:
                    break
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, BrokenPipeError):
            conn.alive = False
        finally:
            conn.writer.close()
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                await conn.writer.wait_closed()

    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, line: str) -> None:
        try:
            payload = protocol.parse_line(line)
        except ProtocolError as error:
            conn.send(protocol.rejected("", protocol.REASON_BAD_REQUEST,
                                        str(error)))
            return
        op = payload["op"]
        request_id = payload["id"]
        started_ns = monotonic_ns()
        if op == "ping":
            conn.send(protocol.pong(request_id))
        elif op == "status":
            conn.send(self._status(request_id))
        elif op == "health":
            conn.send(self._health_event(request_id))
        elif op == "metrics":
            conn.send(protocol.metrics_event(
                request_id, self._scrape_text(), CONTENT_TYPE))
        elif op == "cancel":
            self._cancel(conn, request_id)
        elif op == "campaign":
            self._admit(conn, payload)
        if op != "campaign":
            # Campaign latency is observed end-to-end in _execute; the
            # synchronous ops are timed here.
            self.latency.observe(op, monotonic_ns() - started_ns)

    def _status(self, request_id: str) -> Dict[str, Any]:
        from repro.faultmodel.batch import shared_matrix_cache

        cache = shared_matrix_cache()
        return protocol.status_event(
            request_id,
            admission=self.admission.snapshot(),
            draining=self._draining,
            governed=self.governed,
            governor_rung=rung_name(self.governor.rung()),
            connections=len(self._conns),
            shared_cache_entries=len(cache) if cache is not None else 0,
            shared_cache_capacity=(cache.entries
                                   if cache is not None else 0),
            latency=self.latency.snapshot(),
            trace_rotations=(self._trace_writer.rotations
                             if self._trace_writer is not None else 0),
            faults_injected=(len(self.fault_plan.log)
                            if self.fault_plan is not None else 0))

    def _telemetry_gauges(self) -> Dict[str, float]:
        """Service-state gauges merged into every scrape.

        Everything the ``status``/``health`` ops report numerically —
        governor rung and pool losses, admission ledger, shared-cache
        occupancy — flattened to registry-style dotted names so one
        scrape shows the whole service next to the campaign counters.
        """
        from repro.faultmodel.batch import shared_matrix_cache

        gauges: Dict[str, float] = {}
        for key, value in self.admission.snapshot().items():
            if isinstance(value, bool):
                gauges[f"serve.admission.{key}"] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)):
                gauges[f"serve.admission.{key}"] = float(value)
        governor = self.governor.snapshot()
        for key in ("rung_index", "ticks", "assessments",
                    "escalations", "recoveries", "pool_losses"):
            gauges[f"serve.governor.{key}"] = float(governor[key])
        gauges["serve.governed"] = 1.0 if self.governed else 0.0
        gauges["serve.draining"] = 1.0 if self._draining else 0.0
        gauges["serve.connections"] = float(len(self._conns))
        cache = shared_matrix_cache()
        gauges["serve.cache.occupancy"] = \
            float(len(cache)) if cache is not None else 0.0
        gauges["serve.cache.capacity"] = \
            float(cache.entries) if cache is not None else 0.0
        gauges.update(self.latency.gauges())
        return gauges

    def _scrape_text(self) -> str:
        """The Prometheus exposition for this instant's service state."""
        return render_prometheus(get_metrics().to_dict(),
                                 extra_gauges=self._telemetry_gauges())

    async def _handle_metrics_http(self, reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter) -> None:
        """Minimal one-shot HTTP/1.0 responder for ``--metrics-port``.

        Any ``GET`` is answered with the scrape text (scrapers poll a
        single fixed path, so routing would be ceremony); other methods
        get 405.  The connection closes after one response.
        """
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            method = request_line.split(b" ", 1)[0] if request_line else b""
            if method != b"GET":
                body = b"method not allowed\n"
                head = (b"HTTP/1.0 405 Method Not Allowed\r\n"
                        b"Content-Type: text/plain\r\n")
            else:
                body = self._scrape_text().encode("utf-8")
                head = (b"HTTP/1.0 200 OK\r\nContent-Type: "
                        + CONTENT_TYPE.encode("ascii") + b"\r\n")
            writer.write(head
                         + f"Content-Length: {len(body)}\r\n".encode("ascii")
                         + b"Connection: close\r\n\r\n" + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                await writer.wait_closed()

    def _health_event(self, request_id: str) -> Dict[str, Any]:
        return protocol.health_event(
            request_id,
            governed=self.governed,
            governor=self.governor.snapshot(),
            admission=self.admission.snapshot(),
            draining=self._draining)

    def _cancel(self, conn: _Connection, request_id: str) -> None:
        job = conn.jobs.get(request_id)
        if job is None:
            conn.send(protocol.rejected(request_id,
                                        protocol.REASON_BAD_REQUEST,
                                        "no such in-flight request"))
            return
        job.token.cancel("client-cancel")

    # ------------------------------------------------------------------
    def _admit(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        request_id = payload["id"]
        if request_id in conn.jobs:
            conn.send(protocol.rejected(
                request_id, protocol.REASON_BAD_REQUEST,
                "request id already in flight on this connection"))
            return
        try:
            request = protocol.build_campaign_request(payload)
        except ProtocolError as error:
            conn.send(protocol.rejected(
                request_id, protocol.REASON_BAD_REQUEST, str(error)))
            return
        abort_injected = False
        if self.fault_plan is not None:
            event = self.fault_plan.roll("serve.request", request_id)
            if event is not None and event.kind == "reject":
                conn.send(protocol.rejected(
                    request_id, protocol.REASON_INJECTED,
                    "injected serve.request:reject"))
                return
            abort_injected = event is not None and event.kind == "abort"
        if self.governor.should_shed():
            # Governor rung >= shed: capacity may exist, but resources
            # do not.  Refuse with an explicit verdict the client can
            # distinguish from overload and back off on.
            self.admission.record_shed()
            conn.send(protocol.rejected(
                request_id, protocol.REASON_SHED,
                f"resource governor shedding load "
                f"(rung {rung_name(self.governor.rung())}); "
                f"poll the health op and retry after recovery"))
            return
        verdict = self.admission.try_admit()
        if verdict != ADMIT:
            reason = protocol.REASON_DRAINING if verdict == DRAINING \
                else protocol.REASON_OVERLOADED
            conn.send(protocol.rejected(
                request_id, reason,
                f"service {verdict}: "
                f"{self.admission.running} running, "
                f"{self.admission.queued} queued"))
            return
        job = _Job(request=request, conn=conn,
                   abort_injected=abort_injected,
                   modules_total=len(request.config.module_specs()))
        conn.jobs[request_id] = job
        self._jobs.add(job)
        conn.send(protocol.accepted(request_id))
        self._queue.put_nowait(job)

    # ------------------------------------------------------------------
    # Execution (consumer tasks)
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.token.cancelled():
                # Cancelled while queued (drain or client cancel): the
                # rejection is explicit, never a silent drop.
                self.admission.forget_queued()
                self._finish_job(job, self._cancel_error(job))
                if job.token.reason == "drain":
                    self._record_drained(job, "queued")
                continue
            self.admission.begin_run()
            job.started = True
            try:
                await self._execute(job)
            finally:
                self.admission.finish()

    def _cancel_error(self, job: _Job) -> Dict[str, Any]:
        reason = _CANCEL_REASONS.get(job.token.reason,
                                     protocol.ERROR_CANCELLED)
        return protocol.error_event(
            job.request.id, reason,
            f"request cancelled ({job.token.reason})")

    def _finish_job(self, job: _Job, event: Optional[Dict[str, Any]]) -> None:
        if event is not None:
            job.conn.send(event)
        self._jobs.discard(job)
        job.conn.jobs.pop(job.request.id, None)

    async def _execute(self, job: _Job) -> None:
        loop = asyncio.get_running_loop()
        request = job.request
        metrics = get_metrics()
        if job.abort_injected:
            # Injected serve.request:abort — accepted, then cleanly
            # aborted before any unit runs (the client gets an explicit
            # error event, never a half-result).
            job.token.cancel("aborted")
        workers = self.governor.effective_workers(request.workers)
        if workers < request.workers:
            job.degraded = True
            metrics.counter("serve.degraded_serial").inc()

        def on_module(module_id: str, payload: Dict[str, Any],
                      resumed: bool) -> None:
            loop.call_soon_threadsafe(
                self._stream_module, job, module_id, payload, resumed)

        tracer: Optional[Tracer] = None
        ctx: Optional[TraceContext] = None
        if self._trace_writer is not None and request.trace:
            # Request-scoped tracing: a private tracer rides the task
            # context into the runner thread (bound_recorders), so this
            # request's spans never mingle with a concurrent request's.
            self._request_seq += 1
            tracer = Tracer()
            ctx = TraceContext(request_id=request.id,
                               prefix=f"r{self._request_seq}")
        runner = CampaignRunner(
            request.config,
            checkpoint_dir=request.checkpoint_dir,
            resume=request.resume,
            fault_plan=self._request_fault_plan(request),
            retry=self.retry,
            workers=workers,
            supervisor=SupervisorPolicy(
                module_deadline_s=request.config.module_deadline_s),
            cancel=job.token,
            on_module=on_module,
            governor=self.governor,
            shared_cache_entries=self.shared_cache_entries
            if self.shared_cache_entries > 0 else None,
            row_cache_rows=self.row_cache_rows,
            trace=ctx)

        def run_campaign():
            if tracer is None:
                return runner.run(request.study)
            with bound_recorders(tracer=tracer):
                with tracer.span("serve.request", request=request.id,
                                 study=request.study, workers=workers):
                    return runner.run(request.study)

        deadline_handle = None
        if request.deadline_s is not None:
            deadline_handle = loop.call_later(
                request.deadline_s, job.token.cancel, "deadline")
        started_ns = monotonic_ns()
        try:
            try:
                outcome = await asyncio.to_thread(run_campaign)
            except CampaignCancelled:
                metrics.counter("serve.requests.cancelled").inc()
                self._finish_job(job, self._cancel_error(job))
                if job.token.reason == "drain":
                    self._record_drained(job, "interrupted")
                return
            except CampaignParked as error:
                # The governor parked the campaign on its checkpoints;
                # the client resubmits with resume=true once health
                # recovers.
                metrics.counter("serve.requests.parked").inc()
                self._finish_job(job, protocol.error_event(
                    request.id, protocol.ERROR_PARKED, str(error)))
                return
            except ConfigError as error:
                metrics.counter("serve.requests.failed").inc()
                self._finish_job(job, protocol.error_event(
                    request.id, protocol.ERROR_INTERNAL, str(error)))
                return
            except Exception as error:  # noqa: BLE001 - service must not die
                metrics.counter("serve.requests.failed").inc()
                self._finish_job(job, protocol.error_event(
                    request.id, protocol.ERROR_INTERNAL,
                    f"{type(error).__name__}: {error}"))
                return
            finally:
                if deadline_handle is not None:
                    deadline_handle.cancel()
            metrics.counter("serve.requests.completed").inc()
            self._finish_job(job, protocol.result_event(
                request.id, ok=outcome.ok, degraded=job.degraded,
                result=result_to_dict(outcome.result),
                report=outcome.degradation_report(),
                stats={
                    "modules_completed": outcome.stats.modules_completed,
                    "modules_resumed": outcome.stats.modules_resumed,
                    "modules_quarantined": len(outcome.quarantined),
                    "units_run": outcome.stats.units_run,
                    "units_retried": outcome.stats.units_retried,
                    "workers": workers,
                }))
        finally:
            # Telemetry epilogue — runs on every exit path so cancelled
            # and failed requests still leave a latency sample and their
            # partial trace behind.
            self.latency.observe("campaign", monotonic_ns() - started_ns)
            if tracer is not None and ctx is not None \
                    and self._trace_writer is not None:
                self._trace_writer.append(
                    reroot_spans(tracer.to_dicts(), ctx.prefix))

    def _request_fault_plan(self, request: CampaignRequest
                            ) -> Optional[FaultPlan]:
        """A fresh per-request plan, never shared across requests.

        The request's own ``fault_plan`` wins; otherwise campaign-level
        specs from the service plan apply (the ``serve.*`` specs stay
        with the service — rolling them inside the runner would be
        meaningless).  A fresh plan per request keeps the opportunity
        counters request-local, so request determinism never depends on
        what other clients submitted.
        """
        from repro.faults.plan import parse_fault_plan

        if request.fault_plan:
            seed = request.fault_seed if request.fault_seed is not None \
                else request.config.seed
            return parse_fault_plan(request.fault_plan, seed=seed)
        if self.fault_plan is None:
            return None
        specs = tuple(spec for spec in self.fault_plan.specs
                      if not spec.site.startswith("serve."))
        if not specs:
            return None
        return FaultPlan(seed=self.fault_plan.seed, specs=specs)

    def _stream_module(self, job: _Job, module_id: str,
                       payload: Dict[str, Any], resumed: bool) -> None:
        """Forward one module payload to the client (event-loop thread)."""
        if self.fault_plan is not None:
            event = self.fault_plan.roll("serve.stream",
                                         job.request.id, module_id)
            if event is not None:
                # Injected stream-write failure: the incremental event is
                # lost, but the final result event still carries every
                # module — degradation, not data loss.
                get_metrics().counter("serve.stream.dropped").inc()
                return
        job.modules_streamed += 1
        job.flips += _count_flips(payload)
        job.conn.send(protocol.module_event(job.request.id, module_id,
                                            payload, resumed))
        job.conn.send(protocol.progress_event(
            job.request.id, module_id=module_id,
            done=job.modules_streamed, total=job.modules_total,
            flips=job.flips, rung=rung_name(self.governor.rung())))


def _count_flips(payload: Dict[str, Any]) -> int:
    """Flips observed in one module payload (0 when the shape is foreign).

    Progress events are advisory; a study whose payload carries no
    ``flip_cells`` map simply reports zero rather than failing the
    stream.
    """
    cells = payload.get("flip_cells")
    if not isinstance(cells, dict):
        return 0
    return sum(len(group) for group in cells.values()
               if isinstance(group, (list, tuple, set)))
