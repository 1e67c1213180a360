"""The workload generator and the three workloads.

Every workload drives the real program as subprocesses: the ``deeprh``
CLI (``python -m repro.cli``) or ``deeprh serve`` over its Unix socket.
The program receives only CLI arguments and protocol requests; every
campaign seed and the request order come from the benchmark's ``--seed``.

A workload runs in three phases:

1. ``setup`` — spawn-until-ready, timed :data:`SETUP_REPEATS` times;
2. ``prepare`` — references for the output checks, computed in this
   process and never timed;
3. ``iteration`` — one timed unit of work, repeated by the caller; with
   ``traced=True`` the program runs under ``perfbench/launch.py`` and the
   iteration also returns the spans it recorded.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from drhbench import checks, procs, serveclient

#: ``--seed`` at which the outputs must match :data:`checks.PINNED_DIGESTS`.
DEFAULT_SEED = 1
#: The seed the quick preset's 16 observation checks are calibrated to.
CALIBRATED_SEED = 2021
#: Spawn-until-ready measurements per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: No single program may outlive this; a timeout is a failed operation.
OP_TIMEOUT_S = 150.0
#: Overrides of ``benchmarks/bench_serve_throughput.py``: a small campaign.
SERVE_OVERRIDES = {
    "rows_per_region": 6,
    "modules_per_manufacturer": 1,
    "temperatures_c": (50.0, 85.0),
    "hcfirst_repetitions": 1,
    "wcdp_sample_rows": 2,
}
SERVE_REQUESTS = 100
SERVE_CLIENTS = 2
#: ``temperature --workers 2`` alone takes 35-39 s on a 2-core host
#: today, which would not leave room for the runs a comparison needs.
CAMPAIGN_STUDIES = ("acttime",)
CAMPAIGN_WORKERS = 2


class SetupError(RuntimeError):
    """The program could not be brought up at all; no result is printed."""


def derive_seed(seed: int, label: str) -> int:
    """A program seed derived from the benchmark seed and a label."""
    return random.Random(f"{seed}:{label}").randrange(1, 2 ** 31)


def serve_request_seeds(seed: int, count: int = SERVE_REQUESTS) -> List[int]:
    """Campaign seeds in request order: half new, half repeats of earlier ones.

    The first request is always new; the rest are a seeded shuffle of
    ``count // 2 - 1`` new seeds and ``count - count // 2`` repeats, each
    repeat drawn uniformly from the seeds already sent.
    """
    rng = random.Random(f"{seed}:serve-order")
    kinds = ["new"] * (count // 2 - 1) + ["repeat"] * (count - count // 2)
    rng.shuffle(kinds)
    seeds = [derive_seed(seed, "serve-0")]
    for index, kind in enumerate(kinds, start=1):
        if kind == "new":
            seeds.append(derive_seed(seed, f"serve-{index}"))
        else:
            seeds.append(rng.choice(seeds))
    return seeds


@dataclass
class Iteration:
    """One timed unit of work and everything checked about it."""

    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    modules: int = 0
    peak_rss_mb: float = 0.0
    units_run: int = 0
    units_retried: int = 0
    observations_passed: int = 0
    admit_s: List[float] = field(default_factory=list)
    exec_p50_s: float = 0.0
    rejected: int = 0
    #: Traced iterations: ``(spans_dir, main_pid, (start_ns, end_ns))``.
    traces: List[Tuple[str, int, Tuple[int, int]]] = field(
        default_factory=list)

    #: Set when a whole-output check failed: every operation counts.
    all_failed: bool = False

    def record(self, problems: List[str]) -> None:
        """One operation's problems; any problem fails the operation once."""
        if problems:
            self.problems.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return self.attempted if self.all_failed else len(self.problems)

    def pin(self, workload: str, observed: str,
            pins: Dict[str, str] = checks.PINNED_DIGESTS) -> None:
        problem = checks.pinned_mismatch(workload, observed, pins)
        if problem:
            self.problems.append(problem)
            self.all_failed = True


class Context:
    """Paths, environment and deadline shared by one benchmark invocation."""

    def __init__(self, root: str, deadline: float) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(".perfbench_work", str(os.getpid()))
        self.tmpdir = os.path.join(self.work, "tmp")
        os.makedirs(self.tmpdir, exist_ok=True)
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["TMPDIR"] = os.path.abspath(self.tmpdir)
        self.launcher = os.path.join(root, "perfbench", "launch.py")
        self.guard = procs.LeakGuard(self.tmpdir)
        self._serial = 0

    def fresh(self, label: str) -> str:
        """A new, not yet existing path under the work dir."""
        self._serial += 1
        return os.path.join(self.work, f"{label}-{self._serial}")

    def timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))

    def argv(self, args: List[str], spans_dir: Optional[str]) -> List[str]:
        if spans_dir is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, self.launcher, spans_dir, *args]

    def cli(self, args: List[str], spans_dir: Optional[str] = None
            ) -> Tuple[procs.Exit, str]:
        """Run one CLI command to completion; returns its exit and log path."""
        log = self.fresh("log") + ".txt"
        self.guard.before()
        try:
            exit_ = procs.run(self.argv(args, spans_dir), cwd=self.root,
                              env=self.env, log_path=log,
                              timeout_s=self.timeout())
        finally:
            self.guard.after()
        return exit_, log

    def spawn(self, args: List[str], spans_dir: Optional[str] = None
              ) -> procs.Program:
        return procs.Program(self.argv(args, spans_dir), cwd=self.root,
                             env=self.env, log_path=self.fresh("log") + ".txt")


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _exit_problems(label: str, exit_: procs.Exit) -> List[str]:
    if exit_.timed_out:
        return [f"{label}: timed out after {exit_.wall_s:.1f} s"]
    if exit_.returncode != 0:
        return [f"{label}: exit code {exit_.returncode}"]
    return []


_UNITS = re.compile(r"units:\s+(\d+) run, (\d+) retries")
_MODULES = re.compile(r"modules:\s+(\d+)/(\d+) completed .*?, (\d+) quarantined")
_OBSERVED = re.compile(rb"(\d+)/(\d+) observations reproduced")


class Workload:
    """Base: CLI workloads time ``deeprh list-modules`` as their setup."""

    name = ""

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx
        self.seed = seed
        #: Digest of this run's outputs, checked against the pinned one.
        self.output_digest: Optional[str] = None

    def setup(self) -> List[float]:
        samples = []
        for _ in range(SETUP_REPEATS):
            exit_, log = self.ctx.cli(["list-modules"])
            if _exit_problems("list-modules", exit_):
                raise SetupError(f"deeprh list-modules failed; see {log}")
            samples.append(exit_.wall_s)
        return samples

    def prepare(self) -> None:
        """Compute references (untimed)."""

    def iteration(self, traced: bool) -> Iteration:
        raise NotImplementedError

    def pin_applies(self) -> bool:
        return self.seed == DEFAULT_SEED

    def _trace_dir(self, traced: bool) -> Optional[str]:
        return self.ctx.fresh("spans") if traced else None


class ReproduceQuick(Workload):
    """``deeprh reproduce --preset quick``: all studies, figures, 16 checks."""

    name = "reproduce-quick"

    def pin_applies(self) -> bool:
        # The program seed is the calibrated one whatever --seed is.
        return True

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration(attempted=1)
        outdir = self.ctx.fresh("reproduce")
        spans_dir = self._trace_dir(traced)
        exit_, log = self.ctx.cli(
            ["reproduce", "--preset", "quick", "--seed", str(CALIBRATED_SEED),
             "--outdir", outdir], spans_dir)
        it.wall_s = exit_.wall_s
        it.latencies_s.append(exit_.wall_s)
        it.peak_rss_mb = exit_.maxrss_mb
        problems = _exit_problems("reproduce", exit_)
        scorecard = _read(os.path.join(outdir, "observations.txt")) or b""
        match = _OBSERVED.search(scorecard)
        it.observations_passed = int(match.group(1)) if match else 0
        if it.observations_passed != 16:
            problems.append(f"reproduce: {it.observations_passed}/16 "
                            "observations reproduced")
        parts = [_read(os.path.join(outdir, f"{study}.json")) or b""
                 for study in ("temperature", "acttime", "spatial")]
        for part in parts:
            try:
                it.modules += len(json.loads(part)["modules"])
            except (ValueError, KeyError):
                problems.append("reproduce: unreadable result JSON")
        it.record(problems)
        parts.append(scorecard)
        self.output_digest = checks.digest(parts)
        it.pin(self.name, self.output_digest)
        if spans_dir:
            it.traces.append((spans_dir, exit_.pid,
                              (exit_.start_ns, exit_.end_ns)))
        return it


class CampaignW2(Workload):
    """Parallel campaigns over the default data plane, one per study in
    :data:`CAMPAIGN_STUDIES`."""

    name = "campaign-w2"

    def prepare(self) -> None:
        self.references = checks.References()
        self.seeds = {study: derive_seed(self.seed, f"campaign-{study}")
                      for study in CAMPAIGN_STUDIES}
        self.expected = {
            study: self.references.saved_bytes(
                study, self.seeds[study], self.ctx.fresh(f"ref-{study}"))
            for study in CAMPAIGN_STUDIES}

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration()
        outputs = []
        for study in CAMPAIGN_STUDIES:
            it.attempted += 1
            checkpoint_dir = self.ctx.fresh(f"ckpt-{study}")
            saved = self.ctx.fresh(f"{study}") + ".json"
            spans_dir = self._trace_dir(traced)
            exit_, log = self.ctx.cli(
                ["campaign", study, "--preset", "quick",
                 "--seed", str(self.seeds[study]),
                 "--workers", str(CAMPAIGN_WORKERS),
                 "--checkpoint-dir", checkpoint_dir, "--save-json", saved],
                spans_dir)
            it.wall_s += exit_.wall_s
            it.latencies_s.append(exit_.wall_s)
            it.peak_rss_mb = max(it.peak_rss_mb, exit_.maxrss_mb)
            problems = _exit_problems(f"campaign {study}", exit_)
            text = (_read(log) or b"").decode(errors="replace")
            modules = _MODULES.search(text)
            if modules:
                it.modules += int(modules.group(1))
                if int(modules.group(3)):
                    problems.append(f"campaign {study}: "
                                    f"{modules.group(3)} quarantined")
            units = _UNITS.search(text)
            if units:
                it.units_run += int(units.group(1))
                it.units_retried += int(units.group(2))
            got = _read(saved)
            outputs.append(got or b"")
            problem = checks.mismatch(f"campaign {study} --save-json", got,
                                      self.expected[study])
            if problem:
                problems.append(problem)
            problems += checks.verify_checkpoints([checkpoint_dir])
            it.record(problems)
            if spans_dir:
                it.traces.append((spans_dir, exit_.pid,
                                  (exit_.start_ns, exit_.end_ns)))
        self.output_digest = checks.digest(outputs)
        if self.pin_applies():
            it.pin(self.name, self.output_digest)
        return it


class ServeClosed2c(Workload):
    """Small temperature campaigns from closed-loop clients of ``deeprh serve``."""

    name = "serve-closed-2c"

    def _serve_args(self, socket_path: str) -> List[str]:
        return ["serve", "--socket", socket_path,
                "--max-queue", str(SERVE_REQUESTS), "--drain-grace", "1"]

    def _start(self, spans_dir: Optional[str] = None
               ) -> Tuple[procs.Program, str, float]:
        """Spawn a server; returns it, its socket and spawn → pong seconds."""
        socket_path = self.ctx.fresh("sock")
        program = self.ctx.spawn(self._serve_args(socket_path), spans_dir)
        deadline = time.monotonic() + self.ctx.timeout()
        try:
            while True:
                try:
                    serveclient.ask(socket_path, {"op": "ping", "id": "p"},
                                    "pong", timeout_s=5.0)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    if time.monotonic() > deadline or program.exited():
                        raise SetupError("deeprh serve never answered a ping")
                    time.sleep(0.005)
        except BaseException:
            program.stop(5.0)
            raise
        return program, socket_path, \
            (time.monotonic_ns() - program.start_ns) / 1e9

    def setup(self) -> List[float]:
        samples = []
        for _ in range(SETUP_REPEATS):
            self.ctx.guard.before()
            program, _, ready_s = self._start()
            try:
                exit_ = program.stop(self.ctx.timeout())
            finally:
                self.ctx.guard.after()
            if _exit_problems("serve", exit_):
                raise SetupError("deeprh serve did not drain cleanly")
            samples.append(ready_s)
        return samples

    def prepare(self) -> None:
        self.references = checks.References()
        self.seeds = serve_request_seeds(self.seed)
        overrides = dict(SERVE_OVERRIDES)
        self.expected = {s: self.references.served_bytes(
            "temperature", s, overrides) for s in sorted(set(self.seeds))}
        wire_overrides = dict(overrides,
                              temperatures_c=list(overrides["temperatures_c"]))
        self.requests = [
            {"op": "campaign", "id": f"q{i}", "study": "temperature",
             "preset": "quick", "seed": s, "overrides": wire_overrides}
            for i, s in enumerate(self.seeds)]

    def iteration(self, traced: bool) -> Iteration:
        # Every request is an operation, and so is the server's own run.
        it = Iteration(attempted=len(self.requests) + 1)
        spans_dir = self._trace_dir(traced)
        self.ctx.guard.before()
        program, socket_path, _ = self._start(spans_dir)
        status: dict = {}
        outcomes: Optional[List[serveclient.Outcome]] = None
        try:
            outcomes = serveclient.closed_loop(
                socket_path, self.requests, SERVE_CLIENTS,
                timeout_s=self.ctx.timeout())
            status = serveclient.ask(socket_path, {"op": "status", "id": "s"},
                                     "status", timeout_s=30.0)
        except (OSError, ValueError) as error:
            print(f"serve client: {error}", file=sys.stderr)
            if outcomes is None:
                outcomes = [serveclient.Outcome(request=r, sent_ns=0)
                            for r in self.requests]
        finally:
            exit_ = program.stop(self.ctx.timeout())
            self.ctx.guard.after()
        sent = [o.sent_ns for o in outcomes if o.sent_ns]
        done = [o.done_ns for o in outcomes if o.done_ns]
        window = (min(sent) if sent else program.start_ns,
                  max(done) if done else time.monotonic_ns())
        it.wall_s = (window[1] - window[0]) / 1e9
        it.latencies_s = [o.latency_s for o in outcomes]
        it.peak_rss_mb = exit_.maxrss_mb
        it.admit_s = [(o.accepted_ns - o.sent_ns) / 1e9 for o in outcomes
                      if o.accepted_ns is not None]
        campaign_latency = status.get("latency", {}).get("campaign", {})
        it.exec_p50_s = campaign_latency.get("p50_ms", 0.0) / 1e3
        score_served(it, outcomes, self.expected)
        it.record(_exit_problems("serve", exit_))
        self.output_digest = checks.digest(
            o.result_bytes or b"" for o in outcomes)
        if self.pin_applies():
            it.pin(self.name, self.output_digest)
        if spans_dir:
            it.traces.append((spans_dir, program.pid, window))
        return it


def score_served(it: Iteration, outcomes: List[serveclient.Outcome],
                 expected: Dict[int, bytes]) -> None:
    """Fold served outcomes into ``it``: one failure per request that was
    rejected, errored, not ok, or whose result differs from its reference."""
    for outcome in outcomes:
        request_id = outcome.request["id"]
        if outcome.status == "rejected":
            it.rejected += 1
        if not outcome.ok:
            it.record([f"{request_id}: {outcome.status} "
                       f"{outcome.reason}".strip()])
            continue
        it.modules += int(outcome.stats.get("modules_completed", 0))
        it.units_run += int(outcome.stats.get("units_run", 0))
        it.units_retried += int(outcome.stats.get("units_retried", 0))
        problem = checks.mismatch(f"{request_id} result",
                                  outcome.result_bytes,
                                  expected[outcome.request["seed"]])
        it.record([problem] if problem else [])


WORKLOADS: Dict[str, Callable[[Context, int], Workload]] = {
    ReproduceQuick.name: ReproduceQuick,
    CampaignW2.name: CampaignW2,
    ServeClosed2c.name: ServeClosed2c,
}
