"""Process-wide resource governor: the runtime's one degradation policy.

Long sensitivity sweeps (the paper's 272-chip characterization scaled into
a service) die ugly deaths under resource pressure: RSS creeps past the
cgroup limit, the descriptor table runs out under connection churn, the
checkpoint volume hits ENOSPC mid-publish, or the host keeps killing
worker pools.  Instead of crashing, the governor walks a fixed
**degradation ladder** — each rung trades throughput for head-room while
preserving byte-determinism (every module result is a pure function of
``(seed, spec)``; rungs only change *how* work is cached and scheduled,
never *what* is computed):

====  =============== ====================================================
rung  name            action
====  =============== ====================================================
0     normal          full configuration
1     shrink-caches   SharedMatrixCache / row caches clamp to a small
                      bound
2     serial          parallel dispatch stops; remaining modules run
                      in-process, in spec order
3     shed            ``deeprh serve`` refuses new campaigns with an
                      explicit 429-style ``shed`` verdict
4     park            the campaign checkpoints, publishes a resume
                      manifest (``parked.json``) and stops cleanly
====  =============== ====================================================

Budgets are compared against **injectable probes** (defaulting to
``/proc`` readers), so tests and chaos drills script pressure exactly;
the ``governor.rss:pressure`` fault site injects synthetic RSS pressure
through the same seeded :class:`~repro.faults.plan.FaultPlan` machinery
as every other failure mode.  Worker-pool losses are one more input
(:meth:`ResourceGovernor.record_pool_loss`): :data:`POOL_LOSS_LIMIT`
of them escalate to *serial*.  The governor never reads the wall
clock — escalation and recovery are paced by *assessment counts* (every
``assess_every`` ticks), keeping it legal outside the lint wallclock
allowlist and deterministic under test.
"""

from __future__ import annotations

import os
import shutil
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.obs import get_metrics, get_tracer

# Degradation-ladder rungs, mildest to last-resort.  Order is load-bearing:
# every escalation moves to the max of the rungs demanded by each breached
# budget, and recovery steps down one rung at a time.
RUNG_NORMAL = 0
RUNG_SHRINK_CACHES = 1
RUNG_SERIAL = 2
RUNG_SHED = 3
RUNG_PARK = 4

RUNG_NAMES = ("normal", "shrink-caches", "serial", "shed", "park")

#: Worker-pool losses (respawns) that escalate the ladder to *serial*.
POOL_LOSS_LIMIT = 3

#: Clamped cache bounds at rung *shrink-caches* and above: shared
#: matrix-cache entries and per-population row-cache rows.
SHRUNK_CACHE_ENTRIES = 64
SHRUNK_ROW_CACHE_ROWS = 64


def rung_name(rung: int) -> str:
    """Human label for a rung index (clamped into the ladder)."""
    return RUNG_NAMES[max(RUNG_NORMAL, min(int(rung), RUNG_PARK))]


_BUDGET_FIELDS = ("rss_bytes", "open_fds", "disk_free_bytes",
                  "cache_entries")


def _require_positive(kind: str, field: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"governor {kind} {field} must be a positive "
                          f"integer, got {value!r}")


@dataclass(frozen=True)
class GovernorBudgets:
    """Resource ceilings; ``None`` means "unlimited" for that resource.

    ``disk_free_bytes`` is a *floor* on free space in the checkpoint
    directory's filesystem (headroom), the others are ceilings on usage.
    """

    rss_bytes: Optional[int] = None
    open_fds: Optional[int] = None
    disk_free_bytes: Optional[int] = None
    cache_entries: Optional[int] = None

    def __post_init__(self) -> None:
        for field in _BUDGET_FIELDS:
            if getattr(self, field) is not None:
                _require_positive("budget", field, getattr(self, field))


@dataclass(frozen=True)
class GovernorPolicy:
    """Pacing of the ladder.

    ``assess_every`` spaces full probe assessments to one per N ticks
    (ticks are cheap and happen at unit/module/poll boundaries);
    ``recover_after`` consecutive all-clear assessments step the ladder
    down one rung.
    """

    assess_every: int = 8
    recover_after: int = 3

    def __post_init__(self) -> None:
        for field in ("assess_every", "recover_after"):
            _require_positive("policy", field, getattr(self, field))


class SystemProbes:
    """Default resource probes reading ``/proc`` and friends.

    Every reading is a plain integer; a probe that cannot read its source
    (non-Linux, restricted /proc) returns 0, which never breaches a
    budget — the governor degrades to "blind" on that axis rather than
    crashing the campaign it is supposed to protect.
    """

    def rss_bytes(self) -> int:
        try:
            with open("/proc/self/status", "r", encoding="ascii",
                      errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024
        except (OSError, ValueError, IndexError):
            pass
        try:
            import resource
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return int(usage.ru_maxrss) * 1024
        except Exception:
            return 0

    def open_fds(self) -> int:
        try:
            return len(sorted(os.listdir("/proc/self/fd")))
        except OSError:
            return 0

    def disk_free_bytes(self, path: str) -> int:
        try:
            return int(shutil.disk_usage(path).free)
        except OSError:
            return 0

    def cache_entries(self) -> int:
        from repro.faultmodel.batch import shared_matrix_cache
        cache = shared_matrix_cache()
        return len(cache) if cache is not None else 0


#: Minimum rung demanded by a breach of each budget axis.  RSS is absent:
#: memory pressure escalates *progressively* (one rung per breached
#: assessment) because any rung sheds some memory, while the other axes
#: map straight to the rung that relieves them.
_BREACH_RUNGS = {
    "cache_entries": RUNG_SHRINK_CACHES,
    "open_fds": RUNG_SERIAL,
    "disk_free_bytes": RUNG_SHED,
}


class ResourceGovernor:
    """Tracks budgets against probes and drives the degradation ladder.

    Thread-safe: ``deeprh serve`` ticks it from the event loop's health
    task while campaign threads tick it at module boundaries.  All state
    transitions are recorded (bounded) and mirrored to obs counters and
    the ``governor.rung`` gauge.

    Constructed without ``budgets`` it is *ungoverned*: it probes no
    budget axis, a checkpoint ENOSPC is not its business (the campaign
    fails instead of parking), and only pool losses move it, at most to
    *serial*.  An ungoverned ``deeprh serve`` holds exactly this.
    """

    #: Transition-history bound: enough to show a full climb and descent.
    MAX_TRANSITIONS = 32

    def __init__(self, budgets: Optional[GovernorBudgets] = None,
                 probes: Optional[SystemProbes] = None,
                 policy: Optional[GovernorPolicy] = None,
                 faults=None, disk_path: Optional[str] = None) -> None:
        self._governed = budgets is not None
        self.budgets = budgets if budgets is not None else GovernorBudgets()
        self.probes = probes if probes is not None else SystemProbes()
        self.policy = policy if policy is not None else GovernorPolicy()
        self.faults = faults
        self.disk_path = disk_path
        self._lock = threading.Lock()
        self._rung = RUNG_NORMAL
        self._floor = RUNG_NORMAL
        self._peak = RUNG_NORMAL
        self._ticks = 0
        self._assessments = 0
        self._clear_streak = 0
        self._escalations = 0
        self._recoveries = 0
        self._pool_losses = 0
        #: Shared-cache bound before the first in-place shrink (restored
        #: on recovery below *shrink-caches*).
        self._unshrunk_entries: Optional[int] = None
        self._transitions: List[Dict[str, object]] = []
        self._last_readings: Dict[str, Dict[str, object]] = {}

    @property
    def governed(self) -> bool:
        """False only for the budget-less governor (no ``budgets``)."""
        return self._governed

    # -- probe plumbing -------------------------------------------------
    def attach_disk_path(self, path: Optional[str]) -> None:
        """Point the disk-headroom probe at the checkpoint directory."""
        with self._lock:
            self.disk_path = path

    def _read(self) -> Dict[str, Dict[str, object]]:
        """One reading per budget axis: value, budget, breached flag.

        Only axes with a budget are probed; disk headroom is a floor, the
        others are ceilings.
        """
        readings: Dict[str, Dict[str, object]] = {}
        for axis in _BUDGET_FIELDS:
            budget = getattr(self.budgets, axis)
            value, breached = 0, False
            if budget is not None and axis == "disk_free_bytes":
                if self.disk_path:
                    value = self.probes.disk_free_bytes(self.disk_path)
                    breached = value < budget
            elif budget is not None:
                value = getattr(self.probes, axis)()
                breached = value > budget
            readings[axis] = {"value": int(value), "budget": budget,
                              "breached": bool(breached)}
        return readings

    # -- ladder mechanics ----------------------------------------------
    def _transition(self, rung: int, direction: str, reason: str) -> None:
        """Record a rung change (caller holds the lock)."""
        entry = {"assessment": self._assessments,
                 "from": rung_name(self._rung), "to": rung_name(rung),
                 "direction": direction, "reason": reason}
        self._rung = rung
        self._peak = max(self._peak, rung)
        if direction == "escalations":
            self._escalations += 1
        else:
            self._recoveries += 1
        self._transitions.append(entry)
        del self._transitions[:-self.MAX_TRANSITIONS]
        metrics = get_metrics()
        metrics.counter(f"governor.{direction}").inc()
        metrics.gauge("governor.rung").set(rung)

    def tick(self) -> int:
        """Cheap heartbeat; runs a full assessment every ``assess_every``.

        Returns the (possibly updated) current rung.
        """
        with self._lock:
            self._ticks += 1
            due = self._ticks % self.policy.assess_every == 0
        if due:
            self.assess()
        return self.rung()

    def assess(self) -> int:
        """Probe every budget axis and walk the ladder; returns the rung."""
        with self._lock:
            self._assessments += 1
            index = self._assessments
        event = None
        if self.faults is not None:
            event = self.faults.roll("governor.rss", f"assess{index}")
        with get_tracer().span("governor.assess", assessment=index):
            readings = self._read()
            with self._lock:
                if event is not None:
                    # Synthetic RSS pressure: force the axis breached with
                    # a reading visibly above budget (or the probe value
                    # when no budget is configured).
                    budget = self.budgets.rss_bytes
                    forced = (budget * 2) if budget else (1 << 40)
                    readings["rss_bytes"] = {
                        "value": forced, "budget": budget, "breached": True}
                self._last_readings = readings
                reasons = []
                target = self._floor
                for axis, reading in readings.items():
                    if not reading["breached"]:
                        continue
                    if axis == "rss_bytes":
                        demanded = min(self._rung + 1, RUNG_PARK)
                    else:
                        demanded = _BREACH_RUNGS[axis]
                    reasons.append(
                        f"{axis} {reading['value']} vs budget "
                        f"{reading['budget']}")
                    target = max(target, demanded)
                if reasons:
                    self._clear_streak = 0
                    if target > self._rung:
                        self._transition(target, "escalations",
                                         "; ".join(reasons))
                else:
                    self._clear_streak += 1
                    if (self._clear_streak >= self.policy.recover_after
                            and self._rung > self._floor):
                        self._clear_streak = 0
                        self._pool_losses = 0
                        self._transition(
                            self._rung - 1, "recoveries",
                            f"{self.policy.recover_after} clear "
                            "assessments")
                get_metrics().gauge("governor.rung").set(self._rung)
                return self._rung

    # -- out-of-band escalations ---------------------------------------
    def record_enospc(self, detail: str = "") -> None:
        """A checkpoint publish hit ENOSPC: latch the ladder at *park*.

        Retrying the publish would tear the very state a resume depends
        on; parking (with whatever is already durable) is the only safe
        response.
        """
        with self._lock:
            self._floor = max(self._floor, RUNG_PARK)
            if self._rung < RUNG_PARK:
                self._transition(RUNG_PARK, "escalations",
                                 f"checkpoint ENOSPC {detail}".strip())
            get_metrics().counter("governor.enospc").inc()

    def record_pool_loss(self) -> None:
        """A worker pool was lost and respawned: one more pressure signal.

        Losses count until a clear streak steps the ladder down.  The
        :data:`POOL_LOSS_LIMIT`-th loss escalates to *serial*, where no
        pool exists to lose; so does any loss while the ladder is still
        recovering above *normal*.  A loss also restarts the clear streak.
        """
        with self._lock:
            self._pool_losses += 1
            self._clear_streak = 0
            get_metrics().counter("governor.pool_losses").inc()
            if self._rung < RUNG_SERIAL and (
                    self._pool_losses >= POOL_LOSS_LIMIT
                    or self._rung > RUNG_NORMAL):
                self._transition(RUNG_SERIAL, "escalations",
                                 f"{self._pool_losses} worker-pool loss(es)")

    # -- ladder queries -------------------------------------------------
    def rung(self) -> int:
        with self._lock:
            return self._rung

    def peak_rung(self) -> int:
        with self._lock:
            return self._peak

    def effective_workers(self, requested: int) -> int:
        return 1 if self.rung() >= RUNG_SERIAL else requested

    def cache_entries_for(self, requested: Optional[int]) -> Optional[int]:
        if self.rung() < RUNG_SHRINK_CACHES:
            return requested
        return SHRUNK_CACHE_ENTRIES if requested is None \
            else min(requested, SHRUNK_CACHE_ENTRIES)

    def row_cache_rows_for(self, requested: Optional[int]) -> Optional[int]:
        if self.rung() < RUNG_SHRINK_CACHES:
            return requested
        return SHRUNK_ROW_CACHE_ROWS if requested is None \
            else min(requested, SHRUNK_ROW_CACHE_ROWS)

    def should_shed(self) -> bool:
        return self.rung() >= RUNG_SHED

    def should_park(self) -> bool:
        return self.rung() >= RUNG_PARK

    def apply_cache_policy(self) -> None:
        """Clamp (or restore) the installed shared matrix cache in place.

        A long-lived service cannot wait for the next campaign to build
        a smaller cache; memory must come back now.  Idempotent per rung:
        at *shrink-caches* and above the cache is resized down once
        (evicting immediately); once the ladder recovers below it the
        original bound is restored and entries refill lazily.  No
        installed cache is a no-op.
        """
        from repro.faultmodel.batch import shared_matrix_cache
        cache = shared_matrix_cache()
        shrunk = self.cache_entries_for(None)
        with self._lock:
            if cache is None:
                return
            if shrunk is not None:
                if self._unshrunk_entries is None:
                    self._unshrunk_entries = cache.entries
                target = min(cache.entries, shrunk)
            else:
                target = max(cache.entries, self._unshrunk_entries or 0)
                self._unshrunk_entries = None
            if target == cache.entries:
                return
            evicted = cache.resize(target)
        metrics = get_metrics()
        if shrunk is None:
            metrics.counter("serve.cache.restored").inc()
        else:
            metrics.counter("serve.cache.shrunk").inc()
            if evicted:
                metrics.counter("serve.cache.shrink_evictions").inc(evicted)
        # The post-resize bound, so a scrape shows governor shrinks
        # without correlating counter deltas.
        metrics.gauge("serve.cache.resize.capacity").set(cache.entries)
        metrics.gauge("serve.cache.resize.occupancy").set(len(cache))

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state dump for status/health responses and outcomes."""
        with self._lock:
            return {
                "rung": rung_name(self._rung),
                "rung_index": self._rung,
                "peak_rung": rung_name(self._peak),
                "floor": rung_name(self._floor),
                "ticks": self._ticks,
                "assessments": self._assessments,
                "escalations": self._escalations,
                "recoveries": self._recoveries,
                "pool_losses": self._pool_losses,
                "readings": {axis: dict(reading) for axis, reading
                             in self._last_readings.items()},
                "transitions": [dict(t) for t in self._transitions],
            }

    def render(self) -> str:
        snap = self.snapshot()
        lines = [f"governor: rung {snap['rung']} "
                 f"(peak {snap['peak_rung']}, floor {snap['floor']}, "
                 f"{snap['assessments']} assessment(s))"]
        for transition in snap["transitions"]:
            lines.append(
                f"  {transition['direction'][:-1]} at assessment "
                f"{transition['assessment']}: {transition['from']} -> "
                f"{transition['to']} ({transition['reason']})")
        return "\n".join(lines)


def build_governor(config=None, *, enabled: bool = False,
                   rss_budget_mb: Optional[int] = None,
                   fd_budget: Optional[int] = None,
                   disk_headroom_mb: Optional[int] = None,
                   cache_entry_budget: Optional[int] = None,
                   probes: Optional[SystemProbes] = None,
                   faults=None) -> Optional[ResourceGovernor]:
    """Assemble a governor from pyproject config plus CLI overrides.

    Returns ``None`` when governance is neither enabled nor implied by a
    budget flag — ungoverned campaigns must pay zero overhead.  MB-scale
    knobs (config and flags) convert to bytes here, once.
    """
    def pick(flag: Optional[int], key: str) -> Optional[int]:
        if flag is not None:
            return flag
        return getattr(config, key, None) if config is not None else None

    rss_mb = pick(rss_budget_mb, "rss_budget_mb")
    fds = pick(fd_budget, "fd_budget")
    disk_mb = pick(disk_headroom_mb, "disk_headroom_mb")
    entries = pick(cache_entry_budget, "cache_entry_budget")
    flagged = any(value is not None for value in
                  (rss_budget_mb, fd_budget, disk_headroom_mb,
                   cache_entry_budget))
    if not enabled and not flagged:
        return None
    budgets = GovernorBudgets(
        rss_bytes=rss_mb * 1024 * 1024 if rss_mb is not None else None,
        open_fds=fds,
        disk_free_bytes=disk_mb * 1024 * 1024
        if disk_mb is not None else None,
        cache_entries=entries)
    policy_kwargs = {}
    for key in ("assess_every", "recover_after"):
        value = getattr(config, key, None) if config is not None else None
        if value is not None:
            policy_kwargs[key] = value
    policy = GovernorPolicy(**policy_kwargs) if policy_kwargs else None
    return ResourceGovernor(budgets=budgets, probes=probes, policy=policy,
                            faults=faults)
