"""Seeded fault plans: *when* and *how* the simulated rig misbehaves.

The real infrastructure behind the paper — FPGA SoftMC boards, a Maxwell
FT200 thermal chamber, thermocouples taped to DIMMs — drifts, hangs and
drops sessions over the weeks a 272-chip characterization takes.  This
module decides deterministically (via :class:`repro.rng.SeedSequenceTree`)
at which *opportunities* those failures occur, so a fault-injected campaign
is exactly reproducible from its seed.

A :class:`FaultPlan` holds one or more :class:`FaultSpec` entries, each
bound to an injection *site* (see :data:`SITES`).  Substrate components and
the campaign runner call :meth:`FaultPlan.roll` at their hook points; a
returned :class:`FaultEvent` means "misbehave now", and every fired event
is recorded in a structured :class:`FaultLog`.

Determinism has two layers:

* the *decision* for a given ``(site, kind, key)`` is a pure function of
  the plan seed — independent of call order, so a resumed campaign that
  skips completed modules sees identical faults for the remaining ones;
* the ``after`` / ``max_fires`` windows count opportunities per spec, which
  *is* call-order dependent and intended for tests and kill-switches
  ("crash exactly once, after the fifth unit").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.rng import DEFAULT_SEED, PathPart, SeedSequenceTree

#: Injection sites and the failure kinds each supports.  The first kind is
#: the default used by the ``site=rate`` shorthand of :func:`parse_fault_plan`.
SITES: Dict[str, Tuple[str, ...]] = {
    # Thermal chamber: settle loop hangs past its timeout, or reports a
    # "settled" temperature that overshot the tolerance band.
    "thermal.settle": ("timeout", "overshoot"),
    # Thermocouple opens (dropout) mid-read.
    "thermal.sensor": ("dropout",),
    # Host <-> FPGA session drops and resets mid-hammer.
    "softmc.session": ("reset",),
    # A read-back burst comes back corrupted on the bus.
    "softmc.readback": ("corrupt",),
    # The instruction sequencer sporadically violates a timing constraint.
    "softmc.timing": ("violation",),
    # ... or issues a command illegal in the current bank state.
    "softmc.protocol": ("illegal",),
    # Campaign-level unit-of-work faults: a retryable abort, or a fatal
    # "crash" that the retry layer refuses to absorb (simulated power cut).
    "campaign.unit": ("abort", "crash"),
    # Worker-process faults for chaos-testing the parallel supervisor: the
    # worker process dies outright (SIGKILL-style, breaking its pool) or
    # hangs for ``magnitude`` seconds (default: effectively forever).  Only
    # rolled inside worker processes, keyed by (module_id, dispatch), so a
    # requeued module re-rolls and the campaign converges.
    "campaign.worker": ("crash", "hang"),
    # Checkpoint publish fails mid-write with a full disk (ENOSPC): the
    # temp file is left torn and the raise must not leak it nor journal
    # an unverifiable entry.  Keyed by (module_id, publish-count).
    "checkpoint.publish": ("enospc",),
    # Service-level faults for chaos-testing `deeprh serve`: an incoming
    # connection is dropped before its first request is read ("drop") or
    # the accept path hits a transient descriptor-exhaustion error that
    # the loop must survive ("emfile"); an accepted request is rejected
    # (429-style) or aborted mid-run; or one streamed response write
    # fails like a closed peer socket.
    "serve.accept": ("drop", "emfile"),
    "serve.request": ("reject", "abort"),
    "serve.stream": ("drop",),
    # Resource-governor fault: one assessment observes synthetic RSS
    # pressure above budget, forcing the degradation ladder to climb one
    # rung.  Rolled in the parent (or service) process only, keyed by the
    # assessment counter.
    "governor.rss": ("pressure",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One configured failure mode at one injection site.

    ``rate`` is the per-opportunity firing probability.  ``match``
    restricts firing to opportunities whose key contains the substring
    (useful to target one module).  ``after`` arms the spec only from the
    ``after+1``-th matching opportunity on, and ``max_fires`` caps the
    total number of fires (``None`` = unlimited).  ``magnitude`` is
    kind-specific (e.g. the overshoot in degC).
    """

    site: str
    kind: str = ""
    rate: float = 1.0
    magnitude: float = 0.0
    match: str = ""
    after: int = 0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; choose from {sorted(SITES)}")
        kind = self.kind or SITES[self.site][0]
        object.__setattr__(self, "kind", kind)
        if kind not in SITES[self.site]:
            raise ConfigError(
                f"site {self.site!r} has no fault kind {kind!r}; "
                f"choose from {SITES[self.site]}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.after < 0:
            raise ConfigError("after must be >= 0")
        if self.max_fires is not None and self.max_fires <= 0:
            raise ConfigError("max_fires must be positive (or None)")


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: what happened, where, and at which opportunity."""

    site: str
    kind: str
    key: Tuple[PathPart, ...]
    magnitude: float = 0.0

    @property
    def key_str(self) -> str:
        return "/".join(str(part) for part in self.key)

    def __str__(self) -> str:
        return f"{self.site}:{self.kind}@{self.key_str}"


class FaultLog:
    """Structured, append-only record of every injected fault."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def count(self, site: Optional[str] = None,
              kind: Optional[str] = None) -> int:
        return sum(1 for e in self.events
                   if (site is None or e.site == site)
                   and (kind is None or e.kind == kind))

    def by_site_kind(self) -> Dict[str, int]:
        """``{"site/kind": fires}`` histogram for reports."""
        histogram: Dict[str, int] = {}
        for event in self.events:
            label = f"{event.site}/{event.kind}"
            histogram[label] = histogram.get(label, 0) + 1
        return dict(sorted(histogram.items()))

    def to_dicts(self) -> List[Dict[str, object]]:
        return [
            {"site": e.site, "kind": e.kind, "key": list(e.key),
             "magnitude": e.magnitude}
            for e in self.events
        ]

    def render(self) -> str:
        if not self.events:
            return "no faults injected"
        lines = [f"{len(self.events)} fault(s) injected:"]
        for label, fires in self.by_site_kind().items():
            lines.append(f"  {label}: {fires}")
        return "\n".join(lines)


class _SpecState:
    __slots__ = ("opportunities", "fires")

    def __init__(self) -> None:
        self.opportunities = 0
        self.fires = 0


class FaultPlan:
    """Deterministic schedule of substrate faults for one campaign."""

    def __init__(self, seed: int = DEFAULT_SEED,
                 specs: Sequence[FaultSpec] = (),
                 log: Optional[FaultLog] = None) -> None:
        self.seed = int(seed)
        self.tree = SeedSequenceTree(self.seed, "faults")
        self.specs = tuple(specs)
        self.log = log if log is not None else FaultLog()
        self._by_site: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(self.specs):
            self._by_site.setdefault(spec.site, []).append((index, spec))
        self._state = [_SpecState() for _ in self.specs]

    # ------------------------------------------------------------------
    def roll(self, site: str, *key: PathPart) -> Optional[FaultEvent]:
        """One opportunity at ``site``; returns the fault to inject, if any.

        The random decision depends only on ``(seed, site, kind, key)``, so
        callers keying opportunities structurally (unit id, attempt number,
        per-component counters) get order-independent, resumable plans.
        """
        specs = self._by_site.get(site)
        if not specs:
            return None
        key_str = "/".join(str(part) for part in key)
        for index, spec in specs:
            if spec.match and spec.match not in key_str:
                continue
            state = self._state[index]
            state.opportunities += 1
            if state.opportunities <= spec.after:
                continue
            if spec.max_fires is not None and state.fires >= spec.max_fires:
                continue
            if spec.rate < 1.0:
                gen = self.tree.generator(site, spec.kind, *key)
                if gen.random() >= spec.rate:
                    continue
            state.fires += 1
            event = FaultEvent(site=site, kind=spec.kind, key=tuple(key),
                               magnitude=spec.magnitude)
            self.log.record(event)
            return event
        return None

    def fires(self, site: Optional[str] = None) -> int:
        """Total faults fired so far (optionally at one site)."""
        return self.log.count(site=site)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, "
                f"fired={len(self.log)})")


def parse_fault_plan(text: str, seed: int = DEFAULT_SEED) -> FaultPlan:
    """Build a plan from a compact CLI spec.

    Comma-separated ``site[:kind]=rate[@magnitude]`` tokens, e.g.::

        campaign.unit=0.1,thermal.settle:overshoot=0.25
        campaign.worker:hang=0.05@30

    Omitting ``kind`` selects the site's default (first) kind; the
    optional ``@magnitude`` is kind-specific (overshoot in degC, hang
    duration in seconds).
    """
    specs: List[FaultSpec] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ConfigError(
                f"bad fault token {token!r}; expected "
                "site[:kind]=rate[@magnitude]")
        name, _, value_text = token.partition("=")
        site, _, kind = name.strip().partition(":")
        rate_text, _, magnitude_text = value_text.partition("@")
        try:
            rate = float(rate_text)
            magnitude = float(magnitude_text) if magnitude_text else 0.0
        except ValueError:
            raise ConfigError(
                f"bad fault rate/magnitude {value_text!r} in token "
                f"{token!r}") from None
        specs.append(FaultSpec(site=site, kind=kind.strip(), rate=rate,
                               magnitude=magnitude))
    if not specs:
        raise ConfigError(f"fault plan spec {text!r} names no faults")
    return FaultPlan(seed=seed, specs=specs)
