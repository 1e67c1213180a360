"""The NDJSON wire protocol of ``deeprh serve``.

One request or response per line, UTF-8 JSON, ``\\n``-terminated, over a
Unix domain socket.  Requests carry an ``op`` plus a client-chosen ``id``
echoed on every response, so one connection can interleave campaigns.

Requests::

    {"op": "campaign", "id": "r1", "study": "temperature",
     "preset": "quick", "seed": 7, "overrides": {"rows_per_region": 10},
     "workers": 2, "deadline_s": 120.0,
     "checkpoint_dir": "/ckpt/r1", "resume": false,
     "fault_plan": "campaign.unit=0.05", "fault_seed": 7}
    {"op": "cancel", "id": "r1"}
    {"op": "status", "id": "s1"}
    {"op": "health", "id": "h1"}
    {"op": "metrics", "id": "m1"}
    {"op": "ping", "id": "p1"}

Responses (``event`` discriminates)::

    {"event": "accepted", "id": "r1"}
    {"event": "rejected", "id": "r1", "reason": "overloaded", "detail": ...}
    {"event": "module",  "id": "r1", "module_id": "A0", "resumed": false,
     "payload": {...}}
    {"event": "progress", "id": "r1", "module_id": "A0", "done": 1,
     "total": 4, "flips": 128, "rung": "full"}
    {"event": "metrics", "id": "m1", "content_type": "text/plain; ...",
     "text": "# TYPE deeprh_... counter\\n..."}
    {"event": "result",  "id": "r1", "ok": true, "degraded": false,
     "result": {...}, "report": "...", "stats": {...}}
    {"event": "error",   "id": "r1", "reason": "deadline", "detail": ...}
    {"event": "status",  "id": "s1", ...}
    {"event": "health",  "id": "h1", "governed": false,
     "governor": {"rung": "serial", "pool_losses": 3, ...},
     "admission": {...}, "draining": false}
    {"event": "pong",    "id": "p1"}

Rejection reasons are :data:`REASON_OVERLOADED`, :data:`REASON_DRAINING`,
:data:`REASON_SHED` (the resource governor's 429-style load-shedding
verdict) and :data:`REASON_BAD_REQUEST` (plus :data:`REASON_INJECTED`
under a ``serve.request:reject`` fault).  Every response is encoded
canonically —
sorted keys, no whitespace — so "identical result bytes" is a property of
the wire, not of any particular JSON emitter.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core import config as config_mod
from repro.core.config import StudyConfig
from repro.errors import ConfigError

#: Studies the campaign runner knows how to drive.
STUDIES = ("temperature", "acttime", "spatial")

#: Request ops.
OPS = ("campaign", "cancel", "status", "health", "metrics", "ping")

#: Rejection reasons.
REASON_OVERLOADED = "overloaded"
REASON_DRAINING = "draining"
REASON_BAD_REQUEST = "bad-request"
REASON_INJECTED = "injected"
#: The resource governor is shedding load (degradation-ladder rung
#: ``shed`` or worse); retry once the ``health`` op reports recovery.
REASON_SHED = "shed"

#: Error-event reasons for accepted requests that did not produce a result.
ERROR_DEADLINE = "deadline"
ERROR_CANCELLED = "cancelled"
ERROR_DRAIN = "drain"
ERROR_ABORTED = "aborted"
ERROR_INTERNAL = "internal"
#: The governor parked the campaign on its checkpoints; resubmit with the
#: same checkpoint_dir and resume=true once resources recover.
ERROR_PARKED = "parked"

_TUPLE_FIELDS = ("temperatures_c", "t_agg_on_grid_ns", "t_agg_off_grid_ns")
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(StudyConfig))


class ProtocolError(ConfigError):
    """A request line the service cannot honor; maps to ``bad-request``."""


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignRequest:
    """One validated campaign submission."""

    id: str
    study: str
    config: StudyConfig
    workers: int = 1
    deadline_s: Optional[float] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    fault_plan: Optional[str] = None
    fault_seed: Optional[int] = None
    #: Client opted into request-scoped tracing (spans exported to the
    #: service's ``--trace`` directory; a no-op when tracing is off).
    trace: bool = False

    def describe(self) -> Dict[str, Any]:
        """Resubmittable request dict (for the drain resume manifest).

        The config is emitted as ``preset`` + ``seed`` + the overrides
        that differ from that preset, so resubmitting the entry rebuilds
        the *exact* configuration the request ran with — a resumed
        checkpoint directory refuses any other fingerprint.
        """
        preset_name = self.config.name \
            if self.config.name in config_mod.PRESETS else "quick"
        base = config_mod.preset(preset_name)
        overrides: Dict[str, Any] = {}
        for field in dataclasses.fields(StudyConfig):
            if field.name == "seed":
                continue
            value = getattr(self.config, field.name)
            if value != getattr(base, field.name):
                overrides[field.name] = list(value) \
                    if isinstance(value, tuple) else value
        payload: Dict[str, Any] = {
            "op": "campaign", "id": self.id, "study": self.study,
            "preset": preset_name, "seed": self.config.seed,
            "workers": self.workers,
        }
        if overrides:
            payload["overrides"] = overrides
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        if self.checkpoint_dir is not None:
            payload["checkpoint_dir"] = self.checkpoint_dir
            payload["resume"] = True
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan
        if self.fault_seed is not None:
            payload["fault_seed"] = self.fault_seed
        if self.trace:
            payload["trace"] = True
        return payload


def parse_line(raw: str) -> Dict[str, Any]:
    """Decode one request line into a dict with a valid ``op`` and ``id``."""
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request needs a non-empty string 'id'")
    return payload


def build_campaign_request(payload: Dict[str, Any]) -> CampaignRequest:
    """Validate a ``campaign`` op into a typed request.

    Raises :class:`ProtocolError` (a :class:`~repro.errors.ConfigError`)
    with a client-presentable message on any invalid field.
    """
    study = payload.get("study")
    if study not in STUDIES:
        raise ProtocolError(f"unknown study {study!r}; "
                            f"choose from {STUDIES}")
    preset = payload.get("preset", "quick")
    if preset not in config_mod.PRESETS:
        raise ProtocolError(f"unknown preset {preset!r}; choose from "
                            f"{sorted(config_mod.PRESETS)}")
    config = config_mod.preset(preset)
    overrides = dict(payload.get("overrides") or {})
    seed = payload.get("seed")
    if seed is not None:
        overrides["seed"] = int(seed)
    for name, value in list(overrides.items()):
        if name not in _CONFIG_FIELDS:
            raise ProtocolError(f"unknown config override {name!r}")
        if name in _TUPLE_FIELDS:
            overrides[name] = tuple(float(v) for v in value)
    try:
        if overrides:
            config = config.scaled(**overrides)
    except (ConfigError, TypeError, ValueError) as error:
        raise ProtocolError(f"bad config overrides: {error}") from None
    workers = int(payload.get("workers", 1))
    if workers < 1:
        raise ProtocolError("workers must be >= 1")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        deadline_s = float(deadline_s)
        if deadline_s <= 0:
            raise ProtocolError("deadline_s must be positive")
    fault_seed = payload.get("fault_seed")
    return CampaignRequest(
        id=payload["id"], study=study, config=config, workers=workers,
        deadline_s=deadline_s,
        checkpoint_dir=payload.get("checkpoint_dir"),
        resume=bool(payload.get("resume", False)),
        fault_plan=payload.get("fault_plan"),
        fault_seed=int(fault_seed) if fault_seed is not None else None,
        trace=bool(payload.get("trace", False)))


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode(event: Dict[str, Any]) -> bytes:
    """Canonical NDJSON bytes: sorted keys, compact separators."""
    return (json.dumps(event, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def canonical_result_bytes(result_dict: Dict[str, Any]) -> bytes:
    """The byte-determinism contract: one canonical encoding of a result.

    ``deeprh campaign --save-json``, the serve ``result`` event and the
    smoke/bench tools all compare results through this function, so
    "byte-identical" means the same thing everywhere.
    """
    return json.dumps(result_dict, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def accepted(request_id: str) -> Dict[str, Any]:
    return {"event": "accepted", "id": request_id}


def rejected(request_id: str, reason: str, detail: str = "") -> Dict[str, Any]:
    return {"event": "rejected", "id": request_id, "reason": reason,
            "detail": detail}


def module_event(request_id: str, module_id: str, payload: Dict[str, Any],
                 resumed: bool) -> Dict[str, Any]:
    return {"event": "module", "id": request_id, "module_id": module_id,
            "resumed": bool(resumed), "payload": payload}


def result_event(request_id: str, *, ok: bool, degraded: bool,
                 result: Dict[str, Any], report: str,
                 stats: Dict[str, Any]) -> Dict[str, Any]:
    return {"event": "result", "id": request_id, "ok": bool(ok),
            "degraded": bool(degraded), "result": result,
            "report": report, "stats": stats}


def progress_event(request_id: str, *, module_id: str, done: int,
                   total: int, flips: int, rung: str) -> Dict[str, Any]:
    """Streamed after each finished module: how far along a campaign is."""
    return {"event": "progress", "id": request_id, "module_id": module_id,
            "done": int(done), "total": int(total), "flips": int(flips),
            "rung": rung}


def metrics_event(request_id: str, text: str,
                  content_type: str) -> Dict[str, Any]:
    """The scrape exposition, answered to the ``metrics`` op."""
    return {"event": "metrics", "id": request_id,
            "content_type": content_type, "text": text}


def error_event(request_id: str, reason: str, detail: str = "") -> Dict[str, Any]:
    return {"event": "error", "id": request_id, "reason": reason,
            "detail": detail}


def status_event(request_id: str, **fields: Any) -> Dict[str, Any]:
    event: Dict[str, Any] = {"event": "status", "id": request_id}
    event.update(fields)
    return event


def health_event(request_id: str, **fields: Any) -> Dict[str, Any]:
    event: Dict[str, Any] = {"event": "health", "id": request_id}
    event.update(fields)
    return event


def pong(request_id: str) -> Dict[str, Any]:
    return {"event": "pong", "id": request_id}
