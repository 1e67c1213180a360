"""``deeprh top`` — a polling terminal view of a running service.

One frame per poll interval, composed from the service's own ``status``,
``health`` and ``metrics`` ops over the NDJSON socket: admission ledger,
governor rung and worker-pool losses, cache hit rates from the scrape
exposition, and per-op request latencies.  Rendering is a pure function
of the three payloads (:func:`render_frame`), so tests cover the view
without a terminal or a clock; the CLI loop around it only polls,
clears, and prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.expo import parse_prometheus


def _rate(samples: Dict[str, float], hit: str, miss: str) -> Optional[float]:
    hits = samples.get(hit, 0.0)
    total = hits + samples.get(miss, 0.0)
    return hits / total if total else None


def _fmt_rate(rate: Optional[float]) -> str:
    return f"{rate:.1%}" if rate is not None else "n/a"


def render_frame(status: Dict[str, Any], health: Dict[str, Any],
                 metrics_text: str, *, poll: int = 0) -> str:
    """One ``deeprh top`` frame from the three op payloads.

    Tolerant of missing fields — an older server (or a degraded one)
    renders a sparser frame, never a crash.
    """
    admission = status.get("admission", {})
    latency = status.get("latency", {})
    samples = parse_prometheus(metrics_text) if metrics_text else {}

    lines: List[str] = []
    lines.append(f"deeprh top — poll {poll}"
                 + ("  [DRAINING]" if status.get("draining") else ""))
    lines.append(
        f"  campaigns : {admission.get('running', 0)} running, "
        f"{admission.get('queued', 0)} queued "
        f"(capacity {admission.get('max_inflight', '?')}+"
        f"{admission.get('max_queue', '?')}); "
        f"{admission.get('completed', 0)} completed, "
        f"{admission.get('admitted', 0)} admitted")
    rejected = (admission.get("rejected_overloaded", 0)
                + admission.get("rejected_draining", 0)
                + admission.get("rejected_shed", 0))
    lines.append(
        f"  rejected  : {rejected} total "
        f"({admission.get('rejected_overloaded', 0)} overloaded, "
        f"{admission.get('rejected_shed', 0)} shed, "
        f"{admission.get('rejected_draining', 0)} draining)")
    governed = health.get("governed", status.get("governed", False))
    governor = health.get("governor", {})
    rung = status.get("governor_rung", governor.get("rung", "normal"))
    lines.append(f"  governor  : rung {rung}"
                 + ("" if governed else " (ungoverned)"))
    lines.append(
        f"  pool loss : {governor.get('pool_losses', 0)} since the last "
        f"recovery ({governor.get('escalations', 0)} escalation(s), "
        f"{governor.get('recoveries', 0)} recovery(ies))")
    lines.append(
        f"  cache     : {status.get('shared_cache_entries', 0)}/"
        f"{status.get('shared_cache_capacity', 0)} entries; hit rates: "
        f"oracle {_fmt_rate(_rate(samples, 'deeprh_oracle_cache_hit_total', 'deeprh_oracle_cache_miss_total'))}, "
        f"shared {_fmt_rate(_rate(samples, 'deeprh_oracle_shared_cache_hit_total', 'deeprh_oracle_shared_cache_miss_total'))}")
    lines.append(f"  conns     : {status.get('connections', 0)} connected, "
                 f"{status.get('trace_rotations', 0)} trace rotation(s), "
                 f"{status.get('faults_injected', 0)} fault(s) injected")
    if latency:
        lines.append("  latency   :")
        for op in sorted(latency):
            stats = latency[op]
            lines.append(
                f"    {op:10s} p50 {stats.get('p50_ms', 0.0):>8.2f}ms  "
                f"p95 {stats.get('p95_ms', 0.0):>8.2f}ms  "
                f"max {stats.get('max_ms', 0.0):>8.2f}ms  "
                f"({stats.get('count', 0)} req(s))")
    else:
        lines.append("  latency   : no requests observed yet")
    return "\n".join(lines)


def poll_once(client, *, poll: int = 0) -> str:
    """Gather one frame's payloads from a connected ServeClient."""
    status = client.status()
    health = client.health()
    metrics_text = client.metrics()
    return render_frame(status, health, metrics_text, poll=poll)
