"""Read trace directories back into per-phase breakdowns and tables.

Backs the ``deeprh trace`` subcommand::

    deeprh trace summarize DIR      # per-phase wall-clock + metric tables
    deeprh trace slowest DIR        # top-N slowest individual spans
    deeprh trace export DIR --format json|csv

``DIR`` is a ``--trace`` output directory holding ``trace.jsonl`` (one
span per line) and optionally ``metrics.json``; a bare ``*.jsonl`` file
is accepted anywhere a directory is.  Spans are grouped by name — span
names *are* the phase taxonomy (``campaign.module``, ``campaign.unit``,
``checkpoint.publish``, ``oracle.matrix_build``, ``supervisor.module``,
…) — and every table is sorted by total time then name, so identical
traces always render identically.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigError
from repro.obs.metrics import hit_rate
from repro.obs.trace import METRICS_FILENAME, TRACE_FILENAME
from repro.units import NS_PER_MS, NS_PER_S

PathLike = Union[str, pathlib.Path]


def _trace_file(path: PathLike) -> pathlib.Path:
    node = pathlib.Path(path)
    if node.is_dir():
        node = node / TRACE_FILENAME
    if not node.is_file():
        raise ConfigError(
            f"no trace found at {node}; expected a --trace output "
            f"directory (containing {TRACE_FILENAME}) or a .jsonl file")
    return node


def _trace_segments(path: PathLike) -> List[pathlib.Path]:
    """Every segment of a trace, oldest first.

    A long-lived ``deeprh serve --trace DIR`` rotates its span stream
    into ``trace.jsonl.N`` segments (larger N = older); reading them
    before the live ``trace.jsonl`` restores file order across the whole
    retained history.  A bare ``*.jsonl`` path is its own single segment.
    """
    live = _trace_file(path)
    rotated = []
    index = 1
    while True:
        segment = live.parent / f"{live.name}.{index}"
        if not segment.is_file():
            break
        rotated.append(segment)
        index += 1
    return list(reversed(rotated)) + [live]


def _load_segment(source: pathlib.Path,
                  live_tail: bool) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    text = source.read_text()
    lines = text.splitlines()
    complete = text.endswith("\n")
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            span = json.loads(line)
        except ValueError:
            if live_tail and number == len(lines) and not complete:
                # A still-appending writer was caught mid-line: the torn
                # tail is in-flight data, not corruption.  Summarize what
                # is durable; the next read will see the whole line.
                break
            raise ConfigError(
                f"{source}:{number}: not valid JSON; the trace is "
                "truncated or not a span stream") from None
        if not isinstance(span, dict) or "duration_ns" not in span:
            raise ConfigError(f"{source}:{number}: not a span record")
        spans.append(span)
    return spans


def load_spans(path: PathLike) -> List[Dict[str, Any]]:
    """All spans from a trace directory or JSONL file, in file order.

    Rotated ``trace.jsonl.N`` segments are read oldest-first before the
    live segment.  Only the live segment's final line may be torn (a
    writer caught mid-append); an invalid line anywhere else raises
    :class:`ConfigError`.
    """
    segments = _trace_segments(path)
    spans: List[Dict[str, Any]] = []
    for segment in segments:
        spans.extend(_load_segment(segment,
                                   live_tail=segment is segments[-1]))
    return spans


def load_metrics(path: PathLike) -> Optional[Dict[str, Any]]:
    """The merged metrics snapshot next to a trace, if one was written."""
    node = pathlib.Path(path)
    if node.is_file():            # bare trace.jsonl: look alongside it
        node = node.parent
    metrics_path = node / METRICS_FILENAME
    if not metrics_path.is_file():
        return None
    try:
        return json.loads(metrics_path.read_text())
    except ValueError:
        raise ConfigError(f"{metrics_path} is not valid JSON") from None


@dataclass
class PhaseStats:
    """Aggregate wall-clock accounting for one span name."""

    name: str
    count: int = 0
    total_ns: int = 0
    max_ns: int = 0

    def observe(self, duration_ns: int) -> None:
        self.count += 1
        self.total_ns += duration_ns
        if duration_ns > self.max_ns:
            self.max_ns = duration_ns

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0


def phase_breakdown(spans: List[Dict[str, Any]]) -> List[PhaseStats]:
    """Per-span-name totals, sorted by total time (desc) then name."""
    phases: Dict[str, PhaseStats] = {}
    for span in spans:
        name = span.get("name", "?")
        found = phases.get(name)
        if found is None:
            found = phases[name] = PhaseStats(name)
        found.observe(int(span["duration_ns"]))
    return sorted(phases.values(), key=lambda p: (-p.total_ns, p.name))


def _metric_lines(metrics: Dict[str, Any]) -> List[str]:
    counters = metrics.get("counters", {})

    def fires(name: str) -> int:
        return counters.get(name, 0)

    lines = []
    rate = hit_rate(metrics, "oracle.cache.hit", "oracle.cache.miss")
    if rate is not None:
        lines.append(f"  oracle cache : {fires('oracle.cache.hit')} hit / "
                     f"{fires('oracle.cache.miss')} miss "
                     f"({rate:.1%} hit rate, "
                     f"{fires('oracle.grid.solves')} grid solve(s))")
    # Parallel campaigns route matrix lookups through the per-worker
    # shared cache instead of the private LRU.
    rate = hit_rate(metrics, "oracle.shared_cache.hit",
                    "oracle.shared_cache.miss")
    if rate is not None:
        lines.append(f"  shared cache : "
                     f"{fires('oracle.shared_cache.hit')} hit / "
                     f"{fires('oracle.shared_cache.miss')} miss "
                     f"({rate:.1%} hit rate)")
    if any(name.startswith("supervisor.") for name in counters):
        lines.append(f"  supervisor   : {fires('supervisor.dispatch')} "
                     f"dispatch(es), {fires('supervisor.complete')} "
                     f"complete(s), {fires('supervisor.requeue')} "
                     f"requeue(s), {fires('supervisor.respawn')} "
                     f"respawn(s), {fires('supervisor.give-up')} give-up(s)")
    if any(name.startswith("retry.") for name in counters):
        lines.append(f"  retry        : {fires('retry.calls')} unit(s), "
                     f"{fires('retry.retries')} retry(ies), "
                     f"{fires('retry.exhausted')} exhausted")
    if any(name.startswith("checkpoint.") for name in counters):
        lines.append(f"  checkpoints  : {fires('checkpoint.published')} "
                     f"published, {fires('checkpoint.verified')} verified, "
                     f"{fires('checkpoint.quarantined')} quarantined")
    return lines


def summarize(path: PathLike) -> str:
    """Per-phase wall-clock table + campaign health counters."""
    spans = load_spans(path)
    lines = [f"trace summary of {_trace_file(path)} ({len(spans)} span(s))"]
    if spans:
        # Share is relative to root spans only; nested spans overlap
        # their parents, so summing every span would double-count.
        root_total_ns = sum(int(s["duration_ns"]) for s in spans
                            if not s.get("parent_id"))
        lines.append(f"  {'phase':28s} {'count':>6s} {'total':>10s} "
                     f"{'mean':>10s} {'max':>10s} {'share':>7s}")
        for phase in phase_breakdown(spans):
            share = phase.total_ns / root_total_ns if root_total_ns else 0.0
            lines.append(
                f"  {phase.name:28s} {phase.count:>6d} "
                f"{phase.total_ns / NS_PER_MS:>8.1f}ms "
                f"{phase.mean_ns / NS_PER_MS:>8.2f}ms "
                f"{phase.max_ns / NS_PER_MS:>8.2f}ms {share:>7.1%}")
        lines.append(f"  root wall-clock total: "
                     f"{root_total_ns / NS_PER_S:.3f} s")
    metrics = load_metrics(path)
    if metrics is not None:
        metric_lines = _metric_lines(metrics)
        if metric_lines:
            lines.append("campaign health (metrics.json):")
            lines.extend(metric_lines)
    return "\n".join(lines)


def _span_prefix(span_id: str) -> str:
    """The request-group prefix of a rerooted span id (``r3.1.2`` -> ``r3``)."""
    head, _, _ = span_id.partition(".")
    return head


def request_tree(path: PathLike, request_id: str) -> str:
    """Render one serve request's span tree across processes.

    ``deeprh serve --trace DIR`` appends every request's spans rerooted
    under a unique ``r<n>`` prefix; the request's own root span is named
    ``serve.request`` and carries ``attrs.request``.  This locates that
    root by request id, gathers every span sharing its prefix (including
    adopted ``w<n>`` worker subtrees, which are roots of their own inside
    the group), and renders the whole tree indented — server spans and
    worker spans in one view, reconstructing the request's critical path
    across process boundaries.
    """
    spans = load_spans(path)
    root = None
    for span in spans:
        if (span.get("name") == "serve.request"
                and span.get("attrs", {}).get("request") == request_id):
            root = span
            break
    if root is None:
        known = sorted({s["attrs"]["request"] for s in spans
                        if s.get("name") == "serve.request"
                        and "request" in s.get("attrs", {})})
        hint = f"; known request(s): {', '.join(known)}" if known else ""
        raise ConfigError(
            f"no serve.request span with request id {request_id!r} "
            f"in {_trace_file(path)}{hint}")
    prefix = _span_prefix(str(root["span_id"]))
    group = [s for s in spans
             if _span_prefix(str(s.get("span_id", ""))) == prefix]
    by_id = {s["span_id"]: s for s in group}
    children: Dict[str, List[Dict[str, Any]]] = {}
    orphans: List[Dict[str, Any]] = []
    for span in group:
        if span is root:
            continue
        parent = span.get("parent_id", "")
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            # Adopted worker subtrees are roots of their own within the
            # group (their clocks live in another process); hang them
            # under the request root so the tree reads end-to-end.
            orphans.append(span)
    children.setdefault(root["span_id"], []).extend(orphans)
    for siblings in children.values():
        siblings.sort(key=lambda s: str(s["span_id"]))

    lines = [f"request {request_id} ({len(group)} span(s), "
             f"prefix {prefix})"]

    def render(span: Dict[str, Any], depth: int) -> None:
        attrs = span.get("attrs", {})
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        lines.append(
            f"  {'  ' * depth}{span.get('name', '?'):{max(1, 30 - 2 * depth)}s}"
            f" {int(span['duration_ns']) / NS_PER_MS:>9.2f}ms"
            f"  [{span['span_id']}]" + (f"  {detail}" if detail else ""))
        for child in children.get(span["span_id"], []):
            render(child, depth + 1)

    render(root, 0)
    return "\n".join(lines)


def slowest(path: PathLike, top: int = 10) -> str:
    """The ``top`` individually slowest spans, slowest first."""
    spans = load_spans(path)
    ranked = sorted(spans, key=lambda s: (-int(s["duration_ns"]),
                                          str(s.get("span_id"))))[:top]
    lines = [f"{min(top, len(spans))} slowest span(s) of {len(spans)}:"]
    for span in ranked:
        attrs = span.get("attrs", {})
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        lines.append(f"  {int(span['duration_ns']) / NS_PER_MS:>10.2f}ms  "
                     f"{span.get('name', '?'):28s} [{span.get('span_id')}]"
                     + (f"  {detail}" if detail else ""))
    return "\n".join(lines)


def export(path: PathLike, output_format: str = "json") -> str:
    """Render the span stream as a JSON array or CSV table."""
    spans = load_spans(path)
    if output_format == "json":
        return json.dumps(spans, indent=1, sort_keys=True)
    if output_format == "csv":
        stream = io.StringIO()
        writer = csv.writer(stream)
        writer.writerow(["span_id", "parent_id", "name", "start_ns",
                         "duration_ns", "attrs"])
        for span in spans:
            writer.writerow([
                span.get("span_id", ""), span.get("parent_id", ""),
                span.get("name", ""), span.get("start_ns", 0),
                span.get("duration_ns", 0),
                json.dumps(span.get("attrs", {}), sort_keys=True)])
        return stream.getvalue().rstrip("\n")
    raise ConfigError(f"unknown export format {output_format!r}; "
                      "choose json or csv")
