"""The layer seams the traced launcher wraps, and the metrics they yield.

Each entry of :data:`SEAMS` names a public function or method of one
layer of ``repro`` and the span it records.  :func:`install` wraps every
seam in the already-imported program and rebinds the wrapper wherever a
module imported the original by name (``find_worst_case_pattern`` in the
study modules, ``result_to_dict`` in the service), so callers find the
wrapper where they look the name up.  Install before the first pool
fork: forked workers inherit the wrapped program.

:func:`layer_metrics` turns the recorded spans and counters of one run
into the per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from drhbench import spans as spans_mod

# --- counters noted after a call ------------------------------------------


def _note_rows(recorder, args, result) -> None:
    if len(args) < 3:
        return
    population, bank, row = args[0], args[1], args[2]
    seen = population.__dict__.setdefault("_perfbench_rows", set())
    if (bank, row) not in seen:
        seen.add((bank, row))
        recorder.count("population.rows_distinct")


def _note_hit(prefix: str):
    def note(recorder, args, result) -> None:
        recorder.count(f"{prefix}.hits", result is not None)
    return note


def _note_result_bytes(recorder, args, result) -> None:
    recorder.count("gridblob.encode.bytes", len(result))


def _note_blob_bytes(recorder, args, result) -> None:
    recorder.count("checkpoint.bytes", len(args[2]))


def _note_supervision(recorder, args, result) -> None:
    recorder.count("supervisor.dispatches", result.log.count("dispatch"))
    recorder.count("supervisor.requeues", result.log.count("requeue"))
    recorder.maximum("supervisor.workers", args[0].workers)


#: (module, attribute path, span name, note).  A dotted attribute path
#: names a method on a class of that module.
SEAMS: Tuple[Tuple[str, str, str, Optional[object]], ...] = (
    ("repro.faultmodel.population", "CellPopulation.cells_for",
     "population.cells_for", _note_rows),
    ("repro.faultmodel.batch", "BatchOracle.cell_hcfirst_matrix",
     "oracle.matrix", None),
    ("repro.faultmodel.batch", "BatchOracle.point_flip_matrix",
     "oracle.matrix", None),
    ("repro.faultmodel.batch", "BatchOracle.row_hcfirst_vector",
     "oracle.matrix", None),
    ("repro.faultmodel.batch", "SharedMatrixCache.get",
     "oracle.shared_cache.get", _note_hit("oracle.shared_cache")),
    ("repro.testing.hammer", "HammerTester.ber_grid", "hammer.grid", None),
    ("repro.testing.hammer", "HammerTester.hcfirst_grid", "hammer.grid", None),
    ("repro.testing.hammer", "HammerTester.hcfirst_min_grid",
     "hammer.grid", None),
    ("repro.testing.patterns", "find_worst_case_pattern", "hammer.wcdp", None),
    ("repro.core.temperature_study", "TemperatureStudy.prepare_module",
     "study.prepare", None),
    ("repro.core.acttime_study", "ActiveTimeStudy.prepare_module",
     "study.prepare", None),
    ("repro.core.spatial_study", "SpatialStudy.prepare_module",
     "study.prepare", None),
    ("repro.core.temperature_study", "TemperatureStudy.run_point",
     "study.point", None),
    ("repro.core.acttime_study", "ActiveTimeStudy.run_point",
     "study.point", None),
    ("repro.core.spatial_study", "SpatialStudy.run_point",
     "study.point", None),
    ("repro.core.studybase", "PointwiseStudy.finalize_module",
     "study.finalize", None),
    ("repro.core.temperature_study", "TemperatureStudy.make_result",
     "study.finalize", None),
    ("repro.core.acttime_study", "ActiveTimeStudy.make_result",
     "study.finalize", None),
    ("repro.core.spatial_study", "SpatialStudy.make_result",
     "study.finalize", None),
    ("repro.core.observations", "check_all_observations",
     "observations", None),
    *(("repro.core.report", name, "report.render", None)
      for name in ("table1", "table2", "table3", "table4", "fig3", "fig4",
                   "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                   "fig11", "fig12", "fig13", "fig14", "fig15")),
    ("repro.runner.adapters", "StudyAdapter.to_dict", "serialize", None),
    ("repro.runner.adapters", "StudyAdapter.from_dict", "serialize", None),
    ("repro.core.serialize", "result_to_dict", "serialize", None),
    ("repro.core.serialize", "save_result", "serialize", None),
    ("repro.runner.gridblob", "encode_module", "gridblob.encode",
     _note_result_bytes),
    ("repro.runner.gridblob", "decode_module", "gridblob.decode", None),
    ("repro.runner.checkpoint", "CheckpointStore.save_blob",
     "checkpoint.save", _note_blob_bytes),
    ("repro.runner.shm", "publish", "shm.publish", None),
    ("repro.runner.shm", "reclaim", "shm.reclaim", None),
    ("repro.faultmodel.shared_arena", "SharedArena.store", "arena.store",
     None),
    ("repro.faultmodel.shared_arena", "SharedArena.fetch", "arena.fetch",
     _note_hit("arena.fetch")),
    ("repro.runner.supervisor", "CampaignSupervisor.run", "supervisor.run",
     _note_supervision),
    ("repro.runner.campaign", "_run_module_worker", "worker.module", None),
)


def install(recorder) -> int:
    """Wrap every seam; returns how many bindings were replaced."""
    replaced = 0
    originals: Dict[int, object] = {}
    for module_name, path, span, note in SEAMS:
        module = importlib.import_module(module_name)
        owner = module
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        original = owner.__dict__[attr]
        wrapper = recorder.wrap(span, original, note)
        setattr(owner, attr, wrapper)
        replaced += 1
        if not owners:
            originals[id(original)] = wrapper
    # Rebind functions that other modules imported by name.
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and value is not wrapper:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


# --- metrics ---------------------------------------------------------------

NS = 1e9


def _busy_s(trace: spans_mod.Trace, *names: str) -> float:
    selected = spans_mod.outermost(trace.spans, frozenset(names))
    return sum(s.duration for s in selected) / NS


def _calls(trace: spans_mod.Trace, name: str) -> int:
    return sum(1 for s in trace.spans if s.name == name)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def merge(runs: Sequence[spans_mod.Trace]) -> spans_mod.Trace:
    """One trace out of several program runs; pids tagged by run index."""
    merged: List[spans_mod.Span] = []
    counters: Dict[str, float] = {}
    workers = set()
    for index, trace in enumerate(runs):
        merged.extend(dataclasses.replace(s, pid=(index, s.pid))
                      for s in trace.spans)
        workers.update((index, pid) for pid in trace.worker_pids)
        for name, value in trace.counters.items():
            if name == "supervisor.workers":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return spans_mod.Trace(merged, counters, frozenset(workers))


def layer_metrics(runs: Sequence[Tuple[spans_mod.Trace, int, Tuple[int, int]]]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one or more traced program runs.

    Each run is ``(trace, main_pid, (start_ns, end_ns))``: the spans the
    launcher wrote, the pid of the program process ``run.py`` spawned,
    and ``run.py``'s own spawn/exit timestamps for it.  Top-level spans
    of that process (any thread) inside the window are attributed time.
    """
    attributed_ns = 0
    wall_ns = 0
    for trace, main_pid, (lo, hi) in runs:
        top = spans_mod.top_level(trace.spans, [main_pid])
        attributed_ns += spans_mod.union_ns(
            spans_mod.clip([(s.start, s.end) for s in top], lo, hi))
        wall_ns += hi - lo
    trace = merge([run[0] for run in runs])
    c = trace.counters
    children = spans_mod.children_of(trace.spans)
    grid = [s for s in trace.spans if s.name == "hammer.grid"]
    worker_busy = sum(s.duration for s in spans_mod.top_level(
        trace.spans, trace.worker_pids)) / NS
    supervisor_busy = _busy_s(trace, "supervisor.run")
    cache_gets = _calls(trace, "oracle.shared_cache.get")
    arena_fetches = _calls(trace, "arena.fetch")
    return {
        "startup.import_s": _busy_s(trace, "startup.import"),
        "population.cells_for.calls": _calls(trace, "population.cells_for"),
        "population.cells_for.busy_s": _busy_s(trace, "population.cells_for"),
        "population.rows_distinct": c.get("population.rows_distinct", 0),
        "oracle.matrix.calls": _calls(trace, "oracle.matrix"),
        "oracle.matrix.busy_s": _busy_s(trace, "oracle.matrix"),
        "oracle.shared_cache.gets": cache_gets,
        "oracle.shared_cache.hit_ratio": _ratio(
            c.get("oracle.shared_cache.hits", 0), cache_gets),
        "hammer.grid.calls": len(grid),
        "hammer.grid.self_s": sum(spans_mod.self_ns(s, children)
                                  for s in grid) / NS,
        "hammer.wcdp.busy_s": _busy_s(trace, "hammer.wcdp"),
        "study.prepare.busy_s": _busy_s(trace, "study.prepare"),
        "study.point.busy_s": _busy_s(trace, "study.point"),
        "study.finalize.busy_s": _busy_s(trace, "study.finalize"),
        "observations.busy_s": _busy_s(trace, "observations"),
        "report.render.busy_s": _busy_s(trace, "report.render"),
        "serialize.busy_s": _busy_s(trace, "serialize"),
        "gridblob.encode.calls": _calls(trace, "gridblob.encode"),
        "gridblob.encode.busy_s": _busy_s(trace, "gridblob.encode"),
        "gridblob.encode.bytes": c.get("gridblob.encode.bytes", 0),
        "gridblob.decode.busy_s": _busy_s(trace, "gridblob.decode"),
        "checkpoint.save.calls": _calls(trace, "checkpoint.save"),
        "checkpoint.save.busy_s": _busy_s(trace, "checkpoint.save"),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "shm.publish.busy_s": _busy_s(trace, "shm.publish"),
        "shm.reclaim.busy_s": _busy_s(trace, "shm.reclaim"),
        "arena.store.calls": _calls(trace, "arena.store"),
        "arena.store.busy_s": _busy_s(trace, "arena.store"),
        "arena.fetch.calls": arena_fetches,
        "arena.hit_ratio": _ratio(c.get("arena.fetch.hits", 0),
                                  arena_fetches),
        "supervisor.run.busy_s": supervisor_busy,
        "worker.busy_s": worker_busy,
        "supervisor.parallel_efficiency": _ratio(
            worker_busy, supervisor_busy * c.get("supervisor.workers", 0)),
        "supervisor.dispatches": c.get("supervisor.dispatches", 0),
        "supervisor.requeues": c.get("supervisor.requeues", 0),
        "trace.attributed_s": attributed_ns / NS,
        "trace.unattributed_s": (wall_ns - attributed_ns) / NS,
    }
