"""End-to-end benchmark of ``deeprh``: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce-quick --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``reproduce-quick`` — ``deeprh reproduce --preset quick``;
- ``campaign-w2`` — ``deeprh campaign acttime --workers 2``;
- ``serve-closed-2c`` — 100 small campaigns against ``deeprh serve`` from
  two closed-loop client connections.

A run times spawn-until-ready (``setup_s``), computes the output
references in this process (untimed), then repeats the workload's timed
iteration until about ``--seconds`` have passed (at least once; see
:func:`keep_measuring`).  With
``--trace 1`` one more iteration runs under ``perfbench/launch.py``,
which records spans at each layer seam; the per-layer metrics come from
it, and the end-to-end ones are not printed.  Every output is checked;
a failed check is a failed operation, reported in ``failed``.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 with a result, 1 when the program could not be set up
at all and 2 when the checkout holds no program source; no result is
printed then.  ``python3 perfbench/selftest.py`` tests the benchmark's own
logic.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A whole run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0


def _parse(argv):
    from drhbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(mode: str) -> dict:
    """``name -> unit`` of the metrics BENCHMARK.json declares for ``mode``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[mode]}


def _report(metrics: dict, mode: str) -> dict:
    """Metrics with their declared units; counts as whole numbers."""
    units = _declared(mode)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {mode}: "
            f"{sorted(set(metrics) ^ set(units))}")
    return {name: {"value": int(value) if units[name] in ("count", "bytes")
                   else value, "unit": units[name]}
            for name, value in sorted(metrics.items())}


def _end_to_end(setup, untraced):
    from drhbench import stats

    latencies = [x for it in untraced for x in it.latencies_s]
    return {
        "setup_s": stats.median(setup),
        "wall_s": stats.median([it.wall_s for it in untraced]),
        "modules_per_s": stats.median([it.modules / it.wall_s
                                       for it in untraced]),
        "request_p50_s": stats.nearest_rank(latencies, 0.5),
        "peak_rss_mb": max(it.peak_rss_mb for it in untraced),
    }


def _per_layer(setup, untraced, traced, leaked, attempted, failed):
    from drhbench import layers, spans, stats

    latencies = [x for it in untraced for x in it.latencies_s]
    untraced_wall = stats.median([it.wall_s for it in untraced])
    p50 = stats.nearest_rank(latencies, 0.5)
    try:
        p90 = stats.nearest_rank(latencies, 0.9)
    except stats.PercentileRefused:
        p90 = 0.0
    exec_p50 = stats.median([it.exec_p50_s for it in untraced])
    admits = [x for it in untraced for x in it.admit_s]
    metrics = layers.layer_metrics([
        (spans.load(spans_dir), pid, window)
        for spans_dir, pid, window in traced.traces])
    metrics.update({
        "startup.share": metrics["startup.import_s"] / traced.wall_s,
        "campaign.units_run": traced.units_run,
        "campaign.units_retried": traced.units_retried,
        "serve.admit_s": stats.median(admits) if admits else 0.0,
        "serve.exec_p50_s": exec_p50,
        "serve.queue_wait_s": p50 - exec_p50 if exec_p50 else 0.0,
        "serve.rejected": sum(it.rejected for it in untraced),
        "shm.leaked_segments": leaked,
        "request_p90_s": p90,
        "request.samples": len(latencies),
        "wall.samples": len(untraced),
        "setup.samples": len(setup),
        "observations_passed": min(it.observations_passed
                                   for it in untraced + [traced]),
        "failed_frac": failed / attempted,
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall,
        "trace.attributed_share": metrics["trace.attributed_s"]
        / traced.wall_s,
    })
    return metrics


def keep_measuring(elapsed: float, last: float, seconds: float) -> bool:
    """Start another iteration while under ``seconds`` of measuring, unless
    one more like the last would overshoot ``seconds`` by more than half.

    Long iterations (a served round) thus run once; short ones repeat,
    and a slow phase of the host costs fewer iterations, not more time.
    """
    return elapsed < seconds and elapsed + last <= seconds * 1.5


def measure(workload_name: str, seed: int, seconds: float, trace: bool):
    from drhbench.workloads import WORKLOADS, Context

    started = time.monotonic()
    ctx = Context(ROOT, deadline=started + RUN_BUDGET_S)
    try:
        workload = WORKLOADS[workload_name](ctx, seed)
        setup = workload.setup()
        workload.prepare()
        untraced = []
        measure_from = time.monotonic()
        while True:
            begun = time.monotonic()
            untraced.append(workload.iteration(traced=False))
            now = time.monotonic()
            took = now - begun
            reserve = took * 1.5 if trace else 0.0
            if not keep_measuring(now - measure_from, took, seconds) \
                    or now + took + reserve > ctx.deadline:
                break
        traced = workload.iteration(traced=True) if trace else None
        iterations = untraced + ([traced] if traced else [])
        attempted = sum(it.attempted for it in iterations)
        failed = sum(it.failed for it in iterations)
        for it in iterations:
            for problem in it.problems:
                print(f"FAILED {problem}", file=sys.stderr)
        print(f"output digest: {workload.output_digest}", file=sys.stderr)
        print("iteration wall_s: " + " ".join(
            f"{it.wall_s:.3f}" for it in untraced), file=sys.stderr)
        if trace:
            metrics = _per_layer(setup, untraced, traced, ctx.guard.leaked,
                                 attempted, failed)
        else:
            metrics = _end_to_end(setup, untraced)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass  # another run is still using it
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _report(metrics, "per_layer" if trace else "end_to_end"),
    }


def main(argv=None) -> int:
    # A terminated benchmark unwinds, so every program it started is
    # stopped by the ``finally`` blocks that own it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, HERE)
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from drhbench.workloads import SetupError

    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
