#!/usr/bin/env python
"""Gate the latest benchmark run in ``BENCH_throughput.json``.

The benchmark harness (``benchmarks/conftest.py``) appends one entry per
``pytest benchmarks/`` invocation, and each invocation usually runs a
different bench file.  This tool therefore compares every benchmark in
the latest run with *its own* most recent earlier measurement, whichever
run that was, and exits non-zero when its mean slowed down by more than
the tolerance (default 20%), so CI catches performance regressions the
way the unit suite catches correctness ones.

A benchmark never measured before is reported as *new*; one measured
before but absent from the latest run is simply not gated.

Usage::

    python tools/bench_compare.py [--tolerance 0.20] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_JSON = pathlib.Path(__file__).parent.parent / "BENCH_throughput.json"


#: Allowed fractional overhead of the instrumented benchmark in a suffix
#: pair over its baseline partner in the same run.
PAIR_TOLERANCE = 0.05

#: Absolute slack (seconds) on the pair gate: at sub-second scale, pool
#: spawn jitter would otherwise flake a genuinely-within-5% pairing.
PAIR_EPSILON_S = 0.05

#: ``(instrumented-suffix, baseline-suffix)`` benchmark pairs gated within
#: one run: supervised dispatch vs a bare pool, and a traced campaign vs
#: an untraced one.  Both must stay within ``PAIR_TOLERANCE``.
PAIR_SUFFIXES = (
    ("_supervised", "_unsupervised"),
    ("_traced", "_untraced"),
    ("_governed", "_ungoverned"),
    ("_scraped", "_unscraped"),
)


def _mean(stats) -> float:
    """The mean of one benchmark entry, or ``0.0`` when malformed."""
    if not isinstance(stats, dict):
        return 0.0
    mean = stats.get("mean_s")
    return float(mean) if isinstance(mean, (int, float)) else 0.0


def previous_results(runs: list) -> dict:
    """Each benchmark's most recent measurement before the last run."""
    previous: dict = {}
    for run in runs[:-1]:
        previous.update(run.get("results", {}))
    return previous


def compare(previous: dict, latest: dict, tolerance: float) -> list:
    """Return (name, prev_mean, new_mean, ratio) for regressed benchmarks.

    ``previous`` maps benchmark names to their earlier stats (see
    :func:`previous_results`); ``latest`` is the run being gated.
    """
    regressions = []
    for name, stats in sorted(latest.get("results", {}).items()):
        before = _mean(previous.get(name))
        after = _mean(stats)
        if before <= 0.0:
            continue
        ratio = after / before
        if ratio > 1.0 + tolerance:
            regressions.append((name, before, after, ratio))
    return regressions


def pair_failures(latest: dict) -> list:
    """Gate instrumented-vs-baseline suffix pairs in one run.

    Returns (stem, suffix, bare_mean, instrumented_mean) for each
    :data:`PAIR_SUFFIXES` pair where the instrumented path costs more
    than ``PAIR_TOLERANCE`` over its baseline partner (plus
    ``PAIR_EPSILON_S`` of absolute slack).
    """
    results = latest.get("results", {})
    failures = []
    for name, stats in sorted(results.items()):
        for suffix, baseline_suffix in PAIR_SUFFIXES:
            if not name.endswith(suffix):
                continue
            stem = name[: -len(suffix)]
            bare = _mean(results.get(stem + baseline_suffix))
            instrumented = _mean(stats)
            if bare <= 0.0:
                continue
            bound = bare * (1.0 + PAIR_TOLERANCE) + PAIR_EPSILON_S
            if instrumented > bound:
                failures.append((stem.rstrip("_"), suffix.lstrip("_"),
                                 bare, instrumented))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=pathlib.Path, default=DEFAULT_JSON,
                        help="benchmark history file (default: "
                             "BENCH_throughput.json at the repo root)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional slowdown (default: 0.20)")
    args = parser.parse_args(argv)

    if not args.json.exists():
        print(f"no benchmark history at {args.json}; run "
              "'pytest benchmarks/bench_throughput.py --benchmark-only' "
              "first")
        return 0
    runs = json.loads(args.json.read_text()).get("runs", [])
    if len(runs) < 2:
        print(f"{len(runs)} run(s) recorded; need two to compare")
        return 0

    latest = runs[-1]
    previous = previous_results(runs)
    print(f"comparing {latest.get('timestamp', '?')} against each "
          f"benchmark's most recent earlier measurement "
          f"(tolerance {args.tolerance:.0%})")
    for name, stats in sorted(latest.get("results", {}).items()):
        after = _mean(stats)
        before = _mean(previous.get(name))
        if name not in previous:
            print(f"  {name:45s} {after * 1e3:9.3f} ms   (new benchmark)")
        elif before <= 0.0:
            print(f"  {name:45s} {after * 1e3:9.3f} ms   "
                  "(no previous mean)")
        else:
            ratio = after / before
            print(f"  {name:45s} {before * 1e3:9.3f} ms -> "
                  f"{after * 1e3:9.3f} ms  ({ratio:5.2f}x)")
    for stem, speedup in sorted(latest.get("speedups", {}).items()):
        print(f"  pair speedup [{stem}]: {speedup:.2f}x over baseline")

    failed = False
    regressions = compare(previous, latest, args.tolerance)
    if regressions:
        failed = True
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
              f"{args.tolerance:.0%}:")
        for name, before, after, ratio in regressions:
            print(f"  {name}: {before * 1e3:.3f} ms -> {after * 1e3:.3f} ms "
                  f"({ratio:.2f}x)")
    pairs = pair_failures(latest)
    if pairs:
        failed = True
        print(f"\nFAIL: instrumented benchmark(s) exceed their baseline "
              f"partner by more than {PAIR_TOLERANCE:.0%} "
              f"(+{PAIR_EPSILON_S * 1e3:.0f} ms slack):")
        for stem, suffix, bare, instrumented in pairs:
            print(f"  {stem}: baseline {bare * 1e3:.3f} ms -> {suffix} "
                  f"{instrumented * 1e3:.3f} ms")
    if failed:
        return 1
    print("\nOK: no benchmark regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
