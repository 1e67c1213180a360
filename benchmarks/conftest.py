"""Benchmark harness fixtures.

Each benchmark regenerates one of the paper's tables or figures: the study
campaigns run once per session (fixtures below), each ``bench_*`` test
times the analysis that derives the figure from raw measurements, and the
rendered rows are collected and printed in the terminal summary (so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
them) as well as written to ``benchmarks/results/``.
"""

from __future__ import annotations

import datetime
import json
import pathlib
from typing import Dict, List, Tuple

import pytest

from repro.core.acttime_study import ActiveTimeStudy
from repro.core.config import StudyConfig
from repro.core.spatial_study import SpatialStudy
from repro.core.temperature_study import TemperatureStudy

#: Scale of the benchmark reproduction runs (2 modules per manufacturer).
BENCH_CONFIG = StudyConfig(
    name="benchmark",
    modules_per_manufacturer=2,
    rows_per_region=80,
    acttime_rows_per_region=50,
    hcfirst_repetitions=3,
    wcdp_sample_rows=4,
    subarrays_to_sample=8,
    rows_per_subarray=32,
    column_rows=360,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Machine-readable benchmark history; ``tools/bench_compare.py`` fails
#: the build when the latest run regresses >20% against the previous one.
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_throughput.json"

_REPORTS: List[Tuple[str, str]] = []


def record_report(name: str, text: str) -> None:
    """Register a rendered table/figure for the terminal summary."""
    _REPORTS.append((name, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_config() -> StudyConfig:
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def temperature_result():
    return TemperatureStudy(BENCH_CONFIG).run()


@pytest.fixture(scope="session")
def acttime_result():
    return ActiveTimeStudy(BENCH_CONFIG).run()


@pytest.fixture(scope="session")
def spatial_result():
    return SpatialStudy(BENCH_CONFIG).run()


#: ``(slow-suffix, fast-suffix)`` benchmark pairs whose speedup is
#: recorded per run: pointwise-vs-grid oracle sweeps.
SPEEDUP_SUFFIXES = (
    ("_pointwise", "_grid"),
)


def _grid_speedups(results: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """mean(slow)/mean(fast) for each :data:`SPEEDUP_SUFFIXES` pair."""
    speedups = {}
    for name, stats in results.items():
        for slow_suffix, fast_suffix in SPEEDUP_SUFFIXES:
            if not name.endswith(slow_suffix):
                continue
            partner = name[: -len(slow_suffix)] + fast_suffix
            if partner in results and results[partner]["mean_s"] > 0.0:
                stem = name[len("test_"):-len(slow_suffix)]
                speedups[stem] = round(
                    stats["mean_s"] / results[partner]["mean_s"], 2)
    return speedups


def _persist_benchmark_run(config) -> None:
    session = getattr(config, "_benchmarksession", None)
    if session is None or not session.benchmarks:
        return
    results = {
        bench.name: {
            "mean_s": bench.stats.mean,
            "min_s": bench.stats.min,
            "stddev_s": bench.stats.stddev,
            "rounds": bench.stats.rounds,
        }
        for bench in session.benchmarks
    }
    history = {"runs": []}
    if BENCH_JSON.exists():
        try:
            history = json.loads(BENCH_JSON.read_text())
        except ValueError:
            pass
    history.setdefault("runs", []).append({
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "results": results,
        "speedups": _grid_speedups(results),
    })
    BENCH_JSON.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    _persist_benchmark_run(config)
    if not _REPORTS:
        return
    terminalreporter.section("reproduced tables and figures")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {name}")
        for line in text.splitlines():
            terminalreporter.write_line(line)
