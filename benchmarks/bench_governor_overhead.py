"""Overhead of the resource governor on a healthy campaign.

The governor ticks at every unit boundary (serial) and supervision tick
(parallel), probing RSS/fds/disk each ``assess_every`` ticks.  On a
campaign that never breaches a budget the ladder must be free in all but
name: the governed run must stay within 5% of an ungoverned run of the
same work, or robustness has become a tax on the happy path.  The
``_governed``/``_ungoverned`` pair is gated in the recorded benchmark
history by ``tools/bench_compare.py``.
"""

import time

from conftest import record_report

from repro.core.config import QUICK
from repro.core.serialize import result_to_dict
from repro.runner import (
    CampaignRunner,
    GovernorBudgets,
    GovernorPolicy,
    ResourceGovernor,
)

#: Enough units that per-tick overhead would show, small enough to repeat.
OVERHEAD_CONFIG = QUICK.scaled(rows_per_region=12,
                               modules_per_manufacturer=1,
                               temperatures_c=(50.0, 70.0, 90.0),
                               hcfirst_repetitions=1, wcdp_sample_rows=2)


def _make_governor():
    """Real system probes, generous budgets: assessed, never breached."""
    return ResourceGovernor(
        budgets=GovernorBudgets(rss_bytes=1 << 40, open_fds=1 << 20),
        policy=GovernorPolicy())


def _run_ungoverned():
    return CampaignRunner(OVERHEAD_CONFIG).run("temperature")


def _run_governed():
    return CampaignRunner(OVERHEAD_CONFIG,
                          governor=_make_governor()).run("temperature")


def _best_of(fn, rounds=3):
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - started)
    return min(timings)


def test_bench_governor_overhead_ungoverned(benchmark):
    outcome = benchmark(_run_ungoverned)
    assert outcome.ok


def test_bench_governor_overhead_governed(benchmark):
    outcome = benchmark(_run_governed)
    assert outcome.ok
    assert outcome.governor["rung"] == "normal"
    assert outcome.governor["escalations"] == 0
    assert outcome.governor["ticks"] > 0


def test_governor_overhead_within_target():
    bare_s = _best_of(_run_ungoverned)
    governed_s = _best_of(_run_governed)
    overhead = governed_s / bare_s - 1.0
    record_report(
        "governor_overhead",
        "Resource governor overhead (no pressure, serial campaign):\n"
        f"  ungoverned : {bare_s * 1e3:8.1f} ms\n"
        f"  governed   : {governed_s * 1e3:8.1f} ms\n"
        f"  overhead   : {overhead * 100:+7.2f} %  (target < 5 %)")
    # Generous CI bound (single-process timing noise); the report records
    # the precise number and bench_compare.py gates the pair in history.
    assert overhead < 0.05 + 0.10, \
        f"governor overhead {overhead * 100:.1f}% far above the 5% target"


def test_governed_result_matches_ungoverned():
    """Parity is the contract the overhead is measured against."""
    governed = _run_governed()
    ungoverned = _run_ungoverned()
    assert result_to_dict(governed.result) \
        == result_to_dict(ungoverned.result)
