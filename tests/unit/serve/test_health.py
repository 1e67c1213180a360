"""HealthMonitor: the governor's serve-side face.

Covers the ungoverned null path, shed decisions, the in-place shrink and
restore of the installed SharedMatrixCache, and the health snapshot the
``health`` protocol op serializes.
"""

import numpy as np
import pytest

from repro.faultmodel.batch import (
    SharedMatrixCache,
    install_shared_matrix_cache,
    shared_matrix_cache,
)
from repro.runner.governor import (
    RUNG_NORMAL,
    RUNG_SHED,
    GovernorBudgets,
    GovernorPolicy,
    ResourceGovernor,
)
from repro.serve import protocol
from repro.serve.health import HealthMonitor

pytestmark = pytest.mark.faults


class FakeProbes:
    def __init__(self):
        self.fds = 0
        self.disk_free = 1 << 40

    def rss_bytes(self):
        return 0

    def open_fds(self):
        return self.fds

    def disk_free_bytes(self, path):
        return self.disk_free

    def cache_entries(self):
        cache = shared_matrix_cache()
        return len(cache) if cache is not None else 0


def make_governor(probes, **budget_kwargs):
    return ResourceGovernor(
        budgets=GovernorBudgets(**budget_kwargs), probes=probes,
        policy=GovernorPolicy(assess_every=1, recover_after=1),
        disk_path="/")


@pytest.fixture
def fresh_cache():
    previous = install_shared_matrix_cache(None)
    yield
    install_shared_matrix_cache(previous)


def fill(cache, count):
    for index in range(count):
        cache.put(("key", index), (np.zeros(2), np.ones(2, dtype=bool)))


class TestUngoverned:
    def test_null_monitor_costs_nothing(self):
        monitor = HealthMonitor(None)
        assert not monitor.governed
        assert monitor.tick() == RUNG_NORMAL
        assert monitor.rung_label() == "normal"
        assert not monitor.should_shed()
        assert monitor.snapshot() == {"governed": False, "rung": "normal"}


class TestGoverned:
    def test_shed_follows_the_ladder(self):
        probes = FakeProbes()
        probes.disk_free = 0
        monitor = HealthMonitor(make_governor(probes, disk_free_bytes=100))
        assert monitor.tick() == RUNG_SHED
        assert monitor.should_shed()
        assert monitor.rung_label() == "shed"

    def test_snapshot_is_the_governor_view(self):
        probes = FakeProbes()
        monitor = HealthMonitor(make_governor(probes, open_fds=64))
        monitor.tick()
        snap = monitor.snapshot()
        assert snap["governed"] is True
        assert snap["rung"] == "normal"
        assert "readings" in snap

    def test_health_event_shape(self):
        event = protocol.health_event("h1", governed=True,
                                      governor={"rung": "normal"})
        assert event["event"] == "health"
        assert event["id"] == "h1"
        assert "health" in protocol.OPS


class TestCachePolicy:
    def test_shrink_evicts_in_place_and_recovery_restores(self, fresh_cache):
        cache = SharedMatrixCache(entries=100)
        install_shared_matrix_cache(cache)
        fill(cache, 90)
        probes = FakeProbes()
        governor = make_governor(probes, open_fds=64)
        monitor = HealthMonitor(governor)
        probes.fds = 99
        monitor.tick()  # escalates to serial (>= shrink-caches)
        assert cache.entries == governor.policy.shrunk_cache_entries
        assert len(cache) <= cache.entries
        probes.fds = 1
        while monitor.rung() != RUNG_NORMAL:
            monitor.tick()
        assert cache.entries == 100  # original bound restored

    def test_shrink_is_idempotent_per_rung(self, fresh_cache):
        cache = SharedMatrixCache(entries=100)
        install_shared_matrix_cache(cache)
        probes = FakeProbes()
        probes.fds = 99
        monitor = HealthMonitor(make_governor(probes, open_fds=64))
        monitor.tick()
        monitor.tick()
        monitor.tick()
        assert cache.entries == 64  # clamped once, not repeatedly shrunk

    def test_no_installed_cache_is_fine(self, fresh_cache):
        probes = FakeProbes()
        probes.fds = 99
        monitor = HealthMonitor(make_governor(probes, open_fds=64))
        monitor.tick()  # must not raise with no cache installed
        assert monitor.rung_label() == "serial"
