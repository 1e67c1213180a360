"""Resource governor: budgets, ladder mechanics, latches and recovery.

The governor is the robustness layer's decision core, so these tests
drive it entirely through injected probes — no real /proc reads, no
sleeps — and assert every ladder movement is deterministic and bounded.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faultmodel.batch import (
    SharedMatrixCache,
    install_shared_matrix_cache,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runner.governor import (
    POOL_LOSS_LIMIT,
    RUNG_NORMAL,
    RUNG_NAMES,
    RUNG_PARK,
    RUNG_SERIAL,
    RUNG_SHED,
    RUNG_SHRINK_CACHES,
    SHRUNK_CACHE_ENTRIES,
    GovernorBudgets,
    GovernorPolicy,
    ResourceGovernor,
    build_governor,
    rung_name,
)


class FakeProbes:
    """Scripted readings; each axis is a plain settable attribute."""

    def __init__(self, rss=0, fds=0, disk_free=1 << 40, entries=0):
        self.rss = rss
        self.fds = fds
        self.disk_free = disk_free
        self.entries = entries

    def rss_bytes(self):
        return self.rss

    def open_fds(self):
        return self.fds

    def disk_free_bytes(self, path):
        return self.disk_free

    def cache_entries(self):
        return self.entries


def governed(budgets, probes, recover_after=3, faults=None):
    return ResourceGovernor(
        budgets=budgets, probes=probes, faults=faults,
        policy=GovernorPolicy(assess_every=1, recover_after=recover_after),
        disk_path="/")


class TestValidation:
    def test_budgets_reject_non_positive(self):
        with pytest.raises(ConfigError):
            GovernorBudgets(rss_bytes=0)
        with pytest.raises(ConfigError):
            GovernorBudgets(open_fds=-1)
        with pytest.raises(ConfigError):
            GovernorBudgets(cache_entries=True)

    def test_policy_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            GovernorPolicy(assess_every=0)
        with pytest.raises(ConfigError):
            GovernorPolicy(recover_after=0)

    def test_rung_name_clamps(self):
        assert rung_name(-5) == "normal"
        assert rung_name(99) == "park"
        assert rung_name(RUNG_SERIAL) == "serial"

    def test_ladder_has_five_rungs(self):
        assert RUNG_NAMES == ("normal", "shrink-caches", "serial", "shed",
                              "park")
        assert [RUNG_NORMAL, RUNG_SHRINK_CACHES, RUNG_SERIAL, RUNG_SHED,
                RUNG_PARK] == list(range(len(RUNG_NAMES)))


class TestLadder:
    def test_no_budgets_never_escalates(self):
        gov = governed(GovernorBudgets(), FakeProbes(rss=1 << 40))
        for _ in range(10):
            gov.assess()
        assert gov.rung() == RUNG_NORMAL
        assert gov.snapshot()["escalations"] == 0

    def test_axis_breaches_map_to_their_rungs(self):
        cases = [
            (GovernorBudgets(cache_entries=10), FakeProbes(entries=11),
             RUNG_SHRINK_CACHES),
            (GovernorBudgets(open_fds=64), FakeProbes(fds=65),
             RUNG_SERIAL),
            (GovernorBudgets(disk_free_bytes=1000),
             FakeProbes(disk_free=999), RUNG_SHED),
        ]
        for budgets, probes, expected in cases:
            gov = governed(budgets, probes)
            assert gov.assess() == expected, rung_name(expected)

    def test_rss_pressure_escalates_progressively(self):
        probes = FakeProbes(rss=2000)
        gov = governed(GovernorBudgets(rss_bytes=1000), probes)
        seen = [gov.assess() for _ in range(6)]
        assert seen == [RUNG_SHRINK_CACHES, RUNG_SERIAL, RUNG_SHED,
                        RUNG_PARK, RUNG_PARK, RUNG_PARK]
        assert gov.peak_rung() == RUNG_PARK

    def test_multiple_breaches_take_the_max_rung(self):
        gov = governed(
            GovernorBudgets(cache_entries=10, open_fds=64),
            FakeProbes(entries=99, fds=99))
        assert gov.assess() == RUNG_SERIAL

    def test_recovery_steps_down_one_rung_after_streak(self):
        probes = FakeProbes(fds=99)
        gov = governed(GovernorBudgets(open_fds=64), probes,
                       recover_after=2)
        assert gov.assess() == RUNG_SERIAL
        probes.fds = 1
        assert gov.assess() == RUNG_SERIAL   # streak 1
        assert gov.assess() == RUNG_SERIAL - 1  # streak 2 -> step down
        assert gov.assess() == RUNG_SERIAL - 1  # streak restarts
        assert gov.assess() == RUNG_SERIAL - 2
        snap = gov.snapshot()
        assert snap["escalations"] == 1
        assert snap["recoveries"] == 2

    def test_breach_resets_the_recovery_streak(self):
        probes = FakeProbes(fds=99)
        gov = governed(GovernorBudgets(open_fds=64), probes,
                       recover_after=3)
        gov.assess()
        probes.fds = 1
        gov.assess()
        gov.assess()
        probes.fds = 99  # breach again before the streak completes
        gov.assess()
        probes.fds = 1
        gov.assess()
        gov.assess()
        assert gov.rung() == RUNG_SERIAL  # two clears: not yet recovered


class TestLatches:
    def test_enospc_latches_park(self):
        probes = FakeProbes()
        gov = governed(GovernorBudgets(), probes, recover_after=1)
        gov.record_enospc("A0")
        assert gov.rung() == RUNG_PARK
        assert gov.should_park()
        for _ in range(10):  # all-clear assessments cannot descend
            gov.assess()
        assert gov.rung() == RUNG_PARK

    def test_latch_does_not_lower_a_higher_rung(self):
        probes = FakeProbes(rss=99)
        gov = governed(GovernorBudgets(rss_bytes=10), probes)
        for _ in range(4):
            gov.assess()
        assert gov.rung() == RUNG_PARK
        escalations = gov.snapshot()["escalations"]
        gov.record_enospc()
        snap = gov.snapshot()
        assert gov.rung() == RUNG_PARK  # floor raised, rung untouched
        assert snap["floor"] == "park"
        assert snap["escalations"] == escalations


class TestTickPacing:
    def test_assessments_are_paced_by_assess_every(self):
        probes = FakeProbes(fds=99)
        gov = ResourceGovernor(
            budgets=GovernorBudgets(open_fds=64), probes=probes,
            policy=GovernorPolicy(assess_every=4))
        for _ in range(3):
            assert gov.tick() == RUNG_NORMAL
        assert gov.tick() == RUNG_SERIAL  # 4th tick runs the assessment
        assert gov.snapshot()["assessments"] == 1


class TestFaultSite:
    def test_governor_rss_fault_forces_a_breach(self):
        plan = FaultPlan(seed=7, specs=[
            FaultSpec(site="governor.rss", kind="pressure", rate=1.0)])
        gov = governed(GovernorBudgets(rss_bytes=1000), FakeProbes(rss=1),
                       faults=plan)
        assert gov.assess() == RUNG_SHRINK_CACHES
        reading = gov.snapshot()["readings"]["rss_bytes"]
        assert reading["breached"]
        assert reading["value"] == 2000  # budget * 2, visibly over
        assert len(plan.log) == 1

    def test_fault_decisions_are_seeded(self):
        def fires(seed):
            plan = FaultPlan(seed=seed, specs=[
                FaultSpec(site="governor.rss", kind="pressure", rate=0.5)])
            gov = governed(GovernorBudgets(rss_bytes=1000),
                           FakeProbes(rss=1), faults=plan)
            for _ in range(20):
                gov.assess()
            return [tuple(e["key"]) for e in plan.log.to_dicts()]

        assert fires(3) == fires(3)
        assert fires(3) != fires(4)


class TestQueries:
    def test_effective_settings_per_rung(self):
        probes = FakeProbes(rss=99)
        gov = governed(GovernorBudgets(rss_bytes=10), probes)
        assert gov.effective_workers(4) == 4
        assert gov.cache_entries_for(4096) == 4096
        gov.assess()  # shrink-caches
        assert gov.cache_entries_for(4096) == 64
        assert gov.cache_entries_for(None) == 64
        assert gov.row_cache_rows_for(None) == 64
        assert gov.effective_workers(4) == 4
        gov.assess()  # serial
        assert gov.effective_workers(4) == 1
        assert not gov.should_shed()
        gov.assess()  # shed
        assert gov.should_shed()
        assert not gov.should_park()
        gov.assess()  # park
        assert gov.should_park()

    def test_transition_history_is_bounded_but_counts_are_not(self):
        probes = FakeProbes(fds=99)
        gov = governed(GovernorBudgets(open_fds=64), probes,
                       recover_after=1)
        for _ in range(80):
            probes.fds = 99
            gov.assess()
            probes.fds = 1
            gov.assess()
        snap = gov.snapshot()
        assert len(snap["transitions"]) <= ResourceGovernor.MAX_TRANSITIONS
        assert snap["escalations"] == 80
        assert snap["recoveries"] == 80

    def test_render_names_the_transitions(self):
        probes = FakeProbes(fds=99)
        gov = governed(GovernorBudgets(open_fds=64), probes)
        gov.assess()
        text = gov.render()
        assert "rung serial" in text
        assert "normal -> serial" in text
        assert "open_fds" in text


class TestPoolLosses:
    """Worker-pool losses: the one governor input that is not a
    budget."""

    def test_losses_below_the_limit_stay_normal(self):
        gov = governed(GovernorBudgets(), FakeProbes())
        for _ in range(POOL_LOSS_LIMIT - 1):
            gov.record_pool_loss()
        assert gov.rung() == RUNG_NORMAL
        assert gov.effective_workers(4) == 4
        assert gov.snapshot()["pool_losses"] == POOL_LOSS_LIMIT - 1

    def test_reaching_the_limit_escalates_to_serial_and_no_further(self):
        gov = governed(GovernorBudgets(), FakeProbes())
        for _ in range(POOL_LOSS_LIMIT):
            gov.record_pool_loss()
        assert gov.rung() == RUNG_SERIAL
        assert gov.effective_workers(4) == 1
        for _ in range(10):
            gov.record_pool_loss()
        snap = gov.snapshot()
        assert gov.rung() == RUNG_SERIAL
        assert snap["escalations"] == 1
        assert "worker-pool loss" in snap["transitions"][0]["reason"]

    def test_clear_streak_steps_down_and_resets_the_count(self):
        gov = governed(GovernorBudgets(), FakeProbes(), recover_after=2)
        for _ in range(POOL_LOSS_LIMIT):
            gov.record_pool_loss()
        assert gov.assess() == RUNG_SERIAL    # streak 1
        assert gov.assess() == RUNG_SHRINK_CACHES  # streak 2 -> step down
        assert gov.snapshot()["pool_losses"] == 0
        gov.assess()
        assert gov.assess() == RUNG_NORMAL
        assert gov.snapshot()["recoveries"] == 2

    def test_loss_during_recovery_re_escalates(self):
        gov = governed(GovernorBudgets(), FakeProbes(), recover_after=2)
        for _ in range(POOL_LOSS_LIMIT):
            gov.record_pool_loss()
        gov.assess()
        gov.record_pool_loss()  # restarts the clear streak
        assert gov.assess() == RUNG_SERIAL
        assert gov.assess() == RUNG_SHRINK_CACHES  # still recovering
        gov.record_pool_loss()  # one loss, count 1: straight back
        assert gov.rung() == RUNG_SERIAL
        assert gov.snapshot()["escalations"] == 2

    def test_budgetless_governor_never_sheds_or_parks(self):
        class NoProbes:
            def __getattr__(self, name):
                raise AssertionError(f"probed {name} without a budget")

        gov = ResourceGovernor(probes=NoProbes(),
                               policy=GovernorPolicy(assess_every=1))
        assert not gov.governed
        assert governed(GovernorBudgets(), FakeProbes()).governed
        for _ in range(50):
            gov.record_pool_loss()
            gov.tick()
        assert gov.peak_rung() == RUNG_SERIAL
        assert not gov.should_shed() and not gov.should_park()
        assert all(not reading["breached"] for reading
                   in gov.snapshot()["readings"].values())


@pytest.fixture
def installed_cache():
    previous = install_shared_matrix_cache(None)
    cache = SharedMatrixCache(entries=100)
    install_shared_matrix_cache(cache)
    for index in range(90):
        cache.put(("key", index), (np.zeros(2), np.ones(2, dtype=bool)))
    yield cache
    install_shared_matrix_cache(previous)


class TestCachePolicy:
    def test_shrink_evicts_in_place_and_recovery_restores(
            self, installed_cache):
        probes = FakeProbes(fds=99)
        gov = governed(GovernorBudgets(open_fds=64), probes,
                       recover_after=1)
        gov.assess()  # serial (>= shrink-caches)
        gov.apply_cache_policy()
        assert installed_cache.entries == SHRUNK_CACHE_ENTRIES
        assert len(installed_cache) == SHRUNK_CACHE_ENTRIES
        probes.fds = 1
        while gov.rung() != RUNG_NORMAL:
            gov.assess()
            gov.apply_cache_policy()
        assert installed_cache.entries == 100  # original bound restored

    def test_shrink_is_idempotent_per_rung(self, installed_cache):
        gov = governed(GovernorBudgets(open_fds=64), FakeProbes(fds=99))
        gov.assess()
        for _ in range(3):
            gov.apply_cache_policy()
        assert installed_cache.entries == SHRUNK_CACHE_ENTRIES
        gov.apply_cache_policy()  # nothing to restore at the same rung
        assert installed_cache.entries == SHRUNK_CACHE_ENTRIES

    def test_normal_rung_leaves_the_cache_alone(self, installed_cache):
        gov = governed(GovernorBudgets(), FakeProbes())
        gov.apply_cache_policy()
        assert installed_cache.entries == 100
        assert len(installed_cache) == 90

    def test_no_installed_cache_is_fine(self):
        previous = install_shared_matrix_cache(None)
        try:
            gov = governed(GovernorBudgets(open_fds=64), FakeProbes(fds=99))
            gov.assess()
            gov.apply_cache_policy()  # must not raise with no cache
            assert gov.rung() == RUNG_SERIAL
        finally:
            install_shared_matrix_cache(previous)


class TestBuildGovernor:
    def test_disabled_without_flags_or_enable(self):
        assert build_governor(None) is None

    def test_budget_flag_implies_enable(self):
        gov = build_governor(None, rss_budget_mb=100)
        assert gov is not None
        assert gov.budgets.rss_bytes == 100 * 1024 * 1024

    def test_enabled_reads_config_budgets(self):
        class Config:
            rss_budget_mb = 1
            fd_budget = 256
            disk_headroom_mb = None
            cache_entry_budget = None
            assess_every = 2
            recover_after = 5

        gov = build_governor(Config(), enabled=True)
        assert gov.budgets.rss_bytes == 1024 * 1024
        assert gov.budgets.open_fds == 256
        assert gov.policy.assess_every == 2
        assert gov.policy.recover_after == 5

    def test_flag_beats_config(self):
        class Config:
            fd_budget = 256

        gov = build_governor(Config(), fd_budget=64)
        assert gov.budgets.open_fds == 64
