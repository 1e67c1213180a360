"""Respawn-storm protection, as the resource governor now provides it.

``deeprh serve`` once guarded worker-pool losses with a wall-clock
circuit breaker (closed → open → half-open).  Pool losses are now one
more governor input: the limit-th loss sends the ladder to *serial*
(the old *open*), an ordinary clear-assessment streak steps it back
down (the old cooldown and trial), and a step down resets the loss
count (the old window).  These tests pin each of those trip and
recovery guarantees on the budget-less governor an ungoverned service
holds, with no wall clock involved.
"""

from repro.runner.governor import (
    POOL_LOSS_LIMIT,
    RUNG_NORMAL,
    RUNG_SERIAL,
    RUNG_SHRINK_CACHES,
    GovernorPolicy,
    ResourceGovernor,
)

RECOVER_AFTER = 2


def make() -> ResourceGovernor:
    return ResourceGovernor(
        policy=GovernorPolicy(assess_every=1, recover_after=RECOVER_AFTER))


def trip(governor: ResourceGovernor) -> None:
    for _ in range(POOL_LOSS_LIMIT):
        governor.record_pool_loss()


class TestTrip:
    def test_starts_closed_and_allows_parallel(self):
        governor = make()
        assert governor.rung() == RUNG_NORMAL
        assert governor.effective_workers(4) == 4
        assert governor.snapshot()["pool_losses"] == 0

    def test_losses_below_threshold_stay_closed(self):
        governor = make()
        for _ in range(POOL_LOSS_LIMIT - 1):
            governor.record_pool_loss()
        assert governor.rung() == RUNG_NORMAL
        assert governor.snapshot()["transitions"] == []

    def test_threshold_losses_in_window_trip_open(self):
        governor = make()
        trip(governor)
        assert governor.rung() == RUNG_SERIAL
        assert governor.effective_workers(4) == 1
        transition = governor.snapshot()["transitions"][-1]
        assert (transition["from"], transition["to"]) == ("normal", "serial")
        assert transition["direction"] == "escalations"

    def test_stale_losses_age_out_of_the_window(self):
        governor = make()
        trip(governor)
        while governor.rung() != RUNG_NORMAL:
            governor.assess()
        # Losses from before the recovery no longer count toward a trip.
        for _ in range(POOL_LOSS_LIMIT - 1):
            governor.record_pool_loss()
        assert governor.rung() == RUNG_NORMAL

    def test_losses_while_open_are_ignored(self):
        governor = make()
        trip(governor)
        for _ in range(5):
            governor.record_pool_loss()
        snap = governor.snapshot()
        assert governor.rung() == RUNG_SERIAL
        assert snap["escalations"] == 1
        assert snap["peak_rung"] == "serial"


class TestRecovery:
    def test_cooldown_moves_open_to_half_open(self):
        governor = make()
        trip(governor)
        for _ in range(RECOVER_AFTER - 1):
            assert governor.assess() == RUNG_SERIAL
        # One rung down: parallel again, caches still shrunk.
        assert governor.assess() == RUNG_SHRINK_CACHES
        assert governor.effective_workers(4) == 4
        assert governor.cache_entries_for(4096) < 4096

    def test_trial_success_closes(self):
        governor = make()
        trip(governor)
        while governor.rung() != RUNG_NORMAL:
            governor.assess()
        snap = governor.snapshot()
        assert governor.effective_workers(4) == 4
        assert governor.cache_entries_for(4096) == 4096
        assert snap["recoveries"] == RUNG_SERIAL - RUNG_NORMAL
        assert snap["pool_losses"] == 0


class TestPolicyAndSnapshot:
    def test_snapshot_reports_state_and_counts(self):
        governor = make()
        governor.record_pool_loss()
        snap = governor.snapshot()
        assert snap["rung"] == "normal"
        assert snap["pool_losses"] == 1
        assert snap["escalations"] == 0
