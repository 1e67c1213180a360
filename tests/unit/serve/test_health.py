"""The service's health view: the governor it holds, reported as is.

``deeprh serve`` consults its one resource governor before admitting a
request and serializes that governor's snapshot for the ``health`` op.
"""

import pytest

from repro.runner.governor import (
    RUNG_SHED,
    GovernorBudgets,
    GovernorPolicy,
    ResourceGovernor,
)
from repro.serve.server import CampaignService

pytestmark = pytest.mark.faults


class NoDiskProbes:
    def disk_free_bytes(self, path):
        return 0


class TestGoverned:
    def test_shed_follows_the_ladder(self, tmp_path):
        governor = ResourceGovernor(
            budgets=GovernorBudgets(disk_free_bytes=100),
            probes=NoDiskProbes(),
            policy=GovernorPolicy(assess_every=1, recover_after=1),
            disk_path="/")
        service = CampaignService(tmp_path / "deeprh.sock",
                                  governor=governor)
        assert service.governed
        assert not service.governor.should_shed()
        assert governor.tick() == RUNG_SHED
        assert service.governor.should_shed()
        event = service._health_event("h1")
        assert event["governed"] is True
        assert event["governor"]["rung"] == "shed"
