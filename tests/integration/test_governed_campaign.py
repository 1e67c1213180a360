"""Governed campaigns: the degradation ladder never changes result bytes.

The acceptance contract for the resource governor: under injected
pressure a campaign walks the ladder — shrink caches, serial workers,
shed, park — and every rung is purely operational.  The
final study result is byte-identical to an unpressured run, parks leave
a resumable manifest, and the serve layer sheds admission cleanly while
reporting its rung through the ``health`` op.
"""

import json

import pytest

from repro.core.config import QUICK
from repro.core.serialize import result_to_dict
from repro.errors import CampaignParked
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import MetricsRegistry, observed
from repro.runner import (
    CampaignRunner,
    GovernorBudgets,
    GovernorPolicy,
    ResourceGovernor,
)

pytestmark = [pytest.mark.faults, pytest.mark.slow]

CONFIG = QUICK.scaled(rows_per_region=12, modules_per_manufacturer=1,
                      temperatures_c=(50.0, 70.0, 90.0),
                      hcfirst_repetitions=1, wcdp_sample_rows=2)


class ScriptedProbes:
    """Probe readings scripted by assessment count, not wall clock.

    ``fd_breach_range`` is a ``(start, stop)`` half-open window of probe
    call numbers during which ``open_fds`` reads over-budget — pressure
    that appears and clears at deterministic points in the campaign.
    """

    def __init__(self, fd_breach_range=(0, 0)):
        self.calls = 0
        self.fd_breach_range = fd_breach_range

    def rss_bytes(self):
        return 0

    def open_fds(self):
        self.calls += 1
        start, stop = self.fd_breach_range
        return 999 if start <= self.calls < stop else 1

    def disk_free_bytes(self, path):
        return 1 << 40

    def cache_entries(self):
        return 0


def make_governor(probes, *, budgets=None, faults=None, recover_after=1):
    return ResourceGovernor(
        budgets=budgets if budgets is not None else GovernorBudgets(),
        probes=probes, faults=faults,
        policy=GovernorPolicy(assess_every=1, recover_after=recover_after))


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.fixture(scope="module")
def specs():
    return CONFIG.module_specs()


@pytest.fixture(scope="module")
def baseline(specs):
    """Canonical bytes of an ungoverned, unpressured serial run."""
    outcome = CampaignRunner(CONFIG).run("temperature", specs)
    return canonical(outcome.result)


class TestLadderByteParity:
    def test_campaign_started_under_pressure_recovers_and_matches(
            self, specs, baseline):
        """fd pressure at startup collapses workers=4 to serial; the
        pressure clears mid-run, the ladder steps back down, and the
        result is byte-identical to the unpressured baseline."""
        probes = ScriptedProbes(fd_breach_range=(1, 4))
        governor = make_governor(probes, budgets=GovernorBudgets(
            open_fds=64))
        outcome = CampaignRunner(CONFIG, workers=4,
                                 governor=governor).run("temperature",
                                                        specs)
        assert canonical(outcome.result) == baseline
        snap = outcome.governor
        assert snap["peak_rung"] == "serial"
        assert snap["rung"] == "normal"  # recovered before the end
        assert snap["escalations"] >= 1
        assert snap["recoveries"] >= 2  # serial -> shrink-caches -> normal
        assert outcome.stats.modules_completed == len(specs)
        assert "governor: peak rung serial" in outcome.degradation_report()

    def test_mid_run_pressure_stands_parallel_dispatch_down(
            self, specs, baseline):
        """Pressure that starts after dispatch forces the supervisor to
        stand down at a tick; the serial continuation finishes the
        campaign with identical bytes."""
        probes = ScriptedProbes(fd_breach_range=(2, 10_000))
        governor = make_governor(probes, budgets=GovernorBudgets(
            open_fds=64))
        metrics = MetricsRegistry()
        with observed(metrics=metrics):
            outcome = CampaignRunner(CONFIG, workers=2,
                                     governor=governor).run("temperature",
                                                            specs)
        assert canonical(outcome.result) == baseline
        snap = outcome.governor
        assert snap["peak_rung"] == "serial"
        assert snap["rung"] == "serial"  # pressure never cleared
        assert outcome.stats.modules_completed == len(specs)


class TestPark:
    def test_rss_fault_parks_with_a_resumable_manifest(self, tmp_path,
                                                       specs, baseline):
        """``governor.rss:pressure`` at rate 1.0 forces a breach on every
        assessment, so the ladder climbs straight past shed into park at
        the next module boundary.  The manifest accounts for every
        module, and a pressure-free resume reaches byte parity."""
        plan = FaultPlan(seed=CONFIG.seed, specs=[
            FaultSpec(site="governor.rss", kind="pressure", rate=1.0)])
        governor = make_governor(
            ScriptedProbes(),
            budgets=GovernorBudgets(rss_bytes=1 << 30), faults=plan)
        with pytest.raises(CampaignParked) as parked:
            CampaignRunner(CONFIG, checkpoint_dir=tmp_path,
                           governor=governor).run("temperature", specs)
        assert parked.value.completed + parked.value.remaining == len(specs)
        assert parked.value.remaining >= 1
        manifest = json.loads((tmp_path / "parked.json").read_text())
        assert manifest["study"] == "temperature"
        assert len(manifest["remaining"]) == parked.value.remaining
        assert manifest["governor"]["rung"] == "park"
        assert "--resume" in manifest["resume"]

        resumed = CampaignRunner(CONFIG, checkpoint_dir=tmp_path,
                                 resume=True).run("temperature", specs)
        assert canonical(resumed.result) == baseline
        assert resumed.stats.modules_resumed == parked.value.completed
        assert not (tmp_path / "parked.json").exists()  # cleared on finish

    def test_enospc_during_publish_parks_then_resumes_to_parity(
            self, tmp_path, specs, baseline):
        victim = specs[-1].module_id
        plan = FaultPlan(seed=CONFIG.seed, specs=[
            FaultSpec(site="checkpoint.publish", kind="enospc",
                      match=victim)])
        governor = make_governor(ScriptedProbes())
        with pytest.raises(CampaignParked) as parked:
            CampaignRunner(CONFIG, checkpoint_dir=tmp_path,
                           fault_plan=plan,
                           governor=governor).run("temperature", specs)
        assert "ENOSPC" in str(parked.value)
        assert governor.should_park()

        resumed = CampaignRunner(CONFIG, checkpoint_dir=tmp_path,
                                 resume=True).run("temperature", specs)
        assert canonical(resumed.result) == baseline

    def test_ungoverned_enospc_still_raises(self, tmp_path, specs):
        """Without a governor the historical contract holds: the OSError
        propagates instead of parking."""
        plan = FaultPlan(seed=CONFIG.seed, specs=[
            FaultSpec(site="checkpoint.publish", kind="enospc",
                      match=specs[0].module_id)])
        with pytest.raises(OSError):
            CampaignRunner(CONFIG, checkpoint_dir=tmp_path,
                           fault_plan=plan).run("temperature", specs)

