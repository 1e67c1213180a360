"""The governed campaign service: shed, recover, health, accept chaos.

A shared governor behind ``deeprh serve`` turns resource pressure into
clean 429-style rejections instead of OOM kills: requests arriving at
rung *shed* get an explicit ``rejected`` event naming the rung, the
``health`` op exposes the full ladder state to pollers, and once
pressure clears the service re-admits — with results byte-identical to
an unpressured solo run.  Worker-pool losses are one more governor
input: enough of them step even an ungoverned service down to serial
until a clear streak brings it back.  ``serve.accept:emfile`` chaos
proves a client that loses its slot can reconnect and carry on.
"""

import asyncio
import threading
import time

import pytest

from repro.core.config import PRESETS
from repro.core.serialize import result_to_dict
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runner import (
    CampaignRunner,
    GovernorBudgets,
    GovernorPolicy,
    ResourceGovernor,
)
from repro.runner.governor import POOL_LOSS_LIMIT
from repro.serve import CampaignService, ServeClient, ServeClientError
from repro.serve.protocol import REASON_SHED, canonical_result_bytes

pytestmark = [pytest.mark.faults, pytest.mark.slow]

OVERRIDES = {
    "rows_per_region": 8,
    "modules_per_manufacturer": 1,
    "temperatures_c": (50.0, 85.0),
    "hcfirst_repetitions": 1,
    "wcdp_sample_rows": 2,
}


def tiny_config(seed):
    return PRESETS["quick"].scaled(seed=seed, **OVERRIDES)


def solo_bytes(seed) -> bytes:
    outcome = CampaignRunner(tiny_config(seed)).run("temperature")
    return canonical_result_bytes(result_to_dict(outcome.result))


class PressureProbes:
    """Probes whose disk reading a test flips while the service runs."""

    def __init__(self):
        self.disk_free = 1 << 40

    def rss_bytes(self):
        return 0

    def open_fds(self):
        return 0

    def disk_free_bytes(self, path):
        return self.disk_free

    def cache_entries(self):
        return 0


class ServiceHarness:
    """Run a CampaignService on a background event-loop thread."""

    def __init__(self, tmp_path, **kwargs):
        self.socket = tmp_path / "serve.sock"
        kwargs.setdefault("drain_grace_s", 0.1)
        self.service = CampaignService(self.socket, **kwargs)
        self.loop = None
        self.exit_code = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            ready = asyncio.Event()
            task = asyncio.ensure_future(self.service.serve_forever(
                install_signals=False, ready=ready))
            await ready.wait()
            self.loop = asyncio.get_running_loop()
            self._started.set()
            return await task

        try:
            self.exit_code = asyncio.run(main())
        finally:
            self._started.set()

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(10), "service failed to start"
        assert self.socket.exists(), "service socket never appeared"
        return self

    def __exit__(self, *exc_info):
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.service.begin_drain,
                                           "teardown")
        self._thread.join(60)
        assert not self._thread.is_alive(), "service failed to drain"

    def client(self, timeout=300.0, **kwargs):
        return ServeClient(self.socket, timeout=timeout, **kwargs)


def wait_for_rung(client, rung, deadline_s=15.0):
    """Poll the health op until the governor reports ``rung``."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        event = client.health()
        if event["governor"]["rung"] == rung:
            return event
        time.sleep(0.05)
    raise AssertionError(f"governor never reached rung {rung!r}: "
                         f"{client.health()}")


class TestShedAndRecover:
    def test_pressure_sheds_admission_then_recovery_readmits(
            self, tmp_path):
        probes = PressureProbes()
        governor = ResourceGovernor(
            budgets=GovernorBudgets(disk_free_bytes=1 << 20), probes=probes,
            policy=GovernorPolicy(assess_every=1, recover_after=1),
            disk_path="/")
        with ServiceHarness(tmp_path, governor=governor,
                            health_interval_s=0.02) as harness:
            with harness.client() as client:
                assert client.ping()
                event = client.health()
                assert event["event"] == "health"
                assert event["governed"] is True
                assert event["governor"]["rung"] == "normal"

                probes.disk_free = 0  # blow the headroom budget
                wait_for_rung(client, "shed")
                reply = client.campaign("temperature", preset="quick",
                                        seed=210, overrides=OVERRIDES)
                assert reply.status == "rejected"
                assert reply.reason == REASON_SHED
                assert "shed" in reply.detail

                status = client.status()
                assert status["governed"] is True
                assert status["governor_rung"] == "shed"
                assert status["admission"]["rejected_shed"] >= 1

                probes.disk_free = 1 << 40  # pressure clears
                wait_for_rung(client, "normal")
                reply = client.campaign("temperature", preset="quick",
                                        seed=210, overrides=OVERRIDES)
                assert reply.ok
                assert reply.result_bytes() == solo_bytes(210)

    def test_ungoverned_service_reports_health_too(self, tmp_path):
        with ServiceHarness(tmp_path) as harness:
            with harness.client() as client:
                event = client.health()
                assert event["governed"] is False
                assert event["governor"]["rung"] == "normal"


class TestPoolLosses:
    def test_pool_loss_storm_degrades_to_serial_then_recovers(
            self, tmp_path):
        """Every ``workers=2`` request loses its pool once to an injected
        worker crash.  The POOL_LOSS_LIMIT-th loss puts the (ungoverned)
        service on rung *serial*: the next request runs degraded yet
        byte-identical to a solo run, and clear assessments from the
        health loop walk the ladder back to *normal*."""
        victim = tiny_config(230).module_specs()[1].module_id
        plan = FaultPlan(seed=13, specs=[
            FaultSpec(site="campaign.worker", kind="crash",
                      match=f"{victim}/dispatch1")])
        with ServiceHarness(tmp_path, fault_plan=plan,
                            health_interval_s=0.05) as harness:
            with harness.client() as client:
                losing = 0
                while client.health()["governor"]["rung"] != "serial":
                    assert losing < POOL_LOSS_LIMIT, client.health()
                    reply = client.campaign(
                        "temperature", seed=230 + losing,
                        overrides=OVERRIDES, workers=2)
                    assert reply.ok, (reply.status, reply.detail)
                    assert not reply.degraded
                    losing += 1
                assert losing == POOL_LOSS_LIMIT
                health = client.health()
                assert health["governed"] is False
                assert health["governor"]["pool_losses"] == POOL_LOSS_LIMIT

                reply = client.campaign("temperature", seed=240,
                                        overrides=OVERRIDES, workers=2)
                assert reply.ok, (reply.status, reply.detail)
                assert reply.degraded is True
                assert reply.stats["workers"] == 1
                assert reply.result_bytes() == solo_bytes(240)

                event = wait_for_rung(client, "normal")
                assert event["governor"]["pool_losses"] == 0
                assert event["governor"]["recoveries"] >= 2
                assert event["governor"]["peak_rung"] == "serial"


class TestAcceptChaos:
    def test_emfile_dropped_client_reconnects_and_completes(self, tmp_path):
        """``serve.accept:emfile`` closes the first accepted connection
        (the accept loop survives); an explicit reconnect gets a fresh
        slot and the request still reaches byte parity."""
        plan = FaultPlan(seed=11, specs=[
            FaultSpec(site="serve.accept", kind="emfile", max_fires=1)])
        with ServiceHarness(tmp_path, fault_plan=plan) as harness:
            client = harness.client()
            try:
                with pytest.raises(ServeClientError):
                    client.ping()  # server shed this connection's fd
                client.reconnect()
                assert client.ping()
                reply = client.campaign("temperature", preset="quick",
                                        seed=211, overrides=OVERRIDES)
                assert reply.ok
                assert reply.result_bytes() == solo_bytes(211)
            finally:
                client.close()
