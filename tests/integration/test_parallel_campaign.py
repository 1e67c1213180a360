"""Parallel campaign execution: worker merges are byte-identical to serial.

The runner's ``workers > 1`` mode fans module runs out to worker
processes.  Because modules are mutually independent and all randomness is
structural (derived from seeds, never from call order), the merged study
result, the checkpoint files and the quarantine list must match a serial
run exactly — parallelism is purely a wall-clock optimization.  Worker
payloads travel home through the pool's pickled result pipe; nothing is
staged in shared memory or in temp directories.
"""

import json
import os
import tempfile

import pytest

from repro.core.config import QUICK
from repro.core.serialize import result_to_dict
from repro.core.temperature_study import TemperatureStudy
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, FaultSpec, parse_fault_plan
from repro.runner import CampaignRunner, RetryPolicy

pytestmark = pytest.mark.faults

CONFIG = QUICK.scaled(rows_per_region=12, modules_per_manufacturer=1,
                      temperatures_c=(50.0, 70.0, 90.0),
                      hcfirst_repetitions=1, wcdp_sample_rows=2)


@pytest.fixture(scope="module")
def specs():
    return CONFIG.module_specs()


@pytest.fixture(scope="module")
def uninterrupted_dict(specs):
    return result_to_dict(TemperatureStudy(CONFIG).run(specs))


def canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def checkpoint_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("module-*.grid"))}


@pytest.fixture
def created(tmp_path, monkeypatch):
    """Shared-memory segments and temp dirs created while the test runs.

    ``shm_open`` and ``tempfile.mkdtemp`` are wrapped to append what
    they create to a log file; forked pool workers inherit the wrappers,
    so creations in any process of the campaign are recorded — including
    ones removed again before the campaign returns.
    """
    posixshmem = pytest.importorskip("_posixshmem")
    log = tmp_path / "created.log"

    def record(entry: str) -> None:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(entry + "\n")

    shm_open = posixshmem.shm_open
    mkdtemp = tempfile.mkdtemp

    def recording_shm_open(name, *args, **kwargs):
        record(f"shm {name}")
        return shm_open(name, *args, **kwargs)

    def recording_mkdtemp(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        record(f"dir {os.path.basename(path)}")
        return path

    monkeypatch.setattr(posixshmem, "shm_open", recording_shm_open)
    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    return lambda: log.read_text(encoding="utf-8").splitlines() \
        if log.exists() else []


class TestParallelEqualsSerial:
    def test_worker_merge_byte_identical(self, specs, uninterrupted_dict):
        serial = CampaignRunner(CONFIG).run("temperature", specs)
        parallel = CampaignRunner(CONFIG, workers=4).run("temperature", specs)
        assert canonical(parallel.result) == canonical(serial.result)
        assert result_to_dict(parallel.result) == uninterrupted_dict
        assert parallel.stats.units_run == serial.stats.units_run
        assert parallel.stats.modules_completed == len(specs)

    def test_rate_faulted_campaign_identical(self, specs):
        """Rate-based fault decisions are pure in (seed, site, kind, key),
        so worker processes fire exactly the faults a serial run fires."""
        serial_plan = parse_fault_plan("campaign.unit=0.08", seed=CONFIG.seed)
        parallel_plan = parse_fault_plan("campaign.unit=0.08",
                                         seed=CONFIG.seed)
        serial = CampaignRunner(
            CONFIG, fault_plan=serial_plan,
            retry=RetryPolicy(max_attempts=3)).run("temperature", specs)
        parallel = CampaignRunner(
            CONFIG, fault_plan=parallel_plan, workers=3,
            retry=RetryPolicy(max_attempts=3)).run("temperature", specs)
        assert canonical(parallel.result) == canonical(serial.result)
        assert parallel_plan.log.to_dicts() == serial_plan.log.to_dicts()
        assert parallel.stats.units_retried == serial.stats.units_retried
        assert ([r.module_id for r in parallel.quarantined]
                == [r.module_id for r in serial.quarantined])

    def test_worker_crash_chaos_converges_to_serial_bytes(
            self, specs, uninterrupted_dict):
        """A worker killed mid-module is requeued and re-run; the merged
        result is still byte-identical to the serial run."""
        victim = specs[2].module_id
        plan = FaultPlan(seed=CONFIG.seed, specs=[
            FaultSpec(site="campaign.worker", kind="crash",
                      match=f"{victim}/dispatch1")])
        outcome = CampaignRunner(CONFIG, workers=4,
                                 fault_plan=plan).run("temperature", specs)
        assert outcome.ok
        assert outcome.supervision.count("requeue", module_id=victim) >= 1
        assert result_to_dict(outcome.result) == uninterrupted_dict

    def test_quarantine_order_follows_specs(self, specs):
        target = specs[2].module_id
        plan = FaultPlan(seed=CONFIG.seed, specs=[
            FaultSpec(site="campaign.unit", kind="abort", match=target)])
        outcome = CampaignRunner(
            CONFIG, fault_plan=plan, workers=4,
            retry=RetryPolicy(max_attempts=2)).run("temperature", specs)
        assert [r.module_id for r in outcome.quarantined] == [target]
        assert outcome.stats.modules_completed == len(specs) - 1


class TestParallelCheckpointing:
    def test_checkpoints_match_serial(self, tmp_path, specs):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        CampaignRunner(CONFIG, checkpoint_dir=serial_dir).run("temperature",
                                                              specs)
        CampaignRunner(CONFIG, checkpoint_dir=parallel_dir,
                       workers=4).run("temperature", specs)
        serial_files = checkpoint_bytes(serial_dir)
        assert serial_files
        assert checkpoint_bytes(parallel_dir) == serial_files

    def test_parallel_resume_from_serial_checkpoints(self, tmp_path, specs,
                                                     uninterrupted_dict):
        CampaignRunner(CONFIG, checkpoint_dir=tmp_path).run(
            "temperature", specs[:2])
        outcome = CampaignRunner(CONFIG, checkpoint_dir=tmp_path, resume=True,
                                 workers=4).run("temperature", specs)
        assert outcome.stats.modules_resumed == 2
        assert outcome.stats.modules_completed == len(specs) - 2
        assert result_to_dict(outcome.result) == uninterrupted_dict

    def test_serial_resume_with_workers_is_byte_identical(
            self, tmp_path, specs, uninterrupted_dict):
        """A serial half-campaign resumed with workers leaves the same
        checkpoint bytes as an uninterrupted serial campaign."""
        serial_dir = tmp_path / "serial"
        resumed_dir = tmp_path / "resumed"
        CampaignRunner(CONFIG, checkpoint_dir=serial_dir).run(
            "temperature", specs)
        CampaignRunner(CONFIG, checkpoint_dir=resumed_dir).run(
            "temperature", specs[:2])
        outcome = CampaignRunner(CONFIG, checkpoint_dir=resumed_dir,
                                 resume=True,
                                 workers=4).run("temperature", specs)
        assert result_to_dict(outcome.result) == uninterrupted_dict
        assert checkpoint_bytes(resumed_dir) == checkpoint_bytes(serial_dir)

    def test_parallel_checkpoints_verify_clean(self, tmp_path, specs):
        from repro.runner.checkpoint import audit_checkpoint_dir
        CampaignRunner(CONFIG, workers=3,
                       checkpoint_dir=tmp_path).run("temperature", specs)
        audit = audit_checkpoint_dir(tmp_path)
        assert audit.ok
        assert sorted(audit.verified) == sorted(s.module_id for s in specs)


class TestPipeTransport:
    def test_parallel_campaign_creates_no_shm_segment_or_arena_dir(
            self, tmp_path, specs, created):
        """Payloads ride the result pipe: a ``workers=2`` campaign opens
        no ``drh*``/``psm_*`` shared-memory segment and makes no
        ``deeprh-arena-*`` temp dir, in the parent or in any worker."""
        outcome = CampaignRunner(CONFIG, workers=2,
                                 checkpoint_dir=tmp_path / "ckpt").run(
            "temperature", specs)
        assert outcome.stats.modules_completed == len(specs)
        offending = [entry for entry in created()
                     if entry.startswith(("shm /drh", "shm /psm_",
                                          "dir deeprh-arena-"))]
        assert offending == []


class TestParallelGuards:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigError):
            CampaignRunner(CONFIG, workers=0)

    def test_order_dependent_fault_specs_rejected(self, specs):
        plan = FaultPlan(seed=CONFIG.seed, specs=[
            FaultSpec(site="campaign.unit", kind="crash", after=5,
                      max_fires=1)])
        runner = CampaignRunner(CONFIG, fault_plan=plan, workers=2)
        with pytest.raises(ConfigError, match="workers"):
            runner.run("temperature", specs)

    def test_rate_only_specs_accepted(self, specs):
        plan = parse_fault_plan("campaign.unit=0.01", seed=CONFIG.seed)
        outcome = CampaignRunner(CONFIG, fault_plan=plan,
                                 workers=2).run("temperature", specs[:1])
        done = outcome.stats.modules_completed + len(outcome.quarantined)
        assert done == 1
