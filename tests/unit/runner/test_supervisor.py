"""Tests for the supervised parallel dispatch loop."""

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError, WorkerLostError
from repro.runner.retry import Deadline, VirtualClock
from repro.runner.supervisor import (
    EVENT_KINDS,
    CampaignSupervisor,
    SupervisionEvent,
    SupervisionLog,
    SupervisorPolicy,
    _terminate_pool,
)

pytestmark = pytest.mark.faults


@dataclass(frozen=True)
class _Spec:
    module_id: str


@dataclass(frozen=True)
class _Task:
    module_id: str
    dispatch: int
    crash_on: str = ""        # module_id that dies on its first dispatch
    always_crash: str = ""    # module_id that dies on every dispatch
    fail_on: str = ""         # module_id that raises (stays in-process)


def _worker(task: _Task) -> dict:
    if task.module_id == task.always_crash:
        os._exit(73)
    if task.module_id == task.crash_on and task.dispatch == 1:
        os._exit(73)
    if task.module_id == task.fail_on:
        raise ValueError(f"worker bug in {task.module_id}")
    return {"module_id": task.module_id, "dispatch": task.dispatch}


def _supervise(specs, workers=2, policy=None, **task_kwargs):
    def make_task(spec, dispatch):
        return _Task(spec.module_id, dispatch, **task_kwargs)
    supervisor = CampaignSupervisor(_worker, make_task, workers=workers,
                                    policy=policy)
    return supervisor.run(specs)


class TestDeadline:
    def test_none_budget_never_expires(self):
        clock = VirtualClock()
        deadline = Deadline(None, clock=clock)
        clock.sleep(1e9)
        assert not deadline.expired()
        assert deadline.remaining_s() is None

    def test_expires_after_budget(self):
        clock = VirtualClock()
        deadline = Deadline(2.0, clock=clock)
        clock.sleep(1.0)
        assert not deadline.expired()
        assert deadline.remaining_s() == pytest.approx(1.0)
        clock.sleep(1.5)
        assert deadline.expired()
        assert deadline.remaining_s() == 0.0
        assert deadline.elapsed_s() == pytest.approx(2.5)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ConfigError):
            Deadline(0.0)
        with pytest.raises(ConfigError):
            Deadline(-1.0)


class TestSupervisorPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.module_deadline_s is None
        assert policy.max_requeues == 2

    @pytest.mark.parametrize("kwargs", [
        {"module_deadline_s": 0.0},
        {"module_deadline_s": -5.0},
        {"max_requeues": -1},
        {"poll_interval_s": 0.0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisorPolicy(**kwargs)


class TestSupervisionLog:
    def test_rejects_unknown_kind(self):
        log = SupervisionLog()
        with pytest.raises(ConfigError, match="unknown supervision event"):
            log.record(SupervisionEvent("explode", "A0", 1))

    def test_counts_and_by_kind(self):
        log = SupervisionLog()
        log.record(SupervisionEvent("dispatch", "A0", 1))
        log.record(SupervisionEvent("dispatch", "B1", 1))
        log.record(SupervisionEvent("complete", "A0", 1))
        assert log.count("dispatch") == 2
        assert log.count("dispatch", module_id="A0") == 1
        assert log.by_kind() == {"dispatch": 2, "complete": 1}
        assert not log.eventful()

    def test_eventful_on_any_incident(self):
        log = SupervisionLog()
        log.record(SupervisionEvent("worker-lost", "A0", 1))
        assert log.eventful()

    def test_to_dicts_and_render(self):
        log = SupervisionLog()
        assert log.render() == "no supervision events"
        log.record(SupervisionEvent("requeue", "A0", 2, "pool broke"))
        assert log.to_dicts() == [{"kind": "requeue", "module_id": "A0",
                                   "dispatch": 2, "detail": "pool broke"}]
        assert "requeue: 1" in log.render()
        for kind in EVENT_KINDS:
            log.record(SupervisionEvent(kind, "B1", 1))
        assert len(log) == 1 + len(EVENT_KINDS)


class TestCampaignSupervisor:
    def test_fault_free_run_completes_all_modules(self):
        specs = [_Spec("A0"), _Spec("B1"), _Spec("C2")]
        result = _supervise(specs)
        assert sorted(result.reports) == ["A0", "B1", "C2"]
        assert all(r["dispatch"] == 1 for r in result.reports.values())
        assert result.lost == [] and result.first_error is None
        assert result.log.count("dispatch") == 3
        assert result.log.count("complete") == 3
        assert not result.log.eventful()

    def test_crash_is_requeued_and_recovered(self):
        specs = [_Spec("A0"), _Spec("B1"), _Spec("C2")]
        result = _supervise(specs, crash_on="B1")
        assert sorted(result.reports) == ["A0", "B1", "C2"]
        assert result.reports["B1"]["dispatch"] >= 2
        assert result.lost == []
        assert result.log.count("worker-lost") >= 1
        assert result.log.count("respawn") >= 1
        assert result.log.count("requeue", module_id="B1") >= 1

    def test_persistent_crasher_is_given_up(self):
        specs = [_Spec("A0"), _Spec("B1")]
        policy = SupervisorPolicy(max_requeues=1)
        result = _supervise(specs, policy=policy, always_crash="B1")
        assert "A0" in result.reports and "B1" not in result.reports
        assert len(result.lost) == 1
        error = result.lost[0]
        assert isinstance(error, WorkerLostError)
        assert error.module_id == "B1" and error.dispatches == 2
        assert result.log.count("give-up", module_id="B1") == 1

    def test_in_process_exception_becomes_first_error(self):
        specs = [_Spec("A0"), _Spec("B1")]
        result = _supervise(specs, workers=1, fail_on="B1")
        assert isinstance(result.first_error, ValueError)
        assert "A0" in result.reports
        assert result.lost == []

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigError):
            CampaignSupervisor(_worker, lambda s, d: None, workers=0)

    def test_every_pool_forks_explicitly(self, monkeypatch):
        """Both the first pool and each respawned one name the ``fork``
        start method instead of inheriting the interpreter default
        (forkserver on Linux from Python 3.14)."""
        methods = []
        original = ProcessPoolExecutor.__init__

        def recording_init(self, *args, **kwargs):
            context = kwargs.get("mp_context")
            methods.append(context.get_start_method()
                           if context is not None else None)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", recording_init)
        result = _supervise([_Spec("A0"), _Spec("B1")], crash_on="B1")
        assert sorted(result.reports) == ["A0", "B1"]
        assert result.log.count("respawn") >= 1
        assert len(methods) == 1 + result.log.count("respawn")
        assert methods == ["fork"] * len(methods)


def _ignore_sigterm() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _sleep(seconds: float, started: str = "") -> float:
    if started:
        open(started, "w").close()
    time.sleep(seconds)
    return seconds


class TestPoolTeardown:
    def test_teardown_kills_a_worker_that_survives_sigterm(self, tmp_path):
        """A worker that outlives SIGTERM (a pending inherited handler
        dropped by the signal reset has the same effect as ignoring it)
        must not wedge the pool's teardown."""
        started = tmp_path / "started"
        pool = ProcessPoolExecutor(max_workers=1,
                                   initializer=_ignore_sigterm)
        pool.submit(_sleep, 600.0, str(started))
        deadline = time.monotonic() + 60
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started.exists(), "worker never picked up its task"
        thread = threading.Thread(target=_terminate_pool, args=(pool,),
                                  daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "pool teardown wedged on a worker"
