"""Smoke-test the fault-injection substrate and the resilient runner.

Runs a short seeded temperature campaign through the campaign runner with
substrate faults injected at the unit-of-work boundary, then verifies the
contract the test suite enforces at scale: every module either completes
or is quarantined, the fault log matches the injected plan, and a
fault-free rerun reproduces the direct study bit-for-bit.

Usage::

    PYTHONPATH=src python tools/faults_smoke.py [--seed N] [--rate R]
    PYTHONPATH=src python tools/faults_smoke.py --chaos

``--chaos`` exercises the supervised parallel path instead: a worker is
crashed and another wedged mid-campaign (``campaign.worker`` faults), and
the merged report must still match a fault-free serial run bit-for-bit with the recovery
visible in the supervision log.

``--governor`` walks the degradation ladder: ``governor.rss:pressure``
at rate 1.0 forces a breach on every assessment, the ladder climbs to
*park*, and the parked campaign resumes to bit-exact parity.

Exits 0 on success, 1 on any contract violation.  A one-screen version of
``pytest -m faults`` for quick sanity checks after touching the substrate.
"""

import argparse
import sys
import time

from repro.core.config import QUICK
from repro.core.serialize import result_to_dict
from repro.core.temperature_study import TemperatureStudy
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runner import CampaignRunner, RetryPolicy, SupervisorPolicy


def smoke(seed: int, rate: float) -> int:
    config = QUICK.scaled(seed=seed, rows_per_region=10,
                          modules_per_manufacturer=1,
                          temperatures_c=(50.0, 70.0, 90.0),
                          hcfirst_repetitions=1, wcdp_sample_rows=2)
    specs = config.module_specs()
    failures = []

    started = time.perf_counter()
    plan = FaultPlan(seed=seed, specs=[
        FaultSpec(site="campaign.unit", kind="abort", rate=rate)])
    outcome = CampaignRunner(
        config, fault_plan=plan,
        retry=RetryPolicy(max_attempts=3)).run("temperature", specs)
    print(outcome.degradation_report())
    print(f"  wall:    {time.perf_counter() - started:.2f} s")

    done = outcome.stats.modules_completed + len(outcome.quarantined)
    if done != len(specs):
        failures.append(f"{done} modules accounted for, "
                        f"expected {len(specs)}")
    if plan.log.count() and not outcome.stats.units_retried \
            and not outcome.quarantined:
        failures.append("faults fired but neither retries nor quarantine "
                        "recorded")

    # Fault-free rerun must match the direct study exactly.
    clean = CampaignRunner(config).run("temperature", specs)
    direct = TemperatureStudy(config).run(specs)
    if result_to_dict(clean.result) != result_to_dict(direct):
        failures.append("fault-free campaign diverged from direct study")
    else:
        print("  parity:  fault-free campaign == direct study (bit-exact)")

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    print("smoke " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def chaos_smoke(seed: int) -> int:
    config = QUICK.scaled(seed=seed, rows_per_region=8,
                          modules_per_manufacturer=1,
                          temperatures_c=(50.0, 85.0),
                          hcfirst_repetitions=1, wcdp_sample_rows=2)
    specs = config.module_specs()
    crasher, sleeper = specs[0].module_id, specs[2].module_id
    failures = []

    serial = CampaignRunner(config).run("temperature", specs)

    started = time.perf_counter()
    plan = FaultPlan(seed=seed, specs=[
        FaultSpec(site="campaign.worker", kind="crash",
                  match=f"{crasher}/dispatch1"),
        FaultSpec(site="campaign.worker", kind="hang", magnitude=60.0,
                  match=f"{sleeper}/dispatch1"),
    ])
    outcome = CampaignRunner(
        config, workers=2, fault_plan=plan,
        supervisor=SupervisorPolicy(module_deadline_s=3.0),
    ).run("temperature", specs)
    print(outcome.degradation_report())
    print(f"  wall:    {time.perf_counter() - started:.2f} s")

    if not outcome.ok:
        failures.append("chaos campaign did not complete every module")
    log = outcome.supervision
    if log is None or not log.eventful():
        failures.append("no supervision incidents recorded despite "
                        "injected worker faults")
    else:
        if log.count("requeue") < 1:
            failures.append("no requeues logged")
        if log.count("respawn") < 1:
            failures.append("no pool respawns logged")
    if result_to_dict(outcome.result) != result_to_dict(serial.result):
        failures.append("chaos merge diverged from fault-free serial run")
    else:
        print("  parity:  chaos parallel == fault-free serial (bit-exact)")

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    print("chaos smoke " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def governor_smoke(seed: int) -> int:
    import tempfile

    from repro.errors import CampaignParked
    from repro.runner import GovernorBudgets, GovernorPolicy, \
        ResourceGovernor

    config = QUICK.scaled(seed=seed, rows_per_region=8,
                          modules_per_manufacturer=1,
                          temperatures_c=(50.0, 85.0),
                          hcfirst_repetitions=1, wcdp_sample_rows=2)
    specs = config.module_specs()
    failures = []

    serial = CampaignRunner(config).run("temperature", specs)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="drh-governor-smoke-") \
            as checkpoint_dir:
        plan = FaultPlan(seed=seed, specs=[
            FaultSpec(site="governor.rss", kind="pressure", rate=1.0)])
        governor = ResourceGovernor(
            budgets=GovernorBudgets(rss_bytes=1 << 30), faults=plan,
            policy=GovernorPolicy(assess_every=1, recover_after=1))
        try:
            CampaignRunner(config, checkpoint_dir=checkpoint_dir,
                           governor=governor).run("temperature", specs)
            failures.append("relentless rss pressure never parked the "
                            "campaign")
        except CampaignParked as parked:
            print(f"  parked:  {parked}")
            print(governor.render())
            if governor.snapshot()["peak_rung"] != "park":
                failures.append("parked campaign never reached rung park")
            if parked.completed + parked.remaining != len(specs):
                failures.append("park manifest does not account for every "
                                "module")

        resumed = CampaignRunner(config, checkpoint_dir=checkpoint_dir,
                                 resume=True).run("temperature", specs)
        print(f"  wall:    {time.perf_counter() - started:.2f} s")
        if result_to_dict(resumed.result) != result_to_dict(serial.result):
            failures.append("parked-then-resumed campaign diverged from "
                            "uninterrupted serial run")
        else:
            print("  parity:  park + resume == uninterrupted serial "
                  "(bit-exact)")

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    print("governor smoke " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--rate", type=float, default=0.08,
                        help="per-unit fault probability (default 0.08)")
    parser.add_argument("--chaos", action="store_true",
                        help="smoke the supervised parallel path with "
                             "worker crash/hang faults instead")
    parser.add_argument("--governor", action="store_true",
                        help="smoke the degradation ladder: forced rss "
                             "pressure parks the campaign, resume reaches "
                             "parity")
    args = parser.parse_args()
    if args.chaos:
        return chaos_smoke(args.seed)
    if args.governor:
        return governor_smoke(args.seed)
    return smoke(args.seed, args.rate)


if __name__ == "__main__":
    sys.exit(main())
