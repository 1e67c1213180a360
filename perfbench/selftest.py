"""Self-tests of the benchmark's own logic (no program needed).

Run with ``python3 perfbench/selftest.py``.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from drhbench import checks, layers, procs, spans, stats, workloads  # noqa: E402
from drhbench.serveclient import Outcome, outcome_from_event  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_refused_with_fewer_than_ten_beyond(self):
        values = [float(v) for v in range(99)]
        with self.assertRaises(stats.PercentileRefused):
            stats.nearest_rank(values, 0.9)

    def test_p90_reported_with_ten_beyond(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(stats.nearest_rank(values, 0.9), 90.0)

    def test_median_never_refused(self):
        self.assertEqual(stats.nearest_rank([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)


def _span(pid, sid, parent, name, start, end):
    return spans.Span(pid, sid, parent, name, start, end)


class SelfTimeTest(unittest.TestCase):
    # grid [0, 100) holds oracle [10, 30) and population [20, 50), which
    # overlap; a nested grid [60, 90) holds oracle [70, 80).
    SPANS = [
        _span(1, 1, 0, "hammer.grid", 0, 100),
        _span(1, 2, 1, "oracle.matrix", 10, 30),
        _span(1, 3, 1, "population.cells_for", 20, 50),
        _span(1, 4, 1, "hammer.grid", 60, 90),
        _span(1, 5, 4, "oracle.matrix", 70, 80),
        _span(1, 6, 0, "serialize", 120, 130),
    ]

    def test_self_time_subtracts_child_coverage_once(self):
        children = spans.children_of(self.SPANS)
        self_times = {s.id: spans.self_ns(s, children) for s in self.SPANS}
        # 100 - |[10,50) ∪ [60,90)| = 100 - 70
        self.assertEqual(self_times[1], 30)
        self.assertEqual(self_times[4], 20)
        self.assertEqual(self_times[6], 10)

    def test_outermost_counts_nested_layer_once(self):
        outer = spans.outermost(self.SPANS, frozenset({"hammer.grid"}))
        self.assertEqual([s.id for s in outer], [1])

    def test_children_clipped_to_parent(self):
        parent = _span(2, 1, 0, "a", 0, 10)
        child = _span(2, 2, 1, "b", 5, 20)
        self.assertEqual(spans.self_ns(parent, spans.children_of(
            [parent, child])), 5)

    def test_layer_metrics_attribution_adds_up(self):
        trace = spans.Trace(self.SPANS, {}, frozenset())
        metrics = layers.layer_metrics([(trace, 1, (0, 200))])
        self.assertEqual(metrics["hammer.grid.calls"], 2)
        self.assertAlmostEqual(metrics["hammer.grid.self_s"], 50e-9)
        self.assertAlmostEqual(metrics["oracle.matrix.busy_s"], 30e-9)
        self.assertAlmostEqual(metrics["trace.attributed_s"]
                               + metrics["trace.unattributed_s"], 200e-9)
        self.assertAlmostEqual(metrics["trace.attributed_s"], 110e-9)

    def test_recorder_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            recorder = spans.Recorder(tmp)
            wrapped = recorder.wrap("outer", lambda: recorder.record(
                "inner", lambda: 7))
            self.assertEqual(wrapped(), 7)
            recorder.count("things", 3)
            recorder.flush()
            trace = spans.load(tmp)
        names = {s.name: s for s in trace.spans}
        self.assertEqual(names["inner"].parent, names["outer"].id)
        self.assertEqual(names["outer"].parent, 0)
        self.assertEqual(trace.counters, {"things": 3})


def _served(request_id, seed, event):
    outcome = Outcome(request={"id": request_id, "seed": seed}, sent_ns=1)
    outcome.done_ns = 2
    outcome_from_event(outcome, event)
    return outcome


def _result_event(result):
    return {"event": "result", "ok": True, "result": result,
            "stats": {"modules_completed": 4}}


class FailureAccountingTest(unittest.TestCase):
    RESULT = {"modules": [{"flips": 12}], "study": "temperature"}

    def test_one_byte_mismatch_is_a_failure(self):
        good = checks.canonical(self.RESULT)
        corrupted = good.replace(b"12", b"13")
        self.assertEqual(len(good), len(corrupted))
        it = workloads.Iteration(attempted=2)
        workloads.score_served(
            it, [_served("q0", 5, _result_event(self.RESULT)),
                 _served("q1", 6, _result_event(self.RESULT))],
            {5: good, 6: corrupted})
        self.assertEqual(it.failed, 1)
        self.assertIn("byte", it.problems[0])
        self.assertIsNone(checks.mismatch("x", good, good))

    def test_rejected_and_errored_requests_fail(self):
        it = workloads.Iteration(attempted=3)
        rejected = _served("q0", 5, {"event": "rejected",
                                     "reason": "overloaded"})
        errored = _served("q1", 5, {"event": "error", "reason": "internal"})
        not_ok = _served("q2", 5, dict(_result_event(self.RESULT), ok=False))
        workloads.score_served(it, [rejected, errored, not_ok],
                               {5: checks.canonical(self.RESULT)})
        self.assertEqual(it.failed, 3)
        self.assertEqual(it.rejected, 1)
        self.assertEqual(it.modules, 0)

    def test_unanswered_request_misses_every_latency_target(self):
        outcome = Outcome(request={"id": "q0", "seed": 1}, sent_ns=5)
        self.assertEqual(outcome.latency_s, float("inf"))
        self.assertFalse(outcome.ok)

    def test_pinned_digest_mismatch_fails_every_operation(self):
        pins = {"w": "cd" * 32}
        it = workloads.Iteration(attempted=4)
        it.pin("w", "cd" * 32, pins=pins)
        self.assertEqual(it.failed, 0)
        it.pin("w", "ab" * 32, pins=pins)
        self.assertEqual(it.failed, 4)


class HangAndLeakGuardTest(unittest.TestCase):
    def test_timeout_kills_the_whole_group_and_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            exit_ = procs.run(["sh", "-c", "sleep 30 & sleep 30"], cwd=tmp,
                              env=dict(os.environ),
                              log_path=os.path.join(tmp, "log"),
                              timeout_s=0.2)
        self.assertTrue(exit_.timed_out)
        with self.assertRaises(ProcessLookupError):
            os.killpg(exit_.pid, 0)
        self.assertTrue(workloads._exit_problems("x", exit_))

    def test_arena_dirs_left_behind_are_counted_and_removed(self):
        with tempfile.TemporaryDirectory() as tmp:
            guard = procs.LeakGuard(tmp)
            guard.before()
            os.mkdir(os.path.join(tmp, procs.ARENA_DIR_PREFIX + "x"))
            guard.after()
            self.assertEqual(guard.leaked, 1)
            self.assertEqual(os.listdir(tmp), [])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        self.assertEqual(workloads.serve_request_seeds(7),
                         workloads.serve_request_seeds(7))
        self.assertNotEqual(workloads.serve_request_seeds(7),
                            workloads.serve_request_seeds(8))

    def test_half_the_requests_repeat_an_earlier_seed(self):
        seeds = workloads.serve_request_seeds(3)
        self.assertEqual(len(seeds), workloads.SERVE_REQUESTS)
        self.assertEqual(len(set(seeds)), workloads.SERVE_REQUESTS // 2)
        seen = set()
        repeats = 0
        for seed in seeds:
            repeats += seed in seen
            seen.add(seed)
        self.assertEqual(repeats, workloads.SERVE_REQUESTS // 2)


if __name__ == "__main__":
    unittest.main()
