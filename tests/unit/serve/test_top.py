"""`deeprh top` frame rendering — a pure function of three payloads."""

from repro.serve.top import poll_once, render_frame

STATUS = {
    "draining": False,
    "governed": True,
    "governor_rung": "shrink-caches",
    "connections": 3,
    "trace_rotations": 2,
    "faults_injected": 0,
    "shared_cache_entries": 48,
    "shared_cache_capacity": 64,
    "admission": {"running": 1, "queued": 2, "max_inflight": 2,
                  "max_queue": 8, "admitted": 9, "completed": 6,
                  "rejected_overloaded": 1, "rejected_draining": 0,
                  "rejected_shed": 2},
    "latency": {"campaign": {"count": 6, "window": 6, "p50_ms": 410.0,
                             "p95_ms": 512.5, "max_ms": 600.0},
                "status": {"count": 3, "window": 3, "p50_ms": 0.2,
                           "p95_ms": 0.3, "max_ms": 0.3}},
}

HEALTH = {"governed": True,
          "governor": {"rung": "shrink-caches", "pool_losses": 2,
                       "escalations": 1, "recoveries": 0}}

METRICS_TEXT = (
    "deeprh_oracle_cache_hit_total 75\n"
    "deeprh_oracle_cache_miss_total 25\n"
    "deeprh_oracle_shared_cache_hit_total 8\n"
    "deeprh_oracle_shared_cache_miss_total 2\n")


class TestRenderFrame:
    def test_full_frame_reads_end_to_end(self):
        frame = render_frame(STATUS, HEALTH, METRICS_TEXT, poll=7)
        assert "deeprh top — poll 7" in frame
        assert "1 running, 2 queued (capacity 2+8)" in frame
        assert "3 total (1 overloaded, 2 shed, 0 draining)" in frame
        assert "rung shrink-caches" in frame
        assert "(ungoverned)" not in frame
        assert "2 since the last recovery (1 escalation(s), 0 recovery(ies))" \
            in frame
        assert "48/64 entries" in frame
        assert "oracle 75.0%, shared 80.0%" in frame
        assert "2 trace rotation(s)" in frame

    def test_latency_table_sorts_by_op(self):
        frame = render_frame(STATUS, HEALTH, METRICS_TEXT)
        lines = frame.splitlines()
        ops = [line.split()[0] for line in lines if "p50" in line]
        assert ops == ["campaign", "status"]
        campaign = next(line for line in lines if "p50" in line)
        assert "p95   512.50ms" in campaign

    def test_empty_payloads_render_a_sparse_frame(self):
        frame = render_frame({}, {}, "")
        assert "0 running, 0 queued" in frame
        assert "hit rates: oracle n/a, shared n/a" in frame
        assert "no requests observed yet" in frame
        assert "rung normal (ungoverned)" in frame

    def test_draining_flag_is_loud(self):
        frame = render_frame({"draining": True}, {}, "")
        assert "[DRAINING]" in frame.splitlines()[0]

    def test_identical_payloads_render_identically(self):
        assert render_frame(STATUS, HEALTH, METRICS_TEXT) \
            == render_frame(STATUS, HEALTH, METRICS_TEXT)


class FakeClient:
    def status(self):
        return STATUS

    def health(self):
        return HEALTH

    def metrics(self):
        return METRICS_TEXT


class TestPollOnce:
    def test_composes_the_three_ops(self):
        frame = poll_once(FakeClient(), poll=1)
        assert frame == render_frame(STATUS, HEALTH, METRICS_TEXT, poll=1)
