"""Wire-protocol parsing, validation, and canonical encoding."""

import json

import pytest

from repro.core.config import PRESETS
from repro.serve import protocol
from repro.serve.protocol import (
    ProtocolError,
    build_campaign_request,
    canonical_result_bytes,
    encode,
    parse_line,
)


def campaign_payload(**extra):
    payload = {"op": "campaign", "id": "r1", "study": "temperature"}
    payload.update(extra)
    return payload


class TestParseLine:
    def test_round_trips_a_valid_request(self):
        payload = parse_line(json.dumps(campaign_payload()))
        assert payload["op"] == "campaign"
        assert payload["id"] == "r1"

    @pytest.mark.parametrize("raw", [
        "not json", "[1,2]", '"string"',
        json.dumps({"op": "launch-missiles", "id": "x"}),
        json.dumps({"op": "campaign"}),             # no id
        json.dumps({"op": "campaign", "id": ""}),   # empty id
        json.dumps({"op": "campaign", "id": 7}),    # non-string id
    ])
    def test_rejects_malformed_lines(self, raw):
        with pytest.raises(ProtocolError):
            parse_line(raw)


class TestBuildCampaignRequest:
    def test_defaults(self):
        request = build_campaign_request(campaign_payload())
        assert request.study == "temperature"
        assert request.config == PRESETS["quick"]
        assert request.workers == 1
        assert request.deadline_s is None
        assert not request.resume

    def test_seed_and_overrides_reach_the_config(self):
        request = build_campaign_request(campaign_payload(
            seed=99, overrides={"rows_per_region": 5,
                                "temperatures_c": [50, 70, 90]}))
        assert request.config.seed == 99
        assert request.config.rows_per_region == 5
        assert request.config.temperatures_c == (50.0, 70.0, 90.0)

    @pytest.mark.parametrize("payload", [
        campaign_payload(study="metallurgy"),
        campaign_payload(preset="gigantic"),
        campaign_payload(overrides={"not_a_field": 1}),
        campaign_payload(overrides={"rows_per_region": -5}),
        campaign_payload(workers=0),
        campaign_payload(deadline_s=0),
    ])
    def test_rejects_invalid_fields(self, payload):
        with pytest.raises(ProtocolError):
            build_campaign_request(payload)

    def test_describe_is_resubmittable(self):
        request = build_campaign_request(campaign_payload(
            seed=7, checkpoint_dir="/ckpt/r1", deadline_s=60.0,
            fault_plan="campaign.unit=0.1", fault_seed=3))
        resubmit = request.describe()
        assert resubmit["resume"] is True  # manifest entries resume
        again = build_campaign_request(resubmit)
        assert again.config.seed == 7
        assert again.checkpoint_dir == "/ckpt/r1"
        assert again.fault_plan == "campaign.unit=0.1"

    def test_trace_flag_round_trips_through_describe(self):
        request = build_campaign_request(campaign_payload(trace=True))
        assert request.trace is True
        resubmit = request.describe()
        assert resubmit["trace"] is True
        assert build_campaign_request(resubmit).trace is True

    def test_trace_defaults_off_and_stays_out_of_describe(self):
        request = build_campaign_request(campaign_payload())
        assert request.trace is False
        assert "trace" not in request.describe()

    def test_describe_round_trips_overridden_configs_exactly(self):
        """A checkpoint directory refuses any config fingerprint other
        than the one it was written with, so the manifest entry must
        rebuild the overridden config field-for-field."""
        request = build_campaign_request(campaign_payload(
            seed=7, overrides={"rows_per_region": 5,
                               "temperatures_c": [50, 70, 90]}))
        again = build_campaign_request(request.describe())
        assert again.config == request.config


class TestEncoding:
    def test_encode_is_canonical_ndjson(self):
        data = encode({"b": 1, "a": {"z": 2, "y": 3}})
        assert data == b'{"a":{"y":3,"z":2},"b":1}\n'

    def test_canonical_result_bytes_is_order_independent(self):
        left = canonical_result_bytes({"x": 1, "y": [1.5, 2.5]})
        right = canonical_result_bytes({"y": [1.5, 2.5], "x": 1})
        assert left == right

    def test_every_builder_encodes(self):
        events = [
            protocol.accepted("r"),
            protocol.rejected("r", protocol.REASON_OVERLOADED, "full"),
            protocol.module_event("r", "A0", {"k": 1}, resumed=False),
            protocol.progress_event("r", module_id="A0", done=1, total=4,
                                    flips=17, rung="normal"),
            protocol.metrics_event("r", "deeprh_x_total 1\n",
                                   "text/plain; version=0.0.4"),
            protocol.result_event("r", ok=True, degraded=False,
                                  result={"k": 1}, report="fine",
                                  stats={"units_run": 3}),
            protocol.error_event("r", protocol.ERROR_DEADLINE),
            protocol.status_event("r", draining=False),
            protocol.pong("r"),
        ]
        for event in events:
            line = encode(event)
            assert line.endswith(b"\n")
            assert json.loads(line)["id"] == "r"

    def test_progress_event_carries_the_liveness_fields(self):
        event = protocol.progress_event("r", module_id="B0", done=2,
                                        total=4, flips=31, rung="serial")
        assert event == {"event": "progress", "id": "r", "module_id": "B0",
                         "done": 2, "total": 4, "flips": 31,
                         "rung": "serial"}

    def test_health_event_shape(self):
        event = protocol.health_event("h1", governed=True,
                                      governor={"rung": "normal"})
        assert event["event"] == "health"
        assert event["id"] == "h1"
        assert "health" in protocol.OPS

    def test_metrics_op_parses(self):
        payload = parse_line(json.dumps({"op": "metrics", "id": "m1"}))
        assert payload["op"] == "metrics"
