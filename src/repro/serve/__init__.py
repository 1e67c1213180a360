"""Campaign-as-a-service: the resilient runner behind a Unix socket.

``deeprh serve`` turns the one-shot campaign CLI into a long-lived,
admission-controlled service.  See :mod:`repro.serve.server` for the
robustness model (bounded admission, deadlines, one resource governor
deciding every degradation, graceful drain) and
:mod:`repro.serve.protocol` for the NDJSON wire format, including the
``health`` event that carries the governor's ladder state and
``pool_losses``.
"""

from repro.serve.admission import ADMIT, DRAINING, OVERLOADED, AdmissionController
from repro.serve.client import ServeClient, ServeClientError, ServeReply
from repro.serve.protocol import (
    CampaignRequest,
    ProtocolError,
    canonical_result_bytes,
)
from repro.serve.server import CampaignService

__all__ = [
    "ADMIT",
    "DRAINING",
    "OVERLOADED",
    "AdmissionController",
    "CampaignRequest",
    "CampaignService",
    "ProtocolError",
    "ServeClient",
    "ServeClientError",
    "ServeReply",
    "canonical_result_bytes",
]
