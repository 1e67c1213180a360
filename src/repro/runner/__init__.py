"""Resilient campaign execution: retry, quarantine, checkpoint/resume,
supervised parallel dispatch.

Entry point: :class:`~repro.runner.campaign.CampaignRunner`.
"""

from repro.runner.adapters import ADAPTERS, StudyAdapter, adapter_for
from repro.runner.campaign import (
    CampaignOutcome,
    CampaignRunner,
    CampaignStats,
    QuarantineRecord,
)
from repro.runner.cancel import CancelToken
from repro.runner.governor import (
    RUNG_NAMES,
    RUNG_NORMAL,
    RUNG_PARK,
    RUNG_SERIAL,
    RUNG_SHED,
    RUNG_SHRINK_CACHES,
    GovernorBudgets,
    GovernorPolicy,
    ResourceGovernor,
    SystemProbes,
    build_governor,
    rung_name,
)
from repro.runner.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointAudit,
    CheckpointStore,
    CorruptionRecord,
    audit_checkpoint_dir,
    config_fingerprint,
)
from repro.runner.retry import (
    FATAL_FAULT_KINDS,
    RETRYABLE_ERRORS,
    Deadline,
    RetryPolicy,
    VirtualClock,
    WallClock,
    call_with_retry,
)
from repro.runner.supervisor import (
    CampaignSupervisor,
    SupervisionEvent,
    SupervisionLog,
    SupervisorPolicy,
)

__all__ = [
    "ADAPTERS",
    "CHECKPOINT_FORMAT",
    "CancelToken",
    "CampaignOutcome",
    "CampaignRunner",
    "CampaignStats",
    "CampaignSupervisor",
    "CheckpointAudit",
    "CheckpointStore",
    "CorruptionRecord",
    "Deadline",
    "FATAL_FAULT_KINDS",
    "GovernorBudgets",
    "GovernorPolicy",
    "QuarantineRecord",
    "RETRYABLE_ERRORS",
    "RUNG_NAMES",
    "RUNG_NORMAL",
    "RUNG_PARK",
    "RUNG_SERIAL",
    "RUNG_SHED",
    "RUNG_SHRINK_CACHES",
    "ResourceGovernor",
    "RetryPolicy",
    "StudyAdapter",
    "SystemProbes",
    "SupervisionEvent",
    "SupervisionLog",
    "SupervisorPolicy",
    "VirtualClock",
    "WallClock",
    "adapter_for",
    "audit_checkpoint_dir",
    "build_governor",
    "call_with_retry",
    "config_fingerprint",
    "rung_name",
]
