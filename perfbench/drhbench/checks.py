"""Output checks: the program's outputs against references and pinned digests.

References are computed in the benchmark's own process with a serial
``CampaignRunner`` from the checked-out source, once per invocation and
outside every timed region.  A mismatch never aborts the benchmark; it
becomes a failed operation with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional

#: sha256 of the outputs produced at the benchmark's default ``--seed``
#: (see ``workloads.DEFAULT_SEED``), computed by :func:`digest`.
#: ``reproduce-quick`` always runs the calibrated seed, so its pin holds
#: at every ``--seed``.
PINNED_DIGESTS: Dict[str, str] = {
    "reproduce-quick":
        "0f63af22d1ef8968708cc602c7bd070a7aa48c93ddff2250cf202f4100db1276",
    "campaign-w2":
        "a6856ec5a03bf93620c48218ef2c7ca43eeaf48e26e3b4e3f7676b019bb2cdea",
    "serve-closed-2c":
        "d16e2ed6329c65aad48a56735c60a915970c11695ca63f6a0c3594fa68cbdeee",
}


def canonical(obj) -> bytes:
    """The program's canonical result encoding (sorted keys, compact)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(parts: Iterable[bytes]) -> str:
    """One sha256 over length-prefixed parts, in order."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.hexdigest()


def mismatch(label: str, got: Optional[bytes], want: bytes) -> Optional[str]:
    """``None`` when ``got == want``, else where the two first differ."""
    if got is None:
        return f"{label}: no output"
    if got == want:
        return None
    index = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    return (f"{label}: differs from reference at byte {index} "
            f"({len(got)} vs {len(want)} bytes)")


def pinned_mismatch(workload: str, observed: str,
                    pins: Dict[str, str] = PINNED_DIGESTS) -> Optional[str]:
    want = pins.get(workload)
    if not want or observed == want:
        return None
    return f"{workload}: output digest {observed[:16]} != pinned {want[:16]}"


class References:
    """Serial in-process results of the checked-out program, by (study, seed)."""

    def __init__(self, preset: str = "quick") -> None:
        from repro.core import config as config_mod

        self._preset = config_mod.preset(preset)
        self._cache: Dict[tuple, object] = {}

    def result(self, study: str, seed: int, overrides=None):
        from repro.runner import CampaignRunner

        key = (study, seed, json.dumps(overrides or {}, sort_keys=True))
        if key not in self._cache:
            config = self._preset.scaled(seed=seed, **(overrides or {}))
            outcome = CampaignRunner(config).run(study)
            if not outcome.ok:
                raise RuntimeError(f"reference {study} seed {seed} "
                                   "quarantined a module")
            self._cache[key] = outcome.result
        return self._cache[key]

    def saved_bytes(self, study: str, seed: int, path: str) -> bytes:
        """The bytes ``deeprh campaign --save-json`` writes for this result."""
        from repro.core.serialize import save_result

        return save_result(self.result(study, seed), path).read_bytes()

    def served_bytes(self, study: str, seed: int, overrides) -> bytes:
        """Canonical bytes of the result a served request must return."""
        from repro.core.serialize import result_to_dict

        return canonical(result_to_dict(self.result(study, seed, overrides)))


def verify_checkpoints(directories: List[str]) -> List[str]:
    """Problems the program's own checkpoint audit finds, per directory."""
    from repro.runner import audit_checkpoint_dir

    problems = []
    for directory in directories:
        audit = audit_checkpoint_dir(directory)
        if not audit.ok:
            problems.append(f"checkpoint audit of {directory} failed: "
                            + audit.render().replace("\n", " | "))
    return problems
