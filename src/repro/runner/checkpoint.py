"""Per-module campaign checkpoints: interrupt anywhere, resume anywhere.

Layout of a format-3 checkpoint directory::

    <dir>/manifest.json                    # format + study + config fingerprint
    <dir>/journal.jsonl                    # append-only integrity journal
    <dir>/module-<study>-<module_id>.grid  # one blob per completed module

Each module file is a format-3 *grid blob* (:mod:`repro.runner.gridblob`):
a compact JSON header plus a 64-byte-aligned raw block holding the
payload's numeric grids as memmap-able fixed-dtype arrays, with the
block's sha256 in the header.  Files are written atomically (temp file,
``fsync``, rename, parent-directory ``fsync``) so a power cut never
publishes a truncated checkpoint.  After every publish one line is
appended (and ``fsync``\\ ed) to the journal::

    {"file": "module-temperature-A0.grid", "length": 5321,
     "module": "A0", "sha256": "..."}

Resuming re-verifies every module file against its last journal entry:
a mismatching or unverifiable file is *quarantined* (renamed to
``*.corrupt``) and only that module is re-run — torn on-disk state can
cost one module, never the campaign and never silent corruption of the
merged result.  The manifest pins the exact study and configuration
(including the seed, excluding operational knobs — see
:data:`repro.core.config.OPERATIONAL_FIELDS`); resuming against a
different configuration is refused rather than silently merging
incompatible measurements.

Older directories are migrated in place on resume, exactly as format 1
was migrated to format 2: every legacy ``*.json`` module file is
validity-checked (journal sha for format 2, JSON parse for format 1),
re-encoded as a ``*.grid`` blob, journaled, and removed; the manifest
rewrite is the commit point, so a crash mid-migration re-runs the
migration idempotently (a ``.json`` whose ``.grid`` already verifies is
simply a leftover and is swept).
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.config import OPERATIONAL_FIELDS, StudyConfig
from repro.errors import CheckpointCorruptionError, ConfigError
from repro.obs import get_metrics, get_tracer
from repro.runner import gridblob
from repro.runner.gridblob import GridBlobError

PathLike = Union[str, pathlib.Path]

#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT = 3

#: Formats the store can open (1 and 2 are migrated in place on resume).
SUPPORTED_FORMATS = (1, 2, 3)

JOURNAL = "journal.jsonl"

#: Default journal-compaction threshold: once the on-disk ``journal.jsonl``
#: holds more lines than this *and* carries dead weight (superseded or torn
#: lines), it is rewritten atomically with only the live module records.
#: Long campaigns re-publish modules across requeues, migrations and
#: resumes; without a bound the append-only journal would grow without
#: limit on exactly the runs that need disk headroom most.
DEFAULT_JOURNAL_MAX_ENTRIES = 512

#: Quarantined ``*.corrupt`` files kept per module; older generations are
#: pruned on open so repeated corrupt/resume cycles cannot accumulate
#: unbounded forensic debris.
CORRUPT_KEEP = 3


def config_fingerprint(study: str, config: StudyConfig) -> Dict[str, Any]:
    """JSON-safe identity of one campaign: study name + science knobs.

    Operational fields (worker deadlines etc.) are excluded: they change
    how a campaign is babysat, never what it measures, so resuming under
    different supervision settings is sound.
    """
    fields = {key: (list(value) if isinstance(value, tuple) else value)
              for key, value in dataclasses.asdict(config).items()
              if key not in OPERATIONAL_FIELDS}
    return {"study": study, "config": fields}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fsync_dir(directory: pathlib.Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic_bytes(path: pathlib.Path, data: bytes,
                        faults=None, fault_key: str = "") -> None:
    """Publish ``data`` at ``path`` so a power cut leaves old-or-new, never
    torn: write to a temp file, ``fsync`` it, rename over the target, then
    ``fsync`` the parent directory so the rename itself is durable.

    A failure anywhere before the rename (a genuinely full disk, or an
    injected ``checkpoint.publish:enospc``) unlinks the temp file before
    re-raising: the torn bytes never survive to masquerade as a pending
    publish, and the caller sees the original ``OSError``.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            if faults is not None:
                event = faults.roll("checkpoint.publish", fault_key)
                if event is not None:
                    # A full disk tears the write partway: some bytes land,
                    # then the write call fails.
                    handle.write(data[: len(data) // 2])
                    handle.flush()
                    raise OSError(
                        errno.ENOSPC,
                        f"injected disk-full during checkpoint publish "
                        f"({event})")
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


def _write_atomic(path: pathlib.Path, payload: Dict[str, Any],
                  faults=None, fault_key: str = "") -> bytes:
    data = _encode(payload)
    _write_atomic_bytes(path, data, faults=faults, fault_key=fault_key)
    return data


def _encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class CorruptionRecord:
    """One checkpoint file that failed verification and was set aside."""

    module_id: str
    path: str
    reason: str

    def __str__(self) -> str:
        return f"{self.module_id}: {self.reason} ({self.path})"


class CheckpointStore:
    """One campaign's on-disk checkpoint directory (format 3)."""

    MANIFEST = "manifest.json"

    def __init__(self, directory: PathLike, study: str, config: StudyConfig,
                 resume: bool = False, faults=None,
                 journal_max_entries: Optional[int] = None) -> None:
        self.directory = pathlib.Path(directory)
        self.study = study
        self.fingerprint = config_fingerprint(study, config)
        if journal_max_entries is not None and journal_max_entries < 1:
            raise ConfigError("journal_max_entries must be >= 1 (or None "
                              "for the default)")
        #: Journal-compaction threshold (lines on disk, including torn
        #: and superseded ones).
        self.journal_max_entries = journal_max_entries \
            if journal_max_entries is not None \
            else DEFAULT_JOURNAL_MAX_ENTRIES
        #: Times the journal was compacted during this store's lifetime.
        self.journal_compactions = 0
        #: Journal lines currently on disk (live + dead weight).
        self._journal_lines = 0
        #: Optional :class:`~repro.faults.plan.FaultPlan` armed on the
        #: publish path (``checkpoint.publish`` site).
        self.faults = faults
        #: Module files quarantined during this open (resume only).
        self.corrupted: List[CorruptionRecord] = []
        #: Stale ``*.tmp`` files swept during this open (resume only).
        self.swept_tmp: List[str] = []
        #: Old ``*.corrupt`` generations pruned during this open.
        self.pruned_corrupt: List[str] = []
        #: Legacy ``*.json`` module files re-encoded as ``*.grid`` blobs
        #: during this open (format-1/2 migration).
        self.migrated_legacy: List[str] = []
        self._verified: set = set()
        self._journal: Dict[str, Dict[str, Any]] = {}
        manifest_path = self.directory / self.MANIFEST
        if manifest_path.exists():
            if not resume:
                raise ConfigError(
                    f"checkpoint directory {self.directory} already holds a "
                    "campaign; pass resume=True (CLI: --resume) to continue "
                    "it, or point at a fresh directory")
            self._open_existing(manifest_path)
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            _write_atomic(manifest_path, self._manifest_payload())

    # ------------------------------------------------------------------
    def _manifest_payload(self) -> Dict[str, Any]:
        return {"format": CHECKPOINT_FORMAT, **self.fingerprint}

    def _open_existing(self, manifest_path: pathlib.Path) -> None:
        try:
            existing = json.loads(manifest_path.read_text())
        except ValueError:
            raise ConfigError(
                f"checkpoint manifest {manifest_path} is not valid JSON; "
                "the directory is corrupt beyond automatic repair") from None
        existing_format = existing.get("format")
        if existing_format not in SUPPORTED_FORMATS:
            raise ConfigError(
                f"checkpoint directory {self.directory} uses format "
                f"{existing_format!r}; this build supports "
                f"{SUPPORTED_FORMATS}")
        identity = {key: existing.get(key) for key in ("study", "config")}
        if identity != self.fingerprint:
            raise ConfigError(
                f"checkpoint directory {self.directory} was written by a "
                "different study/configuration; refusing to merge "
                "incompatible measurements")
        self._sweep_tmp_files()
        self._load_journal()
        self._verify_module_files()
        self._sweep_corrupt_files()
        if existing_format < CHECKPOINT_FORMAT:
            # Migration completes only after every surviving module file
            # is journaled; the manifest rewrite is the commit point.
            _write_atomic(manifest_path, self._manifest_payload())

    def _sweep_tmp_files(self) -> None:
        """Remove temp files a killed writer left behind.

        A ``*.tmp`` is by definition unpublished — its rename never
        happened — so deleting it loses nothing and stops an interrupted
        campaign from accumulating dead files forever.
        """
        for tmp in sorted(self.directory.glob("*.tmp")):
            tmp.unlink()
            self.swept_tmp.append(tmp.name)

    def _load_journal(self) -> None:
        journal_path = self.directory / JOURNAL
        if not journal_path.exists():
            return
        for line in journal_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            self._journal_lines += 1
            try:
                entry = json.loads(line)
            except ValueError:
                # A torn append (power cut mid-line).  The entry's module
                # file is simply treated as unjournaled below — re-verified
                # from its own bytes or re-run.
                continue
            if isinstance(entry, dict) and "module" in entry:
                self._journal[entry["module"]] = entry

    def _verify_module_files(self) -> None:
        prefix = f"module-{self.study}-"
        grid_paths = sorted(self.directory.glob(f"{prefix}*.grid"))
        legacy_paths = sorted(self.directory.glob(f"{prefix}*.json"))
        with get_tracer().span("checkpoint.verify",
                               files=len(grid_paths) + len(legacy_paths)):
            self._verify_grid_paths(prefix, grid_paths)
            self._migrate_legacy_paths(prefix, legacy_paths)

    def _verify_grid_paths(self, prefix: str,
                           paths: List[pathlib.Path]) -> None:
        metrics = get_metrics()
        for path in paths:
            module_id = path.name[len(prefix):-len(".grid")]
            data = path.read_bytes()
            entry = self._journal.get(module_id)
            if entry is not None and entry.get("file") == path.name:
                if (entry.get("length") == len(data)
                        and entry.get("sha256") == _sha256(data)):
                    self._verified.add(module_id)
                    metrics.counter("checkpoint.verified").inc()
                else:
                    self._quarantine_file(
                        path, module_id,
                        "sha256/length mismatch against the journal")
                continue
            # Published but never journaled (torn journal append, or a
            # crash between the migration's publish and its journal line).
            # The blob self-verifies: its header carries the block's raw
            # sha256, so no grid is ever re-parsed to prove integrity.
            try:
                gridblob.verify_blob(data)
            except GridBlobError as error:
                self._quarantine_file(
                    path, module_id, f"unjournaled and unverifiable "
                    f"({error})")
                continue
            self._append_journal(module_id, path.name, data)
            self._verified.add(module_id)
            metrics.counter("checkpoint.verified").inc()

    def _migrate_legacy_paths(self, prefix: str,
                              paths: List[pathlib.Path]) -> None:
        """Re-encode verified format-1/2 ``*.json`` files as grid blobs.

        A ``.json`` whose module already has a verified ``.grid`` is a
        leftover from a crash between a migration's publish and its
        ``.json`` unlink — removing it loses nothing.  Anything else is
        validity-checked exactly as format 2 did (journal sha when
        journaled, JSON parse otherwise), re-encoded, journaled under the
        new name, and only then removed.
        """
        metrics = get_metrics()
        for path in paths:
            module_id = path.name[len(prefix):-len(".json")]
            if module_id in self._verified:
                path.unlink()
                _fsync_dir(self.directory)
                self.migrated_legacy.append(path.name)
                continue
            data = path.read_bytes()
            entry = self._journal.get(module_id)
            if entry is not None and entry.get("file") == path.name:
                if (entry.get("length") != len(data)
                        or entry.get("sha256") != _sha256(data)):
                    self._quarantine_file(
                        path, module_id,
                        "sha256/length mismatch against the journal")
                    continue
            try:
                payload = json.loads(data.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._quarantine_file(
                    path, module_id, "unjournaled and unparseable")
                continue
            blob = gridblob.encode_module(payload, study=self.study,
                                          module_id=module_id)
            grid_path = self.module_path(module_id)
            _write_atomic_bytes(grid_path, blob)
            self._append_journal(module_id, grid_path.name, blob)
            path.unlink()
            _fsync_dir(self.directory)
            self._verified.add(module_id)
            self.migrated_legacy.append(path.name)
            metrics.counter("checkpoint.verified").inc()
            metrics.counter("checkpoint.migrated").inc()

    def _quarantine_file(self, path: pathlib.Path, module_id: str,
                         reason: str) -> None:
        # Never overwrite earlier forensic evidence: later quarantines of
        # the same module get numbered generations (.corrupt, .corrupt.2,
        # ...); _sweep_corrupt_files bounds how many survive.
        target = path.with_suffix(path.suffix + ".corrupt")
        generation = 1
        while target.exists():
            generation += 1
            target = path.with_suffix(
                path.suffix + f".corrupt.{generation}")
        os.replace(path, target)
        _fsync_dir(path.parent)
        self._journal.pop(module_id, None)
        self.corrupted.append(CorruptionRecord(
            module_id=module_id, path=str(target), reason=reason))
        get_metrics().counter("checkpoint.quarantined").inc()

    def _sweep_corrupt_files(self, keep: int = CORRUPT_KEEP) -> None:
        """Prune old ``*.corrupt`` generations, keeping the newest per file.

        Each corrupt/resume cycle quarantines under a fresh generation
        number; without a bound, a flaky disk would grow the directory
        forever.  The newest ``keep`` generations per module file stay for
        diagnosis; everything older is deleted and recorded in
        :attr:`pruned_corrupt` (surfaced by the degradation report).
        """
        generations: Dict[str, List[Tuple[int, pathlib.Path]]] = {}
        for path in sorted(self.directory.glob("*.corrupt*")):
            stem, _, suffix = path.name.partition(".corrupt")
            if suffix and not suffix[1:].isdigit():
                continue  # not a quarantine generation of ours
            generation = int(suffix[1:]) if suffix else 1
            generations.setdefault(stem, []).append((generation, path))
        for stem in sorted(generations):
            entries = sorted(generations[stem])
            for _, path in entries[:max(0, len(entries) - keep)]:
                path.unlink()
                self.pruned_corrupt.append(path.name)
        if self.pruned_corrupt:
            _fsync_dir(self.directory)
            get_metrics().counter("checkpoint.corrupt_pruned").inc(
                len(self.pruned_corrupt))

    def _append_journal(self, module_id: str, file_name: str,
                        data: bytes) -> None:
        entry = {"file": file_name, "length": len(data),
                 "module": module_id, "sha256": _sha256(data)}
        line = json.dumps(entry, sort_keys=True) + "\n"
        journal_path = self.directory / JOURNAL
        created = not journal_path.exists()
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            _fsync_dir(self.directory)
        self._journal[module_id] = entry
        self._journal_lines += 1
        self._maybe_compact_journal()

    def _maybe_compact_journal(self) -> None:
        """Bound ``journal.jsonl``: rewrite it with only live records.

        Compaction happens at publish time, once the line count exceeds
        :attr:`journal_max_entries` *and* dead weight exists (lines beyond
        the live last-wins records — superseded entries, torn appends).
        When every line is live the journal is already minimal; rewriting
        it would be pure churn, so an over-threshold but dead-weight-free
        journal is left alone.  The rewrite itself is atomic (temp file +
        rename), so a crash mid-compaction leaves the old journal intact.
        """
        if self._journal_lines <= self.journal_max_entries:
            return
        if self._journal_lines <= len(self._journal):
            return
        lines = [json.dumps(self._journal[module_id], sort_keys=True)
                 for module_id in sorted(self._journal)]
        data = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
        _write_atomic_bytes(self.directory / JOURNAL, data)
        self._journal_lines = len(lines)
        self.journal_compactions += 1
        get_metrics().counter("checkpoint.journal_compacted").inc()

    # ------------------------------------------------------------------
    def module_path(self, module_id: str) -> pathlib.Path:
        return self.directory / f"module-{self.study}-{module_id}.grid"

    def legacy_module_path(self, module_id: str) -> pathlib.Path:
        """Where formats 1 and 2 stored this module (JSON)."""
        return self.directory / f"module-{self.study}-{module_id}.json"

    def has(self, module_id: str) -> bool:
        """True when a *verified* checkpoint exists for ``module_id``.

        Every existing file is verified (or quarantined) when the store is
        opened, and every ``save`` verifies by construction, so membership
        in the verified set is exactly "safe to resume from".
        """
        return module_id in self._verified

    def save(self, module_id: str, payload: Dict[str, Any]) -> pathlib.Path:
        blob = gridblob.encode_module(payload, study=self.study,
                                      module_id=module_id)
        return self.save_blob(module_id, blob)

    def save_blob(self, module_id: str, blob: bytes) -> pathlib.Path:
        """Publish an already-encoded format-3 blob for ``module_id``.

        :meth:`save` encodes once and lands here; a caller already
        holding a blob publishes those exact bytes without a re-encode.
        The blob's identity (study, module) is checked against its header;
        the caller vouches for its block.
        """
        header = gridblob.read_header(blob)
        if (header.get("study") != self.study
                or header.get("module") != module_id):
            raise ConfigError(
                f"blob identifies as module "
                f"{header.get('module')!r} of study "
                f"{header.get('study')!r}; refusing to publish it as "
                f"{module_id!r} of {self.study!r}")
        path = self.module_path(module_id)
        with get_tracer().span("checkpoint.publish",
                               module=module_id) as span:
            # The journal entry is appended only after the atomic publish
            # succeeded, so the journal can never describe bytes that are
            # not durably on disk (asserted by the fault-injection tests).
            _write_atomic_bytes(path, blob, faults=self.faults,
                                fault_key=module_id)
            self._append_journal(module_id, path.name, blob)
            span.annotate(bytes=len(blob))
        get_metrics().counter("checkpoint.published").inc()
        self._verified.add(module_id)
        return path

    def load(self, module_id: str) -> Dict[str, Any]:
        path = self.module_path(module_id)
        legacy = False
        if not path.exists():
            path = self.legacy_module_path(module_id)
            legacy = True
            if not path.exists():
                raise ConfigError(f"no checkpoint for module {module_id!r} "
                                  f"in {self.directory}")
        data = path.read_bytes()
        entry = self._journal.get(module_id)
        journaled = entry is not None and entry.get("file") == path.name
        if journaled and (entry.get("length") != len(data)
                          or entry.get("sha256") != _sha256(data)):
            raise CheckpointCorruptionError(
                f"checkpoint for module {module_id!r} does not match its "
                f"journal entry (torn or tampered file)", path=str(path),
                module_id=module_id)
        if legacy:
            return json.loads(data.decode("utf-8"))
        try:
            # The journal sha already covers the whole file when journaled;
            # an unjournaled load self-verifies the block hash instead.
            return gridblob.decode_module(data, verify=not journaled)
        except GridBlobError as error:
            raise CheckpointCorruptionError(
                f"checkpoint for module {module_id!r} is not a valid grid "
                f"blob ({error})", path=str(path),
                module_id=module_id) from None

    def load_blob(self, module_id: str) -> bytes:
        """The raw verified blob bytes of one module (format 3 only)."""
        path = self.module_path(module_id)
        if not path.exists():
            raise ConfigError(f"no format-3 checkpoint for module "
                              f"{module_id!r} in {self.directory}")
        return path.read_bytes()

    def completed_modules(self) -> List[str]:
        """Module ids with a finished checkpoint, sorted."""
        prefix = f"module-{self.study}-"
        found = set()
        for suffix in (".grid", ".json"):
            for path in sorted(self.directory.glob(f"{prefix}*{suffix}")):
                found.add(path.name[len(prefix):-len(suffix)])
        return sorted(found)


# ----------------------------------------------------------------------
# Standalone integrity audit (CLI: deeprh campaign --verify <dir>)
# ----------------------------------------------------------------------

@dataclass
class CheckpointAudit:
    """Result of a read-only integrity audit of one checkpoint directory."""

    directory: str
    format: Optional[int] = None
    study: str = ""
    verified: List[str] = dataclasses.field(default_factory=list)
    problems: List[str] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        status = "OK" if self.ok else "CORRUPT"
        lines = [f"checkpoint audit of {self.directory}: {status} "
                 f"(format {self.format}, study {self.study or '?'!r}, "
                 f"{len(self.verified)} module file(s) verified)"]
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def audit_checkpoint_dir(directory: PathLike) -> CheckpointAudit:
    """Read-only integrity audit: verify every module file, change nothing.

    Format-3 ``*.grid`` blobs verify by raw hashing — the whole-file
    sha256 against the journal when journaled, the header's block sha256
    otherwise — never by re-parsing grid data.  Legacy ``*.json`` files
    (format 1/2, or a crash mid-migration) are audited exactly as before
    and noted as migrate-on-resume.

    Problems (non-zero exit from the CLI): missing/corrupt manifest,
    unsupported format, checksum/length mismatches, unverifiable or
    unjournaled module files, stale temp files.  Journal entries whose
    files are gone and already-quarantined ``*.corrupt`` files are notes —
    a resume handles both without data loss.
    """
    root = pathlib.Path(directory)
    audit = CheckpointAudit(directory=str(root))
    manifest_path = root / CheckpointStore.MANIFEST
    if not manifest_path.exists():
        audit.problems.append("no manifest.json; not a checkpoint directory")
        return audit
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError:
        audit.problems.append("manifest.json is not valid JSON")
        return audit
    audit.format = manifest.get("format")
    audit.study = str(manifest.get("study", ""))
    if audit.format not in SUPPORTED_FORMATS:
        audit.problems.append(f"unsupported checkpoint format "
                              f"{audit.format!r}")
        return audit

    journal: Dict[str, Dict[str, Any]] = {}
    journal_path = root / JOURNAL
    if journal_path.exists():
        for number, line in enumerate(journal_path.read_text().splitlines(),
                                      start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                audit.notes.append(f"journal line {number} is torn "
                                   "(ignored; its module re-verifies "
                                   "from file bytes)")
                continue
            if isinstance(entry, dict) and "module" in entry:
                journal[entry["module"]] = entry
    elif audit.format == CHECKPOINT_FORMAT:
        audit.notes.append(f"format-{CHECKPOINT_FORMAT} directory without "
                           "a journal (no modules checkpointed yet)")

    prefix = f"module-{audit.study}-"
    seen = set()
    grid_verified = set()
    for path in sorted(root.glob(f"{prefix}*.grid")):
        module_id = path.name[len(prefix):-len(".grid")]
        seen.add(module_id)
        data = path.read_bytes()
        entry = journal.get(module_id)
        if entry is not None and entry.get("file") == path.name:
            if (entry.get("length") == len(data)
                    and entry.get("sha256") == _sha256(data)):
                audit.verified.append(module_id)
                grid_verified.add(module_id)
            else:
                audit.problems.append(
                    f"{path.name}: sha256/length mismatch against the "
                    "journal (torn or tampered file)")
            continue
        try:
            gridblob.verify_blob(data)
        except GridBlobError as error:
            audit.problems.append(f"{path.name}: unjournaled and "
                                  f"unverifiable ({error})")
            continue
        audit.problems.append(
            f"{path.name}: self-verifies but is missing from the journal "
            "(open with --resume to repair the journal)")
    for path in sorted(root.glob(f"{prefix}*.json")):
        module_id = path.name[len(prefix):-len(".json")]
        if module_id in grid_verified:
            audit.notes.append(f"{path.name}: superseded by a migrated "
                               ".grid blob (removed on resume)")
            continue
        seen.add(module_id)
        data = path.read_bytes()
        entry = journal.get(module_id)
        if entry is not None and entry.get("file") == path.name:
            if (entry.get("length") == len(data)
                    and entry.get("sha256") == _sha256(data)):
                audit.verified.append(module_id)
                audit.notes.append(f"{path.name}: legacy JSON checkpoint "
                                   "(open with --resume to migrate)")
            else:
                audit.problems.append(
                    f"{path.name}: sha256/length mismatch against the "
                    "journal (torn or tampered file)")
            continue
        try:
            json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            audit.problems.append(f"{path.name}: unjournaled and "
                                  "unparseable")
            continue
        if audit.format is not None and audit.format >= 2:
            # Formats 2+ journal every publish; a parseable stray points
            # at a torn journal append, which a resume repairs.
            audit.problems.append(
                f"{path.name}: parseable but missing from the journal "
                "(open with --resume to repair the journal)")
        else:
            audit.verified.append(module_id)
            audit.notes.append(f"{path.name}: format-1 file without "
                               "checksums (open with --resume to migrate)")
    for module_id in sorted(set(journal) - seen):
        audit.notes.append(f"journal entry for module {module_id!r} has no "
                           "file (module will re-run on resume)")
    for tmp in sorted(root.glob("*.tmp")):
        audit.problems.append(f"{tmp.name}: stale temp file from a killed "
                              "writer (swept automatically on resume)")
    for corrupt in sorted(root.glob("*.corrupt*")):
        audit.notes.append(f"{corrupt.name}: previously quarantined file")
    return audit
