"""Tests for the on-disk checkpoint store."""

import json

import pytest

from repro.core.config import OPERATIONAL_FIELDS, QUICK
from repro.errors import CheckpointCorruptionError, ConfigError
from repro.runner.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    _encode,
    audit_checkpoint_dir,
    config_fingerprint,
)

pytestmark = pytest.mark.faults


class TestFingerprint:
    def test_pins_study_and_every_science_knob(self):
        fp = config_fingerprint("temperature", QUICK)
        assert fp["study"] == "temperature"
        assert fp["config"]["seed"] == QUICK.seed
        assert fp["config"]["rows_per_region"] == QUICK.rows_per_region

    def test_excludes_operational_fields(self):
        # Supervision knobs change how a campaign is babysat, not what it
        # measures — resuming under a different deadline must be sound.
        fp = config_fingerprint("temperature", QUICK)
        for field in OPERATIONAL_FIELDS:
            assert field not in fp["config"]
        assert fp == config_fingerprint(
            "temperature", QUICK.scaled(module_deadline_s=42.0))

    def test_is_json_safe(self):
        fp = config_fingerprint("spatial", QUICK)
        assert json.loads(json.dumps(fp)) == fp

    def test_differs_across_seed_and_study(self):
        base = config_fingerprint("temperature", QUICK)
        assert base != config_fingerprint("acttime", QUICK)
        assert base != config_fingerprint("temperature",
                                          QUICK.scaled(seed=999))


class TestStore:
    def test_fresh_directory_writes_manifest(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", "temperature", QUICK)
        manifest = json.loads(
            (tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest == {"format": CHECKPOINT_FORMAT, **store.fingerprint}

    def test_save_load_roundtrip_and_listing(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        payload = {"module_id": "A0", "values": [1.5, None, 3.0]}
        store.save("A0", payload)
        store.save("B1", {"module_id": "B1"})
        assert store.has("A0") and not store.has("C2")
        assert store.load("A0") == payload
        assert store.completed_modules() == ["A0", "B1"]

    def test_load_missing_module_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        with pytest.raises(ConfigError):
            store.load("A0")

    def test_existing_campaign_requires_resume(self, tmp_path):
        CheckpointStore(tmp_path, "temperature", QUICK)
        with pytest.raises(ConfigError, match="--resume"):
            CheckpointStore(tmp_path, "temperature", QUICK)
        CheckpointStore(tmp_path, "temperature", QUICK, resume=True)

    def test_resume_refuses_config_mismatch(self, tmp_path):
        CheckpointStore(tmp_path, "temperature", QUICK)
        with pytest.raises(ConfigError, match="different study"):
            CheckpointStore(tmp_path, "temperature", QUICK.scaled(seed=77),
                            resume=True)
        with pytest.raises(ConfigError, match="different study"):
            CheckpointStore(tmp_path, "acttime", QUICK, resume=True)

    def test_studies_do_not_collide_in_one_directory(self, tmp_path):
        temp = CheckpointStore(tmp_path / "t", "temperature", QUICK)
        spatial = CheckpointStore(tmp_path / "s", "spatial", QUICK)
        temp.save("A0", {"study": "temperature"})
        spatial.save("A0", {"study": "spatial"})
        assert temp.load("A0") != spatial.load("A0")
        assert temp.module_path("A0").name == "module-temperature-A0.grid"

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        store.save("A0", {"module_id": "A0"})
        assert not list(tmp_path.glob("*.tmp"))


class TestIntegrityJournal:
    def test_save_appends_sha256_and_length(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        path = store.save("A0", {"module_id": "A0", "values": [1.5]})
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["module"] == "A0"
        assert entry["file"] == path.name
        assert entry["length"] == len(path.read_bytes())
        assert len(entry["sha256"]) == 64

    def test_truncated_file_is_quarantined_on_resume(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        path = store.save("A0", {"module_id": "A0", "values": [1.5] * 50})
        store.save("B1", {"module_id": "B1"})
        path.write_bytes(path.read_bytes()[:20])

        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert not resumed.has("A0") and resumed.has("B1")
        assert [r.module_id for r in resumed.corrupted] == ["A0"]
        assert not path.exists()
        corrupt = path.with_suffix(path.suffix + ".corrupt")
        assert corrupt.exists()
        # Re-running the module heals the directory.
        resumed.save("A0", {"module_id": "A0", "values": [1.5] * 50})
        assert resumed.has("A0")

    def test_load_detects_corruption_after_open(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        path = store.save("A0", {"module_id": "A0"})
        path.write_text('{"module_id": "tampered"}')
        with pytest.raises(CheckpointCorruptionError):
            store.load("A0")

    def test_stale_tmp_files_swept_on_resume(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        store.save("A0", {"module_id": "A0"})
        stale = tmp_path / "module-temperature-B1.json.tmp"
        stale.write_text("{")
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert not stale.exists()
        assert resumed.swept_tmp == [stale.name]

    def test_torn_journal_line_tolerated(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        store.save("A0", {"module_id": "A0"})
        journal = tmp_path / "journal.jsonl"
        journal.write_text(journal.read_text() + '{"file": "module-t')
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert resumed.has("A0")
        assert resumed.corrupted == []


class TestFormatMigration:
    def _make_format1(self, tmp_path):
        """A genuine format-1 directory: raw JSON files, no journal."""
        CheckpointStore(tmp_path, "temperature", QUICK)
        for module_id in ("A0", "B1"):
            (tmp_path / f"module-temperature-{module_id}.json").write_bytes(
                _encode({"module_id": module_id}))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 1
        manifest_path.write_text(json.dumps(manifest))

    def test_format1_migrated_in_place_on_resume(self, tmp_path):
        self._make_format1(tmp_path)
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert resumed.has("A0") and resumed.has("B1")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format"] == CHECKPOINT_FORMAT
        journal = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert {json.loads(line)["module"] for line in journal} == \
            {"A0", "B1"}
        # The JSON originals are re-encoded as blobs and removed.
        assert not list(tmp_path.glob("module-*.json"))
        assert len(list(tmp_path.glob("module-*.grid"))) == 2
        assert resumed.load("A0") == {"module_id": "A0"}

    def test_unparseable_format1_file_quarantined(self, tmp_path):
        self._make_format1(tmp_path)
        victim = tmp_path / "module-temperature-A0.json"
        victim.write_bytes(victim.read_bytes()[:10])
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert not resumed.has("A0") and resumed.has("B1")
        assert [r.module_id for r in resumed.corrupted] == ["A0"]

    def test_unknown_format_refused(self, tmp_path):
        CheckpointStore(tmp_path, "temperature", QUICK)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="format"):
            CheckpointStore(tmp_path, "temperature", QUICK, resume=True)


class TestAudit:
    def test_clean_directory_is_ok(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        store.save("A0", {"module_id": "A0"})
        audit = audit_checkpoint_dir(tmp_path)
        assert audit.ok
        assert audit.verified == ["A0"]
        assert "OK" in audit.render()

    def test_truncation_and_stale_tmp_are_problems(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        path = store.save("A0", {"module_id": "A0", "values": [1.0] * 50})
        path.write_bytes(path.read_bytes()[:20])
        (tmp_path / "module-temperature-B1.json.tmp").write_text("{")
        audit = audit_checkpoint_dir(tmp_path)
        assert not audit.ok
        assert len(audit.problems) == 2
        assert "CORRUPT" in audit.render()

    def test_audit_is_read_only(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        path = store.save("A0", {"module_id": "A0"})
        before = sorted(p.name for p in tmp_path.iterdir())
        payload = path.read_bytes()
        path.write_bytes(payload[:10])
        audit_checkpoint_dir(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert path.read_bytes() == payload[:10]

    def test_not_a_checkpoint_directory(self, tmp_path):
        audit = audit_checkpoint_dir(tmp_path)
        assert not audit.ok
        assert "manifest" in audit.problems[0]

    """``save_blob``/``load_blob``: publishing and reading raw blobs."""
class TestBlobStore:
    """``save_blob``/``load_blob``: the zero-copy plane's checkpoint seam."""

    PAYLOAD = {"module_id": "A0", "values": [1.5, None, 3.0] * 4}

    def test_save_blob_writes_exactly_what_save_would(self, tmp_path):
        from repro.runner import gridblob
        via_save = CheckpointStore(tmp_path / "a", "temperature", QUICK)
        save_path = via_save.save("A0", self.PAYLOAD)
        via_blob = CheckpointStore(tmp_path / "b", "temperature", QUICK)
        blob = gridblob.encode_module(self.PAYLOAD, study="temperature",
                                      module_id="A0")
        blob_path = via_blob.save_blob("A0", blob)
        assert save_path.read_bytes() == blob_path.read_bytes()
        assert ((tmp_path / "a" / "journal.jsonl").read_text()
                == (tmp_path / "b" / "journal.jsonl").read_text())

    def test_save_blob_accepts_a_memoryview(self, tmp_path):
        from repro.runner import gridblob
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        blob = gridblob.encode_module(self.PAYLOAD, study="temperature",
                                      module_id="A0")
        store.save_blob("A0", memoryview(blob))
        assert store.load("A0") == self.PAYLOAD

    def test_load_blob_round_trips(self, tmp_path):
        from repro.runner import gridblob
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        store.save("A0", self.PAYLOAD)
        blob = store.load_blob("A0")
        assert gridblob.decode_module(blob) == self.PAYLOAD

    def test_load_blob_missing_module_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        with pytest.raises(ConfigError, match="no format-3"):
            store.load_blob("A0")


class TestFormat2Migration:
    def _make_format2(self, tmp_path, modules=("A0", "B1")):
        """A genuine format-2 directory: journaled, sha-checked JSON."""
        import hashlib
        CheckpointStore(tmp_path, "temperature", QUICK)
        with open(tmp_path / "journal.jsonl", "w") as journal:
            for module_id in modules:
                name = f"module-temperature-{module_id}.json"
                data = _encode({"module_id": module_id,
                                "values": [0.5] * 12})
                (tmp_path / name).write_bytes(data)
                journal.write(json.dumps(
                    {"file": name, "length": len(data),
                     "module": module_id,
                     "sha256": hashlib.sha256(data).hexdigest()},
                    sort_keys=True) + "\n")
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 2
        manifest_path.write_text(json.dumps(manifest))

    def test_format2_migrated_in_place_on_resume(self, tmp_path):
        self._make_format2(tmp_path)
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert resumed.has("A0") and resumed.has("B1")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format"] == CHECKPOINT_FORMAT
        assert not list(tmp_path.glob("module-*.json"))
        assert len(list(tmp_path.glob("module-*.grid"))) == 2
        assert resumed.load("A0") == {"module_id": "A0",
                                      "values": [0.5] * 12}
        assert sorted(resumed.migrated_legacy) == [
            "module-temperature-A0.json", "module-temperature-B1.json"]

    def test_format2_journal_mismatch_quarantined(self, tmp_path):
        self._make_format2(tmp_path)
        victim = tmp_path / "module-temperature-A0.json"
        victim.write_bytes(victim.read_bytes() + b" ")
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert not resumed.has("A0") and resumed.has("B1")
        assert [r.module_id for r in resumed.corrupted] == ["A0"]

    def test_migrated_blob_matches_a_fresh_save(self, tmp_path):
        """The migration must re-encode to exactly the blob a format-3
        save of the same payload writes — resumed campaigns stay
        byte-identical to uninterrupted ones."""
        self._make_format2(tmp_path, modules=("A0",))
        CheckpointStore(tmp_path, "temperature", QUICK, resume=True)
        fresh = CheckpointStore(tmp_path / "fresh", "temperature", QUICK)
        fresh_path = fresh.save("A0", {"module_id": "A0",
                                       "values": [0.5] * 12})
        migrated = tmp_path / "module-temperature-A0.grid"
        assert migrated.read_bytes() == fresh_path.read_bytes()

    def test_mixed_format_directory_resumes(self, tmp_path):
        """Crash mid-migration: some modules already .grid, some still
        legacy JSON.  A resume verifies the former and migrates the rest."""
        self._make_format2(tmp_path, modules=("A0",))
        # A module already published in format 3 (its migration finished).
        from repro.runner import gridblob
        blob = gridblob.encode_module({"module_id": "B1"},
                                      study="temperature", module_id="B1")
        (tmp_path / "module-temperature-B1.grid").write_bytes(blob)
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert resumed.has("A0") and resumed.has("B1")
        assert resumed.corrupted == []
        assert not list(tmp_path.glob("module-*.json"))
        audit = audit_checkpoint_dir(tmp_path)
        assert audit.ok
        assert sorted(audit.verified) == ["A0", "B1"]

    def test_audit_flags_legacy_files_as_notes(self, tmp_path):
        self._make_format2(tmp_path)
        audit = audit_checkpoint_dir(tmp_path)
        assert audit.ok
        assert any("migrate" in note for note in audit.notes)


class TestFormat3Audit:
    def test_audit_verifies_grid_files_by_raw_hash(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        store.save("A0", {"module_id": "A0", "values": [2.0] * 64})
        audit = audit_checkpoint_dir(tmp_path)
        assert audit.ok and audit.format == CHECKPOINT_FORMAT
        assert audit.verified == ["A0"]

    def test_flipped_block_byte_is_a_problem(self, tmp_path):
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        path = store.save("A0", {"module_id": "A0", "values": [2.0] * 64})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        audit = audit_checkpoint_dir(tmp_path)
        assert not audit.ok
        assert any("A0" in problem for problem in audit.problems)

    def test_unjournaled_self_verifying_blob_is_accepted(self, tmp_path):
        """A blob published right before a crash (journal line lost)
        still verifies via its header's block sha — no data loss."""
        from repro.runner import gridblob
        store = CheckpointStore(tmp_path, "temperature", QUICK)
        store.save("A0", {"module_id": "A0"})
        blob = gridblob.encode_module({"module_id": "B1",
                                       "values": [3.0] * 16},
                                      study="temperature", module_id="B1")
        (tmp_path / "module-temperature-B1.grid").write_bytes(blob)
        resumed = CheckpointStore(tmp_path, "temperature", QUICK,
                                  resume=True)
        assert resumed.has("B1")
        assert resumed.load("B1") == {"module_id": "B1",
                                      "values": [3.0] * 16}
