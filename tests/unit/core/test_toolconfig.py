"""``[tool.deeprh.cache]`` loading and CLI-flag precedence."""

import pytest

from repro.core.toolconfig import (
    CacheConfig,
    find_pyproject,
    load_cache_config,
    load_governor_config,
    resolve_cache_setting,
)
from repro.errors import ConfigError


def write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text(body)
    return str(path)


class TestLoad:
    def test_missing_file_is_all_default(self, tmp_path):
        assert load_cache_config(str(tmp_path / "nope.toml")) \
            == CacheConfig()

    def test_missing_table_is_all_default(self, tmp_path):
        path = write_pyproject(tmp_path, "[tool.other]\nx = 1\n")
        assert load_cache_config(path) == CacheConfig()

    def test_values_are_read(self, tmp_path):
        path = write_pyproject(tmp_path, "\n".join([
            "[tool.deeprh.cache]",
            "shared_cache_entries = 8192",
            "row_cache_rows = 2048",
        ]))
        config = load_cache_config(path)
        assert config.shared_cache_entries == 8192
        assert config.row_cache_rows == 2048

    def test_partial_table_leaves_the_rest_default(self, tmp_path):
        path = write_pyproject(
            tmp_path, "[tool.deeprh.cache]\nrow_cache_rows = 64\n")
        config = load_cache_config(path)
        assert config.shared_cache_entries is None
        assert config.row_cache_rows == 64

    def test_other_deeprh_tables_are_ignored(self, tmp_path):
        # [tool.deeprh.lint] belongs to statcheck; only cache is read.
        path = write_pyproject(
            tmp_path, '[tool.deeprh.lint]\nrng-modules = ["x.py"]\n')
        assert load_cache_config(path) == CacheConfig()


class TestRejection:
    def test_unknown_key_is_a_config_error(self, tmp_path):
        path = write_pyproject(
            tmp_path, "[tool.deeprh.cache]\nshared_cache_entires = 1\n")
        with pytest.raises(ConfigError, match="shared_cache_entires"):
            load_cache_config(path)

    def test_non_integer_value_is_a_config_error(self, tmp_path):
        path = write_pyproject(
            tmp_path, '[tool.deeprh.cache]\nrow_cache_rows = "many"\n')
        with pytest.raises(ConfigError, match="non-negative integer"):
            load_cache_config(path)

    def test_boolean_value_is_a_config_error(self, tmp_path):
        path = write_pyproject(
            tmp_path, "[tool.deeprh.cache]\nrow_cache_rows = true\n")
        with pytest.raises(ConfigError):
            load_cache_config(path)

    def test_negative_value_is_a_config_error(self, tmp_path):
        path = write_pyproject(
            tmp_path, "[tool.deeprh.cache]\nshared_cache_entries = -4\n")
        with pytest.raises(ConfigError):
            load_cache_config(path)

    def test_unparseable_toml_is_a_config_error(self, tmp_path):
        path = write_pyproject(tmp_path, "[tool.deeprh.cache\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_cache_config(path)


class TestResolution:
    def test_flag_beats_pyproject(self):
        assert resolve_cache_setting(128, 4096) == 128

    def test_pyproject_beats_library_default(self):
        assert resolve_cache_setting(None, 4096) == 4096

    def test_unset_everywhere_is_none(self):
        assert resolve_cache_setting(None, None) is None

    def test_explicit_zero_flag_is_respected(self):
        # --shared-cache-entries 0 means "disable", not "unset".
        assert resolve_cache_setting(0, 4096) == 0


class TestDiscovery:
    def test_find_walks_up_from_a_nested_directory(self, tmp_path):
        write_pyproject(tmp_path, "[tool.deeprh.cache]\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        found = find_pyproject(str(nested))
        assert found is not None
        assert found == tmp_path / "pyproject.toml"

    def test_repo_pyproject_parses_cleanly(self):
        # The repo's own [tool.deeprh.cache] example must stay loadable.
        import pathlib
        repo = pathlib.Path(__file__).resolve().parents[3]
        load_cache_config(str(repo / "pyproject.toml"))


class TestGovernorTable:
    def test_removed_shm_budget_key_is_a_config_error(self, tmp_path):
        path = write_pyproject(
            tmp_path, "[tool.deeprh.governor]\nshm_budget_mb = 512\n")
        with pytest.raises(ConfigError, match="shm_budget_mb"):
            load_governor_config(path)
