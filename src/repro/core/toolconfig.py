"""``[tool.deeprh]`` configuration from ``pyproject.toml``.

The cache knobs — how many oracle threshold matrices the shared cache
holds, how many rows a cell population keeps resident — are operational,
not scientific: every setting yields bit-identical results, only at a
different memory/speed point.  They are therefore configured like other
tooling, in ``pyproject.toml``::

    [tool.deeprh.cache]
    shared_cache_entries = 8192
    row_cache_rows = 2048

CLI flags (``deeprh campaign --shared-cache-entries``, ``deeprh serve
--row-cache-rows``) override the file; unset values fall back to the
library defaults.  :mod:`repro.statcheck` keeps its own
``[tool.deeprh.lint]`` table; this module reads ``cache`` and
``governor``.

The resource governor's budgets live in ``[tool.deeprh.governor]``::

    [tool.deeprh.governor]
    rss_budget_mb = 2048
    fd_budget = 512
    disk_headroom_mb = 256
    cache_entry_budget = 4096
    assess_every = 8
    recover_after = 3

Budgets are optional — an axis without a budget is never assessed — and,
like the cache knobs, purely operational: any rung of the degradation
ladder yields byte-identical campaign results.
"""

from __future__ import annotations

import pathlib
import tomllib
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """``[tool.deeprh.cache]``: unset fields mean "library default"."""

    shared_cache_entries: Optional[int] = None
    row_cache_rows: Optional[int] = None


def find_pyproject(start: Optional[str] = None) -> Optional[pathlib.Path]:
    """The nearest ``pyproject.toml`` at or above ``start`` (default cwd)."""
    path = pathlib.Path(start) if start is not None else pathlib.Path.cwd()
    if path.is_file():
        path = path.parent
    for directory in (path, *path.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_cache_config(path: Optional[str] = None) -> CacheConfig:
    """Read ``[tool.deeprh.cache]`` from ``path`` or the nearest pyproject.

    A missing file or missing table yields all-default config; a present
    but malformed table is a :class:`ConfigError` — silent fallback would
    hide a typo'd bound until memory ran out mid-campaign.
    """
    pyproject = pathlib.Path(path) if path is not None \
        else find_pyproject()
    if pyproject is None or not pyproject.is_file():
        return CacheConfig()
    try:
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as error:
        raise ConfigError(f"cannot parse {pyproject}: {error}") from error
    table = data.get("tool", {}).get("deeprh", {}).get("cache", {})
    if not isinstance(table, dict):
        raise ConfigError(f"[tool.deeprh.cache] in {pyproject} must be "
                          "a table")
    known = {"shared_cache_entries", "row_cache_rows"}
    unknown = set(table) - known
    if unknown:
        raise ConfigError(
            f"unknown [tool.deeprh.cache] key(s) in {pyproject}: "
            f"{', '.join(sorted(unknown))}; expected {sorted(known)}")
    values = {}
    for key in known:
        value = table.get(key)
        if value is None:
            continue
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            raise ConfigError(f"[tool.deeprh.cache] {key} in {pyproject} "
                              "must be a non-negative integer")
        values[key] = value
    return CacheConfig(**values)


def resolve_cache_setting(flag: Optional[int],
                          configured: Optional[int]) -> Optional[int]:
    """CLI flag beats pyproject beats library default (None)."""
    return flag if flag is not None else configured


@dataclass(frozen=True)
class GovernorConfig:
    """``[tool.deeprh.governor]``: unset budgets disable that axis."""

    rss_budget_mb: Optional[int] = None
    fd_budget: Optional[int] = None
    disk_headroom_mb: Optional[int] = None
    cache_entry_budget: Optional[int] = None
    assess_every: Optional[int] = None
    recover_after: Optional[int] = None

    @property
    def any_budget(self) -> bool:
        """True when at least one budget axis is configured."""
        return any(value is not None for value in (
            self.rss_budget_mb, self.fd_budget,
            self.disk_headroom_mb, self.cache_entry_budget))


_GOVERNOR_KEYS = ("rss_budget_mb", "fd_budget",
                  "disk_headroom_mb", "cache_entry_budget",
                  "assess_every", "recover_after")


def load_governor_config(path: Optional[str] = None) -> GovernorConfig:
    """Read ``[tool.deeprh.governor]`` from ``path`` or nearest pyproject.

    Same contract as :func:`load_cache_config`: missing file/table means
    all-default; a malformed table is a :class:`ConfigError`, because a
    typo'd budget silently ignored *is* the OOM kill the governor exists
    to prevent.
    """
    pyproject = pathlib.Path(path) if path is not None \
        else find_pyproject()
    if pyproject is None or not pyproject.is_file():
        return GovernorConfig()
    try:
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as error:
        raise ConfigError(f"cannot parse {pyproject}: {error}") from error
    table = data.get("tool", {}).get("deeprh", {}).get("governor", {})
    if not isinstance(table, dict):
        raise ConfigError(f"[tool.deeprh.governor] in {pyproject} must be "
                          "a table")
    unknown = set(table) - set(_GOVERNOR_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown [tool.deeprh.governor] key(s) in {pyproject}: "
            f"{', '.join(sorted(unknown))}; expected "
            f"{sorted(_GOVERNOR_KEYS)}")
    values = {}
    for key in _GOVERNOR_KEYS:
        value = table.get(key)
        if value is None:
            continue
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            raise ConfigError(f"[tool.deeprh.governor] {key} in "
                              f"{pyproject} must be a positive integer")
        values[key] = value
    return GovernorConfig(**values)
