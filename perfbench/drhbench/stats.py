"""Order statistics for timings.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it, so one slow sample cannot pass for a p90.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


class PercentileRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``.

    Raises :class:`PercentileRefused` for ``q > 0.5`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond the chosen rank.
    """
    if not values:
        raise PercentileRefused("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if q > 0.5 and len(ordered) - rank < MIN_BEYOND:
        raise PercentileRefused(
            f"p{q * 100:g} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it; need {MIN_BEYOND}")
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
