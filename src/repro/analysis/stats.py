"""Descriptive statistics used throughout the paper's figures.

The paper reports box plots (Figs. 7, 9; Tukey fences at 1.5x IQR),
letter-value plots (Figs. 8, 10; Hofmann et al.), 95% confidence intervals
on means (Fig. 4), coefficients of variation (Obsvs. 9, 11, 14) and
percentile markers over sorted distributions (Figs. 5, 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError


def _as_array(values: Sequence[float]) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ConfigError("expected a one-dimensional sample")
    return array


def coefficient_of_variation(values: Sequence[float]) -> float:
    """CV = standard deviation / mean (paper footnote 7).

    Returns NaN for empty samples and for samples with zero mean.
    """
    array = _as_array(values)
    if array.size == 0:
        return float("nan")
    mean = array.mean()
    if mean == 0:
        return float("nan")
    return float(array.std(ddof=0) / mean)


def mean_confidence_interval(values: Sequence[float],
                             confidence: float = 0.95
                             ) -> Tuple[float, float, float]:
    """Mean and symmetric t-based confidence interval (Fig. 4 error bars).

    Returns ``(mean, low, high)``.  Degenerate samples collapse to the mean.
    scipy is imported here, its only use: importing it costs most of the
    CLI's start-up time, and most commands never build an interval.
    """
    from scipy import stats as sps

    array = _as_array(values)
    if array.size == 0:
        return float("nan"), float("nan"), float("nan")
    mean = float(array.mean())
    if array.size < 2:
        return mean, mean, mean
    sem = array.std(ddof=1) / np.sqrt(array.size)
    if sem == 0:
        return mean, mean, mean
    half = float(sem * sps.t.ppf(0.5 + confidence / 2.0, df=array.size - 1))
    return mean, mean - half, mean + half


def percentile_markers(
        values: Sequence[float],
        percentiles: Sequence[float] = (1, 5, 10, 25, 50, 75, 90, 95, 99),
        descending: bool = True) -> Dict[str, float]:
    """Percentile markers over a sorted distribution (Fig. 11's P1..P99).

    With ``descending=True`` (the paper sorts rows from highest to lowest
    HCfirst), ``P5`` is the value 5% of the way through the *descending*
    order, i.e. the 95th classical percentile.
    """
    array = _as_array(values)
    result: Dict[str, float] = {}
    for p in percentiles:
        quantile = 100.0 - p if descending else p
        result[f"P{int(p)}"] = (float(np.percentile(array, quantile))
                                if array.size else float("nan"))
    return result


@dataclass(frozen=True)
class BoxStats:
    """Tukey box-plot statistics (paper footnote 5)."""

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    n_outliers: int
    n: int

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxStats":
        array = _as_array(values)
        if array.size == 0:
            nan = float("nan")
            return cls(nan, nan, nan, nan, nan, 0, 0)
        q1, median, q3 = (float(np.percentile(array, p)) for p in (25, 50, 75))
        iqr = q3 - q1
        low_fence, high_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = array[(array >= low_fence) & (array <= high_fence)]
        # Whiskers reach the most extreme points inside the fences but, as
        # in standard box plots, never retreat inside the box itself.
        whisker_low = min(float(inside.min()), q1) if inside.size else q1
        whisker_high = max(float(inside.max()), q3) if inside.size else q3
        return cls(median, q1, q3, whisker_low, whisker_high,
                   int(array.size - inside.size), int(array.size))


@dataclass(frozen=True)
class LetterValueStats:
    """Letter-value ("boxen") statistics (paper footnote 6, Hofmann et al.).

    ``levels`` maps depth labels (``"M"`` median, ``"F"`` fourths/quartiles,
    ``"E"`` eighths/octiles, ...) to ``(low, high)`` value pairs; letter
    values stop where fewer than ``min_tail`` points remain outside, and
    the rest are outliers.
    """

    levels: Dict[str, Tuple[float, float]]
    outliers: Tuple[float, ...]
    n: int

    _LABELS = ("M", "F", "E", "D", "C", "B", "A", "Z", "Y", "X")

    @classmethod
    def from_values(cls, values: Sequence[float],
                    outlier_fraction: float = 0.007) -> "LetterValueStats":
        array = np.sort(_as_array(values))
        n = array.size
        if n == 0:
            return cls({}, (), 0)
        levels: Dict[str, Tuple[float, float]] = {}
        tail = 0.5
        for label in cls._LABELS:
            low = float(np.quantile(array, tail)) if label != "M" else \
                float(np.quantile(array, 0.5))
            high = float(np.quantile(array, 1.0 - tail))
            levels[label] = (low, high)
            tail /= 2.0
            if tail * n < max(1.0, outlier_fraction * n):
                break
        cut = max(outlier_fraction / 2.0, 0.0)
        low_cut = float(np.quantile(array, cut))
        high_cut = float(np.quantile(array, 1.0 - cut))
        outliers = tuple(float(v) for v in array
                         if v < low_cut or v > high_cut)
        return cls(levels, outliers, int(n))

    @property
    def median(self) -> float:
        if "M" not in self.levels:
            return float("nan")
        return self.levels["M"][0]


def summarize_change(baseline: Sequence[float],
                     changed: Sequence[float]) -> Dict[str, float]:
    """Paired percentage-change summary used by several observations."""
    base = _as_array(baseline)
    new = _as_array(changed)
    if base.shape != new.shape:
        raise ConfigError("paired samples must have equal length")
    if base.size == 0:
        return {"mean_change_pct": float("nan"),
                "fraction_positive": float("nan"),
                "cumulative_magnitude": 0.0}
    with np.errstate(divide="ignore", invalid="ignore"):
        change = (new - base) / base * 100.0
    change = change[np.isfinite(change)]
    if change.size == 0:
        return {"mean_change_pct": float("nan"),
                "fraction_positive": float("nan"),
                "cumulative_magnitude": 0.0}
    return {
        "mean_change_pct": float(change.mean()),
        "fraction_positive": float((change > 0).mean()),
        "cumulative_magnitude": float(np.abs(change).sum()),
    }


def sorted_change_curve(baseline: Sequence[float],
                        changed: Sequence[float]) -> np.ndarray:
    """Percentage changes sorted from most positive to most negative (Fig. 5)."""
    base = _as_array(baseline)
    new = _as_array(changed)
    if base.shape != new.shape:
        raise ConfigError("paired samples must have equal length")
    with np.errstate(divide="ignore", invalid="ignore"):
        change = (new - base) / base * 100.0
    change = change[np.isfinite(change)]
    return np.sort(change)[::-1]
