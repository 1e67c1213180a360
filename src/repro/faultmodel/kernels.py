"""Hot-loop kernel for the batched oracle.

The HCfirst binary search against an analytic threshold is a *step
function* of the threshold: the search only ever compares against the
finite set of reachable hammer counts, so its answer at any threshold is
the answer at the smallest reachable count >= the threshold (see
:mod:`repro.testing.hcfirst`).  That turns a per-grid-point search into
one vectorized ``searchsorted`` + gather through a precomputed table —
this module owns that lookup so both the testing layer and the batched
oracle share one implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def step_lookup(breaks: np.ndarray, results: np.ndarray,
                limits: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate a step function at ``limits``: ``results[k]`` for the
    smallest ``breaks[k] >= limit``, or ``-1`` past the last breakpoint.

    ``breaks`` must be sorted ascending; NaN limits sort past the end and
    yield ``-1`` (the "never" answer), matching the scalar search.
    ``out`` (int64, same shape as ``limits``) is written in place when
    given — the batched oracle reuses one scratch vector across rows.
    """
    limits = np.ascontiguousarray(limits, dtype=np.float64)
    if out is None:
        out = np.empty(limits.shape, dtype=np.int64)
    index = np.searchsorted(breaks, limits, side="left")
    np.take(results, np.minimum(index, len(breaks) - 1), out=out)
    out[index >= len(breaks)] = -1
    return out
