"""Spatially-correlated variation fields of the fault model.

RowHammer vulnerability varies across DRAM with structure at several scales
(Section 7 of the paper).  We compose a cell's base threshold from
independent multiplicative log-normal factors::

    hc_base(cell) = C * F_module * F_subarray(sa) * F_row(row) * F_cell(cell)

and place cells on columns according to a weight field that mixes a
*design-induced* component (identical in every chip of a module; Obsv. 14)
with a *process-induced* per-chip component.

All factors are derived deterministically from the module's seed tree, so a
module is the same device every time it is instantiated.
"""

from __future__ import annotations

import numpy as np

from repro.dram.geometry import Geometry
from repro.faultmodel.profiles import MfrProfile, REFERENCE_TEMPERATURE_C
from repro.rng import SeedSequenceTree


def module_factor(tree: SeedSequenceTree, profile: MfrProfile) -> float:
    """Module-to-module log-normal factor (Fig. 14: module spread)."""
    gen = tree.generator("module-factor")
    return float(np.exp(gen.normal(0.0, profile.sigma_module)))


def subarray_factor(tree: SeedSequenceTree, profile: MfrProfile,
                    bank: int, subarray: int) -> float:
    """Subarray factor: small, shared by every row of the subarray."""
    gen = tree.generator("subarray-factor", bank, subarray)
    return float(np.exp(gen.normal(0.0, profile.sigma_subarray)))


def row_factor(tree: SeedSequenceTree, profile: MfrProfile,
               bank: int, row: int) -> float:
    """Per-row factor: the dominant spatial term (Fig. 11).

    A small fraction of rows draw an extra *super-vulnerable* multiplier,
    thickening the low tail the way Obsv. 12 describes.
    """
    gen = tree.generator("row-factor", bank, row)
    factor = float(np.exp(gen.normal(0.0, profile.sigma_row)))
    if gen.random() < profile.outlier_row_fraction:
        factor *= profile.outlier_row_factor
    return factor


def expected_min_cell_factor(profile: MfrProfile) -> float:
    """Median of the minimum cell factor within a row.

    Cell factors follow a bounded power law ``F(x) = x**k`` on (0, 1]
    (``k = cell_tail_exponent``): the within-row threshold *count* below a
    damage level then grows like ``damage**k``, which is what produces the
    paper's multiplicative BER responses (Obsv. 8/10) on top of first-flip
    thresholds below the BER hammer count (Fig. 11).  The minimum of ``n``
    such draws has median ``(1 - 0.5**(1/n)) ** (1/k)``; ``n`` is halved
    because only cells whose charged value matches the installed pattern
    are exposed.

    Used to calibrate the global constant ``C`` so that the row-level
    HCfirst median lands on the profile's published target.
    """
    n = max(profile.cells_per_row_mean / 2.0, 1.0)
    k = profile.cell_tail_exponent
    return float((1.0 - 0.5 ** (1.0 / n)) ** (1.0 / k))


def base_constant(profile: MfrProfile) -> float:
    """Global threshold constant ``C`` in hammer units."""
    return profile.row_hcfirst_median / expected_min_cell_factor(profile)


def column_weight_field(tree: SeedSequenceTree, profile: MfrProfile,
                        geometry: Geometry) -> np.ndarray:
    """Probability field over (chip, column) for vulnerable-cell placement.

    Returns an array of shape ``(chips, cols_per_row)`` summing to 1.

    The *design* field is drawn once per module and broadcast to every chip
    (columns near repeating analog structures are systematically more
    sensitive); the *process* field is drawn independently per chip.  The
    profile's ``col_design_mix`` sets the exponent share of each component,
    and ``col_weight_floor`` adds a uniform floor (manufacturer B shows at
    least a few flips in every column, Obsv. 13).
    """
    gen_design = tree.generator("column-design")
    design = np.exp(gen_design.normal(0.0, profile.col_design_sigma,
                                      size=geometry.cols_per_row))
    weights = np.empty((geometry.chips, geometry.cols_per_row))
    mix = profile.col_design_mix
    for chip in range(geometry.chips):
        gen_proc = tree.generator("column-process", chip)
        process = np.exp(gen_proc.normal(0.0, profile.col_process_sigma,
                                         size=geometry.cols_per_row))
        weights[chip] = (design ** mix) * (process ** (1.0 - mix))
    weights += profile.col_weight_floor * weights.mean()
    total = weights.sum()
    return weights / total


def row_temperature_response(tree: SeedSequenceTree, profile: MfrProfile,
                             bank: int, row: int) -> tuple:
    """Sample the row's HCfirst-vs-temperature curve parameters.

    Returns ``(s, q, z)`` such that

        log HCfirst(T) - log HCfirst(50) =
            s * dT + q * dT^2 + temp_walk_sd * z * (dT / 5) ** 0.25

    with ``dT = T - 50``.  The three terms are each monotone in ``T``
    (or quadratic), so a cell's flip region in temperature stays contiguous
    -- gaps only come from explicit gap cells (Table 3).
    """
    gen = tree.generator("row-temp-response", bank, row)
    s = gen.normal(profile.temp_slope_mu, profile.temp_slope_sd)
    q = gen.normal(profile.temp_quad_mu, profile.temp_quad_sd)
    z = gen.normal(0.0, 1.0)
    return float(s), float(q), float(z)


def temperature_log_shift(s: float, q: float, z: float, walk_sd: float,
                          temperature_c: float,
                          reference_c: float = REFERENCE_TEMPERATURE_C
                          ) -> float:
    """Evaluate the row response curve ``g(T)`` (see above) at one point."""
    dt = temperature_c - reference_c
    if dt == 0.0:
        return 0.0
    magnitude = abs(dt)
    sign = 1.0 if dt > 0 else -1.0
    walk = walk_sd * z * (magnitude / 5.0) ** 0.25 * sign
    return s * dt + q * dt * dt + walk


def temperature_log_shift_grid(s: float, q: float, z: float, walk_sd: float,
                               temperatures_c,
                               reference_c: float = REFERENCE_TEMPERATURE_C
                               ) -> np.ndarray:
    """``g(T)`` over a whole temperature grid, as a float64 vector.

    Evaluates the scalar response point-by-point instead of with array
    transcendentals: the batched oracle promises bit-for-bit equality
    with the pointwise path, and libm ``pow`` is only guaranteed to round
    identically when invoked the same way on the same scalar.  The grid
    has at most a few dozen points, so this costs nothing next to the
    per-cell work it amortizes.
    """
    return np.array([
        temperature_log_shift(s, q, z, walk_sd, float(t), reference_c)
        for t in temperatures_c
    ], dtype=float)
