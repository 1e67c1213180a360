"""Batched analytic oracle: whole sweeps in one numpy pass per row.

Every figure of the paper is a *sweep* — 9 temperatures x hundreds of rows
(Figs. 4-5), 5x5 timing grids (Figs. 7-10) — but the pointwise oracle
(:class:`~repro.faultmodel.model.RowHammerFaultModel`) evaluates one
``(row, temperature, timing)`` point per Python call, rebuilding the
per-cell threshold vector from scratch each time.  This module factors
:meth:`RowCells.thresholds` into its invariant parts:

* ``hc_base / pattern_factor`` and the exposed-bit mask depend only on
  ``(row, pattern)`` — computed once per row;
* the row-level temperature shift ``exp(g(T))`` depends only on ``T`` —
  evaluated as a vector over the whole temperature grid;
* kinetics hammer units depend only on the timing point — evaluated as a
  vector over the timing grid;

and assembles per-row ``(cells x points)`` threshold/HCfirst matrices in
one numpy pass instead of ``P`` separate calls.

**Exactness contract.**  Column ``j`` of every matrix is bit-for-bit equal
to the corresponding pointwise call at point ``j`` (property-tested by
``tests/property/test_batch_oracle.py``).  Two rules make that hold:

* elementwise ``*``, ``/``, comparisons and ``where`` are exactly rounded,
  so any operand grouping that matches the pointwise expression yields
  identical floats — the matrices use exactly the pointwise grouping
  ``(hc_base * shift) / pattern_factor * exp(noise)``;
* transcendentals (``exp``, ``pow``) are *not* vectorized over cells or
  points — the per-point scalars go through the same scalar libm calls the
  pointwise path makes (grids are tiny; cells dominate the cost).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.data import DataPattern
from repro.faultmodel import temperature as temp_mod
from repro.faultmodel.population import RowCells
from repro.obs import get_metrics, get_tracer

#: A fully-resolved sweep point: (temperature_c, t_on_ns, t_off_ns).
ResolvedPoint = Tuple[float, float, float]


class SharedMatrixCache:
    """Process-wide bounded LRU of oracle threshold parts.

    One campaign's :class:`BatchOracle` keeps a private per-model cache;
    a long-lived service running many campaigns over the same modules
    would rebuild identical matrices once per request.  Installing one of
    these (see :func:`install_shared_matrix_cache`) lets every oracle in
    the process share a single bounded pool instead.

    Safety comes from purity: entries are keyed by the *full* identity of
    what they derive from — the model's seed-tree root and prefix, its
    calibration profile and geometry constants, and the (bank, row,
    pattern, victim, temperatures) coordinates — so a hit can only ever
    return bit-identical values to a rebuild, regardless of which request
    populated it.  Cached arrays are marked read-only; all access is under
    one lock, so concurrent requests in server threads stay coherent.
    """

    def __init__(self, entries: int = 4096) -> None:
        if entries < 1:
            raise ValueError("shared matrix cache needs at least one entry")
        self.entries = int(entries)
        self._lock = threading.Lock()
        self._cache: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" = \
            OrderedDict()

    def get(self, key: tuple) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        with self._lock:
            parts = self._cache.get(key)
            if parts is not None:
                self._cache.move_to_end(key)
            return parts

    def put(self, key: tuple,
            parts: Tuple[np.ndarray, np.ndarray]) -> None:
        for array in parts:
            array.setflags(write=False)
        # No size gauge here: the cache outlives any one module, so its
        # size reflects worker-process history (which modules this pool
        # worker happened to run) — scheduling state, not seed state,
        # and exporting it would break the metrics determinism contract.
        # Live size is available via len() (the serve status endpoint).
        metrics = get_metrics()
        with self._lock:
            self._cache[key] = parts
            while len(self._cache) > self.entries:
                self._cache.popitem(last=False)
                metrics.counter("oracle.shared_cache.evicted").inc()

    def resize(self, entries: int) -> int:
        """Shrink (or re-grow) the LRU bound in place; returns evictions.

        The resource governor's *shrink-caches* rung lands here: clamping
        the bound evicts the oldest entries immediately, releasing their
        matrices to the allocator.  Growing the bound back is free.
        Entries only change where matrices come from, never their bytes,
        so resizing mid-service is invisible to result determinism.
        """
        if entries < 1:
            raise ValueError("shared matrix cache needs at least one entry")
        metrics = get_metrics()
        evicted = 0
        with self._lock:
            self.entries = int(entries)
            while len(self._cache) > self.entries:
                self._cache.popitem(last=False)
                evicted += 1
        if evicted:
            metrics.counter("oracle.shared_cache.evicted").inc(evicted)
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()


_shared_cache: Optional[SharedMatrixCache] = None


def install_shared_matrix_cache(cache: Optional[SharedMatrixCache]
                                ) -> Optional[SharedMatrixCache]:
    """Install (or with ``None`` remove) the process-wide shared cache.

    Returns the previously installed cache so callers can restore it.
    Affects only oracles in *this* process: campaign worker processes
    spawn fresh and fall back to their private per-model LRUs.
    """
    global _shared_cache
    previous = _shared_cache
    _shared_cache = cache
    return previous


def shared_matrix_cache() -> Optional[SharedMatrixCache]:
    """The currently installed process-wide cache, if any."""
    return _shared_cache


def model_cache_namespace(model) -> tuple:
    """The identity prefix that makes threshold parts shareable.

    Threshold parts are pure functions of the model's seed tree (root
    seed + path prefix — which embeds the module id), its data-fill seed,
    and the calibration/geometry constants the cell population is drawn
    from.  Two models agreeing on this tuple produce bit-identical parts
    for every (bank, row, pattern, victim, temps) coordinate.
    """
    return (model.tree.root_seed, model.tree.prefix, model.data_seed,
            dataclasses.astuple(model.profile),
            dataclasses.astuple(model.geometry))


@dataclass(frozen=True)
class OraclePoint:
    """One (temperature, tAggOn, tAggOff) evaluation point of a sweep.

    ``None`` fields inherit the tester/module defaults at evaluation time,
    exactly like the corresponding keyword arguments of the pointwise
    :meth:`~repro.testing.hammer.HammerTester.ber_test` /
    :meth:`~repro.testing.hammer.HammerTester.hcfirst`.
    """

    temperature_c: Optional[float] = None
    t_on_ns: Optional[float] = None
    t_off_ns: Optional[float] = None


def temperature_sweep(temperatures_c: Sequence[float],
                      t_on_ns: Optional[float] = None,
                      t_off_ns: Optional[float] = None) -> List[OraclePoint]:
    """Sweep points over a temperature grid at one (optional) timing."""
    return [OraclePoint(float(t), t_on_ns, t_off_ns) for t in temperatures_c]


def timing_sweep(timings_ns: Sequence[Tuple[Optional[float], Optional[float]]],
                 temperature_c: Optional[float] = None) -> List[OraclePoint]:
    """Sweep points over ``(t_on, t_off)`` pairs at one temperature."""
    return [OraclePoint(temperature_c, on, off) for on, off in timings_ns]


def dedupe_temperatures(temperatures: Sequence[float]
                        ) -> Tuple[List[float], List[int]]:
    """``(unique, index)`` such that ``unique[index[j]] == temperatures[j]``.

    Timing sweeps hold temperature fixed, so the expensive per-temperature
    columns collapse to one; temperature sweeps pass through unchanged.
    """
    unique: List[float] = []
    index: List[int] = []
    seen: Dict[float, int] = {}
    for t in temperatures:
        k = seen.get(t)
        if k is None:
            k = len(unique)
            seen[t] = k
            unique.append(t)
        index.append(k)
    return unique, index


def dedupe_points(temp_index: Sequence[int], units: np.ndarray
                  ) -> Tuple[List[Tuple[int, float]], np.ndarray]:
    """Unique ``(temperature-column, damage-unit)`` pairs + gather index.

    A sweep's points collapse to few distinct evaluations: a temperature
    sweep shares one unit, a timing sweep one temperature column.  The
    expensive per-cell arithmetic runs once per pair; per-point answers
    are exact gathers (the same operands in the same operations).
    """
    pairs: List[Tuple[int, float]] = []
    seen: Dict[Tuple[int, float], int] = {}
    inverse = np.empty(len(temp_index), dtype=np.intp)
    for j, key in enumerate(zip(temp_index, units.tolist())):
        k = seen.get(key)
        if k is None:
            k = seen[key] = len(pairs)
            pairs.append(key)
        inverse[j] = k
    return pairs, inverse


def group_points(temp_index: Sequence[int], timing_index: Sequence[int],
                 n_timings: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(representative, inverse)`` for unique (temperature, timing) keys.

    Points sharing a key resolve to identical ``(temperature column,
    damage unit)`` operands — the timing determines the unit — so one
    grouping, computed once per sweep, serves every observed distance.
    ``representative[k]`` is a point index belonging to group ``k``;
    ``inverse[j]`` is point ``j``'s group.
    """
    combined = (np.asarray(temp_index, dtype=np.int64) * n_timings
                + np.asarray(timing_index, dtype=np.int64))
    _, representative, inverse = np.unique(combined, return_index=True,
                                           return_inverse=True)
    return representative, inverse


def threshold_parts(cells: RowCells, temperatures: Sequence[float],
                    pattern: DataPattern, victim_row: int,
                    data_seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """``(base, mask)``: the trial-noise-independent threshold factors.

    ``base`` is the raw ``(cells x temperatures)`` threshold matrix before
    masking; ``mask`` is the active-and-exposed cell mask.  Both depend
    only on ``(row, pattern, victim, temperatures)`` — never on the trial
    repetition — so callers can cache them across repeated sweeps and
    apply per-trial noise on top.
    """
    # Scalar exp per grid point: same libm calls as the pointwise path.
    shift = np.array([np.exp(cells.temperature_shift(t))
                      for t in temperatures])
    base = (cells.hc_base[:, None] * shift[None, :]
            / cells.pattern_factor(pattern)[:, None])
    exposed = cells.stored_bits(pattern, victim_row, data_seed) == cells.vul_value
    active = temp_mod.active_mask_grid(cells.t_lo, cells.t_hi, cells.gap,
                                       temperatures)
    return base, active & exposed[:, None]


def threshold_matrix(cells: RowCells, temperatures: Sequence[float],
                     pattern: DataPattern, victim_row: int,
                     data_seed: int = 0,
                     trial_noise: Optional[np.ndarray] = None) -> np.ndarray:
    """``(cells x temperatures)`` damage-unit threshold matrix.

    Column ``j`` is bit-identical to ``cells.thresholds(temperatures[j],
    pattern, victim_row, data_seed)`` with ``exp(trial_noise)`` applied as
    the pointwise path would apply a trial generator's draw.
    """
    matrix, mask = threshold_parts(cells, temperatures, pattern, victim_row,
                                   data_seed)
    # ``matrix`` is freshly built here (no cache), so mask in place: the
    # multiply and the inf-fill touch the same elements with the same
    # operations as the old ``np.where(mask, matrix, np.inf)`` full copy.
    assert matrix.dtype == np.float64 and mask.dtype == np.bool_
    if trial_noise is not None and cells.trial_sigma > 0.0:
        np.multiply(matrix, np.exp(trial_noise)[:, None], out=matrix)
    np.copyto(matrix, np.inf, where=~mask)
    return matrix


class BatchOracle:
    """Grid evaluation of one module's analytic oracle.

    Bound to a :class:`~repro.faultmodel.model.RowHammerFaultModel`; shares
    its population, kinetics and data seed, so batched and pointwise
    answers come from the same constants by construction.

    The noise-independent threshold factors (:func:`threshold_parts`) are
    kept in a small LRU cache: repeated sweeps over the same row — HCfirst
    repetitions, a BER test following an HCfirst search — skip straight to
    the per-trial noise multiply.  Entries never go stale because the
    parts are pure in the cache key and the model's fixed constants.
    """

    #: Default bound on cached threshold-part entries (a few KB each).
    MATRIX_CACHE_ENTRIES = 256

    def __init__(self, model,
                 matrix_cache_entries: int = MATRIX_CACHE_ENTRIES) -> None:
        self.model = model
        self._matrix_cache: \
            "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        self._matrix_cache_entries = int(matrix_cache_entries)
        self._namespace: Optional[tuple] = None
        # Reused masking scratch: one (cells x temps) float64 buffer and
        # one bool buffer, grown as needed, instead of a fresh full-matrix
        # copy per sweep (`np.where(mask, matrix, np.inf)` allocated two).
        # Never escapes `_pair_hcfirst`, so reuse cannot alias results.
        self._masked_scratch = np.empty((0, 0), dtype=np.float64)
        self._notmask_scratch = np.empty((0, 0), dtype=np.bool_)

    def _masked_parts(self, matrix: np.ndarray, mask: np.ndarray,
                      trial_noise: Optional[np.ndarray],
                      trial_sigma: float) -> np.ndarray:
        """Noise-scaled, inf-masked thresholds in the reused scratch.

        Element-for-element the same operations as the old
        ``matrix * exp(noise)[:, None]`` + ``np.where(mask, ., np.inf)``
        pair, written into preallocated buffers.  The hot path stays in
        float64/bool end to end — the asserts pin that down so a silent
        upcast (e.g. a float128 operand sneaking in) cannot cost silently.
        """
        assert matrix.dtype == np.float64 and mask.dtype == np.bool_
        if self._masked_scratch.shape != matrix.shape:
            self._masked_scratch = np.empty(matrix.shape, dtype=np.float64)
            self._notmask_scratch = np.empty(matrix.shape, dtype=np.bool_)
        scratch = self._masked_scratch
        if trial_noise is not None and trial_sigma > 0.0:
            np.multiply(matrix, np.exp(trial_noise)[:, None], out=scratch)
        else:
            np.copyto(scratch, matrix)
        notmask = np.logical_not(mask, out=self._notmask_scratch)
        np.copyto(scratch, np.inf, where=notmask)
        assert scratch.dtype == np.float64
        return scratch

    def clear_cache(self) -> None:
        """Drop the cached threshold parts (memory pressure only)."""
        self._matrix_cache.clear()

    def _threshold_parts(self, cells: RowCells, bank: int, observed_row: int,
                         pattern: DataPattern, victim_row: int,
                         temps: Sequence[float]
                         ) -> Tuple[np.ndarray, np.ndarray]:
        key = (bank, observed_row, pattern.name, victim_row, tuple(temps))
        metrics = get_metrics()
        shared = shared_matrix_cache()
        if shared is not None:
            if self._namespace is None:
                self._namespace = model_cache_namespace(self.model)
            shared_key = self._namespace + key
            parts = shared.get(shared_key)
            if parts is None:
                metrics.counter("oracle.shared_cache.miss").inc()
                with get_tracer().span("oracle.matrix_build", bank=bank,
                                       row=observed_row, temps=len(temps)):
                    parts = threshold_parts(cells, temps, pattern,
                                            victim_row, self.model.data_seed)
                shared.put(shared_key, parts)
            else:
                metrics.counter("oracle.shared_cache.hit").inc()
            return parts
        parts = self._matrix_cache.get(key)
        if parts is None:
            metrics.counter("oracle.cache.miss").inc()
            with get_tracer().span("oracle.matrix_build", bank=bank,
                                   row=observed_row, temps=len(temps)):
                parts = threshold_parts(cells, temps, pattern, victim_row,
                                        self.model.data_seed)
            self._matrix_cache[key] = parts
            if len(self._matrix_cache) > self._matrix_cache_entries:
                self._matrix_cache.popitem(last=False)
                metrics.counter("oracle.cache.evicted").inc()
            metrics.gauge("oracle.cache.size").set(len(self._matrix_cache))
        else:
            metrics.counter("oracle.cache.hit").inc()
            self._matrix_cache.move_to_end(key)
        return parts

    # ------------------------------------------------------------------
    def hammer_units(self, observed_row: int, aggressors: Sequence[int],
                     points: Sequence[ResolvedPoint]) -> np.ndarray:
        """Per-point damage units one hammer deposits in ``observed_row``."""
        timing = self.model.timing
        ons = [timing.tRAS if p[1] is None else p[1] for p in points]
        offs = [timing.tRP if p[2] is None else p[2] for p in points]
        return self.model.kinetics.hammer_units_grid(observed_row, aggressors,
                                                     ons, offs)

    def _pair_hcfirst(self, bank: int, observed_row: int,
                      pattern: DataPattern, victim_row: int,
                      points: Sequence[ResolvedPoint], units: np.ndarray,
                      trial_noise: Optional[np.ndarray],
                      deduped: Optional[Tuple[List[float], List[int]]] = None,
                      groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
                      ) -> Tuple[RowCells, Optional[np.ndarray], np.ndarray]:
        """``(cells, hcfirst-per-unique-pair, gather-index)`` for a sweep.

        The HCfirst matrix is computed once per distinct ``(temperature,
        unit)`` pair; ``matrix[:, inverse]`` reconstructs the full
        per-point matrix exactly (column ``j`` of the full matrix *is*
        pair column ``inverse[j]`` — same operands, same operations).
        ``deduped``/``groups`` let a caller running several distances over
        one sweep hoist :func:`dedupe_temperatures` / :func:`group_points`
        out of the per-distance loop.
        """
        model = self.model
        cells = model.population.cells_for(bank, observed_row)
        if not len(cells):
            return cells, None, np.empty(len(points), dtype=np.intp)
        temps, temp_index = deduped if deduped is not None \
            else dedupe_temperatures([p[0] for p in points])
        matrix, mask = self._threshold_parts(cells, bank, observed_row,
                                             pattern, victim_row, temps)
        masked = self._masked_parts(matrix, mask, trial_noise,
                                    cells.trial_sigma)
        if groups is not None:
            representative, inverse = groups
            cols = np.asarray(temp_index, dtype=np.intp)[representative]
            pair_units = units[representative]
        else:
            pairs, inverse = dedupe_points(temp_index, units)
            cols = np.asarray([col for col, _ in pairs], dtype=np.intp)
            pair_units = np.array([unit for _, unit in pairs])
        # One gather allocation, divided in place (the gather must
        # allocate anyway: its result is what escapes to the caller).
        hcfirst = np.take(masked, cols, axis=1)
        with np.errstate(divide="ignore"):
            np.divide(hcfirst, pair_units[None, :], out=hcfirst)
        assert hcfirst.dtype == np.float64
        get_metrics().counter("oracle.grid.solves").inc()
        return cells, hcfirst, inverse

    def cell_hcfirst_matrix(self, bank: int, observed_row: int,
                            pattern: DataPattern, victim_row: int,
                            aggressors: Sequence[int],
                            points: Sequence[ResolvedPoint],
                            units: Optional[np.ndarray] = None,
                            trial_noise: Optional[np.ndarray] = None,
                            deduped=None, groups=None
                            ) -> Tuple[RowCells, np.ndarray, np.ndarray]:
        """``(cells, units, (cells x points))`` HCfirst matrix in one pass.

        Column ``j`` is bit-identical to
        :meth:`RowHammerFaultModel.cell_hcfirst` at ``points[j]`` with the
        same trial noise applied (callers own the noise draw so one vector
        can be reused across points, matching the pointwise RNG stream).
        Zero-unit points divide to ``inf``, the pointwise "unreachable"
        answer.
        """
        if units is None:
            units = self.hammer_units(observed_row, aggressors, points)
        cells, hcfirst, inverse = self._pair_hcfirst(
            bank, observed_row, pattern, victim_row, points, units,
            trial_noise, deduped, groups)
        if hcfirst is None:
            return cells, units, np.empty((0, len(points)))
        return cells, units, hcfirst[:, inverse]

    def point_flip_matrix(self, bank: int, observed_row: int,
                          pattern: DataPattern, victim_row: int,
                          aggressors: Sequence[int],
                          points: Sequence[ResolvedPoint], hammer_count: int,
                          units: Optional[np.ndarray] = None,
                          trial_noise: Optional[np.ndarray] = None,
                          deduped=None, groups=None
                          ) -> Tuple[RowCells, np.ndarray, np.ndarray]:
        """``(cells, units, bool (cells x points))`` flip matrix.

        ``[i, j]`` is True iff cell ``i`` flips within ``hammer_count``
        hammers at ``points[j]`` — identical to thresholding the full
        HCfirst matrix, but compared once per unique pair and gathered as
        booleans (a byte per element instead of a float).
        """
        if units is None:
            units = self.hammer_units(observed_row, aggressors, points)
        cells, hcfirst, inverse = self._pair_hcfirst(
            bank, observed_row, pattern, victim_row, points, units,
            trial_noise, deduped, groups)
        if hcfirst is None:
            return cells, units, np.empty((0, len(points)), dtype=bool)
        return cells, units, (hcfirst <= hammer_count)[:, inverse]

    def row_hcfirst_vector(self, bank: int, observed_row: int,
                           pattern: DataPattern, victim_row: int,
                           aggressors: Sequence[int],
                           points: Sequence[ResolvedPoint],
                           units: Optional[np.ndarray] = None,
                           trial_noise: Optional[np.ndarray] = None,
                           deduped=None, groups=None
                           ) -> np.ndarray:
        """Per-point row HCfirst (min over cells; ``inf`` = never flips).

        The minimum runs once per unique pair — the per-point minima are
        gathers of the pair minima (same value set, same reduction).
        """
        if units is None:
            units = self.hammer_units(observed_row, aggressors, points)
        cells, hcfirst, inverse = self._pair_hcfirst(
            bank, observed_row, pattern, victim_row, points, units,
            trial_noise, deduped, groups)
        if hcfirst is None:
            return np.full(len(points), np.inf)
        return hcfirst.min(axis=0)[inverse]
