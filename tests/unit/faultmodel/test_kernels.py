"""The step-function lookup kernel."""

import numpy as np

from repro.faultmodel.kernels import step_lookup


def scalar_reference(breaks, results, limit):
    """The pre-searchsorted scalar search: first break >= limit."""
    for k, b in enumerate(breaks):
        if b >= limit:
            return results[k]
    return -1


class TestStepLookup:
    BREAKS = np.array([10.0, 20.0, 20.0, 35.0, 100.0])
    RESULTS = np.array([1, 2, 2, 3, 9], dtype=np.int64)

    def test_matches_the_scalar_search_everywhere(self):
        limits = np.array([-5.0, 0.0, 10.0, 10.5, 20.0, 34.0, 35.0,
                           99.9, 100.0, 100.1, 1e18])
        out = step_lookup(self.BREAKS, self.RESULTS, limits)
        expected = [scalar_reference(self.BREAKS, self.RESULTS, v)
                    for v in limits]
        assert out.tolist() == expected

    def test_past_the_last_break_is_never(self):
        out = step_lookup(self.BREAKS, self.RESULTS,
                          np.array([100.0001, np.inf]))
        assert out.tolist() == [-1, -1]

    def test_nan_limits_yield_never(self):
        out = step_lookup(self.BREAKS, self.RESULTS,
                          np.array([np.nan, 15.0, np.nan]))
        assert out.tolist() == [-1, 2, -1]

    def test_empty_limits(self):
        out = step_lookup(self.BREAKS, self.RESULTS, np.empty(0))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_out_buffer_is_written_in_place_and_returned(self):
        scratch = np.full(3, 77, dtype=np.int64)
        out = step_lookup(self.BREAKS, self.RESULTS,
                          np.array([5.0, 25.0, 200.0]), out=scratch)
        assert out is scratch
        assert scratch.tolist() == [1, 3, -1]

    def test_non_contiguous_limits_are_handled(self):
        limits = np.array([5.0, 0.0, 25.0, 0.0, 200.0, 0.0])[::2]
        out = step_lookup(self.BREAKS, self.RESULTS, limits)
        assert out.tolist() == [1, 3, -1]

    def test_exact_boundary_takes_the_break_itself(self):
        # side="left": a limit equal to a break maps to that break.
        out = step_lookup(self.BREAKS, self.RESULTS,
                          np.array([10.0, 20.0, 35.0, 100.0]))
        assert out.tolist() == [1, 2, 3, 9]
