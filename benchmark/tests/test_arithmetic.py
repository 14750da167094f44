"""The benchmark's own arithmetic: bulk ESS and span self time.

Run with ``python -m pytest benchmark/tests`` from the root of a checkout.
"""

import numpy as np
import pytest

from ess import bulk_ess
from spans import SpanRecorder, install, self_times, uninstall


def _ar1(phi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [-0.3, 0.0, 0.5, 0.9])
def test_bulk_ess_matches_ar1_closed_form(phi):
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    got = bulk_ess(_ar1(phi, n, np.random.default_rng(17)))
    assert abs(got / expected - 1.0) < 0.05


def test_bulk_ess_is_rank_based():
    x = _ar1(0.5, 20_000, np.random.default_rng(3))
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_self_time_is_duration_minus_children():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has
    # a grandchild [6, 8]; a sibling root [11, 12] has none
    starts = [0.0, 1.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 9.0, 8.0, 12.0]
    parents = [-1, 0, 0, 2, -1]
    assert self_times(starts, ends, parents).tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_recorded_spans_nest_and_wrappers_come_off():
    from mssvar import regimes

    original = regimes.forward_filter
    recorder = SpanRecorder()
    patches = install(recorder, ["regimes.forward_filter", "regimes.smoothed_probabilities"])
    try:
        rng = np.random.default_rng(0)
        regimes.smoothed_probabilities(rng.normal(size=(20, 2)), np.full((2, 2), 0.5),
                                       np.full(2, 0.5))
    finally:
        uninstall(patches)
    assert regimes.forward_filter is original
    assert recorder.names == ["regimes.smoothed_probabilities", "regimes.forward_filter"]
    assert recorder.parents == [-1, 0]
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    total = recorder.ends[0] - recorder.starts[0]
    child = recorder.ends[1] - recorder.starts[1]
    assert own[0] == pytest.approx(total - child, abs=1e-12)
