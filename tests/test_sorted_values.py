"""Quartiles and medians from sorted values, bit for bit numpy's reducers.

``np.percentile`` and ``np.median`` load ``numpy.ma`` on numpy 2, so the
bandwidth rules and the metric summaries read them off sorted values; these
oracles are the reducers they replaced.
"""

import numpy as np
import pytest

from repden.grid import sorted_median, sorted_quantile
from repden.metrics import EvalReport
from repden.presmooth import SubpopSample, median_bandwidth, silverman_bandwidth


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _samples(n: int):
    """Values of size ``n``: continuous, rounded to few distinct values
    (ties), with a run of one repeated value, and from four values only.
    No sample mixes -0 and +0: numpy partitions instead of sorting, so which
    of the two it reads at a tie is not fixed by their order."""
    rng = np.random.default_rng(n)
    yield rng.normal(0.0, 1.0, n)
    yield np.round(rng.normal(0.0, 2.0, n))
    run = rng.normal(0.0, 1.0, n)
    run[n // 4: 3 * n // 4 + 1] = 0.3
    yield run
    yield rng.choice([0.0, -1.5, 2.25, 7.0], size=n)
    yield np.full(n, 1e-3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 17, 31, 64, 99, 100,
                               101, 255, 256, 399, 400])
def test_quartiles_and_median_match_numpy(n):
    for x in _samples(n):
        s = np.sort(x)
        q1, q3 = np.percentile(x, [25.0, 75.0])
        assert _bits(sorted_quantile(s, 0.25)) == _bits(q1)
        assert _bits(sorted_quantile(s, 0.75)) == _bits(q3)
        assert _bits(sorted_median(s)) == _bits(np.median(x))


def test_quartiles_of_stacked_rows_match_each_row():
    rng = np.random.default_rng(3)
    x = np.sort(np.round(rng.normal(0, 3, (40, 23)), 1), axis=1)
    for q in (0.25, 0.75):
        want = [np.percentile(row, 100 * q) for row in x]
        assert np.asarray(sorted_quantile(x, q)).tobytes() == np.array(want).tobytes()


def test_median_with_nan_is_nan():
    assert np.isnan(sorted_median(np.sort(np.array([1.0, np.nan, 2.0]))))


def numpy_silverman(obs: np.ndarray) -> float:
    sd = float(np.std(obs, ddof=1))
    q1, q3 = np.percentile(obs, [25.0, 75.0])
    iqr = float(q3 - q1)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * obs.size ** (-0.2)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 37, 200, 400])
def test_bandwidth_rules_match_numpy_reducers(n):
    samples = [SubpopSample(f"s{i}", x) for i, x in enumerate(_samples(n))]
    wanted = []
    for s in samples:
        if np.std(s.obs, ddof=1) == 0:
            continue
        want = numpy_silverman(s.obs)
        assert _bits(silverman_bandwidth(s)) == _bits(want)
        wanted.append(want)
    assert _bits(median_bandwidth(samples)) == _bits(np.median(wanted))


def test_eval_report_median_matches_numpy():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 50, 51):
        values = np.round(rng.exponential(1.0, n), 2)
        report = EvalReport.from_pairs(enumerate(values))
        assert _bits(report.median) == _bits(np.median(values))
