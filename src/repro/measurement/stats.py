"""Statistics over repeated measurements.

Implements the summaries the tutorial's presentation section leans on:
means with Student-t confidence intervals, and
:meth:`ConfidenceInterval.overlaps`, the CI-overlap reading behind
"overlapping confidence intervals sometimes mean the two quantities are
statistically indifferent" (slide 142).  The significance test a gate
runs is :func:`repro.measurement.speedup.significant_regression`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro.errors import MeasurementError


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one measurement sample."""

    n: int
    mean: float
    stddev: float
    minimum: float
    maximum: float
    median: float

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.n < 2:
            return 0.0
        return self.stddev / math.sqrt(self.n)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a mean."""

    mean: float
    low: float
    high: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True if the two intervals intersect."""
        return self.low <= other.high and other.low <= self.high


def summarize(values: Sequence[float]) -> Summary:
    """Compute :class:`Summary` statistics; sample stddev (ddof=1)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MeasurementError("cannot summarize an empty sample")
    stddev = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return Summary(n=int(arr.size), mean=float(arr.mean()), stddev=stddev,
                   minimum=float(arr.min()), maximum=float(arr.max()),
                   median=float(np.median(arr)))


def confidence_interval(values: Sequence[float],
                        confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the sample mean.

    A single observation yields a degenerate (zero-width) interval, which
    the linter in :mod:`repro.viz.guidelines` flags as unplottable.
    """
    if not 0 < confidence < 1:
        raise MeasurementError(
            f"confidence must be in (0,1), got {confidence}")
    s = summarize(values)
    if s.n < 2:
        return ConfidenceInterval(mean=s.mean, low=s.mean, high=s.mean,
                                  confidence=confidence)
    t = float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, s.n - 1))
    half = t * s.stderr
    return ConfidenceInterval(mean=s.mean, low=s.mean - half,
                              high=s.mean + half, confidence=confidence)


def median_confidence_interval(values: Sequence[float],
                               confidence: float = 0.95
                               ) -> ConfidenceInterval:
    """Distribution-free confidence interval for the sample *median*.

    Uses the classical order-statistic (sign-test) construction: if X
    counts observations below the true median, ``X ~ Binomial(n, 1/2)``,
    so ``[x_(k), x_(n-k+1)]`` (1-indexed order statistics, ``k`` the
    ``alpha/2`` binomial quantile) covers the median with at least the
    requested confidence.  Deterministic — no resampling — so campaign
    reports stay byte-identical.  ``mean`` carries the sample median.
    Fewer than 3 observations degrade to the sample range.
    """
    if not 0 < confidence < 1:
        raise MeasurementError(
            f"confidence must be in (0,1), got {confidence}")
    arr = np.sort(np.asarray(values, dtype=float))
    n = int(arr.size)
    if n == 0:
        raise MeasurementError(
            "cannot build a median interval from an empty sample")
    med = float(np.median(arr))
    if n < 3:
        return ConfidenceInterval(mean=med, low=float(arr[0]),
                                  high=float(arr[-1]),
                                  confidence=confidence)
    alpha = 1.0 - confidence
    k = int(_scipy_stats.binom.ppf(alpha / 2.0, n, 0.5))
    k = max(1, min(k, (n + 1) // 2))
    return ConfidenceInterval(mean=med, low=float(arr[k - 1]),
                              high=float(arr[n - k]),
                              confidence=confidence)


#: The latency percentiles every serving report leads with (p50/p95/p99
#: per Krishnamachari's statistical-evaluation playbook).
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class Percentiles:
    """Latency-style percentile summary of one sample.

    ``levels`` maps the requested percentile (e.g. ``99.0``) to its
    interpolated value; ``maximum`` is always carried alongside because
    tail-latency reporting without the worst case hides outliers.
    """

    n: int
    levels: Mapping[float, float]
    maximum: float

    def __getitem__(self, percentile: float) -> float:
        try:
            return self.levels[float(percentile)]
        except KeyError:
            raise MeasurementError(
                f"percentile {percentile} was not computed; available: "
                f"{sorted(self.levels)}") from None

    @property
    def p50(self) -> float:
        return self[50.0]

    @property
    def p95(self) -> float:
        return self[95.0]

    @property
    def p99(self) -> float:
        return self[99.0]

    def format(self, unit: str = "ms", scale: float = 1.0) -> str:
        parts = [f"p{pct:g}={value * scale:.2f}{unit}"
                 for pct, value in sorted(self.levels.items())]
        parts.append(f"max={self.maximum * scale:.2f}{unit}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        payload = {f"p{pct:g}": value
                   for pct, value in sorted(self.levels.items())}
        payload["max"] = self.maximum
        payload["n"] = self.n
        return payload


def percentiles(values: Sequence[float],
                levels: Sequence[float] = DEFAULT_PERCENTILES
                ) -> Percentiles:
    """Interpolated percentiles (plus the maximum) of a sample.

    Uses the classical linear interpolation between closest ranks
    (numpy's default), so tiny samples degrade gracefully: with ``n=1``
    every percentile is the single observation, with ``n=2`` the p50
    is the midpoint.  Ties are handled naturally by the sorted ranks.
    NaN observations are *rejected*, not propagated — a NaN latency is
    a measurement bug, and quietly producing NaN tails would let it
    survive into a published table.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MeasurementError(
            "cannot compute percentiles of an empty sample")
    if np.isnan(arr).any():
        bad = int(np.isnan(arr).sum())
        raise MeasurementError(
            f"sample contains {bad} NaN value(s); refuse to compute "
            "percentiles over them")
    level_list = [float(lv) for lv in levels]
    if not level_list:
        raise MeasurementError("need at least one percentile level")
    for level in level_list:
        if not 0.0 <= level <= 100.0:
            raise MeasurementError(
                f"percentile levels must be in [0, 100], got {level}")
    computed = np.percentile(arr, level_list)
    return Percentiles(
        n=int(arr.size),
        levels={level: float(value)
                for level, value in zip(level_list, computed)},
        maximum=float(arr.max()))


def detect_outliers(values: Sequence[float],
                    z_threshold: float = 3.0) -> Tuple[int, ...]:
    """Indices of values more than ``z_threshold`` sample stddevs from
    the mean.  With fewer than 3 values nothing can be called an outlier."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 3:
        return ()
    mean = arr.mean()
    std = arr.std(ddof=1)
    if std == 0:
        return ()
    z = np.abs(arr - mean) / std
    return tuple(int(i) for i in np.nonzero(z > z_threshold)[0])


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Relative dispersion stddev/mean; guards against a zero mean."""
    s = summarize(values)
    if s.mean == 0:
        raise MeasurementError("coefficient of variation undefined at mean 0")
    return s.stddev / abs(s.mean)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the right average for ratios such as speed-ups."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MeasurementError("cannot average an empty sample")
    if np.any(arr <= 0):
        raise MeasurementError("geometric mean needs strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
