"""Noise-aware speedup analysis (Touati et al., arXiv:0902.1035).

The tutorial's cautionary tales are mostly about noise mistaken for
signal: a benchmark gate that compares two single numbers will flake on
a flat-but-noisy trajectory and wave through a real regression that
happens to land on a lucky sample.  This module implements the
*Speedup-Test* style of analysis over full sample arrays:

- :func:`protocol_estimate` — the two defensible single-number
  summaries of a timing sample: :attr:`PickRule.MIN` (best observable,
  right when noise is strictly additive) and :attr:`PickRule.MEDIAN`
  (robust central tendency, right when noise is bidirectional);
- :func:`bootstrap_speedup_ci` — a percentile-bootstrap confidence
  interval for the speedup ratio, seeded so reruns are reproducible;
- :func:`significant_regression` — the gate verdict: a regression must
  be *statistically significant* (two-sided Mann-Whitney U at level
  ``alpha``) **and** practically large (the protocol estimate slower
  by more than ``min_effect``) before it fails a build.

Everything operates on plain sequences of seconds, so the functions
serve both the simulated-time experiments and the wall-clock
pytest-benchmark gate (``scripts/bench_gate.py --stat``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import stats as _scipy_stats

from repro.errors import MeasurementError
from repro.measurement.protocol import PickRule
from repro.measurement.stats import ConfidenceInterval

#: Bootstrap resamples; enough for stable 95% percentile endpoints.
DEFAULT_BOOTSTRAP = 2000

#: Most sample values one block of bootstrap resamples holds per side
#: (8 MB of indices and 8 MB of values): a 15,630-sample bench takes 67
#: resamples a block instead of one 250 MB matrix for all 2,000.
_BLOCK_VALUES = 1 << 20


def _as_sample(values: Sequence[float], who: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise MeasurementError(f"{who}: empty sample")
    if not np.all(np.isfinite(arr)):
        raise MeasurementError(f"{who}: non-finite values in sample")
    if np.any(arr <= 0.0):
        raise MeasurementError(f"{who}: timings must be positive")
    return arr


def _estimator(protocol: Union[PickRule, str]) -> PickRule:
    """*protocol* as :attr:`PickRule.MIN` or :attr:`PickRule.MEDIAN`.

    A rule's value string (``"min"``, ``"median"``) names the same
    rule.  Called once per public call, never per bootstrap resample.
    """
    if protocol not in (PickRule.MIN, PickRule.MEDIAN, "min", "median"):
        raise MeasurementError(
            f"unknown protocol {protocol!r}; expected PickRule.MIN or "
            "PickRule.MEDIAN")
    return PickRule(protocol)


def _estimate(values: Sequence[float], pick: PickRule) -> float:
    arr = _as_sample(values, "protocol_estimate")
    return float(_estimate_rows(arr[None, :], pick)[0])


def _estimate_rows(samples: np.ndarray, pick: PickRule) -> np.ndarray:
    """The estimate of each row of a ``(k, n)`` sample matrix: the
    minimum, or the median (the middle order statistic for odd *n*)."""
    if pick is PickRule.MIN:
        return samples.min(axis=1)
    middle = samples.shape[1] // 2
    if samples.shape[1] % 2:
        return np.partition(samples, middle, axis=1)[:, middle]
    return np.median(samples, axis=1)


def protocol_estimate(values: Sequence[float],
                      protocol: PickRule = PickRule.MEDIAN) -> float:
    """Single-number summary of a timing sample under a protocol.

    :attr:`PickRule.MIN` is the min-of-k estimator (noise can only add
    time); :attr:`PickRule.MEDIAN` is the order-statistic median
    (robust to outliers in both directions).  Means are deliberately
    not offered — one swapped page ruins them.
    """
    return _estimate(values, _estimator(protocol))


def speedup(baseline: Sequence[float], candidate: Sequence[float],
            protocol: PickRule = PickRule.MEDIAN) -> float:
    """Speedup of *candidate* over *baseline* (>1 means faster)."""
    pick = _estimator(protocol)
    return _estimate(baseline, pick) / _estimate(candidate, pick)


def bootstrap_speedup_ci(baseline: Sequence[float],
                         candidate: Sequence[float],
                         protocol: PickRule = PickRule.MEDIAN,
                         confidence: float = 0.95,
                         n_boot: int = DEFAULT_BOOTSTRAP,
                         seed: int = 0) -> ConfidenceInterval:
    """Percentile-bootstrap CI for the speedup ratio.

    Both samples are resampled with replacement *n_boot* times from a
    seeded generator; the interval is the matching percentile pair of
    the resampled ratios, so reruns with the same seed are identical.
    """
    base = _as_sample(baseline, "bootstrap_speedup_ci(baseline)")
    cand = _as_sample(candidate, "bootstrap_speedup_ci(candidate)")
    if not 0.0 < confidence < 1.0:
        raise MeasurementError(
            f"confidence must be in (0, 1), got {confidence}")
    pick = _estimator(protocol)
    point = _estimate(base, pick) / _estimate(cand, pick)
    rng = np.random.default_rng(seed)
    ratios = np.empty(n_boot, dtype=float)
    # Each resample draws its base indices, then its candidate indices,
    # the stream rng.choice(sample, size=n) would consume, so the
    # interval does not depend on the block size.  A block of resamples
    # is estimated at once; the block bounds the memory.
    block = max(1, _BLOCK_VALUES // max(base.size, cand.size))
    for start in range(0, n_boot, block):
        rows = min(block, n_boot - start)
        b = np.empty((rows, base.size), dtype=np.int64)
        c = np.empty((rows, cand.size), dtype=np.int64)
        for i in range(rows):
            b[i] = rng.integers(0, base.size, size=base.size)
            c[i] = rng.integers(0, cand.size, size=cand.size)
        ratios[start:start + rows] = (_estimate_rows(base[b], pick)
                                      / _estimate_rows(cand[c], pick))
    tail = (1.0 - confidence) / 2.0 * 100.0
    low, high = np.percentile(ratios, [tail, 100.0 - tail])
    return ConfidenceInterval(mean=point, low=float(low),
                              high=float(high), confidence=confidence)


def _mannwhitney_p(baseline: np.ndarray, candidate: np.ndarray) -> float:
    """Two-sided Mann-Whitney U p-value; 1.0 when every value ties."""
    pooled = np.concatenate([baseline, candidate])
    if np.all(pooled == pooled[0]):
        return 1.0  # identical constants: no evidence of any difference
    __, p_value = _scipy_stats.mannwhitneyu(
        baseline, candidate, alternative="two-sided")
    return float(p_value)


@dataclass(frozen=True)
class SpeedupVerdict:
    """The gate's full reasoning for one baseline/candidate pair."""

    speedup: float              #: est(baseline) / est(candidate)
    ci: ConfidenceInterval      #: bootstrap CI of the speedup ratio
    p_value: float              #: two-sided Mann-Whitney U
    alpha: float                #: significance level the gate used
    min_effect: float           #: practical-significance threshold
    protocol: PickRule          #: PickRule.MIN or PickRule.MEDIAN
    regression: bool            #: True = fail the gate

    @property
    def slowdown_pct(self) -> float:
        """Percent slower the candidate's estimate is (negative =
        faster)."""
        return (1.0 / self.speedup - 1.0) * 100.0

    def format(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        return (f"{verdict}: speedup {self.speedup:.3f}x "
                f"[{self.ci.low:.3f}, {self.ci.high:.3f}] "
                f"({self.protocol.value}-of-k, p={self.p_value:.4f}, "
                f"alpha={self.alpha}, min_effect={self.min_effect:.0%})")


def significant_regression(baseline: Sequence[float],
                           candidate: Sequence[float],
                           alpha: float = 0.05,
                           min_effect: float = 0.05,
                           protocol: PickRule = PickRule.MEDIAN,
                           confidence: float = 0.95,
                           n_boot: int = DEFAULT_BOOTSTRAP,
                           seed: int = 0) -> SpeedupVerdict:
    """Is *candidate* a statistically significant slowdown vs *baseline*?

    Flags a regression only when BOTH hold:

    1. the two distributions differ at level *alpha* (two-sided
       Mann-Whitney U — distribution-free, so timing skew is fine);
    2. the protocol estimate of the candidate is more than
       *min_effect* slower than the baseline's (practical
       significance — a statistically detectable 0.1% shift should
       not fail a build).

    Identical samples therefore never flag, and on exchangeable noisy
    samples the false-positive rate is bounded by *alpha*.
    """
    base = _as_sample(baseline, "significant_regression(baseline)")
    cand = _as_sample(candidate, "significant_regression(candidate)")
    pick = _estimator(protocol)
    ci = bootstrap_speedup_ci(base, cand, protocol=pick,
                              confidence=confidence, n_boot=n_boot,
                              seed=seed)
    p_value = _mannwhitney_p(base, cand)
    base_est, cand_est = _estimate(base, pick), _estimate(cand, pick)
    slower = cand_est > base_est * (1.0 + min_effect)
    return SpeedupVerdict(speedup=base_est / cand_est, ci=ci,
                          p_value=p_value, alpha=alpha,
                          min_effect=min_effect, protocol=pick,
                          regression=bool(p_value < alpha and slower))
