"""Replication and experimental-error analysis for 2^k·r designs.

The tutorial's first "common mistake" is ignoring the variation due to
experimental error: the variation attributed to a factor must be compared
against it.  With ``r`` replications per design row the within-cell
residuals estimate the error variance, every effect coefficient gets a
standard deviation, and confidence intervals decide which effects are
statistically significant (an interval containing zero means the effect is
indistinguishable from noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro.core.designs import TwoLevelFactorialDesign
from repro.core.effects import estimate_effects_replicated
from repro.core.model import AdditiveModel
from repro.errors import DesignError


def _refuse_failed_points(matrix: np.ndarray, where: str) -> None:
    """Refuse NaN cells — failed runs must be handled, not averaged.

    A resilient harness records failed design points explicitly
    (:class:`repro.measurement.checkpoint.PointOutcome`); feeding their
    placeholder NaNs into an error-variance estimate would silently
    poison every interval.  The fix is the caller's call: re-run the
    failed points, raise the retry budget, or analyse an explicitly
    masked sub-design.
    """
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        cells = ", ".join(f"row {r} rep {c}" for r, c in bad[:6].tolist())
        more = "" if len(bad) <= 6 else f" (+{len(bad) - 6} more)"
        raise DesignError(
            f"{where}: {len(bad)} response cell(s) are NaN/inf — failed "
            f"or missing runs at {cells}{more}.  Re-measure those design "
            "points (see HarnessReport.failures) or analyse a masked "
            "subset; a full-design analysis cannot absorb missing cells.")


@dataclass(frozen=True)
class EffectInterval:
    """A confidence interval around one effect coefficient."""

    name: str
    value: float
    stddev: float
    low: float
    high: float
    confidence: float

    @property
    def significant(self) -> bool:
        """True if the interval excludes zero."""
        return self.low > 0 or self.high < 0


@dataclass(frozen=True)
class ReplicatedAnalysis:
    """Full analysis of a replicated 2^k design.

    Attributes
    ----------
    model:
        Effects fitted to per-row means.
    sse:
        Sum of squared within-cell residuals.
    error_variance:
        ``sse / (2^k (r-1))`` — the experimental error variance estimate.
    error_dof:
        Degrees of freedom of the error estimate, ``2^k (r-1)``.
    intervals:
        Confidence interval per effect (excluding the mean's key ``'I'``,
        which is included too since the mean also has an interval).
    """

    model: AdditiveModel
    replications: int
    sse: float
    error_variance: float
    error_dof: int
    intervals: Mapping[str, EffectInterval]

    def significant_effects(self) -> Tuple[str, ...]:
        """Names of effects whose CIs exclude zero, strongest first."""
        hits = [iv for name, iv in self.intervals.items()
                if name != "I" and iv.significant]
        hits.sort(key=lambda iv: abs(iv.value), reverse=True)
        return tuple(iv.name for iv in hits)

    def format(self) -> str:
        lines = [
            f"replications per row : {self.replications}",
            f"error variance       : {self.error_variance:.6g} "
            f"(dof={self.error_dof})",
            "effect        value       CI",
        ]
        for name, iv in self.intervals.items():
            flag = "*" if (name != "I" and iv.significant) else " "
            lines.append(
                f"  {name:<10} {iv.value:>10.4g}  "
                f"[{iv.low:.4g}, {iv.high:.4g}] {flag}")
        lines.append("(* = significant: confidence interval excludes zero)")
        return "\n".join(lines)


def analyze_replicated(design: TwoLevelFactorialDesign,
                       replicated: Sequence[Sequence[float]],
                       confidence: float = 0.90) -> ReplicatedAnalysis:
    """Analyse a 2^k design with ``r >= 2`` replications per row.

    Standard results for 2^k·r designs (Jain, ch. 18): each coefficient's
    variance is ``s_e^2 / (2^k r)`` and intervals use Student's t with
    ``2^k (r-1)`` degrees of freedom.
    """
    if not 0 < confidence < 1:
        raise DesignError(f"confidence must be in (0,1), got {confidence}")
    n = design.sign_table.n_rows
    if len(replicated) != n:
        raise DesignError(f"expected {n} rows, got {len(replicated)}")
    r = len(replicated[0])
    if r < 2 or any(len(row) != r for row in replicated):
        raise DesignError(
            "replicated analysis needs the same replication count >= 2 "
            "per row")
    matrix = np.asarray(replicated, dtype=float)
    _refuse_failed_points(matrix, "analyze_replicated")
    model = estimate_effects_replicated(design, replicated)
    means = matrix.mean(axis=1)
    sse = float(np.sum((matrix - means[:, None]) ** 2))
    dof = n * (r - 1)
    error_variance = sse / dof
    coeff_std = float(np.sqrt(error_variance / (n * r)))
    t = float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
    half = t * coeff_std
    intervals: Dict[str, EffectInterval] = {}
    for name, value in model.coefficients.items():
        intervals[name] = EffectInterval(
            name=name, value=value, stddev=coeff_std,
            low=value - half, high=value + half, confidence=confidence)
    return ReplicatedAnalysis(
        model=model, replications=r, sse=sse,
        error_variance=error_variance, error_dof=dof, intervals=intervals)
