"""Statistics kernel shared by the area aggregation and the report builders.

Plain-Python implementations with explicit undefined-value semantics:
missing observations are ``None`` (or NaN) and are dropped pairwise;
results that cannot be computed come back as ``None``, never as a
silent zero.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class AssociationStats:
    """Linear association of one X/Y pairing: correlation, slope, fit."""

    r: float
    beta: float
    r_squared: float
    n: int


@dataclass(frozen=True)
class Descriptives:
    """Summary statistics of one series (sample std, n-1 denominator)."""

    n: int
    mean: float
    median: float
    min: float
    max: float
    std: float
    cv: float | None


def _defined(value) -> bool:
    return value is not None and not math.isnan(value)


def clean_pairs(x: Sequence, y: Sequence) -> list[tuple[float, float]]:
    """Pairwise-complete observations of two equal-length series."""
    return [
        (float(a), float(b))
        for a, b in zip(x, y, strict=True)
        if _defined(a) and _defined(b)
    ]


def associate(x: Sequence, y: Sequence) -> AssociationStats | None:
    """Correlation plus simple regression of y on x.

    ``None`` when either statistic is undefined (n < 3 or zero variance
    on either side).  A constant series is ``None`` before any deviation
    is taken: the mean of n equal floats can round one ulp away from them,
    leaving a spurious variance (about 5.8e-34 for three 0.1s).
    """
    pairs = clean_pairs(x, y)
    if len(pairs) < 3:
        return None
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    if min(xs) == max(xs) or min(ys) == max(ys):
        return None
    mx = math.fsum(xs) / len(pairs)
    my = math.fsum(ys) / len(pairs)
    sxx = math.fsum((a - mx) ** 2 for a in xs)
    syy = math.fsum((b - my) ** 2 for b in ys)
    if sxx == 0.0 or syy == 0.0:  # deviations too small to square
        return None
    sxy = math.fsum((a - mx) * (b - my) for a, b in pairs)
    # sxx * syy can underflow to 0 when neither moment is 0
    r = sxy / (math.sqrt(sxx * syy) or math.sqrt(sxx) * math.sqrt(syy))
    beta = sxy / sxx
    r_squared = (beta * sxy) / syy
    return AssociationStats(r=r, beta=beta, r_squared=r_squared, n=len(pairs))


def weighted_mean(terms: Iterable[tuple[float | None, float]], where: str) -> float | None:
    """Mean of the defined values of ``(value, weight)`` pairs.

    ``None`` values are skipped and the weights renormalized over the
    rest; the result is ``None`` when no positive weight remains.  Sums
    are exact (``fsum``), so the order of the terms cannot change it.
    Raises ``OverflowError``, its message prefixed with ``where``, when
    a sum or a product of value and weight overflows.
    """
    defined = [(v, w) for v, w in terms if v is not None]
    try:
        weight_total = math.fsum([w for _v, w in defined])
        mean = math.fsum([v * w for v, w in defined]) / weight_total if weight_total > 0 else None
    except OverflowError as exc:  # finite terms whose sum is beyond the float range
        raise OverflowError(f"{where}: {exc}") from None
    if mean is not None and not math.isfinite(mean):
        raise OverflowError(f"{where}: weighted mean out of range: {mean}")
    return mean


def concentration_index(
    cell: float, row_total: float, col_total: float, grand_total: float
) -> float | None:
    """Observed-over-expected cell frequency, neutral at 1.

    Computed as (cell/row_total) / (col_total/grand_total); ``None``
    when the row or column marginal is zero.  Otherwise the counts are
    non-negative, the grand total positive and the cell within both
    marginals.
    """
    if row_total == 0 or col_total == 0:
        return None
    return (cell / row_total) / (col_total / grand_total)


def quartile_bins(values: Sequence[float]) -> list[int]:
    """Quartile bin (1 = worst .. 4 = best) of each value in the series.

    Cuts fall at the smallest value v with at least k*n/4 observations
    <= v (k = 1, 2, 3); values tied with a cut go to the lower bin.  The
    series holds at least 4 values, none of them NaN.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    ordered = sorted(vals)
    cuts = [ordered[math.ceil(k * n / 4) - 1] for k in (1, 2, 3)]
    return [bisect.bisect_left(cuts, v) + 1 for v in vals]


def descriptive(values: Sequence) -> Descriptives:
    """Sample descriptive statistics of the defined values in a series.

    The coefficient of variation std/mean is ``None`` for non-positive
    means.  The series holds at least one defined value.
    """
    vals = [float(v) for v in values if _defined(v)]
    n = len(vals)
    mean = math.fsum(vals) / n
    ordered = sorted(vals)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    if n == 1 or ordered[0] == ordered[-1]:
        std = 0.0  # exact zero for constant series, no rounding residue
    else:
        # scale by the largest deviation so squaring cannot under/overflow
        scale = max(abs(v - mean) for v in vals)
        std = scale * math.sqrt(
            math.fsum(((v - mean) / scale) ** 2 for v in vals) / (n - 1)
        )
    cv = std / mean if mean > 0 else None
    return Descriptives(
        n=n,
        mean=mean,
        median=median,
        min=ordered[0],
        max=ordered[-1],
        std=std,
        cv=cv,
    )
