"""Sector-mean normalization and staff-weighted area aggregation.

Cell values are first divided by the unweighted mean over the
universities active in the same sector, then combined per (university,
area) as a mean weighted by period-average staff.  Undefined values
are skipped and the weights renormalized over what remains; rows of
universities below the staff threshold are flagged for exclusion.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable

from . import stats
from .corpus import CorpusLoadError, SectorMap, _cell, _read_stage_table, _write_csv
from .indicators import IndicatorRecord

PERFORMANCE_INDICATORS = ("P", "FP", "QP", "FQP", "QI")
COLLAB_METRICS = ("CI", "FCI", "DCI")
AREA_INDICATORS = PERFORMANCE_INDICATORS + COLLAB_METRICS

CI_MODES = {"share": "CI_share", "ratio": "CI_ratio"}


@dataclass(slots=True)
class NormalizedCell:
    """One (university, sds) cell rescaled to its sector means; the values
    follow ``AREA_INDICATORS`` order."""

    university: str
    sds: str
    Pn: float | None
    FPn: float | None
    QPn: float | None
    FQPn: float | None
    QIn: float | None
    CIn: float | None
    FCIn: float | None
    DCIn: float | None
    Add: float  # staff weight: period-average headcount


@dataclass(frozen=True)
class NormalizeResult:
    cells: tuple[NormalizedCell, ...]
    # (sds, indicator) pairs whose sector mean was zero, once per pair
    zero_mean: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class AreaAggregate:
    """Staff-weighted normalized indicator values of one (university, area)."""

    university: str
    area: str
    P: float | None
    FP: float | None
    QP: float | None
    FQP: float | None
    QI: float | None
    CI: float | None
    FCI: float | None
    DCI: float | None
    staff: float
    n_sectors: int


@dataclass(frozen=True)
class FilterResult:
    kept: tuple[AreaAggregate, ...]
    excluded: tuple[AreaAggregate, ...]


def normalize_to_sds_mean(
    records: list[IndicatorRecord], ci_mode: str = "share"
) -> NormalizeResult:
    """Divide each cell value by the unweighted mean over its sector.

    The mean runs over universities with a defined value; undefined
    inputs stay undefined.  Sectors whose mean for an indicator is zero
    cannot be normalized; those values become undefined and the (sds,
    indicator) pair is reported once in ``zero_mean``.  ``ci_mode`` is a
    key of ``CI_MODES``.
    """
    # normalized indicator -> the indicator record field it is computed from
    sources = {name: name for name in AREA_INDICATORS} | {"CI": CI_MODES[ci_mode]}

    source_values = operator.attrgetter(*sources.values())

    by_sds: dict[str, list[IndicatorRecord]] = {}
    for rec in records:
        by_sds.setdefault(rec.sds, []).append(rec)

    means: dict[str, list[float | None]] = {}  # sds -> mean of each source
    zero_mean: list[tuple[str, str]] = []
    for sds in sorted(by_sds):
        means[sds] = []
        columns = zip(*map(source_values, by_sds[sds]))
        for (target, source), column in zip(sources.items(), columns):
            # unit weights: the plain mean of the defined values
            mean = stats.weighted_mean([(v, 1) for v in column],
                                       f"sector '{sds}', column '{source}'")
            if mean == 0.0:
                mean = None
                zero_mean.append((sds, target))
            means[sds].append(mean)

    cells = []
    for rec in records:
        normalized = [
            None if value is None or mean is None else value / mean
            for value, mean in zip(source_values(rec), means[rec.sds])
        ]
        cells.append(NormalizedCell(rec.university, rec.sds, *normalized, rec.staff))
    return NormalizeResult(cells=tuple(cells), zero_mean=tuple(zero_mean))


def aggregate_area(
    cells: Iterable[NormalizedCell], sectors: SectorMap
) -> list[AreaAggregate]:
    """Staff-weighted mean of normalized cells per (university, area).

    For each indicator the mean runs over cells where the value is
    defined (``stats.weighted_mean``); when no positive weight remains
    the aggregate is undefined.
    """
    normalized_values = operator.attrgetter(*[name + "n" for name in AREA_INDICATORS])
    groups: dict[tuple[str, str], list[NormalizedCell]] = {}
    for cell in cells:
        area = sectors.area_of(cell.sds)
        groups.setdefault((cell.university, area), []).append(cell)

    aggregates = []
    for (univ, area) in sorted(groups):
        group = groups[(univ, area)]
        weights = [cell.Add for cell in group]
        columns = zip(*map(normalized_values, group))
        values = {
            indicator: stats.weighted_mean(zip(column, weights),
                                           f"{univ}/{area}, column '{indicator}'")
            for indicator, column in zip(AREA_INDICATORS, columns)
        }
        try:
            staff = math.fsum(weights)
        except OverflowError as exc:  # also counts cells whose every value is undefined
            raise OverflowError(f"{univ}/{area}, column 'staff': {exc}") from None
        aggregates.append(
            AreaAggregate(university=univ, area=area, staff=staff, n_sectors=len(group), **values)
        )
    return aggregates


def filter_small_universities(
    aggregates: Iterable[AreaAggregate], threshold: float = 5.0
) -> FilterResult:
    """Split rows on the staff threshold (strictly below is excluded).

    ``staff`` is the sum over the area's sectors of the university's
    period-average headcount, which is exactly the staff measure the
    exclusion rule is stated on.  ``threshold`` is positive and finite.
    """
    kept = []
    excluded = []
    for agg in aggregates:
        if agg.staff < threshold:
            excluded.append(agg)
        else:
            kept.append(agg)
    return FilterResult(kept=tuple(kept), excluded=tuple(excluded))


# ---------------------------------------------------------------------------
# Persistence (full precision; usable as a stage input)

_VALUE_COLUMNS = [field.name for field in fields(AreaAggregate)[2:]]  # after the row key

AGGREGATES_HEADER = ["university", "area", *_VALUE_COLUMNS, "excluded"]


def write_aggregates_csv(result: FilterResult, path) -> None:
    """The kept and excluded rows, sorted by (university, area)."""
    rows = [(agg, "false") for agg in result.kept] + [(agg, "true") for agg in result.excluded]
    rows.sort(key=lambda row: (row[0].university, row[0].area))
    _write_csv(path, AGGREGATES_HEADER, (
        [agg.university, agg.area] + [_cell(getattr(agg, name)) for name in _VALUE_COLUMNS]
        + [excluded]
        for agg, excluded in rows
    ))


def read_aggregates_csv(path) -> FilterResult:
    kept = []
    excluded = []
    for lineno, row, agg in _read_stage_table(path, AGGREGATES_HEADER, AreaAggregate):
        if row[-1] == "true":
            excluded.append(agg)
        elif row[-1] == "false":
            kept.append(agg)
        else:
            raise CorpusLoadError(
                path, lineno, f"column 'excluded': expected true or false, got {row[-1]!r}"
            )
    return FilterResult(kept=tuple(kept), excluded=tuple(excluded))
