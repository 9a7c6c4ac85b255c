"""Report tables: quality/collaboration cross-tab, area collaboration
profile, sector dispersion, top-collaborating sectors, and the
correlation tables of performance against collaboration intensity.

Builders are pure functions of their inputs; all rounding happens at
emission time (shares one decimal as percent, statistics and
concentration indices two decimals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from . import stats
from .aggregate import COLLAB_METRICS, PERFORMANCE_INDICATORS, AreaAggregate
from .corpus import Corpus, _write_csv
from .indicators import IndicatorRecord

QUARTILE_LABELS = ("0-25", "26-50", "51-75", "76-100")  # worst -> best
COLLAB_COLUMNS = ("intramural", "extramural", "foreign", "enterprise")
# AreaProfileRow share -> the IndicatorRecord field its weighted mode averages
AREA_SHARES = {"CI": "CI_share", "CI_UNI": "CI_UNI", "CI_DPR": "CI_DPR",
               "FCI": "FCI", "DCI": "DCI"}


class ReportError(Exception):
    pass


# ---------------------------------------------------------------------------
# Cross-tab (quality quartile x collaboration type)


@dataclass(frozen=True)
class CrossTab:
    """Publication counts by quality quartile and collaboration type.

    Rows are ``QUARTILE_LABELS``: normalized impact-factor quartiles, worst to best.
    The foreign and enterprise columns are subsets of the extramural
    column, so row totals are intramural + extramural only.
    """

    counts: Mapping[tuple[str, str], int]
    row_totals: Mapping[str, int]
    col_totals: Mapping[str, int]
    grand_total: int
    concentration: Mapping[tuple[str, str], float | None]

    @classmethod
    def from_counts(cls, counts_by_row: Sequence[Sequence[int]]) -> "CrossTab":
        """Build marginals and concentration indices from raw cell counts.

        ``counts_by_row`` holds one row per quartile (worst first) of
        non-negative counts (intramural, extramural, foreign, enterprise),
        foreign and enterprise each at most extramural.
        """
        counts = {
            (label, col): int(value)
            for label, row in zip(QUARTILE_LABELS, counts_by_row, strict=True)
            for col, value in zip(COLLAB_COLUMNS, row, strict=True)
        }
        row_totals = {
            label: counts[(label, "intramural")] + counts[(label, "extramural")]
            for label in QUARTILE_LABELS
        }
        col_totals = {
            col: sum(counts[(label, col)] for label in QUARTILE_LABELS)
            for col in COLLAB_COLUMNS
        }
        grand_total = sum(row_totals.values())
        concentration = {
            (label, col): stats.concentration_index(
                counts[(label, col)], row_totals[label], col_totals[col], grand_total
            )
            for label in QUARTILE_LABELS
            for col in COLLAB_COLUMNS
        }
        return cls(
            counts=counts,
            row_totals=row_totals,
            col_totals=col_totals,
            grand_total=grand_total,
            concentration=concentration,
        )


def build_crosstab(corpus: Corpus, quartile_scope: str = "global") -> CrossTab:
    """Cross-tabulate publications by quality quartile and collaboration type.

    ``global`` pools every publication's normalized impact factor,
    averaged over its sectors, into one system-wide quartile split;
    ``per-sector`` bins each publication within its first attribution's
    sector.  ``quartile_scope`` is a key of ``QUARTILE_SCOPES``.
    """
    bins = QUARTILE_SCOPES[quartile_scope](corpus)
    matrix = [[0, 0, 0, 0] for _ in QUARTILE_LABELS]
    for b, profile in zip(bins, corpus.profiles):
        row = matrix[b - 1]
        if not profile.is_extramural:
            row[0] += 1
            continue
        row[1] += 1
        if profile.has_foreign:
            row[2] += 1
        if profile.has_domestic_enterprise:
            row[3] += 1
    return CrossTab.from_counts(matrix)


def _global_bins(corpus: Corpus) -> list[int]:
    pubs = corpus.publications
    nif_by_sds = corpus.normalized_ifs
    if len(pubs) < 4:
        raise ReportError(f"corpus has {len(pubs)} publications; global quartiles need at least 4")
    values = []
    for pub in pubs:
        key = (pub.journal_id, pub.year)
        codes = pub.sds_codes()
        if len(codes) == 1:  # the mean of one value is the value
            values.append(nif_by_sds[codes[0]][key])
        else:
            values.append(math.fsum([nif_by_sds[s][key] for s in codes]) / len(codes))
    return stats.quartile_bins(values)


def _per_sector_bins(corpus: Corpus) -> list[int]:
    first_sector_bins = {}  # sds -> bins of the publications it credits first
    for sds, sds_pubs in corpus.publications_by_sds.items():
        nif = corpus.normalized_ifs[sds]
        sector_values = [nif[(p.journal_id, p.year)] for p in sds_pubs]
        if len(sector_values) < 4:
            raise ReportError(f"sector '{sds}' has {len(sector_values)} publications; "
                              "per-sector quartiles need at least 4")
        sector_bins = stats.quartile_bins(sector_values)
        first_sector_bins[sds] = iter([
            b for pub, b in zip(sds_pubs, sector_bins) if pub.attributions[0].sds == sds
        ])
    # each sector lists its publications in input order
    return [next(first_sector_bins[pub.attributions[0].sds]) for pub in corpus.publications]


# the CLI's --quartile-scope choices: each scope -> the quartile bin of every publication
QUARTILE_SCOPES = {"global": _global_bins, "per-sector": _per_sector_bins}


# ---------------------------------------------------------------------------
# Area collaboration profile


@dataclass(frozen=True)
class AreaProfileRow:
    area: str
    output: int
    CI: float | None
    CI_UNI: float | None
    CI_DPR: float | None
    FCI: float | None
    DCI: float | None


def build_area_profile(
    corpus: Corpus, records: list[IndicatorRecord], mode: str = "pooled"
) -> list[AreaProfileRow]:
    """Per-area output and collaboration shares.

    ``pooled`` counts each distinct publication of the area once and
    takes plain ratios; ``weighted`` averages the per-cell shares of
    ``records`` (the corpus's ``compute_indicators`` result) with
    period-average staff weights instead.  ``mode`` is a key of
    ``AREA_PROFILE_MODES``.
    """
    return AREA_PROFILE_MODES[mode](corpus, records)


def _area_profile_pooled(corpus: Corpus) -> list[AreaProfileRow]:
    # per area: the output, then the count behind each share in AREA_SHARES order;
    # one increment per column (a loop over a tuple of flags ran about 1.4x as long)
    tallies = {area: [0] * (1 + len(AREA_SHARES)) for area in corpus.sectors.areas()}
    areas = corpus.sectors.entries
    for pub, profile in zip(corpus.publications, corpus.profiles):
        atts = pub.attributions
        pub_areas = (areas[atts[0].sds],) if len(atts) == 1 else {areas[a.sds] for a in atts}
        for area in pub_areas:
            t = tallies[area]
            t[0] += 1
            if profile.is_extramural:
                t[1] += 1
            if profile.has_other_university:
                t[2] += 1
            if profile.has_dpr:
                t[3] += 1
            if profile.has_foreign:
                t[4] += 1
            if profile.has_domestic_enterprise:
                t[5] += 1
    return [
        AreaProfileRow(area, n, **{name: count / n if n > 0 else None
                                   for name, count in zip(AREA_SHARES, counts)})
        for area, (n, *counts) in tallies.items()
    ]


def _area_profile_weighted(
    corpus: Corpus, records: list[IndicatorRecord]
) -> list[AreaProfileRow]:
    by_area: dict[str, list[IndicatorRecord]] = {area: [] for area in corpus.sectors.areas()}
    for rec in records:
        by_area[corpus.sectors.area_of(rec.sds)].append(rec)
    # area and output stay pooled; each share becomes a staff-weighted cell mean
    return [
        replace(row, **{
            name: stats.weighted_mean(((getattr(r, field), r.staff) for r in by_area[row.area]),
                                      f"area '{row.area}', column '{field}'")
            for name, field in AREA_SHARES.items()
        })
        for row in _area_profile_pooled(corpus)
    ]


# the CLI's --table2-mode choices: each mode -> its builder of (corpus, records)
AREA_PROFILE_MODES = {"pooled": lambda corpus, _records: _area_profile_pooled(corpus),
                      "weighted": _area_profile_weighted}


# ---------------------------------------------------------------------------
# Sector-level pooled metrics (dispersion and top-sector tables)


def _sector_shares(
    records: Iterable[IndicatorRecord], sectors, metric: str
) -> dict[str, list[tuple[str, float, int]]]:
    """Per area of ``sectors``, the (sds, value, output) of each sector whose
    output-weighted pooled ``metric`` is defined.

    The output is the integer count behind the defined values.  Sectors
    are pooled in order of first appearance, so an overflow names the
    first sector that overflows.
    """
    terms: dict[str, list[tuple[float | None, int]]] = {}
    for rec in records:
        terms.setdefault(rec.sds, []).append((getattr(rec, metric), rec.O))
    shares: dict[str, list[tuple[str, float, int]]] = {area: [] for area in sectors.areas()}
    for sds, pairs in terms.items():
        value = stats.weighted_mean(pairs, f"sector '{sds}', column '{metric}'")
        if value is not None:
            output = sum(o for v, o in pairs if v is not None)
            shares[sectors.area_of(sds)].append((sds, value, output))
    return shares


def build_dispersion_table(
    records: list[IndicatorRecord], sectors
) -> tuple[dict[str, stats.Descriptives], list[str]]:
    """Descriptive statistics of the sector-level pooled CI_share per area,
    over the area's sectors with a defined value.

    Returns them by area plus warnings for areas with no sector values
    (those areas are omitted).
    """
    table = {}
    warnings = []
    for area, shares in _sector_shares(records, sectors, "CI_share").items():
        if not shares:
            warnings.append(f"area '{area}' has no sectors with defined CI_share")
            continue
        table[area] = stats.descriptive([value for _sds, value, _output in shares])
    return table, warnings


@dataclass(frozen=True)
class TopSectorRow:
    area: str
    sds: str
    value: float
    output: int
    area_share: float


def build_top_sector_table(
    records: list[IndicatorRecord],
    sectors,
    metric: str,
    top_n: int = 1,
) -> list[TopSectorRow]:
    """The ``top_n`` (at least 1) sectors of each area by a pooled share metric.

    Ties break toward larger output, then lexicographic sds code.
    """
    rows = []
    for area, shares in _sector_shares(records, sectors, metric).items():
        ranked = sorted(shares, key=lambda item: (-item[1], -item[2], item[0]))
        area_output = sum(output for _sds, _value, output in ranked)
        for sds, value, output in ranked[:top_n]:
            rows.append(
                TopSectorRow(
                    area=area,
                    sds=sds,
                    value=value,
                    output=output,
                    area_share=output / area_output,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Correlation tables


@dataclass(frozen=True)
class CorrelationTable:
    """Association of performance indicators (Y) with one collaboration
    metric (X) across the universities of each area."""

    areas: tuple[str, ...]
    cells: Mapping[tuple[str, str], stats.AssociationStats]  # (indicator, area)
    notes: Mapping[tuple[str, str], str]  # reasons for undefined cells


def build_correlation_table(
    aggregates: Iterable[AreaAggregate], collab_metric: str = "CI"
) -> CorrelationTable:
    """Correlate each performance indicator against a collaboration metric.

    ``collab_metric`` is one of ``COLLAB_METRICS``.  The aggregates should
    already have exclusion applied.  Cells with fewer than 3 complete
    pairs or zero variance are undefined and the reason recorded.
    """
    # looked up in its domain, so a name outside COLLAB_METRICS raises KeyError
    collab_metric = dict(zip(COLLAB_METRICS, COLLAB_METRICS))[collab_metric]
    by_area: dict[str, list[AreaAggregate]] = {}
    for agg in aggregates:
        by_area.setdefault(agg.area, []).append(agg)

    cells: dict[tuple[str, str], stats.AssociationStats] = {}
    notes: dict[tuple[str, str], str] = {}
    for area in sorted(by_area):
        group = by_area[area]
        xs = [getattr(agg, collab_metric) for agg in group]
        for indicator in PERFORMANCE_INDICATORS:
            ys = [getattr(agg, indicator) for agg in group]
            try:
                result = stats.associate(xs, ys)
            except OverflowError as exc:  # finite values too large to square
                raise OverflowError(
                    f"area '{area}', {indicator} against {collab_metric}: {exc}"
                ) from None
            if result is not None:
                cells[(indicator, area)] = result
                continue
            n = len(stats.clean_pairs(xs, ys))
            notes[(indicator, area)] = "zero variance" if n >= 3 else f"insufficient data (n={n})"
    return CorrelationTable(areas=tuple(sorted(by_area)), cells=cells, notes=notes)


# ---------------------------------------------------------------------------
# Emission

def _fmt_pct(value) -> str:
    return "" if value is None else f"{100.0 * value:.1f}"


def _fmt_stat(value) -> str:
    return "" if value is None else f"{value:.2f}"


def emit_crosstab(table: CrossTab, path) -> None:
    header = ["quartile"]
    for col in COLLAB_COLUMNS:
        header += [col, f"{col}_cidx"]
    header.append("total")
    rows = []
    for label in QUARTILE_LABELS:
        row = [label]
        for col in COLLAB_COLUMNS:
            row.append(table.counts[(label, col)])
            row.append(_fmt_stat(table.concentration[(label, col)]))
        row.append(table.row_totals[label])
        rows.append(row)
    total_row = ["total"]
    for col in COLLAB_COLUMNS:
        total_row += [table.col_totals[col], ""]
    total_row.append(table.grand_total)
    rows.append(total_row)
    _write_csv(path, header, rows)


def emit_area_profile(rows: list[AreaProfileRow], path) -> None:
    header = ["area", "output"] + [f"{name}_pct" for name in AREA_SHARES]
    _write_csv(path, header, (
        [r.area, r.output] + [_fmt_pct(getattr(r, name)) for name in AREA_SHARES] for r in rows
    ))


def emit_dispersion(table: Mapping[str, stats.Descriptives], path) -> None:
    pcts = ("mean", "median", "min", "max", "std")  # Descriptives fields written as percent
    header = ["area", "n_sds"] + [f"{name}_pct" for name in pcts] + ["cv"]
    _write_csv(path, header, (
        [area, d.n] + [_fmt_pct(getattr(d, name)) for name in pcts] + [_fmt_stat(d.cv)]
        for area, d in table.items()
    ))


def emit_top_sectors(rows: list[TopSectorRow], metric: str, path) -> None:
    header = ["area", "sds", f"{metric.lower()}_pct", "output", "area_share_pct"]
    _write_csv(path, header, (
        [r.area, r.sds, _fmt_pct(r.value), r.output, _fmt_pct(r.area_share)] for r in rows
    ))


def emit_correlation(table: CorrelationTable, path) -> None:
    header = ["area", "indicator", "n", "r", "beta", "r_squared", "note"]
    rows = []
    for area in table.areas:
        for indicator in PERFORMANCE_INDICATORS:
            cell = table.cells.get((indicator, area))
            if cell is None:
                rows.append([area, indicator, "", "", "", "",
                             table.notes.get((indicator, area), "undefined")])
            else:
                rows.append([
                    area, indicator, cell.n, _fmt_stat(cell.r),
                    _fmt_stat(cell.beta), _fmt_stat(cell.r_squared), "",
                ])
    _write_csv(path, header, rows)
