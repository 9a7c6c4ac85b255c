"""Per-cell indicator computation.

A cell is one (university, sds) pair.  Publications are counted once
per attributed cell; fractional counting divides a publication by its
number of distinct co-authoring organizations; quality weights are
journal impact factors rescaled so the publication-weighted mean over
each sector equals one.  Ratios that would divide by zero are carried
as ``None`` so downstream statistics can drop them instead of
absorbing spurious zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .corpus import Corpus, CorpusLoadError, Publication
from .corpus import SectorMap, _cell, _read_stage_table, _write_csv


@dataclass(slots=True)
class IndicatorRecord:
    """All survey-period indicator values of one (university, sds) cell."""

    university: str
    sds: str
    O: int
    FO: float
    SS: float
    FSS: float
    QI: float | None
    staff: float
    P: float | None
    FP: float | None
    QP: float | None
    FQP: float | None
    CI_ratio: float | None
    CI_share: float | None
    CI_UNI: float | None
    CI_DPR: float | None
    FCI: float | None
    DCI: float | None


def fractional_contribution(pub: Publication) -> float:
    """Reciprocal of the publication's distinct organization count.

    The organization set is non-empty: ``load_publications`` rejects an
    empty one for every file it loads, checked or not.
    """
    return 1.0 / len(pub.org_ids)


def compute_indicators(corpus: Corpus) -> list[IndicatorRecord]:
    """One IndicatorRecord per (university, sds) cell of the corpus.

    Cells exist for every pair with at least one attributed publication
    or one roster entry.  Summation follows publication input order, so
    results do not depend on any scheduling.
    """
    nif_by_sds = corpus.normalized_ifs
    profile_of = dict(zip((pub.org_ids for pub in corpus.publications), corpus.profiles))
    cells: dict[tuple[str, str], list[Publication]] = {}
    for pub in corpus.publications:
        for att in pub.attributions:
            cells.setdefault((att.university, att.sds), []).append(pub)
    for univ, sds in corpus.staff.pairs():
        cells.setdefault((univ, sds), [])

    records: list[IndicatorRecord] = []
    for (univ, sds) in sorted(cells):
        pubs = cells[(univ, sds)]
        nif = nif_by_sds.get(sds, {})

        output = len(pubs)
        fo_terms = [fractional_contribution(pub) for pub in pubs]
        ss_terms = [nif[(pub.journal_id, pub.year)] for pub in pubs]
        fss_terms = [value * frac for value, frac in zip(ss_terms, fo_terms)]
        profiles = [profile_of[pub.org_ids] for pub in pubs]
        n_extramural = sum([p.is_extramural for p in profiles])
        n_other_univ = sum([p.has_other_university for p in profiles])
        n_dpr = sum([p.has_dpr for p in profiles])
        n_foreign = sum([p.has_foreign for p in profiles])
        n_enterprise = sum([p.has_domestic_enterprise for p in profiles])

        # exact sums: records are identical under publication reordering
        fo = math.fsum(fo_terms)
        ss = math.fsum(ss_terms)
        fss = math.fsum(fss_terms)
        staff = corpus.staff.period_average(univ, sds, corpus.period)
        if staff > 0:
            p, fp, qp, fqp = output / staff, fo / staff, ss / staff, fss / staff
        else:
            p = fp = qp = fqp = None

        records.append(
            IndicatorRecord(
                university=univ,
                sds=sds,
                O=output,
                FO=fo,
                SS=ss,
                FSS=fss,
                QI=ss / output if output > 0 else None,
                staff=staff,
                P=p,
                FP=fp,
                QP=qp,
                FQP=fqp,
                CI_ratio=output / fo if fo > 0 else None,
                CI_share=n_extramural / output if output > 0 else None,
                CI_UNI=n_other_univ / output if output > 0 else None,
                CI_DPR=n_dpr / output if output > 0 else None,
                FCI=n_foreign / output if output > 0 else None,
                DCI=n_enterprise / output if output > 0 else None,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Persistence (full precision; usable as a stage input)

_VALUE_COLUMNS = [field.name for field in fields(IndicatorRecord)[2:]]  # after the cell key

INDICATORS_HEADER = ["university", "sds", "area", *_VALUE_COLUMNS]


def write_indicators_csv(records: list[IndicatorRecord], sectors: SectorMap, path) -> None:
    _write_csv(path, INDICATORS_HEADER, (
        [rec.university, rec.sds, sectors.area_of(rec.sds)]
        + [_cell(getattr(rec, name)) for name in _VALUE_COLUMNS]
        for rec in records
    ))


def read_indicators_csv(path) -> tuple[list[IndicatorRecord], SectorMap]:
    """Parse a persisted indicators table back into records plus sector map."""
    records: list[IndicatorRecord] = []
    sector_entries: dict[str, str] = {}
    for lineno, row, record in _read_stage_table(path, INDICATORS_HEADER, IndicatorRecord):
        sds, area = row[1:3]
        known = sector_entries.setdefault(sds, area)
        if known != area:
            raise CorpusLoadError(
                path, lineno, f"sds '{sds}' mapped to both '{known}' and '{area}'", "area"
            )
        records.append(record)
    return records, SectorMap(entries=sector_entries)
