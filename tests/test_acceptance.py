"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them)."""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from collabmetrics import stats
from collabmetrics.aggregate import (
    aggregate_area,
    filter_small_universities,
    normalize_to_sds_mean,
)
from collabmetrics.cli import cli
from collabmetrics.corpus import Corpus, SectorMap, StaffRoster
from collabmetrics.indicators import IndicatorRecord, compute_indicators
from collabmetrics.reports import QUARTILE_LABELS, CrossTab, build_correlation_table
from collabmetrics.synth import (
    PlantedAssociation,
    SynthParams,
    generate_corpus,
    write_synthetic,
)

from oracles import close_or_both_none, make_random_corpus, naive_indicator_oracle


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{name}]: FAIL")
        raise
    print(f"criterion {number} [{name}]: PASS")


TABLE1_COUNTS = [
    (2974, 4507, 1697, 221),
    (3830, 6443, 2612, 313),
    (4453, 10369, 4506, 419),
    (4754, 16090, 8413, 607),
]
TABLE1_CIDX = [
    (1.33, 0.86, 0.70, 1.01),
    (1.24, 0.90, 0.79, 1.04),
    (1.00, 1.00, 0.94, 0.97),
    (0.76, 1.10, 1.25, 1.00),
]
TABLE1_ROW_TOTALS = [7481, 10273, 14822, 20844]

# (mean %, std %, coefficient of variation) per disciplinary area
TABLE3_ROWS = [
    ("mathematics and computer sciences", 68.2, 6.2, 0.09),
    ("physics", 92.7, 5.1, 0.056),
    ("chemical sciences", 66.9, 13.0, 0.195),
    ("earth sciences", 77.3, 8.4, 0.109),
    ("biological sciences", 71.5, 6.2, 0.087),
    ("medical sciences", 65.0, 13.2, 0.203),
    ("agricultural and veterinary sciences", 63.9, 10.6, 0.166),
    ("industrial and information engineering", 57.5, 10.9, 0.190),
]


def test_criterion_1_concentration_reproduction():
    with criterion(1, "concentration-index reproduction"):
        start = time.perf_counter()
        table = CrossTab.from_counts(TABLE1_COUNTS)
        for label, expected_row in zip(QUARTILE_LABELS, TABLE1_CIDX):
            for col, expected in zip(
                ("intramural", "extramural", "foreign", "enterprise"), expected_row
            ):
                assert table.concentration[(label, col)] == pytest.approx(
                    expected, abs=0.01
                ), (label, col)
        assert table.concentration[("0-25", "intramural")] == pytest.approx(1.33, abs=0.01)
        assert table.concentration[("76-100", "intramural")] == pytest.approx(0.76, abs=0.01)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_table1_marginal_identity():
    with criterion(2, "cross-tab marginal identity"):
        assert sum(TABLE1_ROW_TOTALS) == 53420
        table = CrossTab.from_counts(TABLE1_COUNTS)
        assert list(table.row_totals.values()) == TABLE1_ROW_TOTALS
        assert table.grand_total == 53420


def test_criterion_3_coefficient_of_variation_consistency():
    with criterion(3, "dispersion cv consistency"):
        for area, mean, std, published_cv in TABLE3_ROWS:
            # two-point series reproduces the published mean and std exactly
            series = [mean - std / math.sqrt(2), mean + std / math.sqrt(2)]
            d = stats.descriptive(series)
            assert d.mean == pytest.approx(mean, abs=1e-9)
            assert d.std == pytest.approx(std, abs=1e-9)
            assert d.cv == pytest.approx(published_cv, abs=0.002), area


def test_criterion_4_statistics_identities():
    with criterion(4, "statistics identities"):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            x = rng.normal(size=30)
            y = rng.normal(size=30) + rng.uniform(-2, 2) * x
            result = stats.associate(x.tolist(), y.tolist())
            assert abs(result.r_squared - result.r * result.r) < 1e-10

        table_rng = random.Random(314)
        for _ in range(1000):
            n_rows = table_rng.randint(2, 6)
            n_cols = table_rng.randint(2, 6)
            table = [
                [table_rng.randint(1, 999) for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            row_totals = [sum(row) for row in table]
            col_totals = [sum(row[j] for row in table) for j in range(n_cols)]
            grand = sum(row_totals)
            for j in range(n_cols):
                mean = math.fsum(
                    stats.concentration_index(
                        table[i][j], row_totals[i], col_totals[j], grand
                    )
                    * row_totals[i]
                    / grand
                    for i in range(n_rows)
                )
                assert abs(mean - 1.0) < 1e-9


def _random_records(rng) -> tuple[list[IndicatorRecord], SectorMap]:
    universities = [f"U{i:02d}" for i in range(30)]
    sds_codes = [f"S{i:02d}" for i in range(12)]
    sectors = SectorMap(entries={s: f"A{i % 3}" for i, s in enumerate(sds_codes)})
    records = []
    for univ in universities:
        for sds in sds_codes:
            records.append(
                IndicatorRecord(
                    university=univ, sds=sds,
                    O=rng.integers(1, 60),
                    FO=float(rng.uniform(0.5, 30)),
                    SS=float(rng.uniform(0.5, 60)),
                    FSS=float(rng.uniform(0.5, 30)),
                    QI=float(rng.uniform(0.2, 3)),
                    staff=float(rng.uniform(1, 40)),
                    P=float(rng.uniform(0.1, 4)),
                    FP=float(rng.uniform(0.1, 3)),
                    QP=float(rng.uniform(0.1, 4)),
                    FQP=float(rng.uniform(0.1, 3)),
                    CI_ratio=float(rng.uniform(1, 3)),
                    CI_share=float(rng.uniform(0.05, 0.95)),
                    CI_UNI=float(rng.uniform(0.05, 0.95)),
                    CI_DPR=float(rng.uniform(0.05, 0.95)),
                    FCI=float(rng.uniform(0.05, 0.95)),
                    DCI=float(rng.uniform(0.05, 0.95)),
                )
            )
    return records, sectors


def test_criterion_5_normalization_and_aggregation_properties():
    with criterion(5, "normalization/aggregation properties"):
        rng = np.random.default_rng(55)
        records, sectors = _random_records(rng)
        result = normalize_to_sds_mean(records)
        assert result.zero_mean == ()

        # per-sector normalized means equal one
        by_sds: dict[str, list] = {}
        for cell in result.cells:
            by_sds.setdefault(cell.sds, []).append(cell)
        for cells in by_sds.values():
            for name in ("Pn", "FPn", "QPn", "FQPn", "QIn", "CIn", "FCIn", "DCIn"):
                values = [getattr(c, name) for c in cells]
                assert abs(math.fsum(values) / len(values) - 1.0) <= 1e-9

        # aggregates match an independent numpy weighted mean
        aggregates = aggregate_area(result.cells, sectors)
        cells_by_group: dict[tuple, list] = {}
        for cell in result.cells:
            key = (cell.university, sectors.area_of(cell.sds))
            cells_by_group.setdefault(key, []).append(cell)
        for agg in aggregates:
            group = cells_by_group[(agg.university, agg.area)]
            for name in ("P", "FP", "QP", "FQP", "QI", "CI", "FCI", "DCI"):
                values = np.array([getattr(c, name + "n") for c in group])
                weights = np.array([c.Add for c in group])
                expected = float(np.average(values, weights=weights))
                got = getattr(agg, name)
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

        # scale invariance: power-of-two rescaling of one sector's P
        for scale in (4.0, 0.5):
            scaled = [
                IndicatorRecord(
                    **{
                        **{f: getattr(r, f) for f in r.__dataclass_fields__},
                        "P": r.P * scale if r.sds == "S03" else r.P,
                    }
                )
                for r in records
            ]
            assert normalize_to_sds_mean(scaled) == result


def test_criterion_6_indicator_oracle_equivalence():
    with criterion(6, "indicator oracle equivalence"):
        rng = random.Random(600)
        fields = ("O", "FO", "SS", "FSS", "QI", "staff", "P", "FP", "QP", "FQP",
                  "CI_ratio", "CI_share", "CI_UNI", "CI_DPR", "FCI", "DCI")
        for _ in range(200):
            corpus = make_random_corpus(rng, max_pubs=50)
            expected = naive_indicator_oracle(corpus)
            records = compute_indicators(corpus)
            assert {(r.university, r.sds) for r in records} == set(expected)
            for rec in records:
                want = expected[(rec.university, rec.sds)]
                assert rec.O == want["O"]
                for name in fields:
                    assert close_or_both_none(getattr(rec, name), want[name]), (
                        rec.university, rec.sds, name
                    )


def test_criterion_7_planted_correlation_recovery():
    with criterion(7, "planted-correlation recovery"):
        start = time.perf_counter()
        planted_hits = 0
        null_hits = 0
        seeds = 100
        for seed in range(seeds):
            params = SynthParams(
                seed=seed, n_universities=60, n_areas=2, sds_per_area=2,
                staff_range=(8, 20), pubs_per_staff_mean=1.5,
                planted_associations=(
                    PlantedAssociation("A01", "CI_share", "P", 0.7),
                ),
            )
            corpus = generate_corpus(params).corpus
            records = compute_indicators(corpus)
            cells = normalize_to_sds_mean(records).cells
            aggregates = aggregate_area(cells, corpus.sectors)
            kept = filter_small_universities(aggregates).kept
            table = build_correlation_table(kept, "CI")
            planted = table.cells[("P", "A01")].r
            null = table.cells[("P", "A02")].r
            if abs(planted - 0.7) <= 0.1:
                planted_hits += 1
            if abs(null) < 0.3:
                null_hits += 1
        elapsed = time.perf_counter() - start
        print(
            f"  planted within +/-0.1: {planted_hits}/{seeds}; "
            f"null |r|<0.3: {null_hits}/{seeds}; {elapsed:.1f}s"
        )
        assert planted_hits >= 95
        assert null_hits >= 90
        assert elapsed < 60.0


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "end-to-end determinism"):
        data = tmp_path / "data"
        write_synthetic(generate_corpus(SynthParams(seed=88, n_universities=8)), data)
        runner = CliRunner()
        trees = []
        for name in ("first", "second"):
            out = tmp_path / name
            result = runner.invoke(cli, [
                "all",
                "--pubs", str(data / "publications.jsonl"),
                "--orgs", str(data / "organizations.csv"),
                "--journals", str(data / "journals.csv"),
                "--staff", str(data / "staff.csv"),
                "--sectors", str(data / "sectors.csv"),
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1]
        assert len(trees[0]) == 11


def test_criterion_9_exclusion_rule():
    with criterion(9, "small-university exclusion"):
        # a 10-year period makes the 4.9 average reachable with integer counts
        period = (2001, 2010)
        years = range(period[0], period[1] + 1)
        staff_entries = {}
        for year in years:
            staff_entries[("UA", "S1", year)] = 3
            staff_entries[("UB", "S1", year)] = 5
            staff_entries[("UC", "S1", year)] = 5
            staff_entries[("UD", "S1", year)] = 40
        staff_entries[("UB", "S1", 2010)] = 4  # sum 49 -> average 4.9

        corpus = Corpus(
            publications=(),
            organizations={},
            journals={},
            staff=StaffRoster(entries=staff_entries),
            sectors=SectorMap(entries={"S1": "A1"}),
            period=period,
        )
        records = compute_indicators(corpus)
        staff_by_univ = {r.university: r.staff for r in records}
        assert staff_by_univ == {"UA": 3.0, "UB": 4.9, "UC": 5.0, "UD": 40.0}

        aggregates = aggregate_area(normalize_to_sds_mean(records).cells, corpus.sectors)
        result = filter_small_universities(aggregates, threshold=5.0)
        assert {e.university for e in result.excluded} == {"UA", "UB"}
        assert {a.university for a in result.kept} == {"UC", "UD"}
