import math
import random

import numpy as np
import pytest

from collabmetrics.aggregate import (
    NormalizedCell,
    aggregate_area,
    filter_small_universities,
    normalize_to_sds_mean,
    read_aggregates_csv,
    write_aggregates_csv,
)
from collabmetrics.corpus import SectorMap
from collabmetrics.indicators import IndicatorRecord, compute_indicators
from collabmetrics.synth import SynthParams, generate_corpus


def rec(univ, sds, **kw):
    values = dict(
        O=0, FO=0.0, SS=0.0, FSS=0.0, QI=None, staff=1.0, P=None, FP=None,
        QP=None, FQP=None, CI_ratio=None, CI_share=None, CI_UNI=None,
        CI_DPR=None, FCI=None, DCI=None,
    )
    values.update(kw)
    return IndicatorRecord(university=univ, sds=sds, **values)


def cell(univ, sds, add=1.0, **kw):
    values = dict(
        Pn=None, FPn=None, QPn=None, FQPn=None, QIn=None, CIn=None,
        FCIn=None, DCIn=None,
    )
    values.update(kw)
    return NormalizedCell(university=univ, sds=sds, Add=add, **values)


class TestNormalize:
    def test_single_university_self_mean(self):
        result = normalize_to_sds_mean([rec("UA", "S1", P=0.8)])
        assert result.cells[0].Pn == pytest.approx(1.0)

    def test_three_universities_forced_values(self):
        records = [
            rec("UA", "S1", P=1.0),
            rec("UB", "S1", P=2.0),
            rec("UC", "S1", P=3.0),
        ]
        result = normalize_to_sds_mean(records)
        assert [c.Pn for c in result.cells] == pytest.approx([0.5, 1.0, 1.5])

    def test_random_values_mean_one(self):
        rng = np.random.default_rng(8)
        records = [
            rec(f"U{i}", "S1", P=float(rng.uniform(0.1, 5.0))) for i in range(30)
        ]
        result = normalize_to_sds_mean(records)
        mean = math.fsum(c.Pn for c in result.cells) / len(result.cells)
        assert abs(mean - 1.0) <= 1e-9

    def test_undefined_inputs_stay_undefined(self):
        records = [rec("UA", "S1", P=1.0), rec("UB", "S1", P=None)]
        result = normalize_to_sds_mean(records)
        assert result.cells[0].Pn == pytest.approx(1.0)
        assert result.cells[1].Pn is None

    def test_zero_mean_marks_undefined_and_reports_once(self):
        records = [rec("UA", "S1", DCI=0.0), rec("UB", "S1", DCI=0.0)]
        result = normalize_to_sds_mean(records)
        assert all(c.DCIn is None for c in result.cells)
        assert result.zero_mean == (("S1", "DCI"),)

    def test_ci_mode_selects_source(self):
        records = [rec("UA", "S1", CI_share=0.5, CI_ratio=2.0)]
        share = normalize_to_sds_mean(records, ci_mode="share")
        ratio = normalize_to_sds_mean(records, ci_mode="ratio")
        assert share.cells[0].CIn == pytest.approx(1.0)
        assert ratio.cells[0].CIn == pytest.approx(1.0)
        with pytest.raises(KeyError):
            normalize_to_sds_mean(records, ci_mode="weird")

    def test_scale_invariance_power_of_two_is_exact(self):
        rng = np.random.default_rng(5)
        base = [rec(f"U{i}", "S1", P=float(rng.uniform(0.5, 3))) for i in range(10)]
        scaled = [
            rec(r.university, r.sds, P=4.0 * r.P, staff=r.staff) for r in base
        ]
        assert normalize_to_sds_mean(base) == normalize_to_sds_mean(scaled)


class TestAggregateArea:
    SECTORS = SectorMap(entries={"S1": "A1", "S2": "A1", "S3": "A2"})

    def test_single_sector_weights_cancel(self):
        aggs = aggregate_area([cell("UA", "S1", add=7.0, Pn=1.3)], self.SECTORS)
        assert aggs[0].P == pytest.approx(1.3)
        assert aggs[0].area == "A1"

    def test_forced_weighted_mean(self):
        aggs = aggregate_area(
            [cell("UA", "S1", add=5.0, Pn=1.0), cell("UA", "S2", add=15.0, Pn=2.0)],
            self.SECTORS,
        )
        assert aggs[0].P == pytest.approx(1.75)

    def test_undefined_cells_renormalize_weights(self):
        aggs = aggregate_area(
            [cell("UA", "S1", add=5.0, Pn=None), cell("UA", "S2", add=15.0, Pn=2.0)],
            self.SECTORS,
        )
        assert aggs[0].P == pytest.approx(2.0)

    def test_all_weights_zero_is_undefined(self):
        aggs = aggregate_area([cell("UA", "S1", add=0.0, Pn=1.0)], self.SECTORS)
        assert aggs[0].P is None

    def test_uniform_cells_idempotent(self):
        aggs = aggregate_area(
            [cell("UA", "S1", add=3.0, QIn=0.7), cell("UA", "S2", add=11.0, QIn=0.7)],
            self.SECTORS,
        )
        assert aggs[0].QI == pytest.approx(0.7)

    def test_matches_numpy_weighted_mean(self):
        rng = np.random.default_rng(123)
        sectors = SectorMap(entries={f"S{i}": "A1" for i in range(10)})
        for _ in range(25):
            for univ in ("UA", "UB"):
                values = rng.uniform(0.2, 3.0, size=10)
                weights = rng.uniform(0.5, 20.0, size=10)
                cells = [
                    cell(univ, f"S{i}", add=float(weights[i]), Pn=float(values[i]))
                    for i in range(10)
                ]
                agg = aggregate_area(cells, sectors)[0]
                assert agg.P == pytest.approx(
                    float(np.average(values, weights=weights)), abs=1e-12
                )
                assert min(values) <= agg.P <= max(values)

    def test_monotone_in_cell_value(self):
        base = [
            cell("UA", "S1", add=4.0, Pn=1.0),
            cell("UA", "S2", add=6.0, Pn=2.0),
        ]
        bumped = [
            cell("UA", "S1", add=4.0, Pn=1.5),
            cell("UA", "S2", add=6.0, Pn=2.0),
        ]
        assert (
            aggregate_area(bumped, self.SECTORS)[0].P
            > aggregate_area(base, self.SECTORS)[0].P
        )

    def test_groups_by_university_and_area(self):
        aggs = aggregate_area(
            [
                cell("UA", "S1", add=2.0, Pn=1.0),
                cell("UA", "S3", add=2.0, Pn=3.0),
                cell("UB", "S1", add=2.0, Pn=2.0),
            ],
            self.SECTORS,
        )
        keys = {(a.university, a.area) for a in aggs}
        assert keys == {("UA", "A1"), ("UA", "A2"), ("UB", "A1")}
        assert all(a.n_sectors == 1 for a in aggs)


class TestExclusion:
    def test_strict_threshold_boundary(self):
        aggs = aggregate_area(
            [
                cell("UA", "S1", add=4.9, Pn=1.0),
                cell("UB", "S1", add=5.0, Pn=1.0),
            ],
            SectorMap(entries={"S1": "A1"}),
        )
        result = filter_small_universities(aggs, threshold=5.0)
        assert [e.university for e in result.excluded] == ["UA"]
        assert [a.university for a in result.kept] == ["UB"]

    def test_planted_staff_sizes(self):
        params = SynthParams(
            seed=11,
            n_universities=3,
            n_areas=1,
            sds_per_area=1,
            staff_overrides={"U001": 3, "U002": 5, "U003": 40},
        )
        corpus = generate_corpus(params).corpus
        records = compute_indicators(corpus)
        cells = normalize_to_sds_mean(records).cells
        aggs = aggregate_area(cells, corpus.sectors)
        result = filter_small_universities(aggs)
        assert {e.university for e in result.excluded} == {"U001"}
        assert {a.university for a in result.kept} == {"U002", "U003"}

    def test_total_staff_matches_roster_recomputation(self):
        corpus = generate_corpus(SynthParams(seed=21, n_universities=6)).corpus
        records = compute_indicators(corpus)
        aggs = aggregate_area(normalize_to_sds_mean(records).cells, corpus.sectors)
        for agg in aggs:
            expected = math.fsum(
                corpus.staff.period_average(agg.university, sds, corpus.period)
                for sds in corpus.sectors.sds_in_area(agg.area)
            )
            assert agg.staff == expected


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(SynthParams(seed=2, n_universities=5)).corpus
        records = compute_indicators(corpus)
        aggs = aggregate_area(normalize_to_sds_mean(records).cells, corpus.sectors)
        result = filter_small_universities(aggs, threshold=30.0)

        path = tmp_path / "aggregates.csv"
        write_aggregates_csv(result, path)
        loaded = read_aggregates_csv(path)
        assert list(loaded.kept) == list(result.kept)
        assert list(loaded.excluded) == list(result.excluded)

        second = tmp_path / "again.csv"
        write_aggregates_csv(result, second)
        assert path.read_bytes() == second.read_bytes()
