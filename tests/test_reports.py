import math
import random

import pytest

from collabmetrics import stats
from collabmetrics.aggregate import (
    AreaAggregate,
    aggregate_area,
    filter_small_universities,
    normalize_to_sds_mean,
)
from collabmetrics.corpus import (
    Attribution,
    Corpus,
    Organization,
    OrgClass,
    Publication,
    SectorMap,
    StaffRoster,
)
from collabmetrics.indicators import compute_indicators
from collabmetrics.reports import (
    AREA_SHARES,
    COLLAB_COLUMNS,
    QUARTILE_LABELS,
    CrossTab,
    ReportError,
    build_area_profile,
    build_correlation_table,
    build_crosstab,
    build_dispersion_table,
    build_top_sector_table,
    emit_area_profile,
    emit_crosstab,
)
from collabmetrics.synth import (
    PlantedAssociation,
    Propensities,
    SynthParams,
    generate_corpus,
)

from oracles import make_random_corpus, naive_area_profile_oracle, naive_crosstab_oracle

# Published cross-tab: (intramural, extramural, foreign, enterprise) per
# quality quartile, with the concentration indices printed alongside.
PUBLISHED_COUNTS = [
    (2974, 4507, 1697, 221),
    (3830, 6443, 2612, 313),
    (4453, 10369, 4506, 419),
    (4754, 16090, 8413, 607),
]
PUBLISHED_CIDX = [
    (1.33, 0.86, 0.70, 1.01),
    (1.24, 0.90, 0.79, 1.04),
    (1.00, 1.00, 0.94, 0.97),
    (0.76, 1.10, 1.25, 1.00),
]
PUBLISHED_ROW_TOTALS = [7481, 10273, 14822, 20844]
PUBLISHED_GRAND_TOTAL = 53420


class TestCrossTabFromCounts:
    def test_reproduces_published_concentration_indices(self):
        table = CrossTab.from_counts(PUBLISHED_COUNTS)
        for label, expected_row in zip(QUARTILE_LABELS, PUBLISHED_CIDX):
            for col, expected in zip(
                ("intramural", "extramural", "foreign", "enterprise"), expected_row
            ):
                assert table.concentration[(label, col)] == pytest.approx(
                    expected, abs=0.01
                ), (label, col)

    def test_published_marginals(self):
        table = CrossTab.from_counts(PUBLISHED_COUNTS)
        assert list(table.row_totals.values()) == PUBLISHED_ROW_TOTALS
        assert sum(PUBLISHED_ROW_TOTALS) == PUBLISHED_GRAND_TOTAL
        assert table.grand_total == PUBLISHED_GRAND_TOTAL

    # a wrong shape raises instead of being cut short by zip
    @pytest.mark.parametrize("counts", [
        pytest.param([[10, 5, 3, 1]] * 3, id="three-rows"),
        pytest.param([[10, 5, 3, 1]] * 5, id="five-rows"),
        pytest.param([[10, 5, 3, 1]] * 3 + [[10, 5, 3]], id="short-row"),
        pytest.param([[10, 5, 3, 1]] * 3 + [[10, 5, 3, 1, 0]], id="five-column-row"),
    ])
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            CrossTab.from_counts(counts)

    def test_all_zero_counts_leave_every_concentration_undefined(self):
        table = CrossTab.from_counts([[0, 0, 0, 0]] * 4)
        assert table.grand_total == 0
        assert set(table.concentration.values()) == {None}

    def test_column_weighted_concentration_mean_is_one(self):
        table = CrossTab.from_counts(PUBLISHED_COUNTS)
        for col in ("intramural", "extramural", "foreign", "enterprise"):
            mean = math.fsum(
                table.concentration[(label, col)]
                * table.row_totals[label]
                / table.grand_total
                for label in QUARTILE_LABELS
            )
            assert mean == pytest.approx(1.0, abs=1e-9)


def intramural_corpus():
    journals = {f"J{i}": {2001: float(i + 1)} for i in range(8)}
    orgs = {"UA": Organization("UA", "University A", OrgClass.UNIV_DOMESTIC, "IT")}
    pubs = tuple(
        Publication(f"p{i}", 2001, f"J{i}", frozenset({"UA"}),
                    (Attribution("UA", "S1"),))
        for i in range(8)
    )
    return Corpus(
        publications=pubs,
        organizations=orgs,
        journals=journals,
        staff=StaffRoster(entries={("UA", "S1"): {2001: 3}}),
        sectors=SectorMap(entries={"S1": "A1"}),
        period=(2001, 2003),
    )


class TestBuildCrossTab:
    def test_all_intramural_corpus(self):
        table = build_crosstab(intramural_corpus())
        assert table.col_totals["extramural"] == 0
        assert table.col_totals["intramural"] == table.grand_total == 8
        for label in QUARTILE_LABELS:
            if table.row_totals[label] > 0:
                assert table.concentration[(label, "intramural")] == pytest.approx(1.0)
                assert table.concentration[(label, "extramural")] is None

    def test_independent_corpus_has_neutral_concentration(self):
        params = SynthParams(
            seed=101, n_universities=25, n_areas=4, sds_per_area=3,
            staff_range=(15, 35), pubs_per_staff_mean=1.6,
            collab_propensities=Propensities(
                other_university=0.25, dpr=0.2, enterprise=0.15, foreign=0.3
            ),
        )
        corpus = generate_corpus(params).corpus
        assert len(corpus.publications) >= 10_000
        table = build_crosstab(corpus)
        for value in table.concentration.values():
            assert value is not None
            assert value == pytest.approx(1.0, abs=0.1)

    def test_per_sector_scope_runs(self):
        corpus = generate_corpus(SynthParams(seed=5, n_universities=6)).corpus
        table = build_crosstab(corpus, quartile_scope="per-sector")
        assert table.grand_total == len(corpus.publications)

    def test_unknown_scope_rejected(self):
        # a typo raises, not a fall-through to the other scope
        with pytest.raises(KeyError):
            build_crosstab(intramural_corpus(), quartile_scope="weekly")

    def test_counts_match_brute_force_oracle(self):
        rng = random.Random(11)
        compared = {"global": 0, "per-sector": 0}
        multi_sector = 0
        for _ in range(80):
            corpus = make_random_corpus(rng, max_pubs=80)
            if len(corpus.publications) < 4:
                continue
            multi_sector += sum(len(p.sds_codes()) > 1 for p in corpus.publications)
            for scope in compared:
                expected = naive_crosstab_oracle(corpus, scope)
                if expected is None:
                    with pytest.raises(ReportError, match="per-sector quartiles need at least 4"):
                        build_crosstab(corpus, quartile_scope=scope)
                    continue
                table = build_crosstab(corpus, quartile_scope=scope)
                assert [[table.counts[(label, col)] for col in COLLAB_COLUMNS]
                        for label in QUARTILE_LABELS] == expected
                compared[scope] += 1
        assert min(compared.values()) >= 20 and multi_sector > 0, (compared, multi_sector)


ORGS = {
    "UA": Organization("UA", "University A", OrgClass.UNIV_DOMESTIC, "IT"),
    "UB": Organization("UB", "University B", OrgClass.UNIV_DOMESTIC, "IT"),
    "F1": Organization("F1", "Foreign Lab", OrgClass.FOREIGN, "US"),
    "E1": Organization("E1", "Enterprise", OrgClass.ENTERPRISE_DOMESTIC, "IT"),
}


def profile_corpus():
    """10 publications in one area: 6 extramural, 3 of them foreign."""
    journals = {"J1": {2001: 1.0}}
    pubs = []
    for i in range(10):
        if i < 3:
            orgs = {"UA", "F1"}
        elif i < 6:
            orgs = {"UA", "E1"}
        else:
            orgs = {"UA"}
        pubs.append(
            Publication(f"p{i}", 2001, "J1", frozenset(orgs),
                        (Attribution("UA", "S1"),))
        )
    return Corpus(
        publications=tuple(pubs),
        organizations=ORGS,
        journals=journals,
        staff=StaffRoster(entries={("UA", "S1"): {2001: 6}}),
        sectors=SectorMap(entries={"S1": "A1"}),
        period=(2001, 2003),
    )


class TestAreaProfile:
    def test_single_organization_area_has_zero_shares(self):
        corpus = intramural_corpus()
        rows = build_area_profile(corpus, compute_indicators(corpus))
        assert rows[0].CI == 0.0
        assert rows[0].FCI == 0.0

    def test_forced_ratios(self):
        corpus = profile_corpus()
        rows = build_area_profile(corpus, compute_indicators(corpus))
        row = rows[0]
        assert row.output == 10
        assert row.CI == pytest.approx(0.6)
        assert row.FCI == pytest.approx(0.3)
        assert row.DCI == pytest.approx(0.3)
        assert row.CI_UNI == 0.0

    def test_planted_area_share_recovered(self):
        # One seed's A01 FCI spreads by about 0.008 around its expectation,
        # so the mean of ten seeds is held to 0.01 (about 4 standard errors).
        # Each university's propensity is scaled by exp(0.1 * Z), whose mean
        # is exp(0.1 ** 2 / 2).
        realized = []
        for seed in range(200, 210):
            params = SynthParams(
                seed=seed, n_universities=30, n_areas=2, sds_per_area=3,
                staff_range=(20, 40), pubs_per_staff_mean=2.0, collab_variation=0.1,
                area_propensity_overrides={
                    "A01": Propensities(
                        other_university=0.2, dpr=0.15, enterprise=0.05, foreign=0.47
                    )
                },
            )
            corpus = generate_corpus(params).corpus
            rows = {r.area: r for r in build_area_profile(corpus, compute_indicators(corpus))}
            assert rows["A01"].output >= 5000
            realized.append(rows["A01"].FCI)
        expected = 0.47 * math.exp(0.1 ** 2 / 2)
        assert math.fsum(realized) / len(realized) == pytest.approx(expected, abs=0.01)

    def test_pooled_matches_brute_force_oracle(self):
        rng = random.Random(23)
        multi_area = 0
        for _ in range(60):
            corpus = make_random_corpus(rng, max_pubs=60)
            areas = corpus.sectors.entries
            multi_area += sum(len({areas[a.sds] for a in p.attributions}) > 1
                              for p in corpus.publications)
            rows = build_area_profile(corpus, compute_indicators(corpus))
            got = {r.area: dict(output=r.output, **{s: getattr(r, s) for s in AREA_SHARES})
                   for r in rows}
            assert got == naive_area_profile_oracle(corpus)
        assert multi_area > 0

    def test_weighted_mode_runs_and_stays_in_range(self):
        corpus = generate_corpus(SynthParams(seed=9, n_universities=8)).corpus
        records = compute_indicators(corpus)
        weighted = build_area_profile(corpus, records, mode="weighted")
        for row in weighted:
            for value in (row.CI, row.CI_UNI, row.CI_DPR, row.FCI, row.DCI):
                assert value is None or 0.0 <= value <= 1.0
        pooled = build_area_profile(corpus, records)
        assert [(r.area, r.output) for r in weighted] == [(r.area, r.output) for r in pooled]


class TestDispersion:
    def test_single_sector_area(self):
        corpus = profile_corpus()
        records = compute_indicators(corpus)
        table, warnings = build_dispersion_table(records, corpus.sectors)
        assert warnings == []
        summary = next(iter(table.values()))
        assert summary.n == 1
        assert summary.mean == summary.median == summary.min == summary.max
        assert summary.std == 0.0

    def test_order_statistics(self):
        d = stats.descriptive([55.6, 70.0, 77.1])
        assert d.min == 55.6
        assert d.max == 77.1
        assert d.median == 70.0

    def test_published_physics_column_cv(self):
        # two-point series with the published mean and std of the physics area
        mean, std = 92.7, 5.1
        series = [mean - std / math.sqrt(2), mean + std / math.sqrt(2)]
        d = stats.descriptive(series)
        assert d.mean == pytest.approx(mean, abs=1e-9)
        assert d.std == pytest.approx(std, abs=1e-9)
        assert d.cv == pytest.approx(0.056, abs=0.002)


class TestTopSectors:
    def test_single_sector_selected(self):
        corpus = profile_corpus()
        records = compute_indicators(corpus)
        rows = build_top_sector_table(records, corpus.sectors, "FCI")
        assert [(r.area, r.sds) for r in rows] == [("A1", "S1")]
        assert rows[0].area_share == pytest.approx(1.0)

    def test_argmax_by_metric(self):
        corpus = generate_corpus(SynthParams(seed=77, n_universities=6)).corpus
        records = compute_indicators(corpus)
        rows = build_top_sector_table(records, corpus.sectors, "FCI")
        pooled = {}
        for rec in records:
            if rec.FCI is None:
                continue
            w, o = pooled.get(rec.sds, (0.0, 0))
            pooled[rec.sds] = (w + rec.FCI * rec.O, o + rec.O)
        for row in rows:
            best = max(
                (v / o, o, s)
                for s, (v, o) in pooled.items()
                if corpus.sectors.area_of(s) == row.area and o > 0
            )[0]
            assert row.value == pytest.approx(best)

    def test_planted_top_sector_always_wins(self):
        hot = Propensities(other_university=0.2, dpr=0.15, enterprise=0.05, foreign=0.75)
        for seed in range(10):
            params = SynthParams(
                seed=seed, n_universities=10, n_areas=1, sds_per_area=4,
                sds_propensity_overrides={"A01S03": hot},
            )
            corpus = generate_corpus(params).corpus
            records = compute_indicators(corpus)
            rows = build_top_sector_table(records, corpus.sectors, "FCI")
            assert rows[0].sds == "A01S03", seed

    def test_top_n_expands_ranking(self):
        corpus = generate_corpus(SynthParams(seed=77, n_universities=6)).corpus
        records = compute_indicators(corpus)
        rows = build_top_sector_table(records, corpus.sectors, "DCI", top_n=3)
        by_area = {}
        for row in rows:
            by_area.setdefault(row.area, []).append(row.value)
        for values in by_area.values():
            assert values == sorted(values, reverse=True)

    def test_argmax_invariant_under_metric_rescaling(self):
        corpus = generate_corpus(SynthParams(seed=77, n_universities=6)).corpus
        records = compute_indicators(corpus)
        scaled = [
            type(r)(**{
                **{f: getattr(r, f) for f in r.__dataclass_fields__},
                "FCI": None if r.FCI is None else 0.25 * r.FCI,
            })
            for r in records
        ]
        base = build_top_sector_table(records, corpus.sectors, "FCI", top_n=2)
        rescaled = build_top_sector_table(scaled, corpus.sectors, "FCI", top_n=2)
        assert [(r.area, r.sds, r.output) for r in base] == \
            [(r.area, r.sds, r.output) for r in rescaled]


def make_aggregate(univ, ci, p):
    return AreaAggregate(
        university=univ, area="A1", P=p, FP=None, QP=None, FQP=None, QI=None,
        CI=ci, FCI=None, DCI=None, staff=10.0, n_sectors=1,
    )


class TestCorrelationTable:
    def test_exact_linear_relationship(self):
        aggs = [make_aggregate(f"U{i}", ci=0.1 * i, p=2.0 * 0.1 * i + 1.0)
                for i in range(6)]
        table = build_correlation_table(aggs, "CI")
        cell = table.cells[("P", "A1")]
        assert cell.r == pytest.approx(1.0, abs=1e-12)
        assert cell.r_squared == pytest.approx(1.0, abs=1e-12)
        assert cell.beta == pytest.approx(2.0, abs=1e-12)

    def test_two_universities_undefined(self):
        aggs = [make_aggregate("UA", 0.1, 1.0), make_aggregate("UB", 0.4, 2.0)]
        table = build_correlation_table(aggs, "CI")
        assert ("P", "A1") not in table.cells
        assert "insufficient data (n=2)" in table.notes[("P", "A1")]

    def test_constant_indicator_undefined(self):
        # every university has the same P: no slope, no correlation
        aggs = [make_aggregate(f"U{i}", ci=0.1 * i, p=1.5) for i in range(6)]
        table = build_correlation_table(aggs, "CI")
        assert ("P", "A1") not in table.cells
        assert table.notes[("P", "A1")] == "zero variance"
        assert stats.associate([a.CI for a in aggs], [a.P for a in aggs]) is None

    def test_constant_indicator_with_three_pairs_undefined(self):
        # 3 pairs are enough to correlate, so the note blames the variance, not the count
        aggs = [make_aggregate(f"U{i}", ci=0.1 * i, p=1.5) for i in range(3)]
        table = build_correlation_table(aggs, "CI")
        assert table.notes[("P", "A1")] == "zero variance"

    def test_r_squared_identity_holds_per_cell(self):
        corpus = generate_corpus(SynthParams(seed=3, n_universities=12)).corpus
        records = compute_indicators(corpus)
        aggs = aggregate_area(normalize_to_sds_mean(records).cells, corpus.sectors)
        kept = filter_small_universities(aggs).kept
        table = build_correlation_table(kept, "FCI")
        assert table.cells
        assert table.notes.keys().isdisjoint(table.cells)
        for cell in table.cells.values():
            assert abs(cell.r_squared - cell.r**2) < 1e-10

    def test_planted_correlation_recovered(self):
        for seed in range(5):
            params = SynthParams(
                seed=seed, n_universities=60, n_areas=2, sds_per_area=2,
                staff_range=(8, 20), pubs_per_staff_mean=1.5,
                planted_associations=(
                    PlantedAssociation("A01", "CI_share", "P", 0.68),
                ),
            )
            result = generate_corpus(params)
            assert result.ground_truth.planted_correlations[0]["r_driver"] == \
                pytest.approx(0.68, abs=0.02)
            corpus = result.corpus
            records = compute_indicators(corpus)
            aggs = aggregate_area(normalize_to_sds_mean(records).cells, corpus.sectors)
            kept = filter_small_universities(aggs).kept
            table = build_correlation_table(kept, "CI")
            assert table.cells[("P", "A01")].r == pytest.approx(0.68, abs=0.1)


@pytest.mark.parametrize("build", [
    pytest.param(lambda corpus, records: build_area_profile(corpus, records, mode="median"),
                 id="profile-mode"),
    # "QI" names an aggregate field, but not a collaboration metric
    pytest.param(lambda corpus, records: build_correlation_table(
        aggregate_area(normalize_to_sds_mean(records).cells, corpus.sectors), "QI"),
                 id="correlation-metric"),
])
def test_unknown_builder_option_rejected(build):
    # a typo raises, not a fall-through to another mode or field
    corpus = profile_corpus()
    with pytest.raises(KeyError):
        build(corpus, compute_indicators(corpus))


class TestEmission:
    def test_crosstab_emission_is_deterministic_and_totals_print(self, tmp_path):
        table = CrossTab.from_counts(PUBLISHED_COUNTS)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_crosstab(table, first)
        emit_crosstab(table, second)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text(encoding="utf-8")
        assert "53420" in text.splitlines()[-1]
        assert "1.33" in text.splitlines()[1]

    def test_empty_table_emits_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_area_profile([], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("area,")
