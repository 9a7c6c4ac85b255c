import collections
import json
import math
import re
import sys

import pytest

from collabmetrics import synth
from collabmetrics.corpus import CorpusConfig, load_corpus, write_corpus
from collabmetrics.indicators import compute_indicators
from collabmetrics.synth import (
    PlantedAssociation,
    Propensities,
    SynthParams,
    SynthParamsError,
    generate_corpus,
    write_synthetic,
)

CORPUS_FILES = (
    "publications.jsonl", "organizations.csv", "journals.csv",
    "staff.csv", "sectors.csv", "ground_truth.json",
)


class TestDeterminism:
    def test_same_seed_gives_identical_objects(self):
        params = SynthParams(seed=7, n_universities=6)
        assert generate_corpus(params).corpus == generate_corpus(params).corpus

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        params = SynthParams(seed=7, n_universities=6)
        first = tmp_path / "one"
        second = tmp_path / "two"
        write_synthetic(generate_corpus(params), first)
        write_synthetic(generate_corpus(params), second)
        for name in CORPUS_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_different_seeds_differ(self):
        a = generate_corpus(SynthParams(seed=1, n_universities=5)).corpus
        b = generate_corpus(SynthParams(seed=2, n_universities=5)).corpus
        assert a != b

    def test_existing_cells_stable_when_system_grows(self):
        small = generate_corpus(SynthParams(seed=13, n_universities=4)).corpus
        large = generate_corpus(SynthParams(seed=13, n_universities=6)).corpus

        def skeleton(corpus, keep):
            return {
                p.pub_id: (p.year, p.journal_id, len(p.org_ids))
                for p in corpus.publications
                if p.attributions[0].university in keep
            }

        keep = {f"U{i:03d}" for i in range(1, 5)}
        assert skeleton(small, keep) == skeleton(large, keep)
        assert {k: v for k, v in large.staff.entries.items() if k[0] in keep} == dict(
            small.staff.entries
        )


    @pytest.mark.parametrize("params", [
        SynthParams(seed=3, n_universities=5),
        SynthParams(seed=3, n_universities=5, n_areas=2, planted_associations=(
            PlantedAssociation("A02", "CI_share", "P", 0.5, noise=0.2),
        )),
    ], ids=["unplanted", "planted"])
    def test_each_stream_built_once(self, monkeypatch, params):
        built = collections.Counter()
        rng = synth._rng

        def counting_rng(seed, *parts):
            built[(seed, *parts)] += 1
            return rng(seed, *parts)

        monkeypatch.setattr(synth, "_rng", counting_rng)
        generate_corpus(params)
        assert built
        assert [key for key, count in built.items() if count > 1] == []

    def test_one_credit_line_per_cell(self):
        corpus = generate_corpus(SynthParams(seed=7, n_universities=6)).corpus
        credit_of_cell = {}
        for pub in corpus.publications:
            (credit,) = pub.attributions
            assert credit_of_cell.setdefault((credit.university, credit.sds), credit) is credit
        assert len(credit_of_cell) > 1

    def test_one_object_per_distinct_value(self, tmp_path):
        corpus = generate_corpus(SynthParams(seed=7, n_universities=6)).corpus
        pubs = corpus.publications
        org_sets = {p.org_ids for p in pubs}
        assert len({id(p.org_ids) for p in pubs}) == len(org_sets) < len(pubs)
        assert len({id(p.year) for p in pubs}) == len({p.year for p in pubs}) == 3
        year_maps = corpus.staff.entries.values()
        headcounts = {tuple(year_map.values()) for year_map in year_maps}
        assert len({id(year_map) for year_map in year_maps}) == len(headcounts) < len(year_maps)

        paths = write_corpus(corpus, tmp_path)
        assert load_corpus(*paths.values(), CorpusConfig(period=corpus.period)) == corpus


class TestValidity:
    @pytest.mark.parametrize(
        "params",
        [
            SynthParams(seed=0),
            SynthParams(seed=5, n_universities=3, n_areas=1, sds_per_area=1, years=1),
            SynthParams(
                seed=9,
                n_universities=10,
                planted_associations=(PlantedAssociation("A02", "FCI", "QP", -0.4),),
            ),
            # no university partners to draw from
            SynthParams(seed=3, n_universities=1),
            # U001's cells have no publications
            SynthParams(seed=3, n_universities=4, staff_overrides={"U001": 0}),
        ],
    )
    def test_generated_corpora_validate_cleanly(self, params, tmp_path):
        corpus = generate_corpus(params).corpus
        paths = write_corpus(corpus, tmp_path)
        # the loaders check each record, then validate_corpus the references
        load_corpus(*paths.values(), CorpusConfig(period=corpus.period))

    def test_two_universities_coauthor_with_each_other(self):
        corpus = generate_corpus(SynthParams(seed=3, n_universities=2)).corpus
        assert any({"U001", "U002"} <= pub.org_ids for pub in corpus.publications)

    def test_zero_propensities_yield_single_organization_corpus(self):
        params = SynthParams(
            seed=4,
            n_universities=6,
            collab_propensities=Propensities(0.0, 0.0, 0.0, 0.0),
        )
        corpus = generate_corpus(params).corpus
        assert all(len(p.org_ids) == 1 for p in corpus.publications)
        for rec in compute_indicators(corpus):
            if rec.O > 0:
                assert rec.CI_share == 0.0

    def test_marginal_calibration(self):
        propensities = Propensities(
            other_university=0.25, dpr=0.2, enterprise=0.15, foreign=0.3
        )
        params = SynthParams(
            seed=31, n_universities=25, n_areas=4, sds_per_area=3,
            staff_range=(15, 35), pubs_per_staff_mean=1.6,
            collab_propensities=propensities,
        )
        result = generate_corpus(params)
        corpus = result.corpus
        n = len(corpus.publications)
        assert n >= 10_000

        orgs = corpus.organizations
        realized = {name: 0 for name in ("other_university", "dpr", "enterprise", "foreign")}
        for pub in corpus.publications:
            attributed = pub.attributions[0].university
            classes = {orgs[o].org_class.value for o in pub.org_ids if o != attributed}
            if "UNIV_DOMESTIC" in classes:
                realized["other_university"] += 1
            if "DPR_DOMESTIC" in classes:
                realized["dpr"] += 1
            if "ENTERPRISE_DOMESTIC" in classes:
                realized["enterprise"] += 1
            if "FOREIGN" in classes:
                realized["foreign"] += 1
        for name, count in realized.items():
            target = getattr(propensities, name)
            assert count / n == pytest.approx(target, abs=0.03), name

    def test_staff_overrides_respected(self):
        params = SynthParams(
            seed=2, n_universities=3, n_areas=1, sds_per_area=2,
            staff_overrides={"U002": 9},
        )
        corpus = generate_corpus(params).corpus
        for (univ, _sds), heads in corpus.staff.entries.items():
            if univ == "U002":
                assert set(heads.values()) == {9}


class TestPlanting:
    def test_driver_correlation_matches_target(self):
        for seed in range(5):
            params = SynthParams(
                seed=seed, n_universities=40, n_areas=2, sds_per_area=2,
                planted_associations=(
                    PlantedAssociation("A01", "CI_share", "P", 0.7),
                ),
            )
            gt = generate_corpus(params).ground_truth
            entry = gt.planted_correlations[0]
            assert entry["r"] == 0.7
            assert entry["r_driver"] == pytest.approx(0.7, abs=0.02)

    def test_negative_target_supported(self):
        params = SynthParams(
            seed=6, n_universities=40, n_areas=2,
            planted_associations=(PlantedAssociation("A01", "CI_share", "P", -0.6),),
        )
        gt = generate_corpus(params).ground_truth
        assert gt.planted_correlations[0]["r_driver"] == pytest.approx(-0.6, abs=0.02)

    def test_ground_truth_file_contents(self, tmp_path):
        params = SynthParams(
            seed=8, n_universities=10, n_areas=2,
            planted_associations=(PlantedAssociation("A02", "DCI", "FP", 0.5),),
            staff_overrides={"U001": 7},
        )
        write_synthetic(generate_corpus(params), tmp_path)
        manifest = json.loads((tmp_path / "ground_truth.json").read_text())
        assert set(manifest) == {"planted_shares", "planted_correlations", "staff_overrides"}
        assert manifest["planted_correlations"][0]["area"] == "A02"
        assert manifest["planted_correlations"][0]["x"] == "DCI"
        assert manifest["staff_overrides"] == {"U001": 7}
        assert set(manifest["planted_shares"]) == {"A01", "A02"}


class TestParamValidation:
    def test_perfect_correlation_with_noise_rejected(self):
        params = SynthParams(
            n_universities=10,
            planted_associations=(
                PlantedAssociation("A01", "CI_share", "P", 1.0, noise=0.1),
            ),
        )
        with pytest.raises(SynthParamsError, match="perfect correlation"):
            generate_corpus(params)

    def test_out_of_range_target_rejected(self):
        params = SynthParams(
            n_universities=10,
            planted_associations=(PlantedAssociation("A01", "CI_share", "P", 1.4),),
        )
        with pytest.raises(SynthParamsError, match="outside"):
            generate_corpus(params)

    def test_bad_probability_rejected(self):
        params = SynthParams(collab_propensities=Propensities(foreign=1.3))
        with pytest.raises(SynthParamsError, match="probability"):
            generate_corpus(params)

    def test_unknown_planted_area_rejected(self):
        params = SynthParams(
            n_universities=10, n_areas=2,
            planted_associations=(PlantedAssociation("A09", "CI_share", "P", 0.5),),
        )
        with pytest.raises(SynthParamsError, match="does not exist"):
            generate_corpus(params)

    def test_quality_index_not_plantable(self):
        params = SynthParams(
            n_universities=10,
            planted_associations=(PlantedAssociation("A01", "CI_share", "QI", 0.5),),
        )
        with pytest.raises(SynthParamsError, match="y_indicator"):
            generate_corpus(params)

    def test_invalid_staff_range_rejected(self):
        with pytest.raises(SynthParamsError, match="staff_range"):
            generate_corpus(SynthParams(staff_range=(10, 4)))

    def test_planting_needs_enough_universities(self):
        params = SynthParams(
            n_universities=2,
            planted_associations=(PlantedAssociation("A01", "CI_share", "P", 0.5),),
        )
        with pytest.raises(SynthParamsError, match="at least 3"):
            generate_corpus(params)

    @pytest.mark.parametrize("overrides,message", [
        pytest.param({"n_areas": 0}, "n_areas must be at least 1, got 0", id="n_areas-0"),
        pytest.param({"productivity_spread": -0.1}, "productivity_spread must be non-negative",
                     id="productivity_spread-negative"),
        pytest.param({"if_lognormal": (0.0, -0.5)}, "if_lognormal sigma must be non-negative",
                     id="if_lognormal-sigma-negative"),
        pytest.param({"staff_overrides": {"U001": -1}},
                     "staff overrides must be non-negative integers, got -1",
                     id="staff_override-negative"),
        pytest.param({"planted_associations": (PlantedAssociation("A01", "CI_UNI", "P", 0.5),)},
                     "cannot plant x_metric 'CI_UNI'", id="x_metric-unplantable"),
        pytest.param({"planted_associations": (
            PlantedAssociation("A01", "FCI", "P", 0.5, noise=-0.1),
        )}, "noise must be non-negative, got -0.1", id="noise-negative"),
        pytest.param({"planted_associations": (
            PlantedAssociation("A01", "FCI", "P", 0.5), PlantedAssociation("A01", "DCI", "QP", 0.2),
        )}, "at most one planted association per area", id="two-associations-in-one-area"),
        pytest.param({"staff_range": (0, sys.maxsize)},
                     f"staff_range[1] must be below {sys.maxsize}, got {sys.maxsize}",
                     id="staff_range-maxsize"),
    ])
    def test_out_of_range_value_rejected(self, overrides, message):
        with pytest.raises(SynthParamsError, match=re.escape(message)):
            generate_corpus(SynthParams(seed=1, n_universities=3, **overrides))

    @pytest.mark.parametrize("overrides", [
        pytest.param({"collab_propensities": Propensities(foreign=1.0)}, id="propensity-1"),
        pytest.param({"staff_range": (3, 3)}, id="staff_range-one-size"),
        pytest.param({"if_lognormal": (0.0, 0.0)}, id="if_lognormal-sigma-0"),
        pytest.param({"if_lognormal": (-sys.float_info.max, 0.6)}, id="if_lognormal-lowest-mean"),
        *(pytest.param({"planted_associations": (PlantedAssociation("A01", "FCI", "P", r),)},
                       id=f"r{r:+}-noise-0") for r in (-1.0, 1.0)),
    ])
    def test_edge_value_generates_a_valid_corpus(self, overrides, tmp_path):
        corpus = generate_corpus(SynthParams(seed=1, n_universities=3, **overrides)).corpus
        paths = write_corpus(corpus, tmp_path)
        load_corpus(*paths.values(), CorpusConfig(period=corpus.period))

    @pytest.mark.parametrize("overrides,name", [
        pytest.param({"if_lognormal": (0.0, math.inf)}, "if_lognormal[1]", id="if_lognormal-inf"),
        pytest.param({"collab_variation": math.nan}, "collab_variation", id="collab_variation-nan"),
        pytest.param({"sector_if_spread": math.inf}, "sector_if_spread",
                     id="sector_if_spread-inf"),
        pytest.param({"pubs_per_staff_mean": math.nan}, "pubs_per_staff_mean",
                     id="pubs_per_staff_mean-nan"),
        pytest.param({"planted_associations": (
            PlantedAssociation("A01", "FCI", "P", 0.5, noise=math.nan),
        )}, "planted_associations[0].noise", id="noise-nan"),
    ])
    def test_non_finite_value_rejected(self, overrides, name):
        with pytest.raises(SynthParamsError, match=re.escape(name)):
            generate_corpus(SynthParams(seed=1, n_universities=3, **overrides))
