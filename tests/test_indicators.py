import math
import random

import numpy as np
import pytest

from collabmetrics.corpus import (
    Attribution,
    Corpus,
    Organization,
    OrgClass,
    Publication,
    SectorMap,
    StaffRoster,
)
from collabmetrics.indicators import (
    compute_indicators,
    fractional_contribution,
)

from oracles import close_or_both_none, make_random_corpus, naive_indicator_oracle

ORGS = {
    "UA": Organization("UA", "University A", OrgClass.UNIV_DOMESTIC, "IT"),
    "UB": Organization("UB", "University B", OrgClass.UNIV_DOMESTIC, "IT"),
    "D1": Organization("D1", "Institute", OrgClass.DPR_DOMESTIC, "IT"),
    "E1": Organization("E1", "Enterprise", OrgClass.ENTERPRISE_DOMESTIC, "IT"),
    "F1": Organization("F1", "Foreign Lab", OrgClass.FOREIGN, "US"),
}


def build_corpus(publications, journals, staff=None, sectors=None, period=(2001, 2003)):
    return Corpus(
        publications=tuple(publications),
        organizations=ORGS,
        journals=journals,
        staff=StaffRoster(entries=staff or {}),
        sectors=SectorMap(entries=sectors or {"S1": "A1"}),
        period=period,
    )


def pub(pid, journal, orgs, atts=(("UA", "S1"),), year=2001):
    return Publication(
        pub_id=pid,
        year=year,
        journal_id=journal,
        org_ids=frozenset(orgs),
        attributions=tuple(Attribution(u, s) for u, s in atts),
    )


class TestFractionalContribution:
    def test_single_organization(self):
        assert fractional_contribution(pub("p", "J1", {"UA"})) == 1.0

    def test_two_organizations(self):
        assert fractional_contribution(pub("p", "J1", {"UA", "UB"})) == 0.5

    def test_four_organizations(self):
        assert fractional_contribution(pub("p", "J1", {"UA", "D1", "E1", "F1"})) == 0.25

    def test_contributions_sum_to_one_over_all_organizations(self):
        for k in range(1, 12):
            orgs = {f"X{i}" for i in range(k)}
            p = pub("p", "J1", orgs)
            total = math.fsum(fractional_contribution(p) for _ in orgs)
            assert total == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2, 4, 8):  # power-of-two counts are exact
            p = pub("p", "J1", {f"X{i}" for i in range(k)})
            assert math.fsum(fractional_contribution(p) for _ in range(k)) == 1.0


class TestNormalizedImpactFactor:
    def test_single_journal_self_normalizes(self):
        journals = {"J1": {2001: 3.0}}
        corpus = build_corpus(
            [pub(f"p{i}", "J1", {"UA"}) for i in range(5)], journals
        )
        nif = corpus.normalized_ifs["S1"]
        assert nif[("J1", 2001)] == pytest.approx(1.0)

    def test_two_journals_forced_values(self):
        journals = {
            "J1": {2001: 1.0},
            "J2": {2001: 3.0},
        }
        corpus = build_corpus(
            [pub("p1", "J1", {"UA"}), pub("p2", "J2", {"UA"})], journals
        )
        nif = corpus.normalized_ifs["S1"]
        assert nif[("J1", 2001)] == pytest.approx(0.5)
        assert nif[("J2", 2001)] == pytest.approx(1.5)

    def test_lognormal_sector_mean_is_one(self):
        rng = np.random.default_rng(17)
        journals = {}
        pubs = []
        for i in range(100):
            jid = f"J{i}"
            journals[jid] = {2001: float(rng.lognormal(0.2, 0.8))}
            pubs.append(pub(f"p{i}", jid, {"UA"}))
        corpus = build_corpus(pubs, journals)
        nif = corpus.normalized_ifs["S1"]
        mean = math.fsum(
            nif[(p.journal_id, p.year)] for p in corpus.publications
        ) / len(corpus.publications)
        assert abs(mean - 1.0) <= 1e-9

    def test_empty_sector_gives_empty_map(self):
        corpus = build_corpus([], {"J1": {2001: 1.0}})
        assert corpus.normalized_ifs == {}


def hand_worked_corpus():
    """Two publications of UA (normalized IFs 1.0 and 2.0) plus two filler
    publications of UB holding the sector mean at 1.5."""
    journals = {
        "JA": {2001: 1.5},
        "JB": {2001: 3.0},
        "JC": {2001: 0.75},
    }
    staff = {("UA", "S1"): dict.fromkeys((2001, 2002, 2003), 4),
             ("UB", "S1"): dict.fromkeys((2001, 2002, 2003), 2)}
    return build_corpus(
        [
            pub("p1", "JA", {"UA"}),
            pub("p2", "JB", {"UA", "F1"}),
            pub("p3", "JC", {"UB"}, atts=(("UB", "S1"),)),
            pub("p4", "JC", {"UB"}, atts=(("UB", "S1"),)),
        ],
        journals,
        staff=staff,
    )


class TestComputeIndicators:
    def test_hand_worked_cell(self):
        records = {(r.university, r.sds): r for r in compute_indicators(hand_worked_corpus())}
        rec = records[("UA", "S1")]
        assert rec.O == 2
        assert rec.FO == pytest.approx(1.5, abs=1e-12)
        assert rec.SS == pytest.approx(3.0, abs=1e-12)
        assert rec.FSS == pytest.approx(2.0, abs=1e-12)
        assert rec.QI == pytest.approx(1.5, abs=1e-12)
        assert rec.staff == pytest.approx(4.0)
        assert rec.P == pytest.approx(0.5, abs=1e-12)
        assert rec.QP == pytest.approx(0.75, abs=1e-12)
        assert rec.CI_ratio == pytest.approx(4 / 3, abs=1e-12)
        assert rec.CI_share == pytest.approx(0.5)
        assert rec.FCI == pytest.approx(0.5)
        assert rec.DCI == 0.0

    def test_intramural_limit(self):
        journals = {"J1": {2001: 2.0}}
        corpus = build_corpus(
            [pub(f"p{i}", "J1", {"UA"}) for i in range(4)],
            journals,
            staff={("UA", "S1"): {2001: 3}},
        )
        rec = compute_indicators(corpus)[0]
        assert rec.FO == rec.O
        assert rec.FSS == rec.SS
        assert rec.CI_ratio == pytest.approx(1.0)
        assert rec.CI_share == rec.CI_UNI == rec.CI_DPR == rec.FCI == rec.DCI == 0.0

    def test_empty_cell_with_staff(self):
        journals = {"J1": {2001: 1.0}}
        staff = {("UB", "S1"): dict.fromkeys((2001, 2002, 2003), 5)}
        corpus = build_corpus([pub("p1", "J1", {"UA"})], journals, staff=staff)
        records = {(r.university, r.sds): r for r in compute_indicators(corpus)}
        rec = records[("UB", "S1")]
        assert rec.O == 0
        assert rec.FO == rec.SS == rec.FSS == 0.0
        assert rec.QI is None
        assert rec.P == 0.0
        assert rec.CI_share is None
        assert rec.CI_ratio is None

    def test_zero_staff_with_output_leaves_productivity_undefined(self):
        journals = {"J1": {2001: 1.0}}
        corpus = build_corpus([pub("p1", "J1", {"UA"})], journals)
        rec = compute_indicators(corpus)[0]
        assert rec.O == 1
        assert rec.staff == 0.0
        assert rec.P is None and rec.FP is None and rec.QP is None and rec.FQP is None
        assert rec.CI_share == 0.0

    def test_staff_mean_counts_missing_years_as_zero(self):
        journals = {"J1": {2001: 1.0}}
        staff = {("UA", "S1"): {2001: 6}}  # one of three years
        corpus = build_corpus([pub("p1", "J1", {"UA"})], journals, staff=staff)
        rec = compute_indicators(corpus)[0]
        assert rec.staff == pytest.approx(2.0)

    def test_permutation_invariance_is_exact(self):
        rng = random.Random(4)
        corpus = make_random_corpus(rng)
        shuffled = list(corpus.publications)
        rng.shuffle(shuffled)
        permuted = Corpus(
            publications=tuple(shuffled),
            organizations=corpus.organizations,
            journals=corpus.journals,
            staff=corpus.staff,
            sectors=corpus.sectors,
            period=corpus.period,
        )
        assert compute_indicators(corpus) == compute_indicators(permuted)

    def test_scale_invariance_power_of_two_is_exact(self):
        corpus = hand_worked_corpus()
        scaled_journals = {
            jid: {y: 4.0 * v for y, v in j.items()}
            for jid, j in corpus.journals.items()
        }
        scaled = build_corpus(corpus.publications, scaled_journals,
                              staff=dict(corpus.staff.entries))
        assert compute_indicators(corpus) == compute_indicators(scaled)

    def test_university_only_corpora_have_zero_fci_dci(self):
        rng = random.Random(12)
        for _ in range(10):
            corpus = make_random_corpus(rng, max_pubs=25)
            stripped = []
            for p in corpus.publications:
                kept = {
                    oid for oid in p.org_ids
                    if corpus.organizations[oid].org_class is OrgClass.UNIV_DOMESTIC
                }
                stripped.append(
                    Publication(p.pub_id, p.year, p.journal_id, frozenset(kept),
                                p.attributions)
                )
            reduced = Corpus(
                publications=tuple(stripped),
                organizations=corpus.organizations,
                journals=corpus.journals,
                staff=corpus.staff,
                sectors=corpus.sectors,
                period=corpus.period,
            )
            for rec in compute_indicators(reduced):
                if rec.O > 0:
                    assert rec.FCI == 0.0
                    assert rec.DCI == 0.0

    def test_invariant_bounds_on_random_corpora(self):
        rng = random.Random(2024)
        for _ in range(20):
            corpus = make_random_corpus(rng)
            for rec in compute_indicators(corpus):
                assert rec.FO <= rec.O + 1e-12
                assert rec.FSS <= rec.SS + 1e-12
                if rec.CI_ratio is not None:
                    assert rec.CI_ratio >= 1.0 - 1e-12
                for name in ("CI_share", "CI_UNI", "CI_DPR", "FCI", "DCI"):
                    value = getattr(rec, name)
                    if value is not None:
                        assert 0.0 <= value <= 1.0
                if rec.CI_share is not None:
                    # any class collaboration implies an extramural article
                    assert rec.CI_share >= max(
                        rec.CI_UNI, rec.CI_DPR, rec.FCI, rec.DCI
                    )


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        from collabmetrics.indicators import read_indicators_csv, write_indicators_csv

        rng = random.Random(77)
        corpus = make_random_corpus(rng)
        records = compute_indicators(corpus)
        path = tmp_path / "indicators.csv"
        write_indicators_csv(records, corpus.sectors, path)
        loaded, sectors = read_indicators_csv(path)
        assert loaded == records
        assert all(
            sectors.area_of(r.sds) == corpus.sectors.area_of(r.sds) for r in records
        )


class TestOracleEquivalence:
    def test_matches_naive_enumeration(self):
        rng = random.Random(31337)
        fields = ("O", "FO", "SS", "FSS", "QI", "staff", "P", "FP", "QP", "FQP",
                  "CI_ratio", "CI_share", "CI_UNI", "CI_DPR", "FCI", "DCI")
        for _ in range(30):
            corpus = make_random_corpus(rng)
            expected = naive_indicator_oracle(corpus)
            records = compute_indicators(corpus)
            assert {(r.university, r.sds) for r in records} == set(expected)
            for rec in records:
                want = expected[(rec.university, rec.sds)]
                assert rec.O == want["O"]
                for name in fields:
                    assert close_or_both_none(getattr(rec, name), want[name]), (
                        rec.university, rec.sds, name, getattr(rec, name), want[name]
                    )
