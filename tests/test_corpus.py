import dataclasses
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmetrics.corpus import (
    Attribution,
    Corpus,
    CorpusConfig,
    CorpusLoadError,
    CorpusValidationError,
    Organization,
    OrgClass,
    Publication,
    SectorMap,
    StaffRoster,
    classify_collaboration,
    load_corpus,
    validate_corpus,
    write_corpus,
)
from collabmetrics.synth import SynthParams, generate_corpus, write_synthetic

from oracles import make_random_corpus

CONFIG = CorpusConfig(home_country="IT", period=(2001, 2003))


def write_minimal_files(tmp_path, pub_lines=None):
    if pub_lines is None:
        pub_lines = [
            {
                "id": "p1",
                "year": 2001,
                "journal": "J1",
                "orgs": ["UA"],
                "attributions": [{"university": "UA", "sds": "S1"}],
            }
        ]
    paths = {
        "pubs": tmp_path / "publications.jsonl",
        "orgs": tmp_path / "organizations.csv",
        "journals": tmp_path / "journals.csv",
        "staff": tmp_path / "staff.csv",
        "sectors": tmp_path / "sectors.csv",
    }
    paths["pubs"].write_text(
        "".join(json.dumps(line) + "\n" for line in pub_lines), encoding="utf-8"
    )
    paths["orgs"].write_text(
        "org_id,name,class,country\n"
        "UA,University A,UNIV_DOMESTIC,IT\n"
        "UB,University B,UNIV_DOMESTIC,IT\n"
        "D1,Institute,DPR_DOMESTIC,IT\n"
        "E1,Enterprise,ENTERPRISE_DOMESTIC,IT\n"
        "F1,Foreign Lab,FOREIGN,US\n",
        encoding="utf-8",
    )
    paths["journals"].write_text(
        "journal_id,year,impact_factor\n"
        "J1,2001,2.5\nJ1,2002,2.4\nJ1,2003,2.6\n",
        encoding="utf-8",
    )
    paths["staff"].write_text(
        "university,sds,year,headcount\n"
        "UA,S1,2001,4\nUA,S1,2002,4\nUA,S1,2003,4\n",
        encoding="utf-8",
    )
    paths["sectors"].write_text("sds,area\nS1,A1\n", encoding="utf-8")
    return paths


def load_from(paths, **kwargs):
    return load_corpus(
        paths["pubs"], paths["orgs"], paths["journals"], paths["staff"],
        paths["sectors"], CONFIG, **kwargs,
    )


class TestLoad:
    def test_minimal_corpus(self, tmp_path):
        corpus = load_from(write_minimal_files(tmp_path))
        assert len(corpus.publications) == 1
        pub = corpus.publications[0]
        assert pub.org_ids == frozenset({"UA"})
        assert pub.attributions == (Attribution("UA", "S1"),)
        assert corpus.sectors.area_of("S1") == "A1"

    def test_empty_org_set_rejected(self, tmp_path):
        lines = [
            {
                "id": "p1",
                "year": 2001,
                "journal": "J1",
                "orgs": [],
                "attributions": [{"university": "UA", "sds": "S1"}],
            }
        ]
        with pytest.raises(CorpusLoadError, match="empty organization set"):
            load_from(write_minimal_files(tmp_path, pub_lines=lines))

    def test_duplicate_pub_id_rejected(self, tmp_path):
        line = {
            "id": "p1",
            "year": 2001,
            "journal": "J1",
            "orgs": ["UA"],
            "attributions": [{"university": "UA", "sds": "S1"}],
        }
        with pytest.raises(CorpusLoadError, match="duplicate publication id"):
            load_from(write_minimal_files(tmp_path, pub_lines=[line, line]))

    def test_year_outside_period_rejected(self, tmp_path):
        lines = [
            {
                "id": "p1",
                "year": 1999,
                "journal": "J1",
                "orgs": ["UA"],
                "attributions": [{"university": "UA", "sds": "S1"}],
            }
        ]
        with pytest.raises(CorpusLoadError, match="outside period"):
            load_from(write_minimal_files(tmp_path, pub_lines=lines))

    def test_unknown_org_class_rejected(self, tmp_path):
        paths = write_minimal_files(tmp_path)
        paths["orgs"].write_text(
            "org_id,name,class,country\nUA,University A,ACADEMY,IT\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusLoadError, match="unknown organization class"):
            load_from(paths)

    def test_foreign_class_country_mismatch_rejected(self, tmp_path):
        paths = write_minimal_files(tmp_path)
        paths["orgs"].write_text(
            "org_id,name,class,country\nUA,University A,UNIV_DOMESTIC,FR\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusLoadError, match="inconsistent with country"):
            load_from(paths)

    def test_malformed_json_reports_line(self, tmp_path):
        paths = write_minimal_files(tmp_path)
        paths["pubs"].write_text('{"id": "p1", \n', encoding="utf-8")
        with pytest.raises(CorpusLoadError, match="publications.jsonl:1"):
            load_from(paths)

    def test_file_changed_since_a_decoding_failure_named_without_line(
        self, tmp_path, monkeypatch
    ):
        paths = write_minimal_files(tmp_path)
        paths["orgs"].write_bytes(paths["orgs"].read_bytes().replace(b"Institute", b"\xff"))
        # the re-read that locates the bad byte finds a clean file
        monkeypatch.setattr(type(paths["orgs"]), "read_bytes", lambda self: b"")
        with pytest.raises(CorpusLoadError) as info:
            load_from(paths)
        assert str(info.value) == f"{paths['orgs']}: not valid UTF-8"

    def test_bad_header_rejected(self, tmp_path):
        paths = write_minimal_files(tmp_path)
        paths["staff"].write_text("univ,sds,year,n\n", encoding="utf-8")
        with pytest.raises(CorpusLoadError, match="expected header"):
            load_from(paths)

    def test_negative_headcount_rejected(self, tmp_path):
        paths = write_minimal_files(tmp_path)
        paths["staff"].write_text(
            "university,sds,year,headcount\nUA,S1,2001,-3\n", encoding="utf-8"
        )
        with pytest.raises(CorpusLoadError, match="negative headcount"):
            load_from(paths)

    def test_largest_float_headcount_loads(self, tmp_path):
        # the largest headcount whose period average is still a float
        head = int(sys.float_info.max)
        paths = write_minimal_files(tmp_path)
        paths["staff"].write_text(
            f"university,sds,year,headcount\nUA,S1,2001,{head}\n", encoding="utf-8"
        )
        assert load_from(paths).staff.entries == {("UA", "S1", 2001): head}

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_impact_factor_rejected(self, tmp_path, raw):
        paths = write_minimal_files(tmp_path)
        paths["journals"].write_text(
            f"journal_id,year,impact_factor\nJ1,2001,{raw}\n", encoding="utf-8"
        )
        with pytest.raises(CorpusLoadError, match="journals.csv:2: field 'impact_factor'"):
            load_from(paths)

    def test_dangling_reference_raises_on_checked_load(self, tmp_path):
        lines = [
            {
                "id": "p1",
                "year": 2001,
                "journal": "NOPE",
                "orgs": ["UA"],
                "attributions": [{"university": "UA", "sds": "S1"}],
            }
        ]
        with pytest.raises(CorpusValidationError, match="dangling journal_id"):
            load_from(write_minimal_files(tmp_path, pub_lines=lines))

    def test_load_is_deterministic(self, tmp_path):
        paths = write_minimal_files(tmp_path)
        assert load_from(paths) == load_from(paths)

    def test_lean_records(self, tmp_path):
        def line(pub_id, *pairs):
            return {"id": pub_id, "year": 2001, "journal": "J1", "orgs": ["UA", "UB"],
                    "attributions": [{"university": u, "sds": s} for u, s in pairs]}

        paths = write_minimal_files(tmp_path, pub_lines=[
            line("p1", ("UA", "S1")), line("p2", ("UB", "S1"), ("UA", "S1")),
            line("p3", ("UB", "S1")),
        ])
        corpus = load_from(paths, check=False)
        p1, p2, p3 = corpus.publications
        assert p1.attributions[0] is p2.attributions[1]
        assert p2.attributions[0] is p3.attributions[0]
        assert p1.attributions[0] is not p3.attributions[0]

        for record in (p1, p1.attributions[0], corpus.profiles[0]):
            assert not hasattr(record, "__dict__"), type(record).__name__
        moved = dataclasses.replace(p1, attributions=p3.attributions)
        assert moved.pub_id == "p1" and moved.attributions == (Attribution("UB", "S1"),)

    def test_equal_org_sets_share_one_set_and_profile(self, tmp_path):
        paths = write_minimal_files(tmp_path, pub_lines=[
            {**PUB_LINE, "id": "p1", "orgs": ["UA", "UB"]},
            {**PUB_LINE, "id": "p2", "orgs": ["UB", "UA"]},
            {**PUB_LINE, "id": "p3"},
        ])
        corpus = load_from(paths)
        p1, p2, p3 = corpus.publications
        assert p1.org_ids is p2.org_ids
        assert p3.org_ids == frozenset({"UA"})
        assert corpus.profiles[0] is corpus.profiles[1]
        assert corpus.profiles[2] is not corpus.profiles[0]
        assert corpus.profiles[2] == classify_collaboration(p3, corpus.organizations)

    def test_checked_load_checks_each_publication_once(self, tmp_path, monkeypatch):
        from collabmetrics import corpus as corpus_mod

        checked = []
        check = corpus_mod._check_publication
        monkeypatch.setattr(corpus_mod, "_check_publication",
                            lambda path, line, pub, *args: checked.append(pub.pub_id)
                            or check(path, line, pub, *args))
        paths = write_minimal_files(tmp_path, pub_lines=[
            {**PUB_LINE, "id": pub_id} for pub_id in ("p1", "p2", "p3")
        ])
        load_from(paths)
        assert checked == ["p1", "p2", "p3"]


class TestRoundTrip:
    def test_generator_output_loads_and_round_trips(self, tmp_path):
        result = generate_corpus(SynthParams(seed=42, n_universities=6, n_areas=2))
        first = tmp_path / "first"
        write_synthetic(result, first)

        config = CorpusConfig(
            home_country="IT",
            period=result.corpus.period,
        )
        corpus = load_corpus(
            first / "publications.jsonl", first / "organizations.csv",
            first / "journals.csv", first / "staff.csv", first / "sectors.csv",
            config,
        )
        assert validate_corpus(corpus).issues == ()

        second = tmp_path / "second"
        write_corpus(corpus, second)
        for name in ("publications.jsonl", "organizations.csv", "journals.csv",
                     "staff.csv", "sectors.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestValidate:
    def test_valid_minimal_corpus_has_empty_report(self, tmp_path):
        corpus = load_from(write_minimal_files(tmp_path))
        assert validate_corpus(corpus).issues == ()

    def test_attribution_without_roster_entry_warns(self, tmp_path):
        paths = write_minimal_files(tmp_path)
        paths["staff"].write_text(
            "university,sds,year,headcount\nUB,S1,2001,4\n", encoding="utf-8"
        )
        corpus = load_from(paths, check=False)
        report = validate_corpus(corpus)
        assert report.ok
        assert len(report.warnings) == 1
        assert "attribution without roster entry" in report.warnings[0].message

    def test_deleted_journal_row_yields_one_dangling_error(self, tmp_path):
        # one IF row per journal, so dropping a row orphans the journal
        result = generate_corpus(SynthParams(seed=3, n_universities=5, years=1))
        out = tmp_path / "data"
        write_synthetic(result, out)

        journal_file = out / "journals.csv"
        lines = journal_file.read_text(encoding="utf-8").splitlines()
        victim = lines[1].split(",")[0]
        journal_file.write_text("\n".join([lines[0]] + lines[2:]) + "\n", encoding="utf-8")

        config = CorpusConfig(home_country="IT", period=result.corpus.period)
        corpus = load_corpus(
            out / "publications.jsonl", out / "organizations.csv", journal_file,
            out / "staff.csv", out / "sectors.csv", config, check=False,
        )
        report = validate_corpus(corpus)
        dangling = [e for e in report.errors if "dangling journal_id" in e.message]
        assert len(report.errors) == len(dangling) == 1
        assert victim in dangling[0].location

    def test_infinite_impact_factors_of_both_signs_reported(self, tmp_path):
        corpus = load_from(write_minimal_files(tmp_path))
        corpus = dataclasses.replace(
            corpus, journals={"J1": {2001: float("inf"), 2002: float("-inf"), 2003: 2.6}},
            publications=(pub_with(), pub_with(pub_id="p2", year=2002)),
        )
        messages = [e.describe() for e in validate_corpus(corpus).errors]
        assert messages == [
            "[error] journals: sector 'S1', impact factor mean: -inf + inf in fsum",
        ]

    def test_directly_built_corpus_violations_located(self):
        corpus = Corpus(
            publications=(
                Publication("p1", 2001, "J9", frozenset({"UA", "GHOST"}),
                            (Attribution("UA", "S9"),)),
            ),
            organizations={
                "UA": Organization("UA", "Univ A", OrgClass.UNIV_DOMESTIC, "IT")
            },
            journals={"J1": {2001: 1.0}},
            staff=StaffRoster(entries={}),
            sectors=SectorMap(entries={"S1": "A1"}),
            period=(2001, 2003),
        )
        report = validate_corpus(corpus)
        messages = [e.message for e in report.errors]
        assert any("dangling journal_id" in m for m in messages)
        assert any("dangling org_id" in m for m in messages)
        assert any("dangling sds" in m for m in messages)

    def test_dangling_org_counted_per_publication_of_equal_sets(self, tmp_path):
        corpus = load_from(write_minimal_files(tmp_path))
        pubs = tuple(pub_with(pub_id=pub_id, org_ids=frozenset(["UA", "GHOST"]))
                     for pub_id in ("p1", "p2"))
        assert pubs[0].org_ids == pubs[1].org_ids and pubs[0].org_ids is not pubs[1].org_ids
        report = validate_corpus(dataclasses.replace(corpus, publications=pubs))
        assert [e.describe() for e in report.issues] == [
            "[error] organizations[GHOST]: dangling org_id referenced by 2 publication(s)"
        ]


PUB_LINE = {
    "id": "p1", "year": 2001, "journal": "J1", "orgs": ["UA"],
    "attributions": [{"university": "UA", "sds": "S1"}],
}
ATT = Attribution("UA", "S1")


def pub_with(**fields):
    return Publication(**{"pub_id": "p1", "year": 2001, "journal_id": "J1",
                          "org_ids": frozenset({"UA"}), "attributions": (ATT,), **fields})


# each record invariant: the faulty file (key, content), and the loader's
# error at its line
INVARIANT_FAULTS = {
    "class-country": (
        "orgs", "org_id,name,class,country\nUA,University A,UNIV_DOMESTIC,FR\n", 2,
        "field 'class': class UNIV_DOMESTIC inconsistent with country 'FR' (home country 'IT')",
    ),
    "impact-factor": (
        "journals", "journal_id,year,impact_factor\nJ1,2001,-1.5\n", 2,
        "field 'impact_factor': negative or non-finite impact factor -1.5 for year 2001",
    ),
    "headcount": (
        "staff", "university,sds,year,headcount\nUA,S1,2001,-3\n", 2,
        "field 'headcount': non-integer or negative headcount -3",
    ),
    "headcount-too-large": (
        "staff", f"university,sds,year,headcount\nUA,S1,2001,{10**400}\n", 2,
        "field 'headcount': headcount too large for a float",
    ),
    "staff-year": (
        "staff", "university,sds,year,headcount\nUA,S1,1999,4\n", 2,
        "field 'year': year 1999 outside period 2001-2003",
    ),
    "publication-id": (
        "pubs", [PUB_LINE, PUB_LINE], 2, "field 'id': duplicate publication id 'p1'",
    ),
    "publication-year": (
        "pubs", [{**PUB_LINE, "year": 1999}], 1,
        "field 'year': year 1999 outside period 2001-2003",
    ),
    "organization-set": (
        "pubs", [{**PUB_LINE, "orgs": []}], 1, "field 'orgs': empty organization set",
    ),
    "attribution-list": (
        "pubs", [{**PUB_LINE, "attributions": []}], 1,
        "field 'attributions': empty attribution list",
    ),
    "duplicate-attribution": (
        "pubs", [{**PUB_LINE, "attributions": PUB_LINE["attributions"] * 2}], 1,
        "field 'attributions': duplicate attribution (UA, S1)",
    ),
    "attributed-university": (
        "pubs", [{**PUB_LINE, "attributions": [{"university": "UB", "sds": "S1"}]}], 1,
        "field 'attributions': attributed university 'UB' missing from organization set",
    ),
}


@pytest.mark.parametrize("key,content,line,message", INVARIANT_FAULTS.values(),
                         ids=INVARIANT_FAULTS.keys())
def test_loader_and_validator_report_an_invariant_alike(tmp_path, key, content, line, message):
    """The loaders alone check each record invariant: the first broken record
    fails the load, unchecked too, at its file, line and field."""
    if key == "pubs":
        paths = write_minimal_files(tmp_path, pub_lines=content)
    else:
        paths = write_minimal_files(tmp_path)
        paths[key].write_text(content, encoding="utf-8")
    with pytest.raises(CorpusLoadError) as caught:
        load_from(paths, check=False)
    assert str(caught.value) == f"{paths[key]}:{line}: {message}"


def _json_error(line: str) -> str:
    """json.loads' own message for an undecodable line, on this interpreter."""
    with pytest.raises(json.JSONDecodeError) as caught:
        json.loads(line)
    return f"invalid JSON: {caught.value.msg}"


# each malformed second line (after a valid first one), and its load error
MALFORMED_LINES = {
    "bom": ("\ufeff" + json.dumps(PUB_LINE), None),  # None: json.loads' own message
    "trailing-data": (json.dumps(PUB_LINE) + " {}", None),
    "not-an-object": ("[1, 2]", "expected a JSON object"),
    "boolean-year": (json.dumps({**PUB_LINE, "year": True}), "field 'year': must be an integer"),
    "list-in-orgs": (json.dumps({**PUB_LINE, "orgs": ["UA", ["UB"]]}),
                     "field 'orgs': must be a list of strings"),
    "dict-in-orgs": (json.dumps({**PUB_LINE, "orgs": ["UA", {"UB": 1}]}),
                     "field 'orgs': must be a list of strings"),
    "duplicate-orgs": (json.dumps({**PUB_LINE, "orgs": ["UA", "UA"]}),
                       "field 'orgs': duplicate organization ids"),
    "attribution-not-an-object": (
        json.dumps({**PUB_LINE, "attributions": [["UA", "S1"]]}),
        "field 'attributions': each attribution needs string fields 'university' and 'sds'",
    ),
}


@pytest.mark.parametrize("line,message", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_malformed_publication_line_reported(tmp_path, line, message):
    paths = write_minimal_files(tmp_path)
    paths["pubs"].write_text(json.dumps({**PUB_LINE, "id": "p0"}) + "\n" + line + "\n",
                             encoding="utf-8")
    with pytest.raises(CorpusLoadError) as caught:
        load_from(paths, check=False)
    assert str(caught.value) == f"{paths['pubs']}:2: {message or _json_error(line)}"


def make_pub(org_ids, attributions=(("UA", "S1"),)):
    return Publication(
        pub_id="p",
        year=2001,
        journal_id="J1",
        org_ids=frozenset(org_ids),
        attributions=tuple(Attribution(u, s) for u, s in attributions),
    )


REGISTRY = {
    "UA": Organization("UA", "University A", OrgClass.UNIV_DOMESTIC, "IT"),
    "UB": Organization("UB", "University B", OrgClass.UNIV_DOMESTIC, "IT"),
    "D1": Organization("D1", "Institute", OrgClass.DPR_DOMESTIC, "IT"),
    "E1": Organization("E1", "Enterprise", OrgClass.ENTERPRISE_DOMESTIC, "IT"),
    "F1": Organization("F1", "Foreign Lab", OrgClass.FOREIGN, "US"),
}


class TestClassify:
    def test_single_organization_article(self):
        profile = classify_collaboration(make_pub({"UA"}), REGISTRY)
        assert not profile.is_extramural
        assert not profile.has_dpr
        assert not profile.has_foreign
        assert not profile.has_domestic_enterprise
        assert not profile.has_other_university

    def test_foreign_partner(self):
        profile = classify_collaboration(make_pub({"UA", "F1"}), REGISTRY)
        assert profile.is_extramural
        assert profile.has_foreign
        assert not profile.has_dpr
        assert not profile.has_domestic_enterprise
        assert not profile.has_other_university

    def test_viewpoint_dependence(self):
        profile = classify_collaboration(make_pub({"UA", "UB", "E1"}), REGISTRY)
        assert profile.has_other_university
        assert profile.has_domestic_enterprise
        assert not profile.has_foreign

    @given(
        st.sets(st.sampled_from(sorted(REGISTRY)), min_size=1).filter(
            lambda s: "UA" in s
        ),
        st.sampled_from(["UB", "D1", "E1", "F1"]),
    )
    @settings(max_examples=50)
    def test_flags_monotone_under_added_organization(self, org_ids, extra):
        before = classify_collaboration(make_pub(org_ids), REGISTRY)
        after = classify_collaboration(make_pub(org_ids | {extra}), REGISTRY)
        assert after.is_extramural >= before.is_extramural
        assert after.has_dpr >= before.has_dpr
        assert after.has_foreign >= before.has_foreign
        assert after.has_domestic_enterprise >= before.has_domestic_enterprise
        assert after.has_other_university >= before.has_other_university

    @given(
        st.sets(st.sampled_from(sorted(REGISTRY)), min_size=1).filter(
            lambda s: "UA" in s
        )
    )
    @settings(max_examples=50)
    def test_intramural_iff_every_flag_false(self, org_ids):
        profile = classify_collaboration(make_pub(org_ids), REGISTRY)
        any_flag = (
            profile.has_dpr
            or profile.has_foreign
            or profile.has_domestic_enterprise
            or profile.has_other_university
        )
        assert profile.is_extramural == any_flag


class TestRandomCorpora:
    def test_random_corpora_have_no_validation_errors(self, tmp_path):
        rng = random.Random(99)
        for i in range(15):
            corpus = make_random_corpus(rng)
            paths = write_corpus(corpus, tmp_path / str(i))
            config = CorpusConfig(home_country="IT", period=corpus.period)
            load_corpus(*paths.values(), config)  # the loaders check each record
