import functools
import gc
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from collabmetrics.cli import cli
from collabmetrics.synth import (
    MAX_STAFF_ROWS, SynthParams, SynthParamsError, _check_params, generate_corpus, write_synthetic,
)
from golden.update import INPUT as GOLDEN_INPUT

PIPELINE_OUTPUTS = (
    "indicators.csv",
    "aggregates.csv",
    "crosstab.csv",
    "area_profile.csv",
    "dispersion.csv",
    "top_sectors_fci.csv",
    "top_sectors_dci.csv",
    "correlation_ci.csv",
    "correlation_fci.csv",
    "correlation_dci.csv",
    "run_manifest.json",
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    write_synthetic(generate_corpus(SynthParams(seed=42, n_universities=8)), out)
    return out


# one staff member and one publication per cell: 2 publications per sector
TWO_PUBLICATION_SECTORS = SynthParams(
    seed=42, n_universities=2, productivity_spread=0.0, pubs_per_staff_mean=1.0,
    staff_overrides={"U001": 1, "U002": 1},
)


def corpus_args(data_dir):
    return [
        "--pubs", str(data_dir / "publications.jsonl"),
        "--orgs", str(data_dir / "organizations.csv"),
        "--journals", str(data_dir / "journals.csv"),
        "--staff", str(data_dir / "staff.csv"),
        "--sectors", str(data_dir / "sectors.csv"),
    ]


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def snapshot(root):
    """Every path under ``root`` with a file's bytes (None for a directory)."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def assert_clean_failure(result):
    """Exit 1 through the CLI's own error path: one error line, no traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.output.count("error:") == 1, result.output
    assert "Traceback" not in result.output


class TestValidateCommand:
    def test_clean_corpus_exits_zero(self, runner, data_dir):
        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert result.exit_code == 0, result.output
        assert "0 error(s)" in result.output

    def test_dangling_reference_exits_nonzero_and_names_it(self, runner, data_dir):
        journal_file = data_dir / "journals.csv"
        lines = journal_file.read_text().splitlines()
        victim = lines[1].split(",")[0]
        kept = [lines[0]] + [l for l in lines[1:] if not l.startswith(victim + ",")]
        journal_file.write_text("\n".join(kept) + "\n")

        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert result.exit_code == 1
        assert "dangling journal_id" in result.output
        assert victim in result.output

    def test_roster_university_not_a_domestic_university_is_an_error(
        self, runner, data_dir, tmp_path
    ):
        with open(data_dir / "staff.csv", "a", encoding="utf-8") as fh:
            fh.write("U9X9,A01S01,2001,40\nDPR01,A01S01,2003,40\nDPR01,A01S02,2003,1\n")
        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert result.exit_code == 1
        assert result.stdout.splitlines()[:2] == [
            "[error] organizations[U9X9]: dangling university id in 1 roster sector(s)",
            "[error] organizations[DPR01]: university in 2 roster sector(s) has class "
            "DPR_DOMESTIC",
        ]
        assert result.stdout.splitlines()[-1].startswith("2 error(s), 0 warning(s)")

        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
        assert_clean_failure(result)
        assert "organizations[U9X9]: dangling university id" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("impact,message", [
        pytest.param("0.0", "sector 'A01S01': all impact factors are zero, normalization "
                     "undefined", id="zero"),
        pytest.param("1e308", "sector 'A01S01', impact factor mean: intermediate overflow "
                     "in fsum", id="1e308"),
    ])
    def test_unusable_sector_impact_factors_are_an_error(self, runner, data_dir, impact, message):
        path = data_dir / "journals.csv"
        path.write_text("".join(
            line.rsplit(",", 1)[0] + f",{impact}\n" if line.startswith("A01S01") else line
            for line in path.read_text().splitlines(keepends=True)
        ))
        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert lines[0] == f"[error] journals: {message}"
        assert lines[-1].startswith("1 error(s), 0 warning(s)")

    def test_malformed_file_reports_location(self, runner, data_dir):
        (data_dir / "publications.jsonl").write_text("{broken\n")
        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert result.exit_code == 1
        assert "publications.jsonl:1" in result.output

    @pytest.mark.parametrize("name,line", [
        ("organizations.csv", 3), ("publications.jsonl", 2),
    ])
    def test_non_utf8_file_reports_location(self, runner, data_dir, name, line):
        path = data_dir / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].replace(b",", b"\xff,", 1)
        path.write_bytes(b"".join(lines))
        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert_clean_failure(result)
        assert f"{name}:{line}: not valid UTF-8" in result.output

    def test_oversized_csv_field_reports_location(self, runner, data_dir):
        path = data_dir / "organizations.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",", "," + "x" * 131073, 1)
        path.write_text("".join(lines))
        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert_clean_failure(result)
        assert "organizations.csv:3: field larger than field limit (131072)" in result.output

    @pytest.mark.parametrize("value,message", [
        pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deep-nesting"),
        pytest.param('{"year": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)",
                     id="long-integer"),
    ])
    def test_undecodable_json_reports_location(self, runner, data_dir, value, message):
        path = data_dir / "publications.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = value + "\n"
        path.write_text("".join(lines))
        result = runner.invoke(cli, ["validate"] + corpus_args(data_dir))
        assert_clean_failure(result)
        assert f"publications.jsonl:2: invalid JSON: {message}" in result.output

    def test_dangling_orgs_reported_alike_under_any_hash_seed(self, data_dir):
        import collabmetrics

        orgs = data_dir / "organizations.csv"
        header, *rows = orgs.read_text().splitlines(keepends=True)
        orgs.write_text(header + "".join(r for r in rows if ",UNIV_DOMESTIC," in r))
        src = str(Path(collabmetrics.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "collabmetrics.cli", "validate"] + corpus_args(data_dir),
                env=dict(os.environ, PYTHONHASHSEED=seed,
                         PYTHONPATH=src + (os.pathsep + path if path else "")),
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 1, proc.stderr
            outputs.append(proc.stdout)
        assert "dangling org_id referenced by" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_every_reference_fault_reported_in_order(self, runner, tmp_path):
        def pub(pub_id, orgs, atts, journal="J1", year=2001):
            return json.dumps({"id": pub_id, "year": year, "journal": journal, "orgs": orgs,
                               "attributions": [{"university": u, "sds": s} for u, s in atts]})

        files = {
            "publications.jsonl": [
                pub("p1", ["UA"], [("UA", "S1")]),
                pub("p2", ["UA"], [("UA", "S1")], journal="J9"),
                pub("p3", ["UA", "GHOST"], [("UA", "S1")]),
                pub("p4", ["UZ"], [("UZ", "S1")]),
                pub("p5", ["UA"], [("UA", "S9")]),
                pub("p6", ["UA"], [("UA", "S1")], journal="J2", year=2003),
                pub("p7", ["UA", "UB"], [("UA", "S1"), ("UB", "S1")]),
                pub("p8", ["UA", "D1"], [("D1", "S1")]),
                pub("p10", ["UA", "GHOST"], [("UA", "S1")]),
            ],
            "organizations.csv": ["org_id,name,class,country", "UA,A,UNIV_DOMESTIC,IT",
                                  "UB,B,UNIV_DOMESTIC,IT", "D1,D,DPR_DOMESTIC,IT"],
            "journals.csv": ["journal_id,year,impact_factor", "J1,2001,2.5", "J2,2001,1.0"],
            "staff.csv": ["university,sds,year,headcount", "UA,S1,2001,4", "UA,S8,2001,1",
                          "UA,S8,2002,1"],
            "sectors.csv": ["sds,area", "S1,A1"],
        }
        for name, lines in files.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        result = runner.invoke(cli, ["validate"] + corpus_args(tmp_path))
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "[error] journals[J9]: dangling journal_id referenced by 1 publication(s)",
            "[error] organizations[GHOST]: dangling org_id referenced by 2 publication(s)",
            "[error] organizations[UZ]: dangling org_id referenced by 1 publication(s)",
            "[error] organizations[UZ]: dangling university id in 1 attribution(s)",
            "[error] organizations[D1]: university in 1 attribution(s) has class DPR_DOMESTIC",
            "[error] sectors[S8]: dangling sds referenced by 2 record(s)",
            "[error] sectors[S9]: dangling sds referenced by 1 record(s)",
            "[error] journals[J2]: missing impact factor for year 2003 (1 publication(s))",
            "[warning] staff[D1,S1]: attribution without roster entry (1 publication(s))",
            "[warning] staff[UB,S1]: attribution without roster entry (1 publication(s))",
            "[warning] staff[UZ,S1]: attribution without roster entry (1 publication(s))",
            "8 error(s), 3 warning(s) in 9 publication(s)",
        ]

    def test_wrongly_classed_attribution_reported_once_per_organization(self, runner, tmp_path):
        pubs = [{"id": f"p{i}", "year": 2001, "journal": "J1", "orgs": ["UA", "D1"],
                 "attributions": [{"university": "D1", "sds": "S1"}]} for i in (1, 2)]
        files = {
            "publications.jsonl": [json.dumps(pub) for pub in pubs],
            "organizations.csv": ["org_id,name,class,country", "UA,A,UNIV_DOMESTIC,IT",
                                  "D1,D,DPR_DOMESTIC,IT"],
            "journals.csv": ["journal_id,year,impact_factor", "J1,2001,2.5"],
            "staff.csv": ["university,sds,year,headcount", "D1,S1,2001,4"],
            "sectors.csv": ["sds,area", "S1,A1"],
        }
        for name, lines in files.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        result = runner.invoke(cli, ["validate"] + corpus_args(tmp_path))
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "[error] organizations[D1]: university in 2 attribution(s) has class DPR_DOMESTIC",
            "1 error(s), 0 warning(s) in 2 publication(s)",
        ]

    def test_bad_period_rejected(self, runner, data_dir):
        for period in ("soon", "2003-2001"):
            result = runner.invoke(
                cli, ["validate"] + corpus_args(data_dir) + ["--period", period]
            )
            assert result.exit_code == 2
            assert "YYYY" in result.output


def _replace(lineno: int, line: str):
    """An edit of a file's lines that replaces line ``lineno`` (1-based)."""
    return lambda lines: lines[:lineno - 1] + [line] + lines[lineno:]


def _repeat(lineno: int):
    """An edit that repeats line ``lineno`` right after it."""
    return lambda lines: lines[:lineno] + lines[lineno - 1:]


def _first_publication(**changes):
    """An edit of the first publication line: a None value drops the field."""
    def edit(lines):
        obj = {**json.loads(lines[0]), **changes}
        return [json.dumps({k: v for k, v in obj.items() if v is not None})] + lines[1:]
    return edit


# each rejection of a loader, on the golden corpus or its indicators.csv:
# (file, edit of its lines, line, message)
LOADER_REJECTIONS = {
    "missing-header": ("organizations.csv", lambda lines: [], 1, "missing header row"),
    "field-count": ("staff.csv", _replace(2, "U001,A01S01,2001,2,7"), 2,
                    "expected 4 fields, got 5"),
    "not-an-integer": ("staff.csv", _replace(2, "U001,A01S01,20x1,2"), 2,
                       "field 'year': not an integer: '20x1'"),
    "empty-org_id": ("organizations.csv", _replace(2, ",Nameless,DPR_DOMESTIC,IT"), 2,
                     "field 'org_id': empty org_id"),
    "duplicate-org_id": ("organizations.csv", _repeat(2), 3,
                         "field 'org_id': duplicate org_id 'DPR01'"),
    "empty-journal_id": ("journals.csv", _replace(2, ",2001,0.4011"), 2,
                         "field 'journal_id': empty journal_id"),
    "impact-not-a-number": ("journals.csv", _replace(2, "A01S01J1,2001,high"), 2,
                            "field 'impact_factor': not a number: 'high'"),
    # a duplicate only once the year is parsed
    "duplicate-journal-year": ("journals.csv",
                               lambda lines: lines[:2] + ["A01S01J1,02001,0.5"] + lines[2:], 3,
                               "duplicate row for journal 'A01S01J1' year 2001"),
    "duplicate-staff-row": ("staff.csv", _repeat(2), 3,
                            "duplicate staff row for U001/A01S01/2001"),
    "empty-sds": ("sectors.csv", _replace(2, ",A01"), 2, "field 'sds': empty sds"),
    "duplicate-sds": ("sectors.csv", _repeat(2), 3, "field 'sds': duplicate sds 'A01S01'"),
    "empty-area": ("sectors.csv", _replace(2, "A01S01,"), 2, "field 'area': empty area"),
    "missing-field": ("publications.jsonl", _first_publication(journal=None), 1,
                      "field 'journal': missing field"),
    "empty-id": ("publications.jsonl", _first_publication(id=""), 1,
                 "field 'id': must be a non-empty string"),
    "journal-not-a-string": ("publications.jsonl", _first_publication(journal=7), 1,
                             "field 'journal': must be a non-empty string"),
    "orgs-not-a-list": ("publications.jsonl", _first_publication(orgs="U001"), 1,
                        "field 'orgs': must be a list of strings"),
    "attributions-not-a-list": ("publications.jsonl",
                                _first_publication(attributions={"university": "U001"}), 1,
                                "field 'attributions': must be a list"),
    "sds-in-two-areas": ("indicators.csv",
                         # a new university's copy of the first row, in another area
                         lambda lines: lines[:2] + [lines[1].replace("U001,A01S01,A01,",
                                                                     "U999,A01S01,A99,")]
                         + lines[2:], 3,
                         "field 'area': sds 'A01S01' mapped to both 'A01' and 'A99'"),
    # a quoted field over two lines: each later row is named by its first line
    "after-two-line-name": ("organizations.csv",
                            lambda lines: [lines[0], 'DPR01,"Research\nInstitution 1",'
                                           "DPR_DOMESTIC,IT", *lines[2:4],
                                           "DPR04,Research Institution 4,BOGUS,IT", *lines[5:]],
                            6, "field 'class': unknown organization class 'BOGUS'"),
    "stage-row-after-two-line-university": ("indicators.csv",
                                            lambda lines: [lines[0], '"U0\n01"' + lines[1][4:],
                                                           lines[2], *lines[2:]], 5,
                                            "duplicate row for U001/A01S02"),
}


def _hide_from_exists(monkeypatch, path):
    """Make ``Path.exists`` report ``path`` absent: a run that checked before another made it."""
    exists = Path.exists
    monkeypatch.setattr(Path, "exists", lambda self, *args, **kw: (
        self != path and exists(self, *args, **kw)))


def _golden_copy(tmp_path, name="corpus"):
    corpus = tmp_path / name
    shutil.copytree(GOLDEN_INPUT, corpus)
    return corpus


class TestLoaderRejections:
    @pytest.mark.parametrize("name,edit,line,message", LOADER_REJECTIONS.values(),
                             ids=LOADER_REJECTIONS.keys())
    def test_rejection_names_file_line_and_field(self, runner, tmp_path, name, edit, line,
                                                 message):
        corpus = _golden_copy(tmp_path)
        if name == "indicators.csv":
            staged = tmp_path / "staged"
            result = runner.invoke(cli, ["indicators"] + corpus_args(corpus)
                                   + ["--out", str(staged)])
            assert result.exit_code == 0, result.output
            path = staged / name
            argv = ["aggregate", "--indicators", str(path), "--out", str(tmp_path / "out")]
        else:
            path = corpus / name
            argv = ["validate"] + corpus_args(corpus)
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("".join(row + "\n" for row in lines), encoding="utf-8")
        result = runner.invoke(cli, argv)
        assert_clean_failure(result)
        assert result.stderr == f"error: {path}:{line}: {message}\n"

    def test_blank_lines_skipped(self, runner, tmp_path):
        blank = _golden_copy(tmp_path, "blank")
        for name in ("staff.csv", "publications.jsonl"):
            first, *rest = (blank / name).read_text(encoding="utf-8").splitlines(keepends=True)
            (blank / name).write_text("".join([first, "\n", *rest, "\n"]), encoding="utf-8")
        runs = []
        for corpus in (_golden_copy(tmp_path), blank):
            out = tmp_path / f"out-{corpus.name}"
            result = runner.invoke(cli, ["all"] + corpus_args(corpus) + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            tree = read_tree(out)
            del tree["run_manifest.json"]  # it holds the input digests
            runs.append((tree, result.output.replace(str(out), "OUT")))
        assert runs[0] == runs[1]


# the keys an impact factor beyond the largest float names
IMPACT_FACTOR_KEYS = "error: if_lognormal and sector_if_spread give journal"
CELL_SIZE_KEYS = "error: pubs_per_staff_mean and productivity_spread give U001/"
STAFF_ROWS_KEYS = "error: n_universities * n_areas * sds_per_area * years gives"


class TestSynthCommand:
    def test_writes_corpus_and_ground_truth(self, runner, tmp_path):
        out = tmp_path / "synth"
        result = runner.invoke(cli, ["synth", "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        for name in ("publications.jsonl", "organizations.csv", "journals.csv",
                     "staff.csv", "sectors.csv", "ground_truth.json",
                     "run_manifest.json"):
            assert (out / name).exists(), name

    def test_params_file(self, runner, tmp_path):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({
            "n_universities": 4,
            "n_areas": 1,
            "sds_per_area": 1,
            "staff_range": [5, 9],
            "collab_propensities": {"foreign": 0.5, "dpr": 0.0,
                                    "enterprise": 0.0, "other_university": 0.0},
            "planted_associations": [
                {"area": "A01", "x_metric": "CI_share", "y_indicator": "P", "r": 0.5}
            ],
        }))
        out = tmp_path / "synth"
        result = runner.invoke(
            cli, ["synth", "--seed", "5", "--params", str(params_file), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        truth = json.loads((out / "ground_truth.json").read_text())
        assert truth["planted_correlations"][0]["r"] == 0.5

    # before the huge-size cases below: without the cap they would not end
    def test_staff_row_cap_is_inclusive(self):
        one = dict(n_universities=1, n_areas=1, sds_per_area=1)
        _check_params(SynthParams(**one, years=MAX_STAFF_ROWS))
        message = f"gives {MAX_STAFF_ROWS + 1} staff rows, above {MAX_STAFF_ROWS}$"
        with pytest.raises(SynthParamsError, match=message):
            _check_params(SynthParams(**one, years=MAX_STAFF_ROWS + 1))

    @pytest.mark.parametrize("content,name", [
        pytest.param(json.dumps({"staff_range": [9, 2]}).encode(), "staff_range",
                     id="staff_range-reversed"),
        pytest.param(b'{"staff_range": [1]}', "staff_range", id="staff_range-single"),
        pytest.param(b'{"if_lognormal": [0]}', "if_lognormal", id="if_lognormal-single"),
        pytest.param(b'{"area_propensity_overrides": []}', "area_propensity_overrides",
                     id="area_propensity_overrides-list"),
        pytest.param(b'{"staff_overrides": []}', "staff_overrides", id="staff_overrides-list"),
        pytest.param(b'{"planted_associations": {}}', "planted_associations",
                     id="planted_associations-object"),
        pytest.param(b'{"seed": 1}\xff', "params.json", id="non-utf8"),
        pytest.param(b"[1, 2]", "params file must hold a JSON object", id="not-an-object"),
        pytest.param(b"[" * 100_000, "params.json", id="deep-nesting"),
        pytest.param(b'{"n_universities": "x"}', "n_universities", id="n_universities-string"),
        pytest.param(b'{"staff_range": 5}', "staff_range", id="staff_range-int"),
        pytest.param(b'{"seed": "x"}', "seed", id="seed-string"),
        # the seed is --seed's alone, so the manifest cannot record another
        pytest.param(b'{"seed": 5}', "unknown key 'seed'", id="seed-in-params"),
        pytest.param(b'{"collab_propensities": {"foreign": "x"}}',
                     "collab_propensities.foreign", id="collab_propensities-string"),
        pytest.param(json.dumps({"planted_associations": [
            {"area": "A01", "x_metric": "CI_share", "y_indicator": "P", "r": "0.5"}
        ]}).encode(), "planted_associations[0].r", id="planted_associations-r-string"),
        pytest.param(b'{"if_lognormal": [0, Infinity]}', "if_lognormal[1]",
                     id="if_lognormal-infinite"),
        pytest.param(b'{"pubs_per_staff_mean": NaN}', "pubs_per_staff_mean",
                     id="pubs_per_staff_mean-nan"),
        # finite, but a cell's publication count no list can hold, or an infinite one
        pytest.param(b'{"pubs_per_staff_mean": 1e300}', CELL_SIZE_KEYS,
                     id="pubs_per_staff_mean-1e300"),
        pytest.param(b'{"pubs_per_staff_mean": 1e308}', CELL_SIZE_KEYS,
                     id="pubs_per_staff_mean-1e308"),
        pytest.param(b'{"productivity_spread": 200}', CELL_SIZE_KEYS,
                     id="productivity_spread-cell-size"),
        # more staff rows than any loop should be asked to build
        *(pytest.param(json.dumps({name: 10**30}).encode(), STAFF_ROWS_KEYS,
                       id=f"{name}-huge-layout")
          for name in ("n_universities", "n_areas", "sds_per_area", "years")),
        # finite, but an exp draw beyond the largest float, or an infinite exponent
        pytest.param(b'{"sector_if_spread": 1000}', IMPACT_FACTOR_KEYS,
                     id="sector_if_spread-exp-overflow"),
        pytest.param(b'{"if_lognormal": [1000, 0.6]}', IMPACT_FACTOR_KEYS,
                     id="if_lognormal-mean-exp-overflow"),
        pytest.param(b'{"if_lognormal": [0, 1000]}', IMPACT_FACTOR_KEYS,
                     id="if_lognormal-sigma-exp-overflow"),
        pytest.param(json.dumps({"if_lognormal": [1e308, 0.6], "sector_if_spread": 1e308,
                                 "n_areas": 1, "sds_per_area": 1, "n_universities": 2}).encode(),
                     IMPACT_FACTOR_KEYS, id="if_lognormal-infinite-exponent"),
        pytest.param(b'{"collab_variation": 1000}', "error: collab_variation gives",
                     id="collab_variation-exp-overflow"),
        pytest.param(b'{"productivity_spread": 1000000}', "error: productivity_spread gives",
                     id="productivity_spread-exp-overflow"),
        # an integer beyond the largest float
        pytest.param(b'{"pubs_per_staff_mean": ' + b"9" * 400 + b"}", "pubs_per_staff_mean",
                     id="pubs_per_staff_mean-huge-integer"),
        # sizes no range or float can hold
        pytest.param(b'{"staff_range": [0, 1' + b"0" * 400 + b"]}", "staff_range[1]",
                     id="staff_range-huge-integer"),
        pytest.param(b'{"staff_overrides": {"U001": 1' + b"0" * 400 + b"}}",
                     "staff_overrides[U001]", id="staff_overrides-huge-integer"),
        pytest.param(b'{"n_universities": 3, "staff_overrides": {"U999": 3}}',
                     "staff_overrides[U999]", id="staff_overrides-unknown-university"),
        pytest.param(json.dumps({"n_areas": 2, "area_propensity_overrides": {"A03": {}}}).encode(),
                     "area_propensity_overrides[A03]", id="area_propensity_overrides-unknown-area"),
        pytest.param(json.dumps({"sds_per_area": 2, "sds_propensity_overrides": {"A01S03": {}}})
                     .encode(), "sds_propensity_overrides[A01S03]",
                     id="sds_propensity_overrides-unknown-sector"),
        pytest.param(b'{"area_propensity_overrides": {"A01": {"dpr": 1.5}}}',
                     "area_propensity_overrides[A01].dpr", id="area_propensity_overrides-dpr"),
        pytest.param(b'{"sds_propensity_overrides": {"A01S01": {"foreign": -0.1}}}',
                     "sds_propensity_overrides[A01S01].foreign",
                     id="sds_propensity_overrides-foreign"),
        # synth generates for the default configuration, with fixed partner pools
        *(pytest.param(json.dumps({name: value}).encode(), f"unknown key '{name}'",
                       id=f"{name}-removed")
          for name, value in (("home_country", "US"), ("start_year", 1999),
                              ("n_journals_per_sds", 6), ("n_dpr", 6),
                              ("n_enterprises", 6), ("n_foreign", 10))),
    ])
    def test_invalid_params_exit_nonzero(self, runner, tmp_path, content, name):
        params_file = tmp_path / "params.json"
        params_file.write_bytes(content)
        result = runner.invoke(
            cli, ["synth", "--params", str(params_file), "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 1
        assert name in result.output
        assert_clean_failure(result)

    def test_out_of_memory_fails_cleanly(self, runner, tmp_path, monkeypatch):
        from collabmetrics import synth

        def exhausted(params):
            raise MemoryError

        monkeypatch.setattr(synth, "generate_corpus", exhausted)
        result = runner.invoke(cli, ["synth", "--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.stderr == "error: out of memory\n"
        assert not (tmp_path / "out").exists()


class TestPipeline:
    def test_all_produces_every_output(self, runner, data_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        for name in PIPELINE_OUTPUTS:
            assert (out / name).exists(), name

    def test_all_writes_the_pinned_headers(self, runner, data_dir, tmp_path):
        correlation = "area,indicator,n,r,beta,r_squared,note"
        headers = {
            "indicators.csv": "university,sds,area,O,FO,SS,FSS,QI,staff,P,FP,QP,FQP,"
                              "CI_ratio,CI_share,CI_UNI,CI_DPR,FCI,DCI",
            "aggregates.csv": "university,area,P,FP,QP,FQP,QI,CI,FCI,DCI,staff,n_sectors,"
                              "excluded",
            "crosstab.csv": "quartile,intramural,intramural_cidx,extramural,extramural_cidx,"
                            "foreign,foreign_cidx,enterprise,enterprise_cidx,total",
            "area_profile.csv": "area,output,CI_pct,CI_UNI_pct,CI_DPR_pct,FCI_pct,DCI_pct",
            "dispersion.csv": "area,n_sds,mean_pct,median_pct,min_pct,max_pct,std_pct,cv",
            "top_sectors_fci.csv": "area,sds,fci_pct,output,area_share_pct",
            "top_sectors_dci.csv": "area,sds,dci_pct,output,area_share_pct",
            "correlation_ci.csv": correlation,
            "correlation_fci.csv": correlation,
            "correlation_dci.csv": correlation,
        }
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(headers)
        for name, header in headers.items():
            assert (out / name).read_text().split("\n", 1)[0] == header, name

    def test_all_is_byte_deterministic(self, runner, data_dir, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
            assert result.exit_code == 0, result.output
        assert read_tree(first) == read_tree(second)

    @pytest.mark.parametrize("flags", [
        [], ["--table2-mode", "weighted", "--quartile-scope", "per-sector", "--top", "3"],
    ], ids=["default", "weighted-per-sector-top3"])
    def test_all_ignores_input_row_order(self, runner, data_dir, tmp_path, flags):
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        rng = random.Random(7)
        for source in map(Path, corpus_args(data_dir)[1::2]):
            lines = source.read_text().splitlines(keepends=True)
            header = lines[:0] if source.suffix == ".jsonl" else lines[:1]
            body = lines[len(header):]
            rng.shuffle(body)
            assert header + body != lines, source.name
            (shuffled / source.name).write_text("".join(header + body))
        runs = []
        for corpus in (data_dir, shuffled):
            out = tmp_path / f"out-{corpus.name}"
            result = runner.invoke(cli, ["all"] + corpus_args(corpus) + ["--out", str(out)] + flags)
            assert result.exit_code == 0, result.output
            tree = read_tree(out)
            del tree["run_manifest.json"]  # it names the inputs and their digests
            runs.append((tree, result.output.replace(str(out), "OUT")))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("report_flags", [
        [], ["--table2-mode", "weighted", "--quartile-scope", "per-sector"],
    ], ids=["default", "weighted-per-sector"])
    def test_staged_run_matches_all(self, runner, data_dir, tmp_path, report_flags):
        full = tmp_path / "full"
        result = runner.invoke(
            cli, ["all"] + corpus_args(data_dir) + ["--out", str(full)] + report_flags
        )
        assert result.exit_code == 0, result.output

        staged = tmp_path / "staged"
        result = runner.invoke(
            cli, ["indicators"] + corpus_args(data_dir) + ["--out", str(staged)]
        )
        assert result.exit_code == 0, result.output
        assert (staged / "indicators.csv").read_bytes() == \
            (full / "indicators.csv").read_bytes()

        agg_out = tmp_path / "staged_agg"
        result = runner.invoke(cli, [
            "aggregate", "--indicators", str(staged / "indicators.csv"),
            "--out", str(agg_out),
        ])
        assert result.exit_code == 0, result.output
        assert (agg_out / "aggregates.csv").read_bytes() == \
            (full / "aggregates.csv").read_bytes()

        corr_out = tmp_path / "staged_corr"
        result = runner.invoke(cli, [
            "correlate", "--aggregates", str(agg_out / "aggregates.csv"),
            "--out", str(corr_out),
        ])
        assert result.exit_code == 0, result.output
        for metric in ("ci", "fci", "dci"):
            name = f"correlation_{metric}.csv"
            assert (corr_out / name).read_bytes() == (full / name).read_bytes()

        rep_out = tmp_path / "staged_rep"
        result = runner.invoke(
            cli, ["report"] + corpus_args(data_dir) + ["--out", str(rep_out)] + report_flags
        )
        assert result.exit_code == 0, result.output
        for name in ("crosstab.csv", "area_profile.csv", "dispersion.csv",
                     "top_sectors_fci.csv", "top_sectors_dci.csv"):
            assert (rep_out / name).read_bytes() == (full / name).read_bytes()

    def test_manifest_lists_inputs_and_config(self, runner, data_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "all"
        assert len(manifest["inputs"]) == 5
        assert all(len(digest) == 64 for digest in manifest["inputs"].values())
        for path, digest in manifest["inputs"].items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert manifest["config"]["period"] == "2001-2003"
        assert manifest["config"]["ci_mode"] == "share"

    def test_all_rejects_invalid_corpus(self, runner, data_dir, tmp_path):
        (data_dir / "sectors.csv").write_text("sds,area\n")
        result = runner.invoke(
            cli, ["all"] + corpus_args(data_dir) + ["--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 1
        assert "dangling sds" in result.output

    @pytest.mark.parametrize("argv", [
        ["all", "--threshold", "0"],
        ["all", "--top", "0"],
        ["report", "--top", "0"],
        ["aggregate", "--threshold", "0"],
        ["all", "--threshold", "nan"],
        ["aggregate", "--threshold", "nan"],
        ["aggregate", "--threshold", "inf"],
    ])
    def test_out_of_range_flag_rejected_before_writing(
        self, runner, data_dir, tmp_path, argv
    ):
        if argv[0] == "aggregate":
            staged = tmp_path / "staged"
            result = runner.invoke(
                cli, ["indicators"] + corpus_args(data_dir) + ["--out", str(staged)]
            )
            assert result.exit_code == 0, result.output
            inputs = ["--indicators", str(staged / "indicators.csv")]
        else:
            inputs = corpus_args(data_dir)
        out = tmp_path / "out"
        result = runner.invoke(cli, argv[:1] + inputs + ["--out", str(out)] + argv[1:])
        assert result.exit_code == 2, result.output
        assert not out.exists()

    @pytest.mark.parametrize("command,column,table,cell,message", [
        pytest.param("aggregate", "FO", "indicators.csv", b"n/a",
                     "column 'FO': not a number: 'n/a'", id="aggregate-FO-indicators.csv"),
        pytest.param("correlate", "QI", "aggregates.csv", b"n/a",
                     "column 'QI': not a number: 'n/a'", id="correlate-QI-aggregates.csv"),
        pytest.param("aggregate", "P", "indicators.csv", b"nan",
                     "column 'P': not a number: 'nan'", id="aggregate-P-nan"),
        pytest.param("aggregate", "FO", "indicators.csv", b"inf",
                     "column 'FO': not a number: 'inf'", id="aggregate-FO-inf"),
        pytest.param("correlate", "QI", "aggregates.csv", b"nan",
                     "column 'QI': not a number: 'nan'", id="correlate-QI-nan"),
        pytest.param("aggregate", "university", "indicators.csv", b"U\xff",
                     "not valid UTF-8", id="aggregate-non-utf8"),
        pytest.param("correlate", "university", "aggregates.csv", b"U\xff",
                     "not valid UTF-8", id="correlate-non-utf8"),
        pytest.param("aggregate", "staff", "indicators.csv", b"",
                     "column 'staff': not a number: ''", id="aggregate-empty-staff"),
        pytest.param("correlate", "excluded", "aggregates.csv", b"maybe",
                     "column 'excluded': expected true or false, got 'maybe'",
                     id="correlate-excluded-maybe"),
        pytest.param("aggregate", "staff", "indicators.csv", b"-40.0",
                     "column 'staff': negative number: '-40.0'", id="aggregate-negative-staff"),
        pytest.param("correlate", "n_sectors", "aggregates.csv", b"-1",
                     "column 'n_sectors': negative number: '-1'",
                     id="correlate-negative-n_sectors"),
        pytest.param("aggregate", "university", "indicators.csv", b"U" * 131073,
                     "field larger than field limit (131072)", id="aggregate-oversized-field"),
        pytest.param("correlate", "university", "aggregates.csv", b"U" * 131073,
                     "field larger than field limit (131072)", id="correlate-oversized-field"),
        pytest.param("aggregate", "area", "indicators.csv", b"", "column 'area': empty",
                     id="aggregate-empty-area"),
        pytest.param("correlate", "university", "aggregates.csv", b"",
                     "column 'university': empty", id="correlate-empty-university"),
    ])
    def test_malformed_stage_input_reports_location(
        self, runner, data_dir, tmp_path, command, column, table, cell, message
    ):
        full = tmp_path / "full"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(full)])
        assert result.exit_code == 0, result.output
        path = full / table
        rows = path.read_bytes().splitlines()
        cells = rows[2].split(b",")
        cells[rows[0].decode().split(",").index(column)] = cell
        rows[2] = b",".join(cells)
        path.write_bytes(b"\n".join(rows) + b"\n")

        out = tmp_path / "out"
        flag = "--" + table.split(".")[0]
        result = runner.invoke(cli, [command, flag, str(path), "--out", str(out)])
        assert_clean_failure(result)
        assert f"{table}:3: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command,table,column,value,n_rows,message", [
        # squaring the deviation of P from its area mean overflows in the correlation
        pytest.param("correlate", "aggregates.csv", "P", b"1e200", 1,
                     "area '{area}', P against CI: (34, 'Numerical result out of range')",
                     id="correlate-P-1e200"),
        # the sector mean of P sums two values of 1.7e308
        pytest.param("aggregate", "indicators.csv", "P", b"1.7e308", 2,
                     "sector '{sds}', column 'P': intermediate overflow in fsum",
                     id="aggregate-P-1.7e308-twice"),
        # a staff weight of 1.7e308 times a normalized value above 1.06 overflows
        pytest.param("aggregate", "indicators.csv", "staff", b"1.7e308", 1,
                     "{university}/{area}, column 'QI': weighted mean out of range: inf",
                     id="aggregate-staff-1.7e308"),
    ])
    def test_overflowing_stage_input_fails_cleanly(
        self, runner, data_dir, tmp_path, command, table, column, value, n_rows, message
    ):
        full = tmp_path / "full"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(full)])
        assert result.exit_code == 0, result.output
        path = full / table
        header, *rows = path.read_bytes().splitlines()
        index = header.split(b",").index(column.encode())
        # rows sharing the key's second part: one sds (indicators) or one area (aggregates)
        group = rows[0].split(b",")[1]
        changed = 0
        for i, row in enumerate(rows):
            cells = row.split(b",")
            if changed < n_rows and cells[1] == group and cells[index]:
                cells[index] = value
                rows[i] = b",".join(cells)
                changed += 1
        assert changed == n_rows
        path.write_bytes(b"\n".join([header, *rows]) + b"\n")

        out = tmp_path / "out"
        flag = "--" + table.split(".")[0]
        result = runner.invoke(cli, [command, flag, str(path), "--out", str(out)])
        assert_clean_failure(result)
        # the location named is that of the first data row, the first one changed
        first = dict(zip(header.decode().split(","), rows[0].decode().split(",")))
        assert message.format(**first) in result.output
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("impact,message", [
        pytest.param("0.0", "sector 'A01S01': all impact factors are zero, normalization "
                     "undefined", id="zero"),
        # finite, but the sector's sum overflows
        pytest.param("1e308", "sector 'A01S01', impact factor mean: intermediate overflow "
                     "in fsum", id="1e308"),
    ])
    def test_unusable_sector_impact_factors_fail_cleanly(
        self, runner, data_dir, tmp_path, impact, message
    ):
        path = data_dir / "journals.csv"
        path.write_text("".join(
            line.rsplit(",", 1)[0] + f",{impact}\n" if line.startswith("A01S01") else line
            for line in path.read_text().splitlines(keepends=True)
        ))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
        assert_clean_failure(result)
        assert message in result.output
        assert not (out / "run_manifest.json").exists()

    def test_weighted_area_profile_overflow_names_its_area(self, runner, data_dir, tmp_path):
        # every headcount is 1e307: each (university, area) weight total fits a float,
        # but the weight total over an area's cells does not
        path = data_dir / "staff.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join(
            [header] + [row.rsplit(",", 1)[0] + "," + str(10**307) for row in rows]
        ) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir)
                               + ["--out", str(out), "--table2-mode", "weighted"])
        assert_clean_failure(result)
        assert result.stderr.splitlines()[-1] == (
            "error: area 'A01', column 'CI_share': intermediate overflow in fsum"
        )
        assert not (out / "run_manifest.json").exists()

    def test_area_staff_overflow_names_its_row(self, runner, data_dir, tmp_path):
        # U001 has 1e308 staff in A01S01 and in a new A01 sector without publications,
        # whose normalized values are all undefined: each weighted mean's weights fit
        # a float, but the area's staff total does not
        path = data_dir / "staff.csv"
        header, *rows = path.read_text().splitlines()
        rows = [row.rsplit(",", 1)[0] + f",{10**308}" if row.startswith("U001,A01S01,")
                else row for row in rows]
        rows += [f"U001,A01X99,{year},{10**308}" for year in (2001, 2002, 2003)]
        path.write_text("\n".join([header] + rows) + "\n")
        with open(data_dir / "sectors.csv", "a", encoding="utf-8") as fh:
            fh.write("A01X99,A01\n")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
        assert_clean_failure(result)
        assert result.stderr.splitlines()[-1] == (
            "error: U001/A01, column 'staff': intermediate overflow in fsum"
        )
        assert not (out / "run_manifest.json").exists()

    def test_area_without_defined_ci_share_warned(self, runner, data_dir, tmp_path):
        # one staffed sector without publications: its only cell has no CI_share
        with open(data_dir / "sectors.csv", "a", encoding="utf-8") as fh:
            fh.write("X01S01,X01\n")
        with open(data_dir / "staff.csv", "a", encoding="utf-8") as fh:
            fh.write("U001,X01S01,2001,3\n")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert ("warning: area 'X01' has no sectors with defined CI_share"
                in result.stderr.splitlines())
        areas = [line.split(",")[0] for line in
                 (out / "dispersion.csv").read_text().splitlines()[1:]]
        assert areas == ["A01", "A02", "A03", "A04"]

    @pytest.mark.parametrize("command,table", [
        ("aggregate", "indicators.csv"), ("correlate", "aggregates.csv"),
    ])
    def test_repeated_stage_row_rejected(self, runner, data_dir, tmp_path, command, table):
        full = tmp_path / "full"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(full)])
        assert result.exit_code == 0, result.output
        path = full / table
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows + rows[-1:]) + "\n")

        out = tmp_path / "out"
        flag = "--" + table.split(".")[0]
        result = runner.invoke(cli, [command, flag, str(path), "--out", str(out)])
        assert_clean_failure(result)
        university, key = rows[-1].split(",")[:2]  # (university, sds) or (university, area)
        assert f"{path}:{len(rows) + 1}: duplicate row for {university}/{key}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "indicators", "aggregate", "correlate", "report", "synth", "all",
    ])
    def test_out_under_a_file_fails_cleanly(self, runner, data_dir, tmp_path, command):
        full = tmp_path / "full"
        result = runner.invoke(cli, ["all"] + corpus_args(data_dir) + ["--out", str(full)])
        assert result.exit_code == 0, result.output
        inputs = {
            "aggregate": ["--indicators", str(full / "indicators.csv")],
            "correlate": ["--aggregates", str(full / "aggregates.csv")],
            "synth": ["--seed", "1"],
        }.get(command, corpus_args(data_dir))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        out = blocker / "out"
        result = runner.invoke(cli, [command] + inputs + ["--out", str(out)])
        assert_clean_failure(result)
        assert str(out) in result.output
        assert blocker.read_text() == "a file\n"

    def test_all_reports_exclusions_like_aggregate(self, runner, tmp_path):
        data = tmp_path / "data"
        params = SynthParams(seed=11, n_universities=3, n_areas=1, sds_per_area=1,
                             staff_overrides={"U001": 3, "U002": 5, "U003": 40})
        write_synthetic(generate_corpus(params), data)
        full = tmp_path / "full"
        result = runner.invoke(cli, ["all"] + corpus_args(data) + ["--out", str(full)])
        assert result.exit_code == 0, result.output
        staged = runner.invoke(cli, [
            "aggregate", "--indicators", str(full / "indicators.csv"),
            "--out", str(tmp_path / "staged"),
        ])
        assert staged.exit_code == 0, staged.output
        line = "excluded U001/A01 (area staff 3 < 5)"
        assert line in staged.stdout.splitlines()
        assert line in result.stdout.splitlines()

    def test_excluded_rows_are_the_area_aggregates(self, runner, tmp_path):
        from collabmetrics import aggregate as agg
        from collabmetrics.indicators import compute_indicators

        params = SynthParams(seed=11, n_universities=3, n_areas=1, sds_per_area=1,
                             staff_overrides={"U001": 3, "U002": 5, "U003": 40})
        synthetic = generate_corpus(params)
        corpus = synthetic.corpus
        cells = agg.normalize_to_sds_mean(compute_indicators(corpus)).cells
        aggregates = agg.aggregate_area(cells, corpus.sectors)
        filtered = agg.filter_small_universities(aggregates)
        assert len(filtered.excluded) == 1 and filtered.excluded[0] is aggregates[0]

        data = tmp_path / "data"
        write_synthetic(synthetic, data)
        full = tmp_path / "full"
        result = runner.invoke(cli, ["all"] + corpus_args(data) + ["--out", str(full)])
        assert result.exit_code == 0, result.output
        assert agg.read_aggregates_csv(full / "aggregates.csv").excluded == filtered.excluded
        assert "excluded U001/A01 (area staff 3 < 5)" in result.stdout.splitlines()

    def test_failed_rerun_leaves_out_unchanged(self, runner, tmp_path):
        # every sector has 2 publications, fewer than per-sector quartiles need
        data = tmp_path / "data"
        write_synthetic(generate_corpus(TWO_PUBLICATION_SECTORS), data)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["all"] + corpus_args(data) + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "run_manifest.json").exists()
        before = snapshot(out)

        result = runner.invoke(
            cli, ["all"] + corpus_args(data) + ["--out", str(out), "--quartile-scope", "per-sector"]
        )
        assert_clean_failure(result)
        assert "per-sector quartiles need at least 4" in result.output
        assert snapshot(out) == before

    @pytest.mark.parametrize("out_state", ["absent", "used", "raced"])
    def test_failed_run_leaves_out_as_it_was(self, runner, tmp_path, monkeypatch, out_state):
        # every sector has 2 publications, fewer than per-sector quartiles need
        data = tmp_path / "data"
        write_synthetic(generate_corpus(TWO_PUBLICATION_SECTORS), data)
        out = tmp_path / "runs" / "out"
        if out_state != "absent":
            result = runner.invoke(cli, ["indicators"] + corpus_args(data) + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            (out / "notes.txt").write_text("no command writes this file\n")
        if out_state == "raced":  # the run finds out absent; another run makes it before its mkdir
            _hide_from_exists(monkeypatch, out)
        before = snapshot(tmp_path)

        result = runner.invoke(
            cli, ["all"] + corpus_args(data) + ["--out", str(out), "--quartile-scope", "per-sector"]
        )
        assert_clean_failure(result)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("out_state", ["created", "raced", "used"])
    def test_second_run_into_out_is_refused(self, runner, tmp_path, monkeypatch, out_state):
        from collabmetrics import cli as cli_module

        out = tmp_path / "out"
        argv = ["all", *corpus_args(_golden_copy(tmp_path)), "--out", str(out)]
        if out_state == "used":
            result = runner.invoke(cli, argv)
            assert result.exit_code == 0, result.output
            (out / "notes.txt").write_text("no command writes this file\n")
        write_correlations, nested = cli_module._write_correlations, []

        def rerun_inside_the_block(*args):
            write_correlations(*args)
            if nested:  # this is the second run: it was not refused
                return
            nested.append(snapshot(tmp_path))
            with monkeypatch.context() as patch:
                if out_state == "raced":  # it found out absent before the first run made it
                    _hide_from_exists(patch, out)
                nested.append(runner.invoke(cli, argv))
            nested.append(snapshot(tmp_path))

        monkeypatch.setattr(cli_module, "_write_correlations", rerun_inside_the_block)
        result = runner.invoke(cli, argv)
        before, refused, after = nested
        assert_clean_failure(refused)
        assert refused.stderr.splitlines() == [f"error: {out}: another run is writing here"]
        assert after == before
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == sorted(
            PIPELINE_OUTPUTS + (("notes.txt",) if out_state == "used" else ()))

    @pytest.mark.parametrize("command", ["indicators", "report", "all"])
    def test_second_run_refused_before_it_loads(self, runner, tmp_path, monkeypatch, command):
        from collabmetrics import cli as cli_module

        out = tmp_path / "out"
        argv = [command, *corpus_args(_golden_copy(tmp_path)), "--out", str(out)]
        load, load_corpus, loads, nested = cli_module._load, cli_module.load_corpus, [], []

        def counted_load_corpus(*args, **kwargs):
            loads.append(args)
            return load_corpus(*args, **kwargs)

        def rerun_from_the_load(kw, **options):
            if not nested:  # the first run, holding the lock: start the second one now
                nested.append(runner.invoke(cli, argv))
                nested.append(len(loads))
            return load(kw, **options)

        monkeypatch.setattr(cli_module, "load_corpus", counted_load_corpus)
        monkeypatch.setattr(cli_module, "_load", rerun_from_the_load)
        result = runner.invoke(cli, argv)
        refused, loads_before_refusal = nested
        assert_clean_failure(refused)
        assert refused.stderr.splitlines() == [f"error: {out}: another run is writing here"]
        assert loads_before_refusal == 0
        assert result.exit_code == 0, result.output
        assert len(loads) == 1

    @pytest.mark.parametrize("failure", ["no-space", "memory", "killed"])
    def test_failed_indicators_child_leaves_out_as_it_was(
        self, runner, data_dir, tmp_path, monkeypatch, failure
    ):
        from collabmetrics import indicators

        out = tmp_path / "out"
        argv = ["all", *corpus_args(data_dir), "--out", str(out)]  # a run without warnings
        result = runner.invoke(cli, argv)
        assert result.exit_code == 0, result.output
        before = snapshot(out)

        def fail(records, sectors, path):  # runs in the forked child
            if failure == "no-space":
                raise OSError(28, "No space left on device", str(path))
            if failure == "memory":
                raise MemoryError
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(indicators, "write_indicators_csv", fail)
        result = runner.invoke(cli, argv)
        assert_clean_failure(result)
        path = re.escape(str(out / ".staging-")) + r"\w+/indicators\.csv"
        assert re.fullmatch({
            "no-space": rf"error: \[Errno 28\] No space left on device: '{path}'\n",
            "memory": r"error: out of memory\n",
            "killed": rf"error: {path}: wait status {int(signal.SIGKILL)}\n",
        }[failure], result.stderr)
        assert snapshot(out) == before
        with pytest.raises(ChildProcessError):  # the child is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_failure_beside_the_indicators_child_kills_it(
        self, runner, data_dir, tmp_path, monkeypatch
    ):
        from collabmetrics import indicators, reports

        out = tmp_path / "out"
        argv = ["all", *corpus_args(data_dir), "--out", str(out)]  # a run without warnings
        result = runner.invoke(cli, argv)
        assert result.exit_code == 0, result.output
        before = snapshot(tmp_path)
        write, finished = indicators.write_indicators_csv, tmp_path / "child-finished"

        def slow_write(*args):  # runs in the forked child
            time.sleep(10)
            write(*args)
            finished.touch()

        def fail(corpus, **options):
            raise reports.ReportError("crosstab failed")

        monkeypatch.setattr(indicators, "write_indicators_csv", slow_write)
        monkeypatch.setattr(reports, "build_crosstab", fail)
        result = runner.invoke(cli, argv)
        assert_clean_failure(result)
        assert result.stderr == "error: crosstab failed\n"
        assert snapshot(tmp_path) == before  # the child was killed before it wrote anything
        with pytest.raises(ChildProcessError):  # and reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command,name", [("all", "top_sectors_fci.csv"),
                                              ("indicators", "indicators.csv")])
    def test_output_name_not_a_regular_file_fails_before_moving(
        self, runner, tmp_path, command, name
    ):
        argv = [command, *corpus_args(_golden_copy(tmp_path)), "--out", str(tmp_path / "out")]
        result = runner.invoke(cli, argv)
        assert result.exit_code == 0, result.output
        target = tmp_path / "out" / name
        target.unlink()
        target.mkdir()
        (target / "kept.txt").write_text("not an output\n")
        before = snapshot(tmp_path / "out")

        result = runner.invoke(cli, argv)
        assert_clean_failure(result)
        assert result.stderr.splitlines()[-1] == f"error: {target}: not a regular file"
        assert snapshot(tmp_path / "out") == before

    @pytest.mark.parametrize("succeeds", [True, False])
    def test_stale_staging_cleared_by_a_successful_run_only(self, runner, tmp_path, succeeds):
        # every sector has 2 publications, fewer than per-sector quartiles need
        data = tmp_path / "data"
        write_synthetic(generate_corpus(TWO_PUBLICATION_SECTORS), data)
        stale = tmp_path / "out" / ".staging-stale"
        stale.mkdir(parents=True)
        (stale / "indicators.csv").write_text("a killed run's output\n")
        flags = [] if succeeds else ["--quartile-scope", "per-sector"]

        result = runner.invoke(cli, ["all", *corpus_args(data), "--out", str(tmp_path / "out"),
                                     *flags])
        assert result.exit_code == (0 if succeeds else 1), result.output
        assert stale.exists() is not succeeds
        assert (tmp_path / "out" / "run_manifest.json").exists() is succeeds

    def test_failed_move_leaves_no_manifest(self, runner, tmp_path, monkeypatch):
        from collabmetrics import cli as cli_module

        out = tmp_path / "out"
        argv = ["all", *corpus_args(_golden_copy(tmp_path)), "--out", str(out)]
        result = runner.invoke(cli, argv)
        assert result.exit_code == 0, result.output
        replace, moved = os.replace, []

        def fail_second(src, dst):
            moved.append(dst)
            if len(moved) == 2:
                raise OSError(f"{dst}: move failed")
            replace(src, dst)

        monkeypatch.setattr(cli_module.os, "replace", fail_second)
        result = runner.invoke(cli, argv)
        assert_clean_failure(result)
        # the earlier run's manifest went before the first move: no manifest
        # vouches for the mix of old and new outputs
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("command", ["all", "report"])
    def test_global_quartiles_need_four_publications(self, runner, data_dir, tmp_path, command):
        path = data_dir / "publications.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
        result = runner.invoke(cli, [command] + corpus_args(data_dir)
                               + ["--out", str(tmp_path / "out")])
        assert_clean_failure(result)
        assert result.stderr.splitlines()[-1] == (
            "error: corpus has 3 publications; global quartiles need at least 4"
        )

    @pytest.mark.parametrize("case", ["success", "error-exit", "caller-disabled"])
    def test_gc_paused_for_the_command(self, runner, tmp_path, monkeypatch, case):
        from collabmetrics import indicators

        # every sector has 2 publications, fewer than per-sector quartiles need
        data = tmp_path / "data"
        write_synthetic(generate_corpus(TWO_PUBLICATION_SECTORS), data)
        compute = indicators.compute_indicators
        seen = []
        monkeypatch.setattr(indicators, "compute_indicators",
                            lambda corpus: seen.append(gc.isenabled()) or compute(corpus))
        flags = ["--quartile-scope", "per-sector"] if case == "error-exit" else []
        assert gc.isenabled()
        if case == "caller-disabled":
            gc.disable()
        try:
            result = runner.invoke(
                cli, ["all"] + corpus_args(data) + ["--out", str(tmp_path / "out")] + flags
            )
            enabled_after = gc.isenabled()
        finally:
            gc.enable()
        if case == "error-exit":
            assert_clean_failure(result)
        else:
            assert result.exit_code == 0, result.output
        assert seen == [False]
        assert enabled_after == (case != "caller-disabled")

    @pytest.mark.parametrize("argv", [
        ["all"], ["report", "--table2-mode", "weighted"],
        ["report", "--quartile-scope", "per-sector", "--table2-mode", "weighted"],
    ])
    def test_one_indicator_pass_and_classification_per_command(
        self, runner, data_dir, tmp_path, monkeypatch, argv
    ):
        from collabmetrics import corpus, indicators

        calls = {"classify": 0, "compute": 0, "normalize": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(corpus, "classify_collaboration",
                            counted("classify", corpus.classify_collaboration))
        monkeypatch.setattr(indicators, "compute_indicators",
                            counted("compute", indicators.compute_indicators))
        # a fresh cached property, so that each evaluation is counted and cached
        normalized_ifs = functools.cached_property(
            counted("normalize", corpus.Corpus.__dict__["normalized_ifs"].func))
        normalized_ifs.__set_name__(corpus.Corpus, "normalized_ifs")
        monkeypatch.setattr(corpus.Corpus, "normalized_ifs", normalized_ifs)
        pubs = [json.loads(line) for line in
                (data_dir / "publications.jsonl").read_text().splitlines()]
        org_sets = len({frozenset(p["orgs"]) for p in pubs})
        result = runner.invoke(
            cli, argv[:1] + corpus_args(data_dir) + ["--out", str(tmp_path / "out")] + argv[1:]
        )
        assert result.exit_code == 0, result.output
        assert calls == {"classify": org_sets, "compute": 1, "normalize": 1}


@pytest.mark.parametrize("command", ["validate", "indicators", "report", "all"])
def test_one_corpus_validation_per_command(runner, data_dir, tmp_path, monkeypatch, command):
    from collabmetrics import cli as cli_mod
    from collabmetrics import corpus

    calls = []
    validate = corpus.validate_corpus

    def counted(checked):
        calls.append(checked)
        return validate(checked)

    for module in (corpus, cli_mod):
        monkeypatch.setattr(module, "validate_corpus", counted)
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    result = runner.invoke(cli, [command] + corpus_args(data_dir) + out)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def numpy_loaded_after(code):
    """``"True"`` or ``"False"``: whether ``code`` in a fresh interpreter imports numpy."""
    import collabmetrics

    src = str(Path(collabmetrics.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_numpy_out():
    """Importing the CLI must not load numpy."""
    assert numpy_loaded_after("import collabmetrics.cli") == "False"


def test_synth_runs_without_numpy():
    """The generator draws from the standard library alone."""
    assert numpy_loaded_after(
        "from collabmetrics.synth import SynthParams, generate_corpus\n"
        "generate_corpus(SynthParams(seed=1))"
    ) == "False"
