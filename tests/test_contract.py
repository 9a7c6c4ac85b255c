"""The error contract under generated faults.

A seeded loop mutates one or two files of a copy of the golden corpus
(tests/golden/input): it deletes, duplicates or swaps lines, or replaces
one token with a hostile value.  On each result it runs ``validate``, and
``all`` into an output directory that already holds a file, and checks:

1. nothing but ``SystemExit`` escapes a command;
2. an exit 1 from ``all`` prints exactly one ``error:`` line and leaves the
   output directory byte-identical;
3. on exit 0, every numeric output cell is finite, and every university
   and sector key of ``indicators.csv`` and ``aggregates.csv`` is in the
   input registries with the right class;
4. ``validate`` exits 0 exactly when a checked ``load_corpus`` succeeds.
"""

from __future__ import annotations

import csv
import math
import random
import re
import shutil

from click.testing import CliRunner

from collabmetrics.cli import cli
from collabmetrics.corpus import CORPUS_FILENAMES, CorpusError, OrgClass, load_corpus
from golden.update import INPUT
from test_cli import corpus_args, snapshot

CASES = 150
FLAG_SETS = ([], ["--table2-mode", "weighted", "--quartile-scope", "per-sector", "--top", "3",
                  "--ci-mode", "ratio"])
HOSTILE = ["1e308", "-1", "nan", "1e400", "5e-324", "", '"', "\0", "inf", "1999", "null",
           "[]", "true", "9" * 30, "x,y"]
# a token is what lies between CSV and JSON punctuation
PUNCTUATION = re.compile(r'([,\[\]{}:"\s]+)')
# output columns that hold text; every other non-empty cell is a number
TEXT_COLUMNS = {"university", "sds", "area", "quartile", "indicator", "note", "excluded"}


def _registry_ids() -> list[str]:
    """The ids of every registry: organizations, journals, sectors, areas."""
    ids = set()
    for name, columns in (("organizations.csv", 1), ("journals.csv", 1), ("sectors.csv", 2)):
        with open(INPUT / name, encoding="utf-8", newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                ids.update(row[:columns])
    return sorted(ids)


def _mutate(lines: list[str], rng: random.Random, ids: list[str]) -> str:
    """Apply one random mutation to ``lines`` in place; return what it did."""
    i = rng.randrange(len(lines))
    kind = rng.choice(["delete", "duplicate", "swap", "token", "token"])
    if kind == "delete":
        del lines[i]
        return f"delete line {i + 1}"
    if kind == "duplicate":
        lines.insert(i, lines[i])
        return f"duplicate line {i + 1}"
    if kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
        return f"swap lines {i + 1} and {j + 1}"
    parts = PUNCTUATION.split(lines[i])
    k = rng.choice([k for k in range(0, len(parts), 2) if parts[k]])
    value = rng.choice(HOSTILE + ["<id>"])
    if value == "<id>":
        value = rng.choice(ids)
    old, parts[k] = parts[k], value
    lines[i] = "".join(parts)
    return f"line {i + 1}: {old!r} -> {value!r}"


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _contract_faults(out, corpus_files) -> list[str]:
    """The broken exit-0 invariants (3) of the outputs in ``out``."""
    corpus = load_corpus(*corpus_files)
    universities = {oid for oid, org in corpus.organizations.items()
                    if org.org_class is OrgClass.UNIV_DOMESTIC}
    sectors = corpus.sectors.entries
    faults = []
    for path in sorted(out.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for row in rows:
            for column, cell in zip(header, row):
                if column not in TEXT_COLUMNS and cell and not _finite(cell):
                    faults.append(f"{path.name}: column {column}: {cell}")
            if path.name in ("indicators.csv", "aggregates.csv"):
                key = dict(zip(header, row))
                if key["university"] not in universities:
                    faults.append(f"{path.name}: university {key['university']!r}")
                if "sds" in key and sectors.get(key["sds"]) != key["area"]:
                    faults.append(f"{path.name}: sector {key['sds']!r} in {key['area']!r}")
                if key["area"] not in sectors.values():
                    faults.append(f"{path.name}: area {key['area']!r}")
    return faults


def test_generated_faults_keep_the_error_contract(tmp_path):
    rng = random.Random(20)
    runner = CliRunner()
    ids = _registry_ids()
    originals = {name: (INPUT / name).read_text(encoding="utf-8").splitlines(keepends=True)
                 for name in CORPUS_FILENAMES.values()}
    broken = []
    for case in range(CASES):
        work = tmp_path / f"case{case}"
        work.mkdir()
        edits = []
        files = {name: list(lines) for name, lines in originals.items()}
        for name in rng.sample(sorted(files), rng.choice([1, 1, 2])):
            edits.append(f"{name}: {_mutate(files[name], rng, ids)}")
        for name, lines in files.items():
            (work / name).write_text("".join(lines), encoding="utf-8")
        corpus_files = [work / name for name in CORPUS_FILENAMES.values()]
        args = corpus_args(work)
        flags = rng.choice(FLAG_SETS)
        out = work / "out"
        out.mkdir()
        (out / "kept.txt").write_text("a file no command writes\n")
        before = snapshot(out)

        def fault(message):
            broken.append(f"case {case} ({'; '.join(edits)}; flags {flags}): {message}")

        validate = runner.invoke(cli, ["validate", *args])
        run = runner.invoke(cli, ["all", *args, "--out", str(out), *flags])
        for command, result in (("validate", validate), ("all", run)):
            if not isinstance(result.exception, (SystemExit, type(None))):
                fault(f"{command} raised {result.exception!r}")
            elif result.exit_code not in (0, 1):
                fault(f"{command} exited {result.exit_code}")
        try:
            load_corpus(*corpus_files)
            loads = True
        except CorpusError:
            loads = False
        if (validate.exit_code == 0) != loads:
            fault(f"validate exited {validate.exit_code}, checked load succeeded: {loads}")
        if run.exit_code == 1:
            if run.output.count("error:") != 1:
                fault(f"all printed {run.output.count('error:')} error lines")
            if snapshot(out) != before:
                fault("failed all changed --out")
        elif run.exit_code == 0:
            for message in _contract_faults(out, corpus_files):
                fault(message)
        shutil.rmtree(work)
    assert not broken, "\n".join(broken)
