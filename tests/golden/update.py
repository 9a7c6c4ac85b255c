"""Golden digests: the SHA-256 of every output of a fixed command list.

    PYTHONPATH=src python tests/golden/update.py [--check]

Run it from the repository root.  It runs ``COMMANDS`` on the frozen
corpus in ``input/`` and rewrites ``digests.json`` with the digest of
every file each command writes, of its stdout and stderr, and its exit
code.  With ``--check`` it writes nothing: it names every entry that is
missing, unexpected or changed against ``digests.json`` and exits 1 if
there is one.  ``tests/test_golden.py`` runs the same check.  A change
that moves a digest says which and why.  The script needs only the
package and click, so it also runs in an install without the test
dependencies.

The commands run in a scratch directory holding a copy of ``input/``,
with relative paths, so the run manifests (which name their inputs) and
the stdout lines (which name their outputs) do not depend on where the
repository lives.

``input/`` was written once and is never regenerated, so a deliberate
change to ``synth`` moves only the ``synth`` case's digests.  The corpus
is synth seed 7 with the co-authoring transform of ``benchmarks/inputs.py``
(318 publications, 30% of them credited to two sectors, 25% to two or
more universities)::

    params = SynthParams(seed=7, n_universities=8, n_areas=3, sds_per_area=4,
                         staff_range=(0, 6), pubs_per_staff_mean=1.2,
                         staff_overrides={"U008": 1})
    write_corpus(inputs.coauthored(generate_corpus(params).corpus, 7), "input")

U008's override puts each of its areas at 4 staff, under the default
threshold, so every run excludes three rows; nine sectors have a zero
mean DCI, and several cells have an undefined P.

The ``synth`` case runs the generator on ``input/synth-params.json``:
these parameters over two years, with a stronger foreign propensity in
A02 and a planted ``CI_share`` association in A01 (330 publications).
``all-period`` runs ``all`` on that corpus with ``--period 2001-2002``,
a period narrower than the default.  ``synth-default`` runs the
generator with no ``--params``.  ``synth-zero`` runs it on
``input/synth-zero-params.json``, which takes each zero-valued path: a
plant with noise 0 for each of ``CI_share``, ``FCI`` and ``DCI``, an area
with no plant, ``collab_variation`` 0, and headcounts from 0, so some
cells have no staff and no publications (52 publications).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from collabmetrics.cli import cli

GOLDEN = Path(__file__).resolve().parent
INPUT = GOLDEN / "input"
DIGESTS = GOLDEN / "digests.json"


def _corpus(directory: str) -> list[str]:
    """The five corpus options for the files in ``directory``."""
    return [
        "--pubs", f"{directory}/publications.jsonl", "--orgs", f"{directory}/organizations.csv",
        "--journals", f"{directory}/journals.csv", "--staff", f"{directory}/staff.csv",
        "--sectors", f"{directory}/sectors.csv",
    ]


CORPUS = _corpus("input")
FLAGS = ["--table2-mode", "weighted", "--quartile-scope", "per-sector", "--top", "3"]

# case name -> argv, in run order (the staged chain reads earlier outputs);
# each case that writes does so into out/<case name>
COMMANDS = {
    "validate": ["validate", *CORPUS],
    "all": ["all", *CORPUS, "--out", "out/all"],
    "all-flags": ["all", *CORPUS, "--out", "out/all-flags", *FLAGS, "--ci-mode", "ratio"],
    "indicators": ["indicators", *CORPUS, "--out", "out/indicators"],
    "aggregate": ["aggregate", "--indicators", "out/indicators/indicators.csv",
                  "--out", "out/aggregate"],
    "correlate": ["correlate", "--aggregates", "out/aggregate/aggregates.csv",
                  "--out", "out/correlate"],
    # threshold 8 also excludes U002/A02 and U003/A01 (7 staff each)
    "aggregate-8": ["aggregate", "--indicators", "out/indicators/indicators.csv",
                    "--threshold", "8", "--out", "out/aggregate-8"],
    "correlate-8": ["correlate", "--aggregates", "out/aggregate-8/aggregates.csv",
                    "--out", "out/correlate-8"],
    "report": ["report", *CORPUS, "--out", "out/report"],
    "report-flags": ["report", *CORPUS, "--out", "out/report-flags", *FLAGS],
    "synth": ["synth", "--seed", "7", "--params", "input/synth-params.json",
              "--out", "out/synth"],
    "all-period": ["all", *_corpus("out/synth"), "--period", "2001-2002",
                   "--out", "out/all-period"],
    "synth-default": ["synth", "--seed", "1", "--out", "out/synth-default"],
    "synth-zero": ["synth", "--seed", "7", "--params", "input/synth-zero-params.json",
                   "--out", "out/synth-zero"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _inside(directory: Path):
    previous = Path.cwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run_commands(work: Path) -> dict[str, str]:
    """Run ``COMMANDS`` in ``work`` (given a copy of ``input/``) and return
    the digests, keyed ``<case>/<file>``, ``<case> stdout``, ``<case>
    stderr`` and ``<case> exit code``."""
    shutil.copytree(INPUT, work / "input")
    runner = CliRunner()
    digests = {}
    with _inside(work):
        for case, argv in COMMANDS.items():
            result = runner.invoke(cli, argv)
            if not isinstance(result.exception, (SystemExit, type(None))):
                raise result.exception
            digests[f"{case} stdout"] = _sha256(result.stdout_bytes)
            digests[f"{case} stderr"] = _sha256(result.stderr_bytes)
            digests[f"{case} exit code"] = str(result.exit_code)
            out = work / "out" / case
            for path in sorted(out.rglob("*")) if out.is_dir() else ():
                if path.is_file():
                    digests[f"{case}/{path.relative_to(out).as_posix()}"] = \
                        _sha256(path.read_bytes())
    return digests


def differences(work: Path) -> list[str]:
    """Run ``COMMANDS`` in ``work`` and name each entry that differs from
    ``digests.json``: ``<key>: missing``, ``unexpected`` or ``changed``."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_commands(work)
    return [
        f"{key}: " + ("missing" if key not in got else "unexpected" if key not in expected
                      else "changed")
        for key in sorted(expected.keys() | got.keys())
        if expected.get(key) != got.get(key)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with digests.json instead of rewriting it")
    args = parser.parse_args()
    if args.check:
        with tempfile.TemporaryDirectory() as tmp:
            differing = differences(Path(tmp))
        for line in differing:
            print(line, file=sys.stderr)
        if differing:
            print(f"{len(differing)} entries differ from {DIGESTS}", file=sys.stderr)
            return 1
        print(f"every digest matches {DIGESTS}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_commands(Path(tmp))
    failed = [case for case in COMMANDS if digests[f"{case} exit code"] != "0"]
    if failed:  # the list pins working runs; a failure is a fault, not an answer
        print(f"not written: {', '.join(failed)} exited non-zero", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
