"""Golden digests: the SHA-256 of every output of a fixed command list.

    PYTHONPATH=src python tests/golden/update.py

Run it from the repository root.  It runs ``COMMANDS`` on the frozen
corpus in ``input/`` and rewrites ``digests.json`` with the digest of
every file each command writes, of its stdout and stderr, and its exit
code.  ``tests/test_golden.py`` reruns the list and names every entry
that differs.  A change that moves a digest says which and why.

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
"""

from __future__ import annotations

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

CORPUS = [
    "--pubs", "input/publications.jsonl", "--orgs", "input/organizations.csv",
    "--journals", "input/journals.csv", "--staff", "input/staff.csv",
    "--sectors", "input/sectors.csv",
]
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


def main() -> int:
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
