"""Output checks.  Each returns a list of problems; empty means correct."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

TRACEBACK = "Traceback (most recent call last)"


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under directory, keyed by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def tables(indicators: Path, aggregates: Path, crosstab: Path, expected: dict) -> list[str]:
    """Compare the pipeline's tables with counts taken from its input."""
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got}, expected {want}")

    rows = _rows(indicators)
    expect("indicators.csv rows", len(rows), expected["cells"])
    expect("indicators.csv sum of O", sum(int(r["O"]) for r in rows), expected["attributions"])
    expect("aggregates.csv rows", len(_rows(aggregates)), expected["area_rows"])
    total = [r for r in _rows(crosstab) if r["quartile"] == "total"]
    grand = int(total[0]["total"]) if len(total) == 1 else None
    expect("crosstab.csv grand total", grand, expected["publications"])
    return problems
