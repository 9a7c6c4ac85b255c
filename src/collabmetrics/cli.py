"""Command-line pipeline driver.

Stages write their outputs plus a run manifest (configuration echo and
input digests, no timestamps) so identical inputs always produce
byte-identical output directories.  Intermediate tables
(indicators.csv, aggregates.csv) are written at full precision and are
valid stage inputs for partial reruns.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import click

from . import aggregate as agg
from . import indicators as ind
from . import reports, synth
from .corpus import (
    Corpus,
    CorpusConfig,
    CorpusError,
    load_corpus,
    validate_corpus,
)

INDICATORS_FILENAME = "indicators.csv"
AGGREGATES_FILENAME = "aggregates.csv"
MANIFEST_FILENAME = "run_manifest.json"

REPORT_FILENAMES = {
    "crosstab": "crosstab.csv",
    "area_profile": "area_profile.csv",
    "dispersion": "dispersion.csv",
    "top_fci": "top_sectors_fci.csv",
    "top_dci": "top_sectors_dci.csv",
}


def _parse_period(raw: str) -> tuple[int, int]:
    parts = raw.split("-")
    try:
        if len(parts) == 1:
            year = int(parts[0])
            return (year, year)
        if len(parts) == 2 and int(parts[0]) <= int(parts[1]):
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise click.BadParameter(f"expected YYYY or YYYY-YYYY (start <= end), got '{raw}'")


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _digest(p) for p in inputs},
    }
    with open(out_dir / MANIFEST_FILENAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out_dir(out_dir: Path) -> None:
    """Create the output directory and remove an earlier run's manifest, so
    that a run failing part-way leaves no manifest beside its outputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / MANIFEST_FILENAME).unlink(missing_ok=True)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


corpus_options = [
    click.option("--pubs", "pub_path", required=True,
                 type=click.Path(exists=True, dir_okay=False, path_type=Path),
                 help="publications.jsonl input"),
    click.option("--orgs", "org_path", required=True,
                 type=click.Path(exists=True, dir_okay=False, path_type=Path),
                 help="organizations.csv input"),
    click.option("--journals", "journal_path", required=True,
                 type=click.Path(exists=True, dir_okay=False, path_type=Path),
                 help="journals.csv input"),
    click.option("--staff", "staff_path", required=True,
                 type=click.Path(exists=True, dir_okay=False, path_type=Path),
                 help="staff.csv input"),
    click.option("--sectors", "sector_path", required=True,
                 type=click.Path(exists=True, dir_okay=False, path_type=Path),
                 help="sectors.csv input"),
    click.option("--home-country", default="IT", show_default=True,
                 help="ISO country code of the domestic system"),
    click.option("--period", default="2001-2003", show_default=True,
                 help="survey period, YYYY or YYYY-YYYY"),
]


def with_corpus_options(fn):
    for option in reversed(corpus_options):
        fn = option(fn)
    return fn


def _corpus_inputs(kw: dict) -> list[Path]:
    return [kw["pub_path"], kw["org_path"], kw["journal_path"],
            kw["staff_path"], kw["sector_path"]]


def _load(kw: dict, *, check: bool = True) -> Corpus:
    config = CorpusConfig(home_country=kw["home_country"], period=_parse_period(kw["period"]))
    try:
        return load_corpus(
            kw["pub_path"], kw["org_path"], kw["journal_path"],
            kw["staff_path"], kw["sector_path"], config, check=check,
        )
    except CorpusError as exc:
        _fail(str(exc))


@click.group()
def cli():
    """Collaboration and productivity indicators from co-authorship corpora."""


@cli.command()
@with_corpus_options
def validate(**kw):
    """Check corpus files and report every consistency issue."""
    corpus = _load(kw, check=False)
    report = validate_corpus(corpus)
    for issue in report.issues:
        click.echo(issue.describe())
    click.echo(
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s) in "
        f"{len(corpus.publications)} publication(s)"
    )
    if not report.ok:
        sys.exit(1)


@cli.command()
@with_corpus_options
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="output directory")
def indicators(out_dir: Path, **kw):
    """Compute per-(university, sector) indicators."""
    corpus = _load(kw)
    records = _compute_records(corpus)
    _prepare_out_dir(out_dir)
    ind.write_indicators_csv(records, corpus.sectors, out_dir / INDICATORS_FILENAME)
    _write_manifest(out_dir, "indicators", _config_echo(kw), _corpus_inputs(kw))
    click.echo(f"wrote {len(records)} records to {out_dir / INDICATORS_FILENAME}")


@cli.command()
@click.option("--indicators", "indicators_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="indicators.csv produced by the indicators stage")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
@click.option("--ci-mode", type=click.Choice(["share", "ratio"]), default="share",
              show_default=True, help="CI reading fed into normalization")
@click.option("--threshold", type=click.FloatRange(min=0, min_open=True),
              default=5.0, show_default=True, help="minimum period-average area staff")
def aggregate(indicators_path: Path, out_dir: Path, ci_mode: str, threshold: float):
    """Normalize to sector means and aggregate to areas."""
    try:
        records, sectors = ind.read_indicators_csv(indicators_path)
        aggregates, result = _aggregate_records(records, sectors, ci_mode, threshold)
    except (CorpusError, agg.AggregateError) as exc:
        _fail(str(exc))
    _prepare_out_dir(out_dir)
    agg.write_aggregates_csv(aggregates, result.excluded, out_dir / AGGREGATES_FILENAME)
    _write_manifest(
        out_dir, "aggregate",
        {"ci_mode": ci_mode, "threshold": threshold},
        [indicators_path],
    )
    for exclusion in result.excluded:
        click.echo(
            f"excluded {exclusion.university}/{exclusion.area} "
            f"(area staff {exclusion.area_staff:g} < {threshold:g})"
        )
    click.echo(f"wrote {len(aggregates)} aggregates to {out_dir / AGGREGATES_FILENAME}")


@cli.command()
@with_corpus_options
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
@click.option("--quartile-scope", type=click.Choice(["global", "per-sector"]),
              default="global", show_default=True)
@click.option("--table2-mode", type=click.Choice(["pooled", "weighted"]),
              default="pooled", show_default=True)
@click.option("--top", "top_n", type=click.IntRange(min=1), default=1, show_default=True,
              help="sectors listed per area in the top-sector tables")
def report(out_dir: Path, quartile_scope: str, table2_mode: str, top_n: int, **kw):
    """Build the cross-tab, area profile, dispersion and top-sector tables."""
    corpus = _load(kw)
    records = _compute_records(corpus)
    _prepare_out_dir(out_dir)
    try:
        _write_reports(corpus, records, out_dir, quartile_scope, table2_mode, top_n)
    except (reports.ReportError, ind.IndicatorError, ValueError) as exc:
        _fail(str(exc))
    _write_manifest(
        out_dir, "report",
        _config_echo(kw, quartile_scope=quartile_scope, table2_mode=table2_mode, top=top_n),
        _corpus_inputs(kw),
    )
    click.echo(f"wrote report tables to {out_dir}")


@cli.command()
@click.option("--aggregates", "aggregates_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="aggregates.csv produced by the aggregate stage")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def correlate(aggregates_path: Path, out_dir: Path):
    """Correlate performance indicators with each collaboration metric."""
    try:
        result = agg.read_aggregates_csv(aggregates_path)
    except CorpusError as exc:
        _fail(str(exc))
    _prepare_out_dir(out_dir)
    _write_correlations(result.kept, out_dir)
    _write_manifest(out_dir, "correlate", {}, [aggregates_path])
    click.echo(f"wrote correlation tables to {out_dir}")


@cli.command("synth")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--params", "params_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="JSON file overriding generator parameters")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def synth_command(seed: int, params_path: Path | None, out_dir: Path):
    """Generate a seeded synthetic corpus with ground truth."""
    try:
        params = _load_synth_params(seed, params_path)
        result = synth.generate_corpus(params)
    except (synth.SynthParamsError, json.JSONDecodeError, TypeError) as exc:
        _fail(str(exc))
    _prepare_out_dir(out_dir)
    synth.write_synthetic(result, out_dir)
    _write_manifest(
        out_dir, "synth",
        {"seed": seed, "params": str(params_path) if params_path else None},
        [params_path] if params_path else [],
    )
    click.echo(
        f"wrote synthetic corpus ({len(result.corpus.publications)} publications) "
        f"to {out_dir}"
    )


@cli.command("all")
@with_corpus_options
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
@click.option("--ci-mode", type=click.Choice(["share", "ratio"]), default="share",
              show_default=True)
@click.option("--threshold", type=click.FloatRange(min=0, min_open=True),
              default=5.0, show_default=True)
@click.option("--quartile-scope", type=click.Choice(["global", "per-sector"]),
              default="global", show_default=True)
@click.option("--table2-mode", type=click.Choice(["pooled", "weighted"]),
              default="pooled", show_default=True)
@click.option("--top", "top_n", type=click.IntRange(min=1), default=1, show_default=True)
def run_all(out_dir: Path, ci_mode: str, threshold: float, quartile_scope: str,
            table2_mode: str, top_n: int, **kw):
    """Run validate, indicators, aggregate, report and correlate."""
    corpus = _load(kw)  # checked load doubles as the validate stage
    _prepare_out_dir(out_dir)
    try:
        records = _compute_records(corpus)
        ind.write_indicators_csv(records, corpus.sectors, out_dir / INDICATORS_FILENAME)
        aggregates, result = _aggregate_records(records, corpus.sectors, ci_mode, threshold)
        agg.write_aggregates_csv(aggregates, result.excluded, out_dir / AGGREGATES_FILENAME)
        _write_reports(corpus, records, out_dir, quartile_scope, table2_mode, top_n)
        _write_correlations(result.kept, out_dir)
    except (ind.IndicatorError, agg.AggregateError, reports.ReportError, ValueError) as exc:
        _fail(str(exc))
    _write_manifest(
        out_dir, "all",
        _config_echo(kw, ci_mode=ci_mode, threshold=threshold,
                     quartile_scope=quartile_scope, table2_mode=table2_mode, top=top_n),
        _corpus_inputs(kw),
    )
    click.echo(f"pipeline complete: {out_dir}")


def _config_echo(kw: dict, **extra) -> dict:
    config = {
        "pubs": str(kw["pub_path"]),
        "orgs": str(kw["org_path"]),
        "journals": str(kw["journal_path"]),
        "staff": str(kw["staff_path"]),
        "sectors": str(kw["sector_path"]),
        "home_country": kw["home_country"],
        "period": kw["period"],
    }
    config.update(extra)
    return config


def _compute_records(corpus: Corpus) -> list[ind.IndicatorRecord]:
    try:
        return ind.compute_indicators(corpus)
    except ind.IndicatorError as exc:
        _fail(str(exc))


def _aggregate_records(records, sectors, ci_mode: str, threshold: float):
    normalized = agg.normalize_to_sds_mean(records, ci_mode=ci_mode)
    for sds, indicator in normalized.zero_mean:
        click.echo(
            f"warning: sector '{sds}' has zero mean {indicator}; "
            "normalized values undefined", err=True,
        )
    aggregates = agg.aggregate_area(normalized.cells, sectors)
    return aggregates, agg.filter_small_universities(aggregates, threshold=threshold)


def _write_reports(corpus: Corpus, records: list[ind.IndicatorRecord], out_dir: Path,
                   quartile_scope: str, table2_mode: str, top_n: int) -> None:
    crosstab = reports.build_crosstab(corpus, quartile_scope=quartile_scope)
    reports.emit_crosstab(crosstab, out_dir / REPORT_FILENAMES["crosstab"])
    profile = reports.build_area_profile(corpus, records, mode=table2_mode)
    reports.emit_area_profile(profile, out_dir / REPORT_FILENAMES["area_profile"])
    dispersion, warnings = reports.build_dispersion_table(records, corpus.sectors)
    for message in warnings:
        click.echo(f"warning: {message}", err=True)
    reports.emit_dispersion(dispersion, out_dir / REPORT_FILENAMES["dispersion"])
    for metric, key in (("FCI", "top_fci"), ("DCI", "top_dci")):
        top = reports.build_top_sector_table(records, corpus.sectors, metric, top_n=top_n)
        reports.emit_top_sectors(top, metric, out_dir / REPORT_FILENAMES[key])


def _write_correlations(kept, out_dir: Path) -> None:
    for metric in reports.COLLAB_METRICS:
        table = reports.build_correlation_table(kept, collab_metric=metric)
        reports.emit_correlation(table, out_dir / f"correlation_{metric.lower()}.csv")


def _load_synth_params(seed: int, params_path: Path | None) -> synth.SynthParams:
    if params_path is None:
        return synth.SynthParams(seed=seed)
    raw = json.loads(params_path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise synth.SynthParamsError("params file must hold a JSON object")
    if "collab_propensities" in raw:
        raw["collab_propensities"] = synth.Propensities(**raw["collab_propensities"])
    for key in ("area_propensity_overrides", "sds_propensity_overrides"):
        if key in raw:
            raw[key] = {
                name: synth.Propensities(**props) for name, props in raw[key].items()
            }
    if "planted_associations" in raw:
        raw["planted_associations"] = tuple(
            synth.PlantedAssociation(**assoc) for assoc in raw["planted_associations"]
        )
    if "staff_range" in raw:
        raw["staff_range"] = tuple(raw["staff_range"])
    if "if_lognormal" in raw:
        raw["if_lognormal"] = tuple(raw["if_lognormal"])
    raw.setdefault("seed", seed)
    return synth.SynthParams(**raw)


if __name__ == "__main__":
    cli()
