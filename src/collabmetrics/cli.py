"""Command-line pipeline driver.

Stages write their outputs plus a run manifest (configuration echo and
input digests, no timestamps) so identical inputs always produce
byte-identical output directories.  Intermediate tables
(indicators.csv, aggregates.csv) are written at full precision and are
valid stage inputs for partial reruns.

Every command that reads a corpus checks it with one function,
``corpus.validate_corpus``: ``validate`` reports what it finds, and the
others load with ``check`` and stop on any error.  Commands let library
errors propagate: the ``cli`` group turns each one (a bad corpus or stage
input, a failed computation, an unusable output path) into a single
``error:`` line and exit code 1.  Every command writes inside
``_writing``, into a scratch directory within the output directory; only a
run that completes moves its outputs into place, its manifest last and an
earlier run's manifest removed first, and only once each output name there
is absent or a regular file; then every ``.staging-*`` directory there goes
(its own, empty by then, and any a killed run left).  So a failed run
leaves the output directory as it was (or absent, if the run created it).
A run holds an exclusive ``flock`` on the output directory while it writes
there, and a second run into it meanwhile fails at once (POSIX only).
"""

from __future__ import annotations

import contextlib
import fcntl
import gc
import hashlib
import json
import math
import os
import shutil
import stat
import sys
import tempfile
from pathlib import Path

import click

from . import aggregate as agg
from . import indicators as ind
from . import reports
from .corpus import CORPUS_FILENAMES, Corpus, CorpusConfig, CorpusError, load_corpus
from .corpus import validate_corpus

INDICATORS_FILENAME = "indicators.csv"
AGGREGATES_FILENAME = "aggregates.csv"
MANIFEST_FILENAME = "run_manifest.json"


def _corpus_config(kw: dict) -> CorpusConfig:
    raw = kw["period"]
    parts = raw.split("-")
    try:
        if len(parts) <= 2:
            period = (int(parts[0]), int(parts[-1]))
            return CorpusConfig(home_country=kw["home_country"], period=period)
    except ValueError:  # not a year, or CorpusConfig's start > end
        pass
    raise click.BadParameter(f"expected YYYY or YYYY-YYYY (start <= end), got '{raw}'")


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


@contextlib.contextmanager
def _writing(out_dir: Path, command: str, config: dict, inputs: list[Path]):
    """Yield a scratch directory inside ``out_dir`` (created if needed) for
    the block to write into.  The run holds an exclusive ``flock`` on
    ``out_dir`` from before it makes the scratch directory to the end, and
    fails at once, removing nothing, if another run holds it.  Once the
    block completes, this run's manifest joins its outputs; if each of their
    names is absent from ``out_dir`` or a regular file there, an earlier
    run's manifest goes, each file moves into ``out_dir``, the manifest
    last, and every ``.staging-*`` directory goes (this run's, empty by
    then, and a killed run's).  On failure the scratch directory goes, and
    so do ``out_dir`` and its parents if this run's own ``mkdir`` created
    them; files that the run does not write always survive."""
    created = None  # the top of the directories down to out_dir that this run's mkdir made
    for path in reversed([p for p in (out_dir, *out_dir.parents) if not p.exists()]):
        try:
            os.mkdir(path)
        except FileExistsError:  # another run made it: not this run's to remove
            created = None
        else:
            created = created or path
    lock = os.open(out_dir, os.O_RDONLY | os.O_DIRECTORY)  # a killed run's flock goes with it
    try:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OSError(f"{out_dir}: another run is writing here") from None
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
        try:
            yield staging
            manifest = {
                "command": command,
                "config": config,
                "inputs": {str(p): _digest(p) for p in inputs},
            }
            with open(staging / MANIFEST_FILENAME, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            moves = sorted(staging.iterdir(), key=lambda p: (p.name == MANIFEST_FILENAME, p.name))
            for path in moves:
                with contextlib.suppress(FileNotFoundError):
                    if not stat.S_ISREG(os.lstat(out_dir / path.name).st_mode):
                        raise OSError(f"{out_dir / path.name}: not a regular file")
            (out_dir / MANIFEST_FILENAME).unlink(missing_ok=True)
            for path in moves:
                os.replace(path, out_dir / path.name)
        except BaseException:
            shutil.rmtree(created or staging, ignore_errors=True)
            raise
        for stale in out_dir.glob(".staging-*"):
            shutil.rmtree(stale, ignore_errors=True)
    finally:
        os.close(lock)

INPUT_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)

# the flag of each corpus file, in load_corpus and CORPUS_FILENAMES order; the flag
# names are manifest keys
CORPUS_FILES = ("pubs", "orgs", "journals", "staff", "sectors")
DEFAULT_CONFIG = CorpusConfig()

corpus_options = (
    *(click.option(f"--{name}", required=True, type=INPUT_FILE, help=f"{filename} input")
      for name, filename in zip(CORPUS_FILES, CORPUS_FILENAMES.values())),
    click.option("--home-country", default=DEFAULT_CONFIG.home_country, show_default=True,
                 help="ISO country code of the domestic system"),
    click.option("--period", default="{}-{}".format(*DEFAULT_CONFIG.period), show_default=True,
                 help="survey period, YYYY or YYYY-YYYY"),
)

out_options = (
    click.option("--out", "out_dir", required=True,
                 type=click.Path(file_okay=False, path_type=Path),
                 help="output directory"),
)


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):  # FloatRange lets NaN through, and infinity above a minimum
        raise click.BadParameter(f"{value} is not a finite number")
    return value


aggregate_options = (
    click.option("--ci-mode", type=click.Choice(list(agg.CI_MODES)), default="share",
                 show_default=True, help="CI reading fed into normalization"),
    click.option("--threshold", type=click.FloatRange(min=0, min_open=True),
                 default=5.0, show_default=True, callback=_finite,
                 help="minimum period-average area staff"),
)

report_options = (
    click.option("--quartile-scope", type=click.Choice(list(reports.QUARTILE_SCOPES)),
                 default="global", show_default=True,
                 help="impact-factor quartiles over all publications or within each sector"),
    click.option("--table2-mode", type=click.Choice(list(reports.AREA_PROFILE_MODES)),
                 default="pooled", show_default=True,
                 help="area profile from pooled publications or staff-weighted cells"),
    click.option("--top", "top_n", type=click.IntRange(min=1), default=1, show_default=True,
                 help="sectors listed per area in the top-sector tables"),
)


def with_options(*groups):
    """Apply the option groups, in order, to a command function."""
    def decorate(fn):
        for option in reversed([option for group in groups for option in group]):
            fn = option(fn)
        return fn
    return decorate


def _corpus_inputs(kw: dict) -> list[Path]:
    return [kw[name] for name in CORPUS_FILES]


def _config_echo(kw: dict, **extra) -> dict:
    config = {name: str(kw[name]) for name in CORPUS_FILES}
    return config | {"home_country": kw["home_country"], "period": kw["period"]} | extra


def _load(kw: dict, *, check: bool = True) -> Corpus:
    return load_corpus(*_corpus_inputs(kw), _corpus_config(kw), check=check)


class _Pipeline(click.Group):
    """The command group: each library error ends a command in one ``error:`` line
    (SynthParamsError is a ValueError; OSError covers an unusable output path;
    OverflowError a finite input value too large to average or square;
    MemoryError, ``error: out of memory``, a synth size too large to build).

    A command runs with the cyclic garbage collector paused: the corpus and
    everything derived from it hold no reference cycles, so a collection
    frees next to nothing and only rescans the growing heap.  Reference
    counting still frees everything else."""

    def invoke(self, ctx: click.Context):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except (CorpusError, reports.ReportError, ValueError, OSError, OverflowError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except MemoryError:
            click.echo("error: out of memory", err=True)
            sys.exit(1)
        finally:
            if gc_was_enabled:
                gc.enable()


@click.group(cls=_Pipeline)
def cli():
    """Collaboration and productivity indicators from co-authorship corpora."""


@cli.command()
@with_options(corpus_options)
def validate(**kw):
    """Check corpus files and report every consistency issue."""
    corpus = _load(kw, check=False)
    report = validate_corpus(corpus)  # the loaders have checked every record
    for issue in report.issues:
        click.echo(issue.describe())
    click.echo(
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s) in "
        f"{len(corpus.publications)} publication(s)"
    )
    if not report.ok:
        sys.exit(1)


@cli.command()
@with_options(corpus_options, out_options)
def indicators(out_dir: Path, **kw):
    """Compute per-(university, sector) indicators."""
    corpus = _load(kw)
    records = ind.compute_indicators(corpus)
    with _writing(out_dir, "indicators", _config_echo(kw), _corpus_inputs(kw)) as staging:
        ind.write_indicators_csv(records, corpus.sectors, staging / INDICATORS_FILENAME)
    click.echo(f"wrote {len(records)} records to {out_dir / INDICATORS_FILENAME}")


@cli.command()
@click.option("--indicators", "indicators_path", required=True, type=INPUT_FILE,
              help="indicators.csv produced by the indicators stage")
@with_options(out_options, aggregate_options)
def aggregate(indicators_path: Path, out_dir: Path, ci_mode: str, threshold: float):
    """Normalize to sector means and aggregate to areas."""
    records, sectors = ind.read_indicators_csv(indicators_path)
    result = _aggregate_records(records, sectors, ci_mode, threshold)
    config = {"ci_mode": ci_mode, "threshold": threshold}
    with _writing(out_dir, "aggregate", config, [indicators_path]) as staging:
        agg.write_aggregates_csv(result, staging / AGGREGATES_FILENAME)
    click.echo(f"wrote {len(result.kept) + len(result.excluded)} aggregates to "
               f"{out_dir / AGGREGATES_FILENAME}")


@cli.command()
@with_options(corpus_options, out_options, report_options)
def report(out_dir: Path, quartile_scope: str, table2_mode: str, top_n: int, **kw):
    """Build the cross-tab, area profile, dispersion and top-sector tables."""
    corpus = _load(kw)
    records = ind.compute_indicators(corpus)
    config = _config_echo(kw, quartile_scope=quartile_scope, table2_mode=table2_mode, top=top_n)
    with _writing(out_dir, "report", config, _corpus_inputs(kw)) as staging:
        _write_reports(corpus, records, staging, quartile_scope, table2_mode, top_n)
    click.echo(f"wrote report tables to {out_dir}")


@cli.command()
@click.option("--aggregates", "aggregates_path", required=True, type=INPUT_FILE,
              help="aggregates.csv produced by the aggregate stage")
@with_options(out_options)
def correlate(aggregates_path: Path, out_dir: Path):
    """Correlate performance indicators with each collaboration metric."""
    result = agg.read_aggregates_csv(aggregates_path)
    with _writing(out_dir, "correlate", {}, [aggregates_path]) as staging:
        _write_correlations(result.kept, staging)
    click.echo(f"wrote correlation tables to {out_dir}")


@cli.command("synth")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--params", "params_path", type=INPUT_FILE,
              help="JSON file overriding generator parameters")
@with_options(out_options)
def synth_command(seed: int, params_path: Path | None, out_dir: Path):
    """Generate a seeded synthetic corpus with ground truth."""
    from . import synth  # deferred: its ~20 ms import would slow every other command

    result = synth.generate_corpus(synth.load_params(seed, params_path))
    config = {"seed": seed, "params": str(params_path) if params_path else None}
    with _writing(out_dir, "synth", config, [params_path] if params_path else []) as staging:
        synth.write_synthetic(result, staging)
    click.echo(
        f"wrote synthetic corpus ({len(result.corpus.publications)} publications) "
        f"to {out_dir}"
    )


@cli.command("all")
@with_options(corpus_options, out_options, aggregate_options, report_options)
def run_all(out_dir: Path, ci_mode: str, threshold: float, quartile_scope: str,
            table2_mode: str, top_n: int, **kw):
    """Run validate, indicators, aggregate, report and correlate."""
    corpus = _load(kw)  # checked load doubles as the validate stage
    config = _config_echo(kw, ci_mode=ci_mode, threshold=threshold,
                          quartile_scope=quartile_scope, table2_mode=table2_mode, top=top_n)
    with _writing(out_dir, "all", config, _corpus_inputs(kw)) as staging:
        records = ind.compute_indicators(corpus)
        ind.write_indicators_csv(records, corpus.sectors, staging / INDICATORS_FILENAME)
        result = _aggregate_records(records, corpus.sectors, ci_mode, threshold)
        agg.write_aggregates_csv(result, staging / AGGREGATES_FILENAME)
        _write_reports(corpus, records, staging, quartile_scope, table2_mode, top_n)
        _write_correlations(result.kept, staging)
    click.echo(f"pipeline complete: {out_dir}")


def _aggregate_records(records, sectors, ci_mode: str, threshold: float) -> agg.FilterResult:
    normalized = agg.normalize_to_sds_mean(records, ci_mode=ci_mode)
    for sds, indicator in normalized.zero_mean:
        click.echo(
            f"warning: sector '{sds}' has zero mean {indicator}; "
            "normalized values undefined", err=True,
        )
    result = agg.filter_small_universities(agg.aggregate_area(normalized.cells, sectors),
                                           threshold=threshold)
    for row in result.excluded:
        click.echo(
            f"excluded {row.university}/{row.area} "
            f"(area staff {row.staff:g} < {threshold:g})"
        )
    return result


def _write_reports(corpus: Corpus, records: list[ind.IndicatorRecord], out_dir: Path,
                   quartile_scope: str, table2_mode: str, top_n: int) -> None:
    crosstab = reports.build_crosstab(corpus, quartile_scope=quartile_scope)
    reports.emit_crosstab(crosstab, out_dir / "crosstab.csv")
    profile = reports.build_area_profile(corpus, records, mode=table2_mode)
    reports.emit_area_profile(profile, out_dir / "area_profile.csv")
    dispersion, warnings = reports.build_dispersion_table(records, corpus.sectors)
    for message in warnings:
        click.echo(f"warning: {message}", err=True)
    reports.emit_dispersion(dispersion, out_dir / "dispersion.csv")
    for metric in ("FCI", "DCI"):
        top = reports.build_top_sector_table(records, corpus.sectors, metric, top_n=top_n)
        reports.emit_top_sectors(top, metric, out_dir / f"top_sectors_{metric.lower()}.csv")


def _write_correlations(kept, out_dir: Path) -> None:
    for metric in reports.COLLAB_METRICS:
        table = reports.build_correlation_table(kept, collab_metric=metric)
        reports.emit_correlation(table, out_dir / f"correlation_{metric.lower()}.csv")


if __name__ == "__main__":
    cli()
