"""Benchmark of the collabmetrics pipeline.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the workload's inputs from
the seed, runs operations for S seconds, checks every output, writes a
detailed record to .bench_build/results/ and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.

Workloads (one operation each, run one after another, never in parallel):
  all-M              `collabmetrics all` in a subprocess on corpus M, the
                     paper-scale synthetic system (about 48k publications,
                     one attribution each).
  staged-coauthored  indicators -> aggregate -> correlate -> report
                     (weighted area profile, per-sector quartiles), four
                     subprocesses, on M with co-authoring universities and
                     second sectors credited (about 1.55 attributions per
                     publication): the only workload with shared
                     publications and with the CSV readers.
Inputs depend on the seed N alone: corpus M is synth seed N, and the
co-authoring transform draws from its own stream keyed by N.

End-to-end metrics (--trace 0): wall_s, the median seconds per operation
including interpreter start-up; peak_rss_mb, the median over
operations of the largest peak RSS of the processes doing the work, read
per child through os.wait4; setup_s, the median of three builds of the
inputs.
Failed operations are counted in `failed`; the record also holds
failed_ops_ratio.

Per-layer metrics (--trace 1) come from a separate run that drives the
same commands in-process through cli.main(..., standalone_mode=False),
with the package's public functions wrapped (see tracing.py).  Times are
self seconds per operation (synth: per generated corpus), counts are per
operation; a layer the workload never runs reads 0.  cli.import_s is the
median time to import collabmetrics.cli in a fresh interpreter (the
staged chain pays it four times per operation), and trace.overhead_ratio
is the median traced over untraced wall time of the same in-process
operation.  Only a few such pairs fit in one run, and host-load noise
between the two halves of a pair (several per cent on a shared 2-core
host) is larger than the tracer's own cost, so the ratio only shows a
tracer that has become expensive; read near 1 it says nothing finer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

START = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
RESULTS = WORK / "results"

# The whole run must end within 180 s: no operation starts after
# LOOP_LIMIT_S, and a child still running at HARD_LIMIT_S is killed.
LOOP_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0
SETUP_REPS = 3
IMPORT_REPS = 3

CLI_CODE = "import sys; from collabmetrics.cli import cli; sys.exit(cli())"
IMPORT_CODE = ("import time; t = time.perf_counter(); import collabmetrics.cli; "
               "print(time.perf_counter() - t)")
CORPUS_ARGS = (
    "--pubs", "inputs/publications.jsonl", "--orgs", "inputs/organizations.csv",
    "--journals", "inputs/journals.csv", "--staff", "inputs/staff.csv",
    "--sectors", "inputs/sectors.csv",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, broken inputs)."""


@dataclass(frozen=True)
class CliWorkload:
    coauthor: bool
    commands: tuple[tuple[str, ...], ...]
    indicators: str
    aggregates: str
    crosstab: str


WORKLOADS = {
    "all-M": CliWorkload(
        coauthor=False,
        commands=(("all", *CORPUS_ARGS, "--out", "out/all"),),
        indicators="out/all/indicators.csv",
        aggregates="out/all/aggregates.csv",
        crosstab="out/all/crosstab.csv",
    ),
    "staged-coauthored": CliWorkload(
        coauthor=True,
        commands=(
            ("indicators", *CORPUS_ARGS, "--out", "out/indicators"),
            ("aggregate", "--indicators", "out/indicators/indicators.csv",
             "--out", "out/aggregate"),
            ("correlate", "--aggregates", "out/aggregate/aggregates.csv",
             "--out", "out/correlate"),
            ("report", *CORPUS_ARGS, "--out", "out/report",
             "--table2-mode", "weighted", "--quartile-scope", "per-sector"),
        ),
        indicators="out/indicators/indicators.csv",
        aggregates="out/aggregate/aggregates.csv",
        crosstab="out/report/crosstab.csv",
    ),
}


def late() -> bool:
    return time.monotonic() - START > LOOP_LIMIT_S


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


@contextlib.contextmanager
def reaped(proc: subprocess.Popen):
    """Kill proc at the hard limit, and on any exit from the block."""
    timer = threading.Timer(max(1.0, START + HARD_LIMIT_S - time.monotonic()), proc.kill)
    timer.start()
    try:
        yield proc
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def run_child(argv: list[str], cwd: Path) -> tuple[float, float, int, str]:
    """Run one process; returns (wall seconds, peak RSS MB, exit code, stderr)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        with reaped(proc):
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - start
        err.seek(0)
        text = err.read().decode("utf-8", "replace")
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, text


def import_seconds(work: Path) -> float:
    """Median time to import the CLI module in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=work, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"cannot import collabmetrics.cli:\n{proc.stderr}")
        samples.append(float(proc.stdout))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# CLI workloads


def setup_cli(wl: CliWorkload, seed: int, work: Path, tracer=None) -> tuple[list[float], dict]:
    samples = []
    for rep in range(SETUP_REPS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        with tracer.installed(f"setup-{rep}") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            corpus = inputs.build(seed, wl.coauthor, work / "inputs")
            samples.append(time.perf_counter() - start)
    stats = inputs.stats(corpus)
    del corpus
    problem = inputs.load_problem(work / "inputs") if wl.coauthor else None
    if problem:
        raise BenchError(f"co-authored corpus fails validation: {problem}")
    gc.collect()
    return samples, stats


def cli_op_subprocess(wl: CliWorkload, work: Path) -> dict:
    seconds, rss, problems = 0.0, 0.0, []
    for argv in wl.commands:
        wall, peak, code, err = run_child([sys.executable, "-c", CLI_CODE, *argv], work)
        seconds += wall
        rss = max(rss, peak)
        if code != 0 or checks.TRACEBACK in err:
            problems.append(f"{argv[0]} exited {code}: {err.strip()[-2000:]}")
            break
    return {"seconds": seconds, "peak_rss_mb": rss, "problems": problems}


def cli_op_inprocess(wl: CliWorkload, work: Path, tracer=None) -> dict:
    from collabmetrics import cli as cli_mod

    problems = []
    here = os.getcwd()
    os.chdir(work)
    start = time.perf_counter()
    try:
        for argv in wl.commands:
            stderr = io.StringIO()
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr), span:
                    cli_mod.cli.main(list(argv), prog_name="collabmetrics",
                                     standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    problems.append(f"{argv[0]} exited {exc.code}: {stderr.getvalue()}")
                    break
            except Exception:
                problems.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
                break
    finally:
        seconds = time.perf_counter() - start
        os.chdir(here)
    return {"seconds": seconds, "problems": problems}


def run_cli(wl: CliWorkload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    tracer = tracing.Tracer() if trace else None
    setup, expected = setup_cli(wl, seed, work, tracer)
    run = {"setup_s": setup, "inputs": expected, "digests": {}}

    def finish(op: dict) -> dict:
        """Check one operation's outputs; the first good operation sets the
        digests that every later one must match byte for byte."""
        if not op["problems"]:
            op["problems"] = checks.tables(work / wl.indicators, work / wl.aggregates,
                                           work / wl.crosstab, expected)
            digests = checks.digests(work / "out")
            if not run["digests"]:
                run["digests"] = digests
            elif digests != run["digests"]:
                op["problems"].append("output bytes differ from the first operation")
        shutil.rmtree(work / "out", ignore_errors=True)
        op["ok"] = not op["problems"]
        return op

    if trace:
        run["ops"], run["overhead_ratio"] = traced_pairs(
            seconds, tracer, lambda t: finish(cli_op_inprocess(wl, work, t)))
        run["tracer"] = tracer
        return run
    run["ops"] = []
    start = time.perf_counter()
    while not run["ops"] or (time.perf_counter() - start < seconds and not late()):
        run["ops"].append(finish(cli_op_subprocess(wl, work)))
    return run


def traced_pairs(seconds: float, tracer, op) -> tuple[list[dict], float]:
    """Run op(tracer or None) untraced and traced, pair after pair,
    for `seconds`; returns the operations and the median traced/untraced
    time ratio.  The order within a pair alternates, so neither side
    always runs on a warmer process."""
    ops, ratios = [], []
    start = time.perf_counter()
    while not ratios or (time.perf_counter() - start < seconds and not late()):
        index = len(ratios)
        pair = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(index):
                    pair[traced] = op(tracer)
            else:
                pair[traced] = op(None)
            gc.collect()
        ops += [pair[False], pair[True]]
        ratios.append(pair[True]["seconds"] / pair[False]["seconds"])
    return ops, statistics.median(ratios)


# ---------------------------------------------------------------------------
# Results


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def end_to_end(run: dict) -> dict:
    return {
        "wall_s": statistics.median(op["seconds"] for op in run["ops"]),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in run["ops"]),
        "setup_s": statistics.median(run["setup_s"]),
    }


def per_layer(run: dict, work: Path) -> dict:
    values = run["tracer"].layer_metrics()
    values["cli.import_s"] = import_seconds(work)
    values["trace.overhead_ratio"] = run["overhead_ratio"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "collabmetrics" / "cli.py").is_file():
        print(f"error: no collabmetrics sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    global checks, inputs, tracing
    import checks
    import inputs
    import tracing

    load_before = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        import_seconds(work)  # fills the bytecode cache, proves the package imports
        run = run_cli(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        values = per_layer(run, work) if args.trace else end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run["ops"])
    failed = sum(not op["ok"] for op in run["ops"])
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(environment(), loadavg_before=load_before,
                            loadavg_after=os.getloadavg()),
        "inputs": run["inputs"],
        "setup_s": run["setup_s"],
        "ops": run["ops"],
        "digests": run["digests"],
        "failed_ops_ratio": failed / attempted,
        "metrics": metrics,
    }
    if args.trace:
        run["tracer"].write_spans(RESULTS / f"{stem}.spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"{attempted} operations, {failed} failed; record in "
          f"{(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
