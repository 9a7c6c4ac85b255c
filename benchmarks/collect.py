"""Run the benchmark over several seeds and summarise every metric.

    python3 benchmarks/collect.py [--workloads all-M,...] [--seeds 1-10]
                                  [--seconds S] [--out FILE]

Run it from the repository root.  For each workload it runs run.py once
per seed with --trace 0, then once with --trace 1 on the first seed.  It
reports, per end-to-end metric, the values, their median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to
the metric's bound; per-layer values come from the traced run.  The
output is the shape of a BENCH_<n>.json trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_build" / "results"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its detailed record."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)

    out = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result, record = run(workload, seed, args.seconds, 0)
            results.append(result)
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
        traced, traced_record = run(workload, seeds[0], args.seconds, 1)
        out["environment"] = record["environment"]
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "inputs_first_seed": traced_record["inputs"],
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results],
                                   m["bound"])
                for m in spec["end_to_end"]
            },
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_failed": traced["failed"],
        }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    for workload, data in out["workloads"].items():
        for name, s in data["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  (over a third of the bound)"
            print(f"{workload:18} {name:12} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} bound {s['bound']}{flag}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
