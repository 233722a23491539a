#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload stream --seeds 1 2 3 4 5

Runs `perfbench/run.py` once per seed (untraced) and prints, for every
end-to-end metric in BENCHMARK.json, the median over the runs and the
distance between the first and third quartiles as a share of the median —
the spread each metric's bound must exceed. With `--json PATH` it also
records those figures under the workload's name in PATH (kept across
calls, so one file can hold every workload).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    config = json.loads(Path("BENCHMARK.json").read_text())
    seconds = config["run_seconds"]

    values: dict[str, list[float]] = {m["name"]: [] for m in config["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"{args.workload:<12} {name:<20} median {med:<14.6g} spread {spread:.4f}"
              f"  bound {bounds[name]}  {'ok' if spread < bounds[name] / 3 else 'WIDE'}")
    if args.json:
        recorded = json.loads(args.json.read_text()) if args.json.exists() else {}
        recorded[args.workload] = {"seeds": args.seeds, "seconds": seconds, "metrics": summary}
        args.json.write_text(json.dumps(recorded, indent=2) + "\n")


if __name__ == "__main__":
    main()
