"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload characters --seeds 1-10

Runs run.py once per seed (one after another) and prints, for each
end-to-end metric, its median, quartiles and spread: the distance between
the first and third quartile as a share of the median, next to the bound
from BENCHMARK.json.  A later change is judged against these spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4f}"
                  for k, v in result["metrics"].items()), flush=True)
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{m['name']:<15} median {med:10.4f}  q1 {q1:10.4f}  "
              f"q3 {q3:10.4f}  spread {(q3 - q1) / med:6.3f}  "
              f"bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
