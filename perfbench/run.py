"""cclab benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload characters|identities|oracle|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; stdlib only.  Each round of a workload runs
in a fresh single-threaded worker process (perfbench/worker.py) on the
default 8 primes, and every job's output is scored against an answer fixed
in advance.  Rounds repeat while another one fits in --seconds (default:
BENCHMARK.json's run_seconds; at least one round runs); each timing is the
median over rounds, and set-up is also measured in extra set-up-only
processes before and after the rounds.  Every timing is CPU time, scaled to a reference speed of the
machine that the worker measures as it runs (worker.SpeedProbe).

With --trace 0 the last stdout line reports the end-to-end metrics named
in BENCHMARK.json; with --trace 1, one untraced and one traced round give
the per-layer metrics and the tracing overhead.  Failed jobs count in
`failed`; `correct` is false when a job fails that is not one of the
known defects documented in perfbench/NOTES.md.  Exit code 0 on success,
1 if a worker crashes or overruns, 2 on bad usage or a missing cclab
source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(HERE, "traces")

SETUP_PROBES = 8      # set-up-only processes per run, besides the rounds
RUN_LIMIT_S = 170     # hard cap on one run, all its processes included


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(workload: str, seed: int, extra, deadline: float) -> dict:
    # a fixed hash seed, and no bytecode cache: every set-up compiles the
    # same sources, whatever an earlier process left behind
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, WORKER, workload, str(seed), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker overran the run limit") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         f"{tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S

    def probe_setup(n):
        return [worker(workload, seed, ["--setup-only"], deadline)["setup_s"]
                for _ in range(n)]

    # set-up is probed before and after the rounds, so that one slow spell
    # of a shared machine does not colour every sample
    setups = probe_setup(SETUP_PROBES // 2)
    rounds = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(worker(workload, seed, [], deadline))
        took = time.monotonic() - began
        if trace or time.monotonic() - start + took > seconds:
            break
    setups += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    traced = None
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
        traced = worker(workload, seed, ["--trace", path], deadline)
        traced["trace_file"] = os.path.relpath(path, ROOT)
    return {"setups": setups + [r["setup_s"] for r in rounds],
            "rounds": rounds, "traced": traced}


def summarize(res: dict) -> dict:
    rounds = res["rounds"]
    every = rounds + ([res["traced"]] if res["traced"] else [])
    jobs = [j for r in every for j in r["jobs"]]
    slowest = [max(r["jobs"], key=lambda j: j["seconds"]) for r in rounds]
    out = {
        "setup_s": statistics.median(res["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "slowest_job_s": statistics.median(j["seconds"] for j in slowest),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "scale": statistics.median(r["wall_s"] / r["cpu_s"] for r in rounds),
        "attempted": len(jobs),
        "failed": sum(j["error"] is not None for j in jobs),
        "correct": all(j["error"] is None or j["known_defect"]
                       for j in jobs),
        "slowest_job": slowest[-1]["name"],
        "failures": sorted({(j["name"], j["error"]) for j in jobs
                            if j["error"]}),
    }
    out["failed_frac"] = out["failed"] / out["attempted"]
    if res["traced"]:
        layers = dict(res["traced"]["layers"])
        layers["trace.overhead_frac"] = (res["traced"]["wall_s"]
                                         / rounds[0]["wall_s"] - 1)
        out["layers"] = layers
    return out


def report(workload: str, seed: int, res: dict, s: dict, spec: dict):
    """Human-readable lines; the machine-readable line comes last."""
    n, jobs = len(res["rounds"]), len(res["rounds"][0]["jobs"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    notes = {
        "setup_s": f"median of {len(res['setups'])} set-ups "
                   "(import cclab + build inputs)",
        "wall_s": f"median of {n} round(s) of {jobs} jobs, checks "
                  f"excluded; CPU time {s['cpu_s']:.2f} s, scaled by "
                  f"{s['scale']:.3f}",
        "slowest_job_s": f"median of {n} round(s); slowest: "
                         f"{s['slowest_job']}",
        "peak_rss_mb": f"median of {n} round(s), ru_maxrss of the worker",
    }
    print(f"== {workload}  seed {seed}")
    for name in ("setup_s", "wall_s", "slowest_job_s", "peak_rss_mb"):
        print(f"  {name:<15} {s[name]:>10.4f} {units.get(name, ''):<3} "
              f"{notes[name]}")
    print(f"  {'failed_frac':<15} {s['failed_frac']:>10.4f}     "
          f"{s['failed']} of {s['attempted']} jobs attempted")
    for name, error in s["failures"]:
        print(f"    failed: {name}: {error}")
    if "layers" in s:
        traced = res["traced"]
        cpu = traced["cpu_s"]  # layer times are CPU time, not scaled
        shares = ", ".join(
            f"{m} {t / cpu:.0%}" for m, t in sorted(
                traced["module_self_s"].items(), key=lambda kv: -kv[1]) if t)
        print(f"  traced round {cpu:.2f} s CPU; self time by module: "
              f"{shares}")
        print(f"  spans and counters: {traced['trace_file']}")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {s['layers'][m['name']]:>14.6g} "
                  f"{m['unit']}")


def metrics(s: dict, spec: dict, trace: bool) -> dict:
    if trace:
        return {m["name"]: {"value": s["layers"][m["name"]],
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": s[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, exit through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "cclab", "__init__.py")):
        print(f"run.py: no cclab source tree at {SRC}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for w in chosen:
            res = run_workload(w, args.seed, args.seconds, bool(args.trace))
            summaries[w] = summarize(res)
            report(w, args.seed, res, summaries[w], spec)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
    }
    if args.workload == "all":
        result["metrics"] = {f"{w}.{k}": v for w, s in summaries.items()
                             for k, v in metrics(s, spec, args.trace).items()}
    else:
        result["metrics"] = metrics(summaries[args.workload], spec,
                                    args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
