"""One round of one workload, in a fresh single-threaded process.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED [--trace FILE]
                                               [--setup-only]

Imports cclab, builds the workload's inputs from the seed (together:
`setup_s`), runs every job once, scores it, and prints one JSON object on
stdout.  Every time is the process's CPU time (`time.process_time`); the
worker is single-threaded, so that is its running time less any time the
CPU was taken from it.  Reported times are also scaled to a reference
speed of the machine, measured as the jobs run (SpeedProbe).  A fresh
process per round keeps cclab's module-level caches cold at the start of
every round; the benchmark never reads or clears them.  With --trace the
tracer is installed before the jobs run and its spans and
counters are written to FILE.
"""

from __future__ import annotations

import time

_START = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

from cclab.config import default_primes  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# CPU seconds the reference loop takes at the speed every timing is scaled
# to (its mean on the 2-vCPU machine of the baseline in NOTES.md).
REFERENCE_S = 0.010
PROBE_EVERY_S = 0.25   # CPU seconds between two reference loops
SETUP_PROBES = 5       # reference loops after a set-up-only run
JOB_SAMPLES = 20       # loops a job must hold to be scaled by its own speed


def reference_loop():
    """A fixed piece of interpreted integer, list and dict work, of the kind
    cclab's jobs are made of."""
    row = list(range(1, 65))
    seen = {}
    acc = 0
    for i in range(30000):
        a = row[i & 63] * (acc + i) % 53
        row[(i * 7) & 63] = a + 1
        seen[a] = seen.get(a, 0) + 1
        acc = (acc + a * a) % 1000003
    return acc


class SpeedProbe:
    """The machine's speed while the jobs run.

    Every PROBE_EVERY_S of CPU time a profiling-timer signal runs
    reference_loop once and records its CPU time; `clock` is the process's
    CPU time less the time spent in those loops.  The CPU time of the same
    work varies by tens of percent on a shared machine, from minute to
    minute, and the reference loop slows down with the jobs; `scale`
    converts CPU seconds measured while some of the samples were taken to
    seconds at the speed where the loop takes REFERENCE_S.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.process_time() - self.spent

    def sample(self, *_):
        start = time.process_time()
        reference_loop()
        took = time.process_time() - start
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample()

    @staticmethod
    def scale(samples) -> float:
        """Factor from CPU seconds at the speed the samples were taken to
        CPU seconds at the reference speed."""
        return REFERENCE_S / statistics.fmean(samples)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    jobs = workloads.build(args.workload, args.seed, default_primes())
    setup_cpu_s = time.process_time() - _START
    probe = SpeedProbe()
    if args.setup_only:
        for _ in range(SETUP_PROBES):
            probe.sample()
        print(json.dumps({"setup_s": setup_cpu_s
                          * probe.scale(probe.samples)}))
        return

    tracer = Tracer(probe.clock) if args.trace else None
    if tracer:
        tracer.install()
    done = []
    probe.start()
    for job in jobs:
        error = None
        first = len(probe.samples)
        start = probe.clock()
        try:
            if tracer:
                tracer.job = job.name
                out = tracer.span("job", job.run)
            else:
                out = job.run()
        except Exception as exc:  # a job that raises is scored as failed
            error = f"{type(exc).__name__}: {exc}"
        cpu_s = probe.clock() - start
        samples = probe.samples[first:]
        if error is None:
            ok = tracer.pause(lambda: job.check(out)) if tracer else \
                job.check(out)
            if not ok:
                error = "wrong answer"
        done.append({"name": job.name, "cpu_s": cpu_s, "samples": samples,
                     "error": error,
                     "known_defect": workloads.known_defect(job.name,
                                                            error)})
    probe.stop()

    # A job long enough to hold JOB_SAMPLES loops is scaled by the speed
    # measured during it, any other job by the speed of the whole round.
    scale = probe.scale(probe.samples)
    for j in done:
        samples = j.pop("samples")
        j["seconds"] = j["cpu_s"] * (probe.scale(samples)
                                     if len(samples) >= JOB_SAMPLES
                                     else scale)
    result = {"setup_s": setup_cpu_s * scale, "jobs": done}
    result["cpu_s"] = sum(j["cpu_s"] for j in done)
    result["wall_s"] = sum(j["seconds"] for j in done)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.finish()
        tracer.dump(args.trace)
        result["layers"] = tracer.layer_metrics()
        result["module_self_s"] = tracer.module_self_time()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
