"""Print what the command line answers on the stock modules, one line a
call, so that two versions of the package can be compared by a diff of
this script's output.

Run from the repository root:

    PYTHONPATH=src python scripts/digest.py [--quivers a2,a3,kronecker,d4t]

It runs `cc`, `grass` and `verify xx1|xx2|unified`, each with
`--format structured` and the default primes, in process on every ordered
pair of stock modules of one quiver whose total dimension is at most 6.
The stock modules of a quiver are its simple, projective and injective
modules, each isomorphism class once, and the corpus modules: the
interval modules of A3, R(1,1) of the Kronecker quiver and the tube
simples E1, E2 of D4-tilde.  Each line names the call, then gives its
exit code, then its stdout or its error.  The whole corpus takes about
half a minute, most of it on the Kronecker quiver.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile

from click.testing import CliRunner

from cclab.cli import main as cli
from cclab.corpus import (all_interval_modules, d4tilde_tube_simples,
                          kronecker_regular)
from cclab.quiver import (a2_quiver, a3_quiver, d4tilde_quiver,
                          kronecker_quiver)
from cclab.reps import standard_module

MAX_DIM = 6


def stock_modules():
    """{quiver name: (quiver, {module name: module})}."""
    intervals = {}
    for m in all_interval_modules(a3_quiver()):
        support = [v + 1 for v, d in enumerate(m.dim) if d]
        intervals[f"I{support[0]}{support[-1]}"] = m
    corpus = {
        "a2": (a2_quiver(), {}),
        "a3": (a3_quiver(), intervals),
        "kronecker": (kronecker_quiver(), {"R11": kronecker_regular(1, 1)}),
        "d4t": (d4tilde_quiver(), dict(zip(("E1", "E2"),
                                           d4tilde_tube_simples()))),
    }
    out = {}
    for name, (q, extra) in corpus.items():
        mods = {}
        for kind in ("simple", "projective", "injective"):
            for i in range(1, q.n + 1):
                mods[f"{kind[0].upper()}{i}"] = standard_module(q, kind, i)
        mods.update(extra)
        seen, unique = set(), {}
        for label, m in mods.items():
            key = (m.dim, tuple(tuple(map(tuple, a.data)) for a in m.matrices))
            if key not in seen:
                seen.add(key)
                unique[label] = m
        out[name] = (q, unique)
    return out


def _entry(x):
    return int(x) if x.denominator == 1 else str(x)


def write_inputs(name, q, mods):
    """Write the quiver and module files to the working directory; returns
    their names."""
    qpath = f"{name}.json"
    with open(qpath, "w") as fh:
        json.dump({"vertices": q.n, "arrows": [list(a) for a in q.arrows]},
                  fh)
    paths = {}
    for label, m in mods.items():
        paths[label] = f"{name}.{label}.json"
        with open(paths[label], "w") as fh:
            json.dump({"dim": list(m.dim), "matrices": [
                [[_entry(x) for x in row] for row in a.data]
                for a in m.matrices]}, fh)
    return qpath, paths


def calls(qpath, paths, mods):
    """(label, argv) of each call on the pairs of total dimension <= 6."""
    fmt = ["--quiver", qpath, "--format", "structured"]
    for a, ma in mods.items():
        for b, mb in mods.items():
            if ma.total_dim + mb.total_dim > MAX_DIM:
                continue
            pair = ["--module", paths[a], "--module", paths[b]]
            yield f"cc {a} {b}", ["cc", *fmt, *pair]
            yield f"grass {a} {b}", ["grass", *fmt, *pair]
            for kind in ("xx1", "xx2", "unified"):
                yield (f"verify {kind} {a} {b}",
                       ["verify", kind, paths[a], paths[b], *fmt])


def run(argv) -> str:
    """The exit code, then stdout or the error, of one call."""
    res = CliRunner().invoke(cli, argv)
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        return f"{res.exit_code} {type(res.exception).__name__}: " \
               f"{res.exception}"
    text = res.stdout if res.exit_code == 0 else res.stderr or res.stdout
    return f"{res.exit_code} {text.strip()}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quivers", default="a2,a3,kronecker,d4t",
                    help="comma-separated subset of a2,a3,kronecker,d4t")
    args = ap.parse_args()
    stock = stock_modules()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)  # relative file names keep paths out of the output
        try:
            for name in args.quivers.split(","):
                q, mods = stock[name]
                qpath, paths = write_inputs(name, q, mods)
                for label, argv in calls(qpath, paths, mods):
                    print(f"{name} {label}: {run(argv)}", flush=True)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
