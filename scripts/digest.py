"""Print what the command line answers on the stock modules, one line a
call, so that two versions of the package can be compared by a diff of
this script's output.

Run from the repository root:

    PYTHONPATH=src python scripts/digest.py [--quivers a2,a3,kronecker,d4t]

Every call runs in process with `--format structured`.  On each
quiver:

- pairs: `cc`, `grass` and `verify xx1|xx2|unified` on every ordered pair
  of stock modules whose total dimension is at most 6, on the default
  primes.  The stock modules of a quiver are its simple, projective and
  injective modules, each isomorphism class once, and the corpus
  modules: the interval modules of A3, R(1,1) of the Kronecker quiver
  and the tube simples E1, E2 of D4-tilde.  On D4-tilde also `verify
  xx1` and `verify unified`, in both orders, on (P_i, I5), i = 1..5,
  whose Hom side has strata of one point over each prime.
- primes: `cc` on each stock module under `--primes` and without it (the
  defaults).
- oracle: `mutate` in each direction, along all directions in turn and
  in two malformed directions; `list-variables` and `compare` at depths
  0, 1 and 3 and at the default depth.

Then, once, on fixed files of the A2 quiver: a module with a fraction
entry; malformed module files, quiver files and `--shifted` vectors; and
prime lists that are malformed or do not exceed a module's entries.  Each
line names the call, then gives its exit code, then its stdout or its
error.  The whole digest, 1,176 lines, takes about 4.5 s of CPU time
(4.1 to 5.1 s over nine runs) on one core of a 2-vCPU Intel Xeon.
tests/golden_digest.txt holds it, and tests/test_scripts.py compares a
fresh run with it byte for byte.
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
FLAG_PRIMES = "29,31,37,41,43,47,53,59"
# (label, file body) of malformed module files of A2
BAD_MODULES = [
    ("dim-length", {"dim": [1], "matrices": [[]]}),
    ("dim-negative", {"dim": [-1, 1], "matrices": [[]]}),
    ("dim-not-int", {"dim": ["a", 1], "matrices": [[]]}),
    ("dim-float", {"dim": [1.7, 1], "matrices": [[[1]]]}),
    ("dim-bool", {"dim": [True, 1], "matrices": [[[1]]]}),
    ("no-dim", {"matrices": [[[1]]]}),
    ("no-matrices", {"dim": [1, 1]}),
    ("matrix-count", {"dim": [1, 1], "matrices": []}),
    ("shape", {"dim": [1, 1], "matrices": [[[1, 2]]]}),
    ("row-count", {"dim": [1, 1], "matrices": [[[1], [2]]]}),
    ("not-a-list", {"dim": [1, 1], "matrices": [5]}),
    ("string-matrix", {"dim": [1, 1], "matrices": ["11"]}),
    ("string-row", {"dim": [1, 1], "matrices": [["1"]]}),
    ("nonempty-at-zero", {"dim": [1, 0], "matrices": [[[1]]]}),
    ("float-entry", {"dim": [1, 1], "matrices": [[[1.5]]]}),
    ("bool-entry", {"dim": [1, 1], "matrices": [[[True]]]}),
    ("bad-string-entry", {"dim": [1, 1], "matrices": [[["x"]]]}),
    ("top-level-list", [1, 1]),
    ("not-json", None),  # written as "{not json"
]
# (label, file body) of malformed quiver files
BAD_QUIVERS = [
    ("string-end", {"vertices": 2, "arrows": [["a", 2]]}),
    ("null-end", {"vertices": 2, "arrows": [[None, 2]]}),
    ("float-end", {"vertices": 2, "arrows": [[1.9, 2]]}),
    ("bool-end", {"vertices": 2, "arrows": [[True, 2]]}),
    ("float-vertices", {"vertices": 2.5, "arrows": [[1, 2]]}),
    ("not-a-pair", {"vertices": 2, "arrows": [[1]]}),
    ("out-of-range", {"vertices": 2, "arrows": [[1, 3]]}),
    ("loop", {"vertices": 2, "arrows": [[1, 1]]}),
    ("cycle", {"vertices": 2, "arrows": [[1, 2], [2, 1]]}),
    ("no-vertices", {"vertices": 0, "arrows": []}),
    ("no-arrows", {"vertices": 2}),
]
BAD_SHIFTED = ["1", "1,0,0", "1,-1", "a,b", ""]


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


def pi_i5_calls(qpath, q):
    """(label, argv) of `verify xx1` and `verify unified`, in both orders,
    on the D4-tilde pairs (P_i, I5), i = 1..5, whose Hom side has
    strata of one point over each prime; their total dimension
    exceeds MAX_DIM but for P5."""
    mods = {f"P{i}": standard_module(q, "projective", i)
            for i in range(1, q.n + 1)}
    mods["I5"] = standard_module(q, "injective", 5)
    _, paths = write_inputs("d4t", q, mods)
    fmt = ["--quiver", qpath, "--format", "structured"]
    for i in range(1, q.n + 1):
        p, i5 = paths[f"P{i}"], paths["I5"]
        yield f"verify xx1 P{i} I5", ["verify", "xx1", p, i5, *fmt]
        yield f"verify unified P{i} I5", ["verify", "unified", p, i5, *fmt]
        yield f"verify unified I5 P{i}", ["verify", "unified", i5, p, *fmt]


def primes_calls(qpath, paths, mods):
    """(label, argv) of `cc` on each stock module with and without
    `--primes`."""
    fmt = ["--quiver", qpath, "--format", "structured"]
    for a, ma in mods.items():
        if ma.total_dim > MAX_DIM:
            continue
        argv = ["cc", *fmt, "--module", paths[a]]
        yield f"primes flag {a}", [*argv, "--primes", FLAG_PRIMES]
        yield f"primes default {a}", argv


def oracle_calls(qpath, q):
    """(label, argv) of the mutation-oracle commands."""
    fmt = ["--quiver", qpath, "--format", "structured"]
    every = ",".join(str(i) for i in range(1, q.n + 1))
    for dirs in [*every.split(","), every, "0", "x"]:
        yield f"mutate {dirs}", ["mutate", *fmt, "--directions", dirs]
    for command in ("list-variables", "compare"):
        for depth in ("0", "1", "3"):
            yield (f"{command} --depth {depth}",
                   [command, *fmt, "--depth", depth])
        yield f"{command} default", [command, *fmt]


def write_json(path, body):
    with open(path, "w") as fh:
        if body is None:
            fh.write("{not json\n")
        else:
            json.dump(body, fh)


def fixed_calls():
    """(label, argv) of the malformed inputs on A2, written to the
    working directory."""
    write_json("a2.json", {"vertices": 2, "arrows": [[1, 2]]})
    write_json("a2.P1.json", {"dim": [1, 1], "matrices": [[[1]]]})
    write_json("a2.H.json", {"dim": [1, 1], "matrices": [[[23]]]})
    write_json("a2.F.json", {"dim": [1, 1], "matrices": [[["1/2"]]]})
    fmt = ["--format", "structured"]
    yield ("fraction entry",
           ["cc", "--quiver", "a2.json", "--module", "a2.F.json", *fmt])
    for label, body in BAD_MODULES:
        write_json(f"bad.{label}.json", body)
        yield (f"bad module {label}",
               ["cc", "--quiver", "a2.json", "--module", f"bad.{label}.json",
                *fmt])
    yield ("bad module missing-file",
           ["cc", "--quiver", "a2.json", "--module", "nope.json", *fmt])
    for label, body in BAD_QUIVERS:
        write_json(f"bad.{label}.q.json", body)
        yield (f"bad quiver {label}",
               ["cc", "--quiver", f"bad.{label}.q.json", "--shifted", "1,0",
                *fmt])
    for raw in BAD_SHIFTED:
        yield (f"bad shifted cc {raw!r}",
               ["cc", "--quiver", "a2.json", "--shifted", raw, *fmt])
        yield (f"bad shifted unified {raw!r}",
               ["verify", "unified", "a2.P1.json", "--quiver", "a2.json",
                "--shifted", raw, *fmt])
    height = ["cc", "--quiver", "a2.json", "--module", "a2.H.json", *fmt]
    yield "height default", height
    yield "height flag", [*height, "--primes", "23,29,31,37"]
    for raw in ("abc", "21,23", "23,23", ","):
        yield f"bad primes {raw!r}", [*height, "--primes", raw]


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
                for label, argv in (*calls(qpath, paths, mods),
                                    *(pi_i5_calls(qpath, q)
                                      if name == "d4t" else ()),
                                    *primes_calls(qpath, paths, mods),
                                    *oracle_calls(qpath, q)):
                    print(f"{name} {label}: {run(argv)}", flush=True)
            for label, argv in fixed_calls():
                print(f"a2 {label}: {run(argv)}", flush=True)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
