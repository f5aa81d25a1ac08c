"""Command-line workbench.

Exit codes: 0 success / identity verified; 1 validation or precondition
error; 2 counting-polynomial or prime-stability failure; 3 identity
verified false; 4 mutation closure did not stabilize within depth.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .character import cc, describe
from .config import DEFAULT_DEPTH, resolve_primes
from .corpus import all_interval_modules, linear_an_quiver_check
from .errors import (CCLabError, InputError, NotPolynomialCountError,
                     PrimeInstabilityError)
from .grassmannian import grassmannian_profile
from .io import load_module, load_quiver
from .multiplication import verify_unified, verify_xx1, verify_xx2
from .mutation import (apply_mutations, enumerate_cluster_variables,
                       initial_seed)
from .reps import cluster_object, direct_sum_many, max_entry_height, zero_rep

EXIT_INVALID = 1
EXIT_COUNTING = 2
EXIT_FALSE = 3
EXIT_UNSTABLE = 4
IDENTITIES = {"xx1": verify_xx1, "xx2": verify_xx2, "unified": verify_unified}


def _fail(code: int, msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _emit(output_format: str, payload, lines):
    """Print payload as one JSON line in structured format, else lines."""
    if output_format == "structured":
        click.echo(json.dumps(payload))
    else:
        for line in lines:
            click.echo(line)


def _parse_shifted(raw: str):
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise InputError(f"cannot parse shifted vector {raw!r}")


def _load_object(q, module_paths, shifted_csv):
    """Assemble the configured object: direct sum of modules plus shift."""
    mods = [load_module(p, q) for p in module_paths]
    module = direct_sum_many(q, mods) if mods else zero_rep(q)
    return cluster_object(module, None if shifted_csv is None
                          else _parse_shifted(shifted_csv))


@click.group()
def main():
    """Exact cluster-character workbench for acyclic quivers."""


def command(name: str, counting: bool = False):
    """Register the decorated function as the subcommand name.  Its
    parameters are its own arguments, then --format, --quiver and, for the
    commands that count points, --primes, then its own options; click
    reports missing ones in that order.  It is called with the loaded
    quiver and the output format first.  Errors become exit codes here."""
    shared = [click.Option(["--format", "output_format"], default="text",
                           type=click.Choice(["text", "structured"])),
              click.Option(["--quiver", "quiver_path"], required=True,
                           type=click.Path(dir_okay=False))]
    if counting:
        shared.append(click.Option(["--primes", "primes_csv"], default=None,
                                   help="comma-separated sample primes"))

    def register(fn):
        @functools.wraps(fn)
        def run(quiver_path, output_format, **params):
            try:
                fn(load_quiver(quiver_path), output_format, **params)
            except (NotPolynomialCountError, PrimeInstabilityError) as exc:
                _fail(EXIT_COUNTING, str(exc))
            except CCLabError as exc:
                _fail(EXIT_INVALID, str(exc))
        cmd = main.command(name)(run)
        k = sum(isinstance(p, click.Argument) for p in cmd.params)
        cmd.params[k:k] = shared
        return cmd
    return register


@command("cc", counting=True)
@click.option("--module", "module_paths", multiple=True,
              type=click.Path(dir_okay=False))
@click.option("--shifted", "shifted_csv", default=None)
def cmd_cc(q, output_format, module_paths, shifted_csv, primes_csv):
    """Print the cluster character of the configured object."""
    obj = _load_object(q, module_paths, shifted_csv)
    primes = resolve_primes(primes_csv, max_entry_height(obj.module))
    value = str(cc(obj, primes).value)
    _emit(output_format, {"object": describe(obj.module.dim, obj.shifted),
                          "value": value, "primes": list(primes)}, [value])


@command("verify", counting=True)
@click.argument("kind", type=click.Choice(list(IDENTITIES)))
@click.argument("module_paths", nargs=-1,
                type=click.Path(dir_okay=False))
@click.option("--shifted", "shifted_csv", default=None,
              help="shifted operand for unified (with one module file)")
def cmd_verify(q, output_format, kind, module_paths, shifted_csv, primes_csv):
    """Verify a multiplication identity on the given operands."""
    if shifted_csv is not None:
        if kind != "unified" or len(module_paths) != 1:
            raise InputError(
                "--shifted is only valid for 'unified' with one module")
        M = load_module(module_paths[0], q)
        shifted = cluster_object(zero_rep(q), _parse_shifted(shifted_csv))
        primes = resolve_primes(primes_csv, max_entry_height(M))
        rep = verify_unified(cluster_object(M), shifted, primes)
    else:
        if len(module_paths) != 2:
            raise InputError("verify needs exactly two module files")
        A, B = (load_module(p, q) for p in module_paths)
        primes = resolve_primes(
            primes_csv, max(max_entry_height(A), max_entry_height(B)))
        rep = IDENTITIES[kind](A, B, primes)
    verdict = "true" if rep.verdict else "false"
    _emit(output_format,
          {"label": rep.label, "lhs": str(rep.lhs), "rhs": str(rep.rhs),
           "strata": [{"middle": describe(s.dim, s.shifted), "chi": s.chi,
                       "side": s.side} for s in rep.strata],
           "verdict": rep.verdict},
          [f"lhs: {rep.lhs}",
           *(f"stratum: {s.describe()}" for s in rep.strata),
           f"rhs: {rep.rhs}", f"verdict: {verdict}"])
    if not rep.verdict:
        sys.exit(EXIT_FALSE)


@command("grass", counting=True)
@click.option("--module", "module_paths", multiple=True, required=True,
              type=click.Path(dir_okay=False))
def cmd_grass(q, output_format, module_paths, primes_csv):
    """Print the Euler-characteristic profile of the module's
    subrepresentation Grassmannians."""
    obj = _load_object(q, module_paths, None)
    primes = resolve_primes(primes_csv, max_entry_height(obj.module))
    items = sorted(grassmannian_profile(obj.module, primes).items())
    _emit(output_format, [{"e": list(e), "chi": chi} for e, chi in items],
          [f"{','.join(map(str, e))}: {chi}" for e, chi in items])


@command("mutate")
@click.option("--directions", "directions_csv", required=True,
              help="comma-separated 1-indexed mutation directions")
def cmd_mutate(q, output_format, directions_csv):
    """Apply a mutation sequence and print the resulting cluster."""
    try:
        dirs = [int(x) for x in directions_csv.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"cannot parse directions {directions_csv!r}")
    strs = [str(x) for x in apply_mutations(initial_seed(q), dirs).cluster]
    _emit(output_format, {"cluster": strs}, strs)


@command("list-variables")
@click.option("--depth", default=DEFAULT_DEPTH, type=int)
def cmd_list_variables(q, output_format, depth):
    """Enumerate cluster variables by breadth-first mutation closure."""
    variables, stable = enumerate_cluster_variables(
        q, depth, report_stable=True)
    strs = [str(x) for x in variables]
    _emit(output_format, {"variables": strs, "stabilized": stable},
          [*strs, f"stabilized: {'true' if stable else 'false'}"])


@command("compare", counting=True)
@click.option("--depth", default=DEFAULT_DEPTH, type=int)
def cmd_compare(q, output_format, depth, primes_csv):
    """Compare mutation-oracle variables against cluster-character images
    of the rigid corpus (linearly oriented A_n quivers)."""
    primes = resolve_primes(primes_csv, 1)
    if not linear_an_quiver_check(q):
        raise InputError(
            "compare supports linearly oriented A_n quivers only")
    variables, stable = enumerate_cluster_variables(
        q, depth, report_stable=True)
    if not stable:
        _fail(EXIT_UNSTABLE,
              f"mutation closure did not stabilize at depth {depth}")
    oracle = {str(x) for x in variables}
    corpus = [cluster_object(m) for m in all_interval_modules(q)]
    corpus += [cluster_object(zero_rep(q),
                              tuple(1 if j == i else 0 for j in range(q.n)))
               for i in range(q.n)]
    images = {str(cc(o, primes).value) for o in corpus}
    missing = sorted(oracle - images)
    extra = sorted(images - oracle)
    _emit(output_format,
          {"oracle": len(oracle), "character_images": len(images),
           "missing_from_characters": missing, "not_in_oracle": extra},
          [f"oracle variables: {len(oracle)}",
           f"character images: {len(images)}",
           *(f"missing from characters: {s}" for s in missing),
           *(f"not in oracle: {s}" for s in extra)])
    if missing or extra:
        sys.exit(EXIT_FALSE)


if __name__ == "__main__":
    main()
