"""Command-line workbench.

Exit codes: 0 success / identity verified; 1 validation or precondition
error; 2 counting-polynomial or prime-stability failure; 3 identity
verified false; 4 mutation closure did not stabilize within depth.
"""

from __future__ import annotations

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


def _fail(code: int, msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _run(fn):
    try:
        fn()
    except (NotPolynomialCountError, PrimeInstabilityError) as exc:
        _fail(EXIT_COUNTING, str(exc))
    except CCLabError as exc:
        _fail(EXIT_INVALID, str(exc))


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


def common_options(fn):
    fn = click.option("--quiver", "quiver_path", required=True,
                      type=click.Path(dir_okay=False))(fn)
    fn = click.option("--format", "output_format", default="text",
                      type=click.Choice(["text", "structured"]))(fn)
    return fn


def counting_options(fn):
    """common_options plus --primes, for the commands that count points."""
    fn = click.option("--primes", "primes_csv", default=None,
                      help="comma-separated sample primes")(fn)
    return common_options(fn)


@click.group()
def main():
    """Exact cluster-character workbench for acyclic quivers."""


@main.command("cc")
@counting_options
@click.option("--module", "module_paths", multiple=True,
              type=click.Path(dir_okay=False))
@click.option("--shifted", "shifted_csv", default=None)
def cmd_cc(quiver_path, module_paths, shifted_csv, primes_csv, output_format):
    """Print the cluster character of the configured object."""
    def go():
        q = load_quiver(quiver_path)
        obj = _load_object(q, module_paths, shifted_csv)
        primes = resolve_primes(primes_csv, max_entry_height(obj.module))
        value = cc(obj, primes)
        if output_format == "structured":
            click.echo(json.dumps({"object": describe(obj.module.dim,
                                                      obj.shifted),
                                   "value": str(value.value),
                                   "primes": list(primes)}))
        else:
            click.echo(str(value.value))
    _run(go)


def _report_payload(rep):
    return {
        "label": rep.label,
        "lhs": str(rep.lhs),
        "rhs": str(rep.rhs),
        "strata": [{"middle": describe(s.dim, s.shifted), "chi": s.chi,
                    "side": s.side} for s in rep.strata],
        "verdict": rep.verdict,
    }


def _print_report(rep, output_format):
    if output_format == "structured":
        click.echo(json.dumps(_report_payload(rep)))
    else:
        click.echo(f"lhs: {rep.lhs}")
        for s in rep.strata:
            click.echo(f"stratum: {s.describe()}")
        click.echo(f"rhs: {rep.rhs}")
        click.echo(f"verdict: {'true' if rep.verdict else 'false'}")
    if not rep.verdict:
        sys.exit(EXIT_FALSE)


@main.command("verify")
@click.argument("kind", type=click.Choice(["xx1", "xx2", "unified"]))
@click.argument("module_paths", nargs=-1,
                type=click.Path(dir_okay=False))
@counting_options
@click.option("--shifted", "shifted_csv", default=None,
              help="shifted operand for unified (with one module file)")
def cmd_verify(kind, module_paths, quiver_path, shifted_csv, primes_csv,
               output_format):
    """Verify a multiplication identity on the given operands."""
    def go():
        q = load_quiver(quiver_path)
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
            A = load_module(module_paths[0], q)
            B = load_module(module_paths[1], q)
            primes = resolve_primes(
                primes_csv, max(max_entry_height(A), max_entry_height(B)))
            if kind == "xx1":
                rep = verify_xx1(A, B, primes)
            elif kind == "xx2":
                rep = verify_xx2(A, B, primes)
            else:
                rep = verify_unified(A, B, primes)
        _print_report(rep, output_format)
    _run(go)


@main.command("grass")
@counting_options
@click.option("--module", "module_paths", multiple=True, required=True,
              type=click.Path(dir_okay=False))
def cmd_grass(quiver_path, module_paths, primes_csv, output_format):
    """Print the Euler-characteristic profile of the module's
    subrepresentation Grassmannians."""
    def go():
        q = load_quiver(quiver_path)
        obj = _load_object(q, module_paths, None)
        primes = resolve_primes(primes_csv, max_entry_height(obj.module))
        profile = grassmannian_profile(obj.module, primes)
        items = sorted(profile.items())
        if output_format == "structured":
            click.echo(json.dumps(
                [{"e": list(e), "chi": chi} for e, chi in items]))
        else:
            for e, chi in items:
                click.echo(f"{','.join(map(str, e))}: {chi}")
    _run(go)


@main.command("mutate")
@common_options
@click.option("--directions", "directions_csv", required=True,
              help="comma-separated 1-indexed mutation directions")
def cmd_mutate(quiver_path, directions_csv, output_format):
    """Apply a mutation sequence and print the resulting cluster."""
    def go():
        q = load_quiver(quiver_path)
        try:
            dirs = [int(x) for x in directions_csv.split(",") if x.strip()]
        except ValueError:
            raise InputError(f"cannot parse directions {directions_csv!r}")
        seed = apply_mutations(initial_seed(q), dirs)
        strs = [str(x) for x in seed.cluster]
        if output_format == "structured":
            click.echo(json.dumps({"cluster": strs}))
        else:
            for s in strs:
                click.echo(s)
    _run(go)


@main.command("list-variables")
@common_options
@click.option("--depth", default=DEFAULT_DEPTH, type=int)
def cmd_list_variables(quiver_path, depth, output_format):
    """Enumerate cluster variables by breadth-first mutation closure."""
    def go():
        q = load_quiver(quiver_path)
        variables, stable = enumerate_cluster_variables(
            q, depth, report_stable=True)
        strs = [str(x) for x in variables]
        if output_format == "structured":
            click.echo(json.dumps({"variables": strs, "stabilized": stable}))
        else:
            for s in strs:
                click.echo(s)
            click.echo(f"stabilized: {'true' if stable else 'false'}")
    _run(go)


@main.command("compare")
@counting_options
@click.option("--depth", default=DEFAULT_DEPTH, type=int)
def cmd_compare(quiver_path, depth, primes_csv, output_format):
    """Compare mutation-oracle variables against cluster-character images
    of the rigid corpus (linearly oriented A_n quivers)."""
    def go():
        q = load_quiver(quiver_path)
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
        payload = {"oracle": len(oracle), "character_images": len(images),
                   "missing_from_characters": missing,
                   "not_in_oracle": extra}
        if output_format == "structured":
            click.echo(json.dumps(payload))
        else:
            click.echo(f"oracle variables: {len(oracle)}")
            click.echo(f"character images: {len(images)}")
            for s in missing:
                click.echo(f"missing from characters: {s}")
            for s in extra:
                click.echo(f"not in oracle: {s}")
        if missing or extra:
            sys.exit(EXIT_FALSE)
    _run(go)


if __name__ == "__main__":
    main()
