"""Outside-in tracer for cclab.

It wraps cclab's public functions and methods at run time and changes no
file under ``src/``.  Every wrapped call updates aggregate counters (calls,
inclusive time, self time); self time is the call's duration minus the
time spent in wrapped callees, kept with a stack.  Spans (name, start,
end, parent span, job) are recorded only for jobs and layer-entry calls,
never for hot leaves such as ``Mat.rref``.  Everything is held in memory
and written out once by ``dump``.

Some counts are computed from call arguments rather than measured; they
repeat exactly for a given input, so they show a change in work done:

- ``grassmannian.tuples``: the subspace tuples a brute-force
  ``count_subreps(M, e, p)`` enumerates, prod_i [dim_i choose e_i]_p;
- ``multiplication.points``: sum over the primes of |P^{d-1}(F_p)| for each
  projectivized space of dimension d a stratification enumerates.  The
  dimensions d are computed by ``finish`` after the jobs, so that work lands
  in no measured time.

Times are read from the clock given to the tracer, which is the worker's
CPU time less the speed probe's loops (the worker is single-threaded).
"""

from __future__ import annotations

import json
import sys

from cclab.errors import CCLabError
from cclab.reps import stable_ext1_dim, stable_hom_dim

# (metric prefix, module, attribute, record spans).  A dotted attribute
# names a method; every other name the function is bound to inside cclab
# (`from ... import` copies) is rebound too.
TARGETS = (
    ("linalg.rref", "cclab.linalg", "Mat.rref", False),
    ("linalg.mul", "cclab.linalg", "Mat.mul", False),
    ("grassmannian.count_subreps", "cclab.grassmannian", "count_subreps",
     True),
    ("grassmannian.euler_char", "cclab.grassmannian",
     "euler_char_grassmannian", False),
    ("grassmannian.fit_and_verify", "cclab.grassmannian", "fit_and_verify",
     False),
    ("grassmannian.profile", "cclab.grassmannian", "grassmannian_profile",
     True),
    ("reps.fingerprint", "cclab.reps", "fingerprint", False),
    ("reps.hom_dim", "cclab.reps", "hom_dim", False),
    ("reps.hom_basis", "cclab.reps", "hom_basis", False),
    ("reps.kernel_rep", "cclab.reps", "kernel_rep", False),
    ("reps.cokernel_rep", "cclab.reps", "cokernel_rep", False),
    ("reps.middle_term", "cclab.reps", "middle_term", False),
    ("artranslate.hom_side_middle_term", "cclab.artranslate",
     "hom_side_middle_term", True),
    ("artranslate.ar_inverse", "cclab.artranslate", "ar_inverse", False),
    ("multiplication.stratify_ext_side", "cclab.multiplication",
     "stratify_ext_side", True),
    ("multiplication.stratify_hom_side", "cclab.multiplication",
     "stratify_hom_side", True),
    ("multiplication.verify_xx1", "cclab.multiplication", "verify_xx1", True),
    ("multiplication.verify_xx2", "cclab.multiplication", "verify_xx2", True),
    ("multiplication.verify_unified", "cclab.multiplication",
     "verify_unified", True),
    ("character.cc", "cclab.character", "cc", True),
    ("character.cc_palu_form", "cclab.character", "cc_palu_form", True),
    ("laurent.mul", "cclab.laurent", "LaurentPolynomial.__mul__", False),
    ("laurent.divide_exact", "cclab.laurent", "divide_exact", False),
    ("laurent.str", "cclab.laurent", "LaurentPolynomial.__str__", False),
    ("mutation.mutate", "cclab.mutation", "mutate", False),
    ("mutation.closure", "cclab.mutation", "enumerate_cluster_variables",
     True),
)

COUNTS = ("grassmannian.tuples", "grassmannian.profile_hits",
          "multiplication.points", "multiplication.strata",
          "mutation.variables")


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for j in range(k):
        num *= p ** (n - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def projective_points(d: int, primes) -> int:
    """Sum over the primes of |P^{d-1}(F_p)|."""
    return sum((p ** d - 1) // (p - 1) for p in primes) if d else 0


class Tracer:
    def __init__(self, clock):
        self.stats = {}          # prefix -> [calls, inclusive_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans = []          # [id, parent, job, name, start_s, end_s]
        self.job = None
        self.paused = 0
        self.deferred = []       # count updates that run in finish()
        self._child_time = []    # one accumulator per open wrapped call
        self._open_spans = []
        self._clock = clock
        self._origin = clock()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        """Run fn() as a span that parents the spans of the calls it makes."""
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(sid)
        start = self._clock()
        try:
            return fn()
        finally:
            self._open_spans.pop()
            self.spans.append([sid, parent, self.job, name,
                               start - self._origin,
                               self._clock() - self._origin])

    def pause(self, fn):
        """Run fn() with recording off (benchmark-side work)."""
        self.paused += 1
        try:
            return fn()
        finally:
            self.paused -= 1

    def _wrap(self, prefix, fn, record_span, hook):
        stats = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = self._clock
        tracer = self

        def call(args, kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child_time.pop()
                if child_time:
                    child_time[-1] += dur

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            done = hook(tracer, args) if hook else None
            if record_span:
                result = tracer.span(prefix, lambda: call(args, kwargs))
            else:
                result = call(args, kwargs)
            if done:
                done(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target and rebind each cclab name bound to it.

        A target the package no longer has is skipped; its metrics read 0.
        """
        modules = [m for name, m in sys.modules.items()
                   if name == "cclab" or name.startswith("cclab.")]
        for prefix, modname, attr, record_span in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:
                continue
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                homes = [owner] if owner is not None else []
            else:
                homes = modules
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(prefix, fn, record_span, HOOKS.get(prefix))
            for home in homes:
                for name, value in list(vars(home).items()):
                    if value is fn:
                        setattr(home, name, wrapper)

    # -- output ------------------------------------------------------------

    def finish(self):
        """Run the deferred count updates, with recording off."""
        for update in self.deferred:
            self.pause(update)
        self.deferred = []

    def layer_metrics(self) -> dict:
        """Calls, inclusive and self time of every target, and the counts."""
        out = {}
        for prefix, *_ in TARGETS:
            calls, total, self_s = self.stats.get(prefix, (0, 0.0, 0.0))
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.time_s"] = total
            out[f"{prefix}.self_s"] = self_s
        out.update(self.counts)
        calls = out["grassmannian.profile.calls"]
        out["grassmannian.profile.hit_ratio"] = (
            self.counts["grassmannian.profile_hits"] / calls if calls else 0.0)
        return out

    def module_self_time(self) -> dict:
        """Self time summed per cclab module."""
        out = {}
        for prefix, (_, _, self_s) in self.stats.items():
            module = prefix.split(".")[0]
            out[module] = out.get(module, 0.0) + self_s
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "counts": self.counts,
                       "span_fields": ["id", "parent", "job", "name",
                                       "start_s", "end_s"],
                       "spans": self.spans}, fh)


# -- hooks: computed counts, measured from outside ---------------------------
# A hook runs before the wrapped call and may return a callback that
# receives the result.

def _count_tuples(tracer, args):
    M, e, p = args[:3]
    n = 1
    for d, k in zip(M.dim, e):
        n *= gaussian_binomial(d, k, p)
    tracer.counts["grassmannian.tuples"] += n


def _profile_hit(tracer, args):
    """A profile call that computes no Euler characteristic was cached."""
    euler_calls = tracer.stats.get("grassmannian.euler_char", [0])
    before = euler_calls[0]

    def done(_result):
        if euler_calls[0] == before:
            tracer.counts["grassmannian.profile_hits"] += 1
    return done


def _stratification(tracer, M, L, primes):
    """Counts for one stratification of P Ext^1(M, L), or of P Hom(L, tau M),
    which is dual to it and so has the same dimension."""
    def points():
        try:
            d = stable_ext1_dim(M, L, primes)
        except CCLabError:
            d = 0
        tracer.counts["multiplication.points"] += projective_points(d, primes)
    tracer.deferred.append(points)

    def done(strata):
        tracer.counts["multiplication.strata"] += len(strata)
    return done


def _xx2(tracer, args):
    # Both spaces, P Hom(M, nu P) and P Hom(P, M), have dim Hom(P, M).
    P, M, primes = args[:3]

    def points():
        try:
            d = stable_hom_dim(P, M, primes)
        except CCLabError:
            d = 0
        tracer.counts["multiplication.points"] += \
            2 * projective_points(d, primes)
    tracer.deferred.append(points)

    def done(report):
        tracer.counts["multiplication.strata"] += len(report.strata)
    return done


def _closure(tracer, args):
    def done(result):  # the benchmark asks for (variables, stabilized)
        tracer.counts["mutation.variables"] += len(result[0])
    return done


HOOKS = {
    "grassmannian.count_subreps": _count_tuples,
    "grassmannian.profile": _profile_hit,
    # stratify_ext_side(M, L, primes) and stratify_hom_side(L, M, primes)
    "multiplication.stratify_ext_side":
        lambda tracer, a: _stratification(tracer, a[0], a[1], a[2]),
    "multiplication.stratify_hom_side":
        lambda tracer, a: _stratification(tracer, a[1], a[0], a[2]),
    "multiplication.verify_xx2": _xx2,
    "mutation.closure": _closure,
}
