"""Acyclic quivers, dimension vectors and the Euler bilinear forms.

Vertices are 1-indexed and arrows are an ordered list of (source, target)
pairs; parallel arrows are allowed and carry positional identity so that
representation matrices can be assigned per arrow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Quiver:
    n: int
    arrows: tuple[tuple[int, int], ...]


def validate_quiver(n: int, arrows) -> Quiver:
    """Validate raw vertex/arrow data: index range, no loops, no cycles."""
    if type(n) is not int or n < 1:
        raise InputError(f"vertex count must be a positive integer, got {n!r}")
    clean = []
    for k, arrow in enumerate(arrows):
        if len(arrow) != 2:
            raise InputError(f"arrow #{k} is not a pair: {arrow!r}")
        if any(type(x) is not int for x in arrow):
            raise InputError(f"arrow #{k} has a non-integer end: {arrow!r}")
        s, t = arrow
        if not (1 <= s <= n and 1 <= t <= n):
            raise InputError(f"arrow #{k} index out of range [1..{n}]: ({s},{t})")
        if s == t:
            raise InputError(f"loop arrow at vertex {s}")
        clean.append((s, t))
    # Kahn topological sort; leftover vertices witness an oriented cycle.
    indeg = [0] * (n + 1)
    for _, t in clean:
        indeg[t] += 1
    queue = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for s, t in clean:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
    if seen != n:
        raise InputError("oriented cycle detected")
    return Quiver(n, tuple(clean))


def check_dimvec(q: Quiver, d) -> tuple[int, ...]:
    d = tuple(d)
    if any(type(x) is not int for x in d):
        raise InputError(f"dimension vector {list(d)} has a non-integer entry")
    if len(d) != q.n:
        raise InputError(f"dimension vector length {len(d)} != {q.n}")
    if any(x < 0 for x in d):
        raise InputError("dimension vector entries must be non-negative")
    return d


def euler_form(q: Quiver, d, e) -> int:
    """Hereditary Euler form <d,e> = sum d_i e_i - sum_{a:i->j} d_i e_j."""
    d = check_dimvec(q, d)
    e = check_dimvec(q, e)
    total = sum(di * ei for di, ei in zip(d, e))
    for s, t in q.arrows:
        total -= d[s - 1] * e[t - 1]
    return total


def antisym_form(q: Quiver, d, e) -> int:
    """Antisymmetrized Euler form <d,e> - <e,d>."""
    return euler_form(q, d, e) - euler_form(q, e, d)


# Small stock quivers used throughout tests and demos.

def a2_quiver() -> Quiver:
    return validate_quiver(2, [(1, 2)])


def a3_quiver() -> Quiver:
    """Linearly oriented A3: 1 -> 2 -> 3."""
    return validate_quiver(3, [(1, 2), (2, 3)])


def kronecker_quiver() -> Quiver:
    return validate_quiver(2, [(1, 2), (1, 2)])


def d4tilde_quiver() -> Quiver:
    """Affine D4-tilde star with sink center, center last (vertex 5)."""
    return validate_quiver(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
