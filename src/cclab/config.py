"""Workbench configuration: sample primes and mutation depth."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigurationError

ENV_PRIMES = "CCLAB_PRIMES"
DEFAULT_PRIME_COUNT = 8
DEFAULT_MIN_PRIME = 20
DEFAULT_DEPTH = 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def default_primes(exceed: int = DEFAULT_MIN_PRIME) -> tuple[int, ...]:
    """The first DEFAULT_PRIME_COUNT primes above `exceed` and 20."""
    out = []
    n = max(exceed, DEFAULT_MIN_PRIME) + 1
    while len(out) < DEFAULT_PRIME_COUNT:
        if _is_prime(n):
            out.append(n)
        n += 1
    return tuple(out)


def primes_from_env() -> tuple[int, ...] | None:
    raw = os.environ.get(ENV_PRIMES)
    if not raw:
        return None
    return parse_primes(raw)


def parse_primes(raw: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse prime list {raw!r}") from exc
    if not primes:
        raise ConfigurationError("empty prime list")
    for p in primes:
        if not _is_prime(p):
            raise ConfigurationError(f"{p} is not prime")
    if len(set(primes)) != len(primes):
        raise ConfigurationError("duplicate primes in list")
    return tuple(sorted(primes))


@dataclass
class WorkbenchConfig:
    primes: tuple[int, ...] = ()
    depth: int = DEFAULT_DEPTH

    def resolve_primes(self, max_entry: int = 0) -> tuple[int, ...]:
        """Pick the active prime list and enforce the entry-size guard."""
        primes = self.primes or primes_from_env() or default_primes(
            exceed=max(DEFAULT_MIN_PRIME, max_entry))
        bad = [p for p in primes if p <= max_entry]
        if bad:
            raise ConfigurationError(
                f"primes {bad} do not exceed the max matrix entry {max_entry}")
        return primes
