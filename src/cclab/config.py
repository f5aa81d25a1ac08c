"""Workbench configuration: sample primes and mutation depth."""

from __future__ import annotations

from functools import lru_cache

from .errors import ConfigurationError

DEFAULT_PRIME_COUNT = 8
DEFAULT_MIN_PRIME = 20
DEFAULT_DEPTH = 8


# Miller-Rabin on these 13 bases is exact below PSI_13 (Sorenson and
# Webster, 2015), a strong pseudoprime to all of them.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


@lru_cache(maxsize=256)  # GF(p) asks at every reduction
def _is_prime(n: int) -> bool:
    """Whether n is prime; ConfigurationError from PSI_13 on."""
    if n >= PSI_13:
        raise ConfigurationError(f"{n} is too large to test for primality")
    if n < 2 or any(n % b == 0 for b in MR_BASES):
        return n in MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
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


def resolve_primes(raw: str | None, max_entry: int) -> tuple[int, ...]:
    """The primes of the `--primes` text raw (an empty one is refused),
    else, when raw is None, default_primes(max_entry); each must exceed
    max_entry, the largest matrix entry of the input."""
    primes = default_primes(max_entry) if raw is None else parse_primes(raw)
    bad = [p for p in primes if p <= max_entry]
    if bad:
        raise ConfigurationError(
            f"primes {bad} do not exceed the max matrix entry {max_entry}")
    return primes
