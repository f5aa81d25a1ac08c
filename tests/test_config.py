import pytest

from cclab.config import PSI_13, _is_prime, default_primes
from cclab.errors import ConfigurationError


def test_is_prime_matches_trial_division():
    """Below 2 * 10^5, by the sieve of Eratosthenes."""
    sieve = [False, False] + [True] * (2 * 10**5 - 2)
    for d in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [_is_prime(n) for n in range(len(sieve))] == sieve


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    """Strong pseudoprimes to the first 5, 9 and 12 prime bases."""
    assert not _is_prime(n)


def test_is_prime_on_mersenne_numbers():
    assert _is_prime(2**61 - 1) and _is_prime(2**31 - 1)
    assert not _is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_is_prime_refuses_from_psi_13_on():
    with pytest.raises(ConfigurationError):
        _is_prime(PSI_13)


def test_default_primes_unchanged():
    assert default_primes() == (23, 29, 31, 37, 41, 43, 47, 53)
