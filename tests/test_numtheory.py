import time
from math import gcd

import pytest

from coxbrauer.numtheory import (MILLER_RABIN_BOUND, euler_phi, factorize,
                                 has_order, integer_root, is_prime,
                                 prime_power_split, unit_generators, valuation)
from reference import unit_closure


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division_is_prime(n)]


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,   # Carmichael
    2047, 1373653, 25326001, 3215031751, 2152302898747,        # strong
    3474749660383, 341550071728321, 3825123056546413051,       # pseudoprimes
    318665857834031151167461,        # strong to the first 12 prime bases
    (2 ** 61 - 1) * (2 ** 19 - 1),
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_and_out_of_range():
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 61 + 1)
    # the bound itself is the least strong pseudoprime to all 13 bases
    assert not is_prime(MILLER_RABIN_BOUND - 1)
    with pytest.raises(ValueError, match="too large"):
        is_prime(MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match="too large"):
        is_prime(2 ** 89 - 1)


def test_integer_root():
    for k in range(1, 70):
        for n in (3 ** k - 1, 3 ** k, 3 ** k + 1, 10 ** k):
            for j in (2, 3, k):
                r = integer_root(n, j)
                assert r ** j <= n < (r + 1) ** j


def test_prime_power_split_agrees_with_factorize():
    for n in range(1, 20000):
        f = factorize(n)
        assert prime_power_split(n) == (next(iter(f.items())) if len(f) == 1 else None)
    assert prime_power_split(2 ** 100) == (2, 100)
    assert prime_power_split(6 ** 50) is None
    assert prime_power_split(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    assert prime_power_split((2 ** 61 - 1) ** 3) == (2 ** 61 - 1, 3)
    assert prime_power_split(0) is None


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}


def test_prime_power_split():
    assert prime_power_split(49) == (7, 2)
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(12) is None


def test_valuation():
    assert valuation(19, 19) == 1
    assert valuation(98, 7) == 2


def test_phi_moebius():
    assert [euler_phi(n) for n in (1, 8, 12, 30)] == [1, 4, 4, 8]


def test_orders():
    assert has_order(2, 3, 7)
    assert not has_order(2, 6, 7)
    assert has_order(8, 6, 19)



def test_unit_generators_generate_the_unit_group():
    for n in range(1, 500):
        gens = unit_generators(n)
        assert gens[:1] == ([n - 1] if n > 2 else []), n
        assert len(unit_closure(n, gens)) == euler_phi(n), n


def test_unit_generators_never_list_the_group():
    # (Z/L)^x for the (12289, 512) group has 3,145,728 elements
    start = time.perf_counter()
    gens = unit_generators(12289 * 512)
    assert time.perf_counter() - start < 1.0
    assert all(gcd(g, 12289 * 512) == 1 for g in gens)
    # -1 first; a primitive root mod 12289 and -1 and 5 mod 512 among them
    assert gens[0] == 12289 * 512 - 1
    assert any(has_order(g, 12288, 12289) and g % 512 == 1 for g in gens)
    assert any(g % 512 == 5 and g % 12289 == 1 for g in gens)
