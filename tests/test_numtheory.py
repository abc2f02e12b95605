from coxbrauer.numtheory import (euler_phi, factorize, has_order, is_prime,
                                 prime_power_split, smallest_nonresidue,
                                 sqrt_mod_prime, valuation)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


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


def test_sqrt_mod_prime():
    for p in (3, 5, 7, 11, 13, 17, 19, 29):
        squares = {pow(x, 2, p) for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and r * r % p == a
            else:
                assert r is None


def test_smallest_nonresidue():
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(19) == 2
