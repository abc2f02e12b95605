import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrauer import cyclotomic
from coxbrauer.cyclotomic import (CycloInt, as_quadratic_pair,
                                  cyclotomic_polynomial, expand_product,
                                  power_basis, sqrt_element)
from coxbrauer.numtheory import euler_phi
from reference import _poly_divexact, reference_cyclotomic_polynomial


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # product formula: prod over d | n of Phi_d = x^n - 1
    for n in (6, 10, 12, 30):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


def test_phi_is_the_moebius_product():
    """The Moebius product equals the quotient of x^n - 1 by every Phi_d,
    d a proper divisor of n, that it replaces."""
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == reference_cyclotomic_polynomial(n), n


def test_phi_at_a_large_level_takes_linear_time():
    """Phi_73734, 73734 = 6 * 12289, took 81 s as the quotient by every
    Phi_d; as the Moebius product it takes O(n) per squarefree divisor."""
    start = time.perf_counter()
    phi = cyclotomic_polynomial.__wrapped__(73734)
    assert time.perf_counter() - start < 1.0
    assert len(phi) == euler_phi(73734) + 1 and phi[-1] == 1


def test_an_inexact_division_is_refused(monkeypatch):
    # with 9 read as 2, x^9 - 1 is divided by x^4 - 1, which leaves x - 1
    monkeypatch.setattr(cyclotomic, "factorize", lambda n: {2: 1})
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        cyclotomic_polynomial.__wrapped__(9)


def test_zeta_arithmetic():
    # zeta_3^2 + zeta_3 + 1 = 0
    assert power_basis(3, {2: 1, 1: 1, 0: 1}) == (0, 0)
    # (zeta_8*q - 1)^2 leads with zeta_8 * zeta_8 = zeta_4, which is zeta_8^2
    square = expand_product(8, [(1, 1, 0)] * 2)
    assert square == [{0: 1}, {1: -2}, {2: 1}]
    assert power_basis(8, square[2]) == (0, 0, 1, 0)
    # full cycle: zeta_12^12 = 1, the leading coefficient of (zeta_12*q - 1)^12
    cycle = expand_product(12, [(1, 1, 0)] * 12)
    assert power_basis(12, cycle[12]) == (1, 0, 0, 0)


def test_conjugate_norm():
    # factors with k = 0 are elements zeta^t - zeta^l of Z[Z/L] itself:
    # (zeta - 1)(zeta^-1 - 1) = 2 - zeta - zeta^-1
    [n] = expand_product(5, [(0, 1, 0), (0, 4, 0)])
    assert power_basis(5, n) == power_basis(5, {0: 2, 1: -1, 4: -1})
    # the norm of zeta_5 - 1 is the product of its four conjugates, Phi_5(1) = 5
    [norm] = expand_product(5, [(0, k, 0) for k in range(1, 5)])
    assert power_basis(5, norm) == (5, 0, 0, 0)


def test_power_basis_small_levels():
    # zeta_6^3 = -1 and zeta_6^2 = zeta_6 - 1 on the basis 1, zeta_6
    assert power_basis(6, {3: 1}) == (-1, 0)
    assert power_basis(6, {2: 1}) == (-1, 1)
    # the full sum of the 9th roots of unity vanishes
    assert power_basis(9, dict.fromkeys(range(9), 1)) == (0,) * 6
    assert power_basis(1, {0: 2, 5: 3}) == (5,)
    assert power_basis(7, {}) == (0,) * 6


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 130).flatmap(lambda L: st.tuples(
    st.just(L),
    st.dictionaries(st.integers(0, L - 1), st.integers(-50, 50), max_size=8))))
def test_power_basis_is_the_remainder_mod_phi(case):
    L, terms = case
    d = euler_phi(L)
    coords = power_basis(L, terms)
    assert len(coords) == d
    diff = [0] * (L + 1)
    for k, c in terms.items():
        diff[k] += c
    for i, c in enumerate(coords):
        diff[i] -= c
    # raises ArithmeticError unless Phi_L divides the difference exactly
    _poly_divexact(diff, list(cyclotomic_polynomial(L)))


def test_sqrt_elements():
    for L, p in ((8, 2), (12, 3), (24, 2), (24, 3)):
        k = L // (8 if p == 2 else 12)
        # sqrt(p) = zeta^k + zeta^-k = zeta^k - zeta^(L/2 - k)
        root = (0, k, (L // 2 - k) % L)
        [w] = expand_product(L, [root])
        assert sqrt_element(L, p).coords == power_basis(L, w)
        [square] = expand_product(L, [root, root])
        assert power_basis(L, square) == CycloInt.integer(L, p).coords


def test_quadratic_pair_roundtrip():
    w = sqrt_element(24, 2)
    x = CycloInt(24, power_basis(24, {0: 5, 3: 3, 21: 3}))       # 5 + 3*sqrt(2)
    assert x == CycloInt.integer(24, 5) + 3 * w == CycloInt.integer(24, 5) + w * 3
    assert as_quadratic_pair(x, 2) == (5, 3)
    assert as_quadratic_pair(CycloInt.integer(24, -7), 2) == (-7, 0)
    with pytest.raises(ArithmeticError):
        as_quadratic_pair(CycloInt(24, power_basis(24, {1: 1})), 2)
    with pytest.raises(ArithmeticError):
        as_quadratic_pair(sqrt_element(24, 3), None)


def test_cycloint_is_a_reduced_record():
    with pytest.raises(ValueError, match="wrong length"):
        CycloInt(12, (1, 0))
    # the ring product is taken before reduction, by expand_product
    w = sqrt_element(8, 2)
    with pytest.raises(TypeError):
        w * w
