import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrauer.cyclotomic import (CycloInt, _poly_divexact, as_quadratic_pair,
                                  cyclotomic_polynomial, power_basis,
                                  sqrt_element)
from coxbrauer.numtheory import euler_phi


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


def test_zeta_arithmetic():
    z = CycloInt.zeta_power
    # zeta_3^2 + zeta_3 + 1 = 0
    acc = z(3, 2) + z(3, 1) + CycloInt.integer(3, 1)
    assert acc.coords == CycloInt.zero(3).coords
    # zeta_8^2 = zeta_4 embedded at level 8
    assert (z(8, 1) * z(8, 1)).coords == z(8, 2).coords
    # full cycle: zeta_12^12 = 1
    acc = CycloInt.integer(12, 1)
    for _ in range(12):
        acc = acc * z(12, 1)
    assert acc.as_integer() == 1


def test_conjugate_norm():
    z = CycloInt.zeta_power(5, 1)
    zbar = CycloInt.zeta_power(5, 4)         # complex conjugate of zeta_5
    n = (z - CycloInt.integer(5, 1)) * (zbar - CycloInt.integer(5, 1))
    # (zeta-1)(zeta^-1-1) = 2 - zeta - zeta^-1
    want = CycloInt.integer(5, 2) - z - zbar
    assert n.coords == want.coords


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
        w = sqrt_element(L, p)
        assert (w * w).as_integer() == p


def test_quadratic_pair_roundtrip():
    w = sqrt_element(24, 2)
    x = CycloInt.integer(24, 5) + 3 * w
    assert as_quadratic_pair(x, 2) == (5, 3)
    assert as_quadratic_pair(CycloInt.integer(24, -7), 2) == (-7, 0)
    with pytest.raises(ArithmeticError):
        as_quadratic_pair(CycloInt.zeta_power(24, 1), 2)
    with pytest.raises(ArithmeticError):
        as_quadratic_pair(sqrt_element(24, 3), None)
