import random
from fractions import Fraction

import pytest

from coxbrauer.ell_arith import (BadRegime, NoRoot, TruncatedPadic,
                                 eigenvalue_table, hensel_root, validate_regime)
from coxbrauer.root_data import coxeter_datum, parse_type


def ctx_for(name, qsq, ell):
    return validate_regime(coxeter_datum(parse_type(name)), qsq, ell)


def test_validate_a2():
    ctx = ctx_for("A2", 2, 7)
    assert ctx.torus_value == 7
    assert ctx.qdelta_mod == 2


def test_validate_ree():
    ctx = ctx_for("2G2", 27, 19)
    assert ctx.torus_value == 19
    assert ctx.qdelta_mod == 8


def test_validate_rejections():
    with pytest.raises(BadRegime) as err:
        ctx_for("A2", 2, 3)
    assert err.value.reason == "DividesWeylOrder"
    with pytest.raises(BadRegime) as err:
        ctx_for("A2", 2, 5)
    assert err.value.reason == "NotDividing"
    # (A2, q=4, ell=7) is a second valid point of the same regime
    assert ctx_for("A2", 4, 7).qdelta_mod == 4


def test_wrong_order_rejection():
    # A1: h = 2, torus order q+1: q=5, ell=3 divides 6 and ord_3(5) = 2 = h
    ctx = ctx_for("A1", 5, 3)
    assert ctx.qdelta_mod == 2
    # 2A2: h = 6, torus order q^2-q+1 = 3 at q=2, but ord_3(2) = 2 != 6
    with pytest.raises(BadRegime) as err:
        ctx_for("2A2", 2, 3)
    assert err.value.reason == "WrongOrder"


def test_validate_parameter_guards():
    with pytest.raises(BadRegime):
        ctx_for("A2", 6, 7)       # q not a prime power
    with pytest.raises(BadRegime):
        ctx_for("2G2", 9, 19)     # q^2 must be an odd power of 3
    with pytest.raises(BadRegime):
        ctx_for("A2", 2, 6)       # ell not prime
    with pytest.raises(BadRegime):
        ctx_for("A2", 7, 7)       # ell | q


def test_eigenvalue_tables():
    assert eigenvalue_table(ctx_for("A2", 2, 7)) == {0: 1, 1: 2, 2: 4}
    assert eigenvalue_table(ctx_for("2G2", 27, 19)) == {
        0: 1, 1: 8, 2: 7, 3: 18, 4: 11, 5: 12}


def test_eigenvalue_table_is_full_root_group():
    for name, qsq, ell in [("A2", 2, 7), ("2G2", 27, 19), ("A1", 5, 3),
                           ("B2", 2, 5), ("3D4", 2, 13)]:
        ctx = ctx_for(name, qsq, ell)
        table = eigenvalue_table(ctx)
        roots = {x for x in range(1, ell) if pow(x, ctx.h0, ell) == 1}
        assert set(table.values()) == roots


# ---------------------------------------------------------------------------
# Hensel lifting

def test_hensel_anchor_exhaustive():
    got = hensel_root(TruncatedPadic(1, 7, 2), 3, 2)
    brute = [x for x in range(49) if x % 7 == 2 and pow(x, 3, 49) == 1]
    assert brute == [30]
    assert got == TruncatedPadic(30, 7, 2)


def test_hensel_identity():
    for ell, n in [(5, 1), (7, 4), (19, 3)]:
        assert hensel_root(TruncatedPadic(1, ell, n), 3, 1).value == 1


def test_hensel_no_root():
    with pytest.raises(NoRoot):
        hensel_root(TruncatedPadic(1, 7, 2), 3, 3)   # 3^3 = 27 != 1 mod 7


def test_hensel_requires_unit_exponent():
    with pytest.raises(ValueError):
        hensel_root(TruncatedPadic(1, 7, 2), 7, 1)


def binomial_series_root(u, e, ell, n):
    """sum_k C(1/e, k) (ell*u)^k as an exact rational, reduced mod ell^n."""
    total = Fraction(0)
    term = Fraction(1)
    x = Fraction(ell * u)
    for k in range(0, 3 * n + 3):
        total += term
        term = term * (Fraction(1, e) - k) / (k + 1) * x
    mod = ell ** n
    den = total.denominator
    assert den % ell, "denominator not an ell-unit; series truncated too early"
    return total.numerator * pow(den, -1, mod) % mod


def test_hensel_matches_binomial_series():
    for ell, e, u, n in [(7, 3, 2, 3), (19, 6, 4, 3), (11, 5, 1, 4)]:
        a = TruncatedPadic(1 + ell * u, ell, n)
        got = hensel_root(a, e, 1).value
        want = binomial_series_root(u, e, ell, n)
        assert got == want


def test_hensel_precision_tower():
    rng = random.Random(4)
    for _ in range(50):
        ell = rng.choice([3, 5, 7, 11, 13])
        e = rng.choice([k for k in range(2, 9) if k % ell])
        n_hi = rng.randint(2, 5)
        x0 = rng.randrange(1, ell)
        a = pow(x0, e, ell) + ell * rng.randrange(ell ** (n_hi - 1))
        hi = hensel_root(TruncatedPadic(a, ell, n_hi), e, x0)
        assert pow(hi.value, e, ell ** n_hi) == a % ell ** n_hi
        for n_lo in range(1, n_hi):
            lo = hensel_root(TruncatedPadic(a, ell, n_lo), e, x0)
            assert hi.reduce(n_lo) == lo

