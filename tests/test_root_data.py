from fractions import Fraction
from math import lcm

import pytest

from coxbrauer import root_data
from coxbrauer.cyclotomic import power_basis
from coxbrauer.numtheory import euler_phi
from reference import reference_evaluate
from coxbrauer.root_data import (FAMILIES, CycloPoly, IntegralityFailure,
                                 TwistedType, UnsupportedType, coxeter_datum,
                                 cyclotomic_multiplicity, group_order_poly,
                                 parse_type, torus_order_poly,
                                 twisted_coxeter_eigenvalues, weyl_fixed_order)

ALL_TYPES = (["A1", "A2", "A4", "A7", "B2", "B5", "C3", "D4", "D6",
              "E6", "E7", "E8", "F4", "G2",
              "2A2", "2A3", "2A5", "2D4", "2D6", "3D4", "2E6",
              "2B2", "2F4", "2G2"])


def data(name):
    return coxeter_datum(parse_type(name))


def phi_degree_sum(datum):
    """sum_d a(d) * phi(d); equals sum of the degrees (order formula check)."""
    return sum(cyclotomic_multiplicity(datum, d) * euler_phi(d)
               for d in range(1, datum.h + 1))


def test_parse_type():
    assert parse_type("E8").rank == 8
    assert parse_type("2A", 3).family == "2A"
    assert parse_type("b4").name == "B4"
    with pytest.raises(UnsupportedType):
        parse_type("H3")
    with pytest.raises(UnsupportedType):
        parse_type("E6", 7)
    with pytest.raises(UnsupportedType):
        parse_type("2B2", 3)
    with pytest.raises(UnsupportedType):
        parse_type("D3")


def test_table_anchors():
    assert data("E8").h == 30
    assert data("3D4").h0 == 4
    assert data("2G2").h == 12
    assert data("2A4").h == 10 and data("2A4").h0 == 5
    assert data("2D5").h == 10 and data("2D5").h0 == 5


@pytest.mark.parametrize("name", ALL_TYPES)
def test_datum_invariants(name):
    d = data(name)
    assert d.h0 * d.delta == d.h
    assert cyclotomic_multiplicity(d, d.h) == 1
    assert d.N == sum(deg - 1 for deg in d.degrees)
    assert len(d.degrees) == d.type.rank
    # sum over d of a(d) phi(d) recovers the degree sum
    assert phi_degree_sum(d) == sum(d.degrees)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_eigenvalue_multiplicity_one(name):
    d = data(name)
    angles = twisted_coxeter_eigenvalues(d)
    assert len(angles) == len(d.degrees)
    full = [a for a in angles if a.denominator == d.h]
    assert len(full) == len(set(full))


def test_csigma_examples():
    assert twisted_coxeter_eigenvalues(data("A2")) == [Fraction(1, 3), Fraction(2, 3)]
    assert twisted_coxeter_eigenvalues(data("A1")) == [Fraction(1, 2)]


def test_a_function_examples():
    assert cyclotomic_multiplicity(data("E8"), 30) == 1
    assert cyclotomic_multiplicity(data("A2"), 3) == 1
    assert cyclotomic_multiplicity(data("A2"), 1) == 2
    with pytest.raises(ValueError):
        cyclotomic_multiplicity(data("A2"), 0)


def test_group_order_examples():
    a1 = group_order_poly(data("A1"))
    # q(q^2 - 1) = -q + q^3
    assert a1.coeffs == ((0, 0), (-1, 0), (0, 0), (1, 0))
    a2 = group_order_poly(data("A2"))
    assert a2.evaluate(2) == 168
    assert len(a2.coeffs) - 1 == data("A2").N + sum(data("A2").degrees)


def test_torus_order_examples():
    assert torus_order_poly(data("A2")).coeffs == ((1, 0), (1, 0), (1, 0))
    assert torus_order_poly(data("2G2")).coeffs == ((1, 0), (0, -1), (1, 0))
    assert torus_order_poly(data("2B2")).coeffs == ((1, 0), (0, -1), (1, 0))
    assert torus_order_poly(data("2F4")).coeffs == (
        (1, 0), (0, -1), (1, 0), (0, -1), (1, 0))
    # E8: torus order is the 30th cyclotomic polynomial
    e8 = torus_order_poly(data("E8"))
    assert len(e8.coeffs) - 1 == euler_phi(30)
    assert e8.evaluate(2) == 2 ** 8 + 2 ** 7 - 2 ** 5 - 2 ** 4 - 2 ** 3 + 2 + 1


@pytest.mark.parametrize("name", ALL_TYPES)
def test_order_divisibility(name):
    d = data(name)
    qs = {2: [8, 32, 128], 3: [27, 243]}.get(d.type.sqrt_prime, [2, 3, 4, 5])
    for q in qs:
        g = group_order_poly(d).evaluate(q)
        t = torus_order_poly(d).evaluate(q)
        assert g > 0 and t > 0
        assert g % t == 0


def test_suzuki_ree_evaluation_guard():
    poly = torus_order_poly(data("2B2"))
    with pytest.raises(ValueError):
        poly.evaluate(16)   # even power of 2 is not a valid q^2
    with pytest.raises(ValueError):
        poly.evaluate(27)


def test_weyl_fixed_orders():
    # classical values of |W^F| per twisted type
    assert weyl_fixed_order(data("A2")) == 6
    assert weyl_fixed_order(data("2A2")) == 2
    assert weyl_fixed_order(data("2A3")) == 8
    assert weyl_fixed_order(data("2D4")) == 48      # Weyl group of B3
    assert weyl_fixed_order(data("3D4")) == 12      # Weyl group of G2
    assert weyl_fixed_order(data("2E6")) == 1152    # Weyl group of F4
    assert weyl_fixed_order(data("2B2")) == 2
    assert weyl_fixed_order(data("2G2")) == 2
    assert weyl_fixed_order(data("2F4")) == 16


def test_cyclopoly_rational_guard():
    with pytest.raises(AssertionError):
        CycloPoly(coeffs=((1, 1),), p=None)


def test_pretty():
    assert torus_order_poly(data("2G2")).pretty() == "1 - q*sqrt(3) + q^2"
    assert torus_order_poly(data("A2")).pretty() == "1 + q + q^2"


def test_table_checksum_negative_control(monkeypatch):
    """A corrupted degree table must be refused by the h/h0 checksum, also
    after a clean G2 datum has been built (and cached) in this process."""
    from coxbrauer import root_data

    clean = coxeter_datum(parse_type("G2"))
    assert coxeter_datum(parse_type("G2")) is clean
    real = root_data._degree_twist_pairs

    def corrupted(t):
        pairs = real(t)
        if t.name == "G2":
            return ((2, pairs[0][1]), (5, pairs[1][1]))   # degree 6 -> 5
        return pairs

    monkeypatch.setattr(root_data, "_degree_twist_pairs", corrupted)
    with pytest.raises(AssertionError, match="checksum"):
        coxeter_datum(parse_type("G2"))
    monkeypatch.undo()
    assert coxeter_datum(parse_type("G2")) is clean


def supported_types(max_rank: int = 15) -> list[TwistedType]:
    out = []
    for family in FAMILIES:
        for rank in range(1, max_rank + 1):
            try:
                out.append(TwistedType(family, rank))
            except UnsupportedType:
                pass
    return out


def restated_delta_r(t: TwistedType) -> tuple[int, int]:
    """The order delta of the twist and the number r of F-orbits on the
    simple reflections, restated from the Dynkin diagram automorphisms."""
    n = t.rank
    if t.family == "2A":
        return 2, (n + 1) // 2      # the diagram flip pairs s_i with s_(n+1-i)
    if t.family == "2D":
        return 2, n - 1             # swaps the two end nodes of the fork
    return {"3D4": (3, 2), "2E6": (2, 4), "2B2": (2, 1), "2G2": (2, 1),
            "2F4": (2, 2)}.get(t.family, (1, n))


def test_delta_and_r_match_the_closed_forms():
    types = supported_types()
    assert len(types) == 91
    got = {t.name: (coxeter_datum(t).delta, coxeter_datum(t).r) for t in types}
    assert got == {t.name: restated_delta_r(t) for t in types}


def test_each_datum_is_built_once_with_its_final_numbers(monkeypatch):
    """The uncached builder makes one CoxeterDatum per type, never one
    with the placeholder h = 0."""
    from coxbrauer import root_data

    built = []
    real = root_data.CoxeterDatum

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(root_data, "CoxeterDatum", recording)
    types = supported_types()
    for t in types:
        root_data._checked_datum.__wrapped__(t, root_data._degree_twist_pairs(t))
    assert [d.type for d in built] == types
    assert all(d.h > 0 and d.h0 > 0 for d in built)


def _types_up_to_rank(n):
    for family in FAMILIES:
        for rank in range(1, n + 1):
            try:
                yield TwistedType(family, rank)
            except UnsupportedType:
                pass


def _reduced_each_step(L, factors):
    """prod (zeta^t * q^k - zeta^l) with every coefficient held in
    power-basis coordinates and reduced after every product: a route that
    shares no multiplication with the group-ring expansion."""
    d = euler_phi(L)

    def mul(x, y):
        conv = {}
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                conv[i + j] = conv.get(i + j, 0) + a * b
        return power_basis(L, conv)

    def add(x, y, sign=1):
        return tuple(a + sign * b for a, b in zip(x, y))

    poly = [power_basis(L, {0: 1})]
    for k, t, l in factors:
        z_top, z_low = power_basis(L, {t: 1}), power_basis(L, {l: 1})
        new = [(0,) * d] * (len(poly) + k)
        for i, c in enumerate(poly):
            new[i] = add(new[i], mul(c, z_low), -1)
            new[i + k] = add(new[i + k], mul(c, z_top))
        poly = new
    return poly


def _pair_coords(L, pair, p):
    """Power-basis coordinates of a + b*sqrt(p), sqrt(p) = zeta^k + zeta^-k."""
    a, b = pair
    if p is None:
        return power_basis(L, {0: a})
    k = L // (8 if p == 2 else 12)
    return power_basis(L, {0: a, k: b, -k % L: b})


def test_order_polys_match_products_reduced_after_each_step():
    types = list(_types_up_to_rank(15))
    assert len(types) == 91
    for t in types:
        datum, p = coxeter_datum(t), t.sqrt_prime
        group = [(d, Fraction(0), -e % 1)
                 for d, e in zip(datum.degrees, datum.epsilons)]
        torus = [(1, a, Fraction(0)) for a in twisted_coxeter_eigenvalues(datum)]
        for factors, poly, shift in ((group, group_order_poly(datum), datum.N),
                                     (torus, torus_order_poly(datum), 0)):
            L = lcm(8 if p == 2 else 12 if p else 1,
                    *(a.denominator for _, top, low in factors for a in (top, low)))
            want = _reduced_each_step(L, [(k, int(top * L), int(low * L))
                                          for k, top, low in factors])
            # the leading coefficient is +-1 and the polynomials are monic:
            # the torus order divides the sign out, the group order leads with 1
            sign = want[-1][0]
            assert want[-1] == power_basis(L, {0: sign}) and sign in (1, -1), t
            assert poly.p == p and poly.coeffs[:shift] == ((0, 0),) * shift, t
            got = [_pair_coords(L, c, p) for c in poly.coeffs[shift:]]
            assert got == [tuple(sign * x for x in c) for c in want], t


def test_horner_evaluation_matches_the_term_by_term_sum():
    types = supported_types()
    assert len(types) == 91
    ladder = [-3, 0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 27]
    for t in types:
        datum, p = coxeter_datum(t), t.sqrt_prime
        args = [p ** (2 * m + 1) for m in range(6)] if p else ladder
        for poly in (group_order_poly(datum), torus_order_poly(datum)):
            for q in args:
                assert poly.evaluate(q) == reference_evaluate(poly, q), (t, q)
    # a sqrt(p) residue and a q^2 that is not an odd power of p are refused
    # as they were
    for poly, qsq, exc in ((CycloPoly(((0, 0), (1, 0)), 2), 8, AssertionError),
                           (CycloPoly(((0, 1),), 3), 27, AssertionError),
                           (CycloPoly(((1, 0),), 2), 16, ValueError),
                           (CycloPoly(((1, 0),), 3), 6, ValueError)):
        for evaluate in (poly.evaluate, lambda q: reference_evaluate(poly, q)):
            with pytest.raises(exc):
                evaluate(qsq)


def test_coefficient_outside_the_quadratic_ring_is_refused():
    # zeta_3 * q - 1 has a coefficient outside Z
    with pytest.raises(IntegralityFailure, match="non-rational cyclotomic residue"):
        root_data._angles_to_poly([(1, Fraction(1, 3), Fraction(0))], None)


def test_torus_determinant_other_than_plus_minus_one_is_refused(monkeypatch):
    # eigenvalues zeta_3, zeta_3 have product zeta_3^2, not +-1
    monkeypatch.setattr(root_data, "twisted_coxeter_eigenvalues",
                        lambda datum: [Fraction(1, 3), Fraction(1, 3)])
    with pytest.raises(IntegralityFailure,
                       match=r"non-unit leading torus coefficient: "
                             r"det\(c\*sigma\) = exp\(2\*pi\*i\*2/3\)"):
        torus_order_poly(data("A2"))
