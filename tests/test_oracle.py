import copy
import random
import time
from math import gcd

import pytest

from coxbrauer import brauer_tree as bt
from coxbrauer import linalg
from coxbrauer import oracle as orc
from coxbrauer import tree_algebra as ta
from coxbrauer.cyclotomic import fold
from coxbrauer.ell_arith import TruncatedPadic
from coxbrauer.numtheory import has_order, prime_power_split, unit_generators
from reference import (reference_galois_orbit_reps, reference_galois_units,
                       reference_orbit_reps, reference_orthogonality,
                       reference_rref, unit_closure)


def valid_groups(max_d, max_e):
    """One MetacyclicGroup per (|D|, |E|), |D| a prime power <= max_d and
    |E| <= max_e dividing ell - 1, with the smallest valid action exponent."""
    groups = []
    for d_order in range(2, max_d + 1):
        split = prime_power_split(d_order)
        if split is None:
            continue
        ell = split[0]
        for e_order in range(1, min(ell - 1, max_e) + 1):
            if (ell - 1) % e_order == 0:
                n = next(n for n in range(1, d_order)
                         if pow(n, e_order, d_order) == 1
                         and has_order(n % ell, e_order, ell))
                groups.append(orc.MetacyclicGroup(d_order, e_order, n))
    return groups


def perturbed(table, row, col, k, sign):
    """A copy of the table with sign*zeta_L^k added to one cell."""
    values = [list(r) for r in table.values]
    val = values[row][col]
    values[row][col] = {**val, k: val.get(k, 0) + sign}
    return orc.CharacterTable(table.group, table.classes, table.names, values)


def conjugation_map(table):
    """Row i -> the row whose exponent vectors equal those of the
    conjugate of row i, or None unless that is a permutation of the rows."""
    L = table.group.order
    index = {tuple(tuple(sorted(val.items())) for val in row): i
             for i, row in enumerate(table.values)}
    bar = [index.get(tuple(tuple(sorted((-k % L, c) for k, c in val.items()))
                           for val in row))
           for row in table.values]
    return bar if None not in bar and len(set(bar)) == len(bar) else None


def orbit_count(bar):
    """The number of orbits of {i, j} -> {bar i, bar j} on unordered pairs
    of rows, bar an involution."""
    k = len(bar)
    return len({min((i, j), tuple(sorted((bar[i], bar[j]))))
                for i in range(k) for j in range(i, k)})


def non_real_rows(table):
    """The pairs (i, bar i) of rows that conjugation moves."""
    bar = conjugation_map(table)
    return [(i, bar[i]) for i in range(len(bar)) if bar[i] != i]


def reduction_levels(monkeypatch):
    """Record the level L of every `fold` call the oracle makes."""
    levels = []

    def spy(L, acc):
        levels.append(L)
        return fold(L, acc)

    monkeypatch.setattr(orc, "fold", spy)
    return levels


def eliminated_decomposition_matrix(g):
    """The decomposition matrix by one elimination of [V | T] over
    Z/ell^(alpha+1): V[b][j] = zeta^(jb) holds the Brauer characters and
    column m + i of T ordinary character i, both on the regular classes."""
    table = orc.character_table(g)
    m = g.e_order
    zeta = g.zeta_lift()
    mod = zeta.modulus
    reg = [i for i, c in enumerate(table.classes) if c.kind != "d"]
    exps = [0] + [c.rep for c in table.classes if c.kind == "e"]
    aug = [[pow(zeta.value, j * b, mod) for j in range(m)]
           + [orc._reduce_value(row[cls_idx], g, zeta) for row in table.values]
           for cls_idx, b in zip(reg, exps)]
    reduced, pivots = reference_rref(aug, g.ell, mod)
    assert pivots[:m] == list(range(m))
    return tuple(tuple(x if x <= mod // 2 else x - mod for x in col)
                 for col in zip(*(row[m:] for row in reduced)))


def test_e_not_dividing_ell_minus_1_is_refused_before_trial_division():
    # |E| = 2^61 - 1 is prime; factorizing it by trial division would hang
    start = time.perf_counter()
    with pytest.raises(ValueError, match="does not divide ell - 1 = 6"):
        orc.MetacyclicGroup(7, 2 ** 61 - 1, 1)
    assert time.perf_counter() - start < 1.0


def test_character_table_shape():
    g = orc.MetacyclicGroup(7, 3, 2)
    table = orc.character_table(g)
    assert len(table.classes) == 5
    assert [c.size for c in table.classes] == [1, 3, 3, 7, 7]
    assert [table.degree(i) for i in range(5)] == [1, 1, 1, 3, 3]
    assert sum(table.degree(i) ** 2 for i in range(5)) == 21



def test_the_class_bound_is_inclusive_and_checked_before_d_is_walked(monkeypatch):
    g = orc.MetacyclicGroup(7, 3, 2)             # mu + |E| = 2 + 3 classes
    monkeypatch.setattr(orc, "MAX_CLASSES", 5)
    assert len(orc.character_table(g).classes) == 5

    def walk(group):
        raise LookupError("walked D")

    monkeypatch.setattr(orc, "_orbit_reps", walk)
    monkeypatch.setattr(orc, "MAX_CLASSES", 4)
    with pytest.raises(ValueError, match="would have 5 classes, more than the 4"):
        orc.character_table(g)
    # the largest ladder input, mu + |E| = 800 + 3, passes the bound
    monkeypatch.setattr(orc, "MAX_CLASSES", bt.MAX_CLASSES)
    with pytest.raises(LookupError):
        orc.character_table(orc.MetacyclicGroup(2401, 3, 1047))


def test_the_term_bound_is_inclusive_and_checked_before_d_is_walked(monkeypatch):
    """`table_terms` bounds the exponent terms a table holds, exactly when
    |D| is prime; a table is built at a bound of its count and refused one
    below, before D is walked, and so are the rungs on either side of
    MAX_TABLE_TERMS."""
    assert orc.MAX_TABLE_TERMS == 2 ** 23
    for g in valid_groups(60, 6):
        held = sum(len(cell) for row in orc.character_table(g).values for cell in row)
        assert held <= orc.table_terms(g), g
        assert (held == orc.table_terms(g)) >= (prime_power_split(g.d_order)[1] == 1), g
    g = orc.MetacyclicGroup(7, 3, 2)
    monkeypatch.setattr(orc, "MAX_TABLE_TERMS", 29)
    assert orc.table_terms(g) == 29 and len(orc.character_table(g).values) == 5

    def walk(group):
        raise LookupError("walked D")

    monkeypatch.setattr(orc, "_orbit_reps", walk)
    monkeypatch.setattr(orc, "MAX_TABLE_TERMS", 28)
    with pytest.raises(ValueError, match="^the character table of \\|D\\| = 7, "
                       "\\|E\\| = 3 would hold 29 exponent terms, more than the 28 "
                       "supported$"):
        orc.character_table(g)
    monkeypatch.setattr(orc, "MAX_TABLE_TERMS", 2 ** 23)
    # (7681, 10) answers within 1 GiB at 5,906,788 terms; (12289, 16), at
    # 9,450,496, ran past 60 s
    with pytest.raises(LookupError):
        orc.character_table(orc.MetacyclicGroup(7681, 10, 2586))
    with pytest.raises(ValueError, match="would hold 9450496 exponent terms"):
        orc.character_table(orc.MetacyclicGroup(12289, 16, 722))


def test_orbit_reps_are_the_minimal_exponents():
    """a <= a*n^i for every i picks the same representatives as walking
    each E-orbit as a set."""
    groups = valid_groups(128, 12) + [orc.MetacyclicGroup(343, 3, 18),
                                      orc.MetacyclicGroup(1021, 1, 1),
                                      orc.MetacyclicGroup(2401, 3, 1047)]
    for g in groups:
        assert orc._orbit_reps(g) == reference_orbit_reps(g), g


def test_the_checks_leave_every_shared_cell_as_built(monkeypatch):
    """The rows of a table share their constant cells, so a check that
    changed a cell in place would change many: `verify`,
    `check_orthogonality` and `brute_decomposition_matrix` leave every cell
    equal to a deep copy taken when the table was built."""
    real_verify = orc.CharacterTable.verify
    built = []

    def verify(table):
        before = copy.deepcopy(table.values)
        real_verify(table)
        assert table.values == before
        built.append((table, before))

    monkeypatch.setattr(orc.CharacterTable, "verify", verify)
    for g in valid_groups(27, 12):
        orc.brute_decomposition_matrix(g)
        table, before = built[-1]
        assert table.check_orthogonality() and table.values == before, g
        if g.e_order > 2:
            assert table.values[0][0] is table.values[1][0]
            assert table.values[-1][-1] is table.values[-1][-2]


def test_character_table_cyclic_group():
    g = orc.MetacyclicGroup(5, 1, 1)
    table = orc.character_table(g)
    # cyclic group of order 5: one linear character plus four induced rows
    # in this presentation (the orbits of E = 1 on D are singletons)
    assert len(table.classes) == 5
    assert all(table.degree(i) == 1 for i in range(len(table.values)))


def test_orthogonality_detects_corruption():
    g = orc.MetacyclicGroup(7, 3, 2)
    table = orc.character_table(g)
    assert table.check_orthogonality()
    val = table.values[0][1]
    table.values[0][1] = {**val, 0: val.get(0, 0) + 1}
    assert not table.check_orthogonality()


def test_orthogonality_agrees_with_the_full_reduction_on_perturbations(monkeypatch):
    # every (|D|, |E|) with |D| <= 128 and |E| <= 12; the tables are built
    # unverified, since only the verdicts on their perturbations are compared
    groups = valid_groups(128, 12)
    assert len(groups) == 166
    monkeypatch.setattr(orc.CharacterTable, "verify", lambda self: None)
    rng = random.Random(20101)
    # then one exponent below 0 or at or above L per table, in turn, drawn
    # from a second generator so that the draws above stay as they were;
    # each exponent must be read mod L
    wide = random.Random(7307)
    for i, g in enumerate(groups):
        table = orc.character_table(g)
        L = g.order
        for _ in range(4):
            bad = perturbed(table, rng.randrange(len(table.values)),
                            rng.randrange(len(table.classes)),
                            rng.randrange(L), rng.choice((1, -1)))
            assert bad.check_orthogonality() == reference_orthogonality(bad), g
        row, col = wide.randrange(len(table.values)), wide.randrange(len(table.classes))
        k = wide.randrange(-3 * L, 0) if i % 2 else wide.randrange(L, 3 * L)
        sign = wide.choice((1, -1))
        bad = perturbed(table, row, col, k, sign)
        assert bad.check_orthogonality() == reference_orthogonality(bad), g
        if len(table.values) <= 16:
            # zeta_L^k - zeta_L^(k mod L) is 0, so the table stays
            # orthonormal; no sigma_k permutes its rows, so every pair is
            # checked, which bounds the size
            same = perturbed(bad, row, col, k % L, -sign)
            assert same.check_orthogonality(), g


def test_orthogonality_reduces_a_perturbed_pair_in_its_own_ring(monkeypatch):
    g = orc.MetacyclicGroup(49, 6, 19)
    L = g.order
    table = orc.character_table(g)
    eta1, e1 = table.names.index("eta1"), 1 + (49 - 1) // 6
    assert table.classes[e1] == orc.ConjClass("e", 1, 49)
    levels = reduction_levels(monkeypatch)
    assert table.check_orthogonality()
    # eta0 and eta1 take values in Z[zeta_6], zeta_6 = zeta_L^49: their
    # pair, the second inner product, is reduced at level L / 49 = 6
    assert levels[1] == 6
    # a multiple of the pair's g keeps the perturbed pair in Z[zeta_6],
    # where it must still fail
    del levels[:]
    bad = perturbed(table, eta1, e1, 2 * 49, 1)
    assert not bad.check_orthogonality() and not reference_orthogonality(bad)
    assert levels[-1] == 6
    # an exponent prime to L leaves the subring: g comes from the values
    # being checked, not from the classes, so the pair is reduced at L
    del levels[:]
    bad = perturbed(table, eta1, e1, 1, -1)
    assert not bad.check_orthogonality() and not reference_orthogonality(bad)
    assert levels[-1] == L


def galois_checked(table):
    """R k - R(R - 1)/2: the Gram entries one row per Galois orbit of rows
    takes, R the number of orbits of the k rows under every unit of Z/L."""
    k, R = len(table.values), len(reference_galois_orbit_reps(table))
    return R * k - R * (R - 1) // 2


@pytest.mark.parametrize("d_order, e_order, n, levels", [
    (125, 4, 57, {125, 25, 5, 4, 2, 1}),
    (49, 6, 19, {49, 7, 6, 3, 2, 1}),
    (49, 3, 18, {49, 7, 3, 1}),
])
def test_gram_reductions_stay_below_the_group_order(monkeypatch, d_order,
                                                     e_order, n, levels):
    degrees = []
    real_degree = orc.CharacterTable.degree

    def degree(self, row):
        degrees.append(row)
        return real_degree(self, row)

    monkeypatch.setattr(orc.CharacterTable, "degree", degree)
    seen = reduction_levels(monkeypatch)
    table = orc.character_table(orc.MetacyclicGroup(d_order, e_order, n))
    k = len(table.classes)
    # one reduction per degree and one per Gram entry of a row per Galois
    # orbit of rows, none at |G|; the pairing by conjugation alone checked
    # one entry per orbit of pairs {i, j} ~ {i-bar, j-bar}
    checked = galois_checked(table)
    assert (orbit_count(conjugation_map(table)), checked) == {
        (125, 4): (596, 195), (49, 6): (81, 69), (49, 3): (100, 70)}[d_order, e_order]
    assert len(degrees) == k
    assert len(seen) - len(degrees) == checked
    assert set(seen) == levels


def test_every_valid_table_is_checked_once_per_galois_orbit_of_rows(monkeypatch):
    groups = valid_groups(128, 12)
    assert len(groups) == 166
    monkeypatch.setattr(orc.CharacterTable, "verify", lambda self: None)
    total = total_by_conjugation = 0
    rises = {}
    for g in groups:
        table = orc.character_table(g)
        reps = reference_galois_orbit_reps(table)
        assert orc._galois_orbit_reps(table.values, g.order) == reps, g
        levels = reduction_levels(monkeypatch)
        assert table.check_orthogonality(), g
        assert len(levels) == galois_checked(table), g
        total += len(levels)
        by_conjugation = orbit_count(conjugation_map(table))
        total_by_conjugation += by_conjugation
        if len(levels) > by_conjugation:
            rises[g.d_order, g.e_order] = (len(table.values), by_conjugation,
                                           len(levels))
    # 16,238 entries against 88,140 for the pairing by conjugation alone;
    # on 16 small tables, k <= 17, R k - R(R - 1)/2 exceeds the number of
    # conjugate pairs, the most at (13, 12): R = 7 orbits of 13 rows take
    # 70 entries, where conjugation paired them into 51
    assert (total, total_by_conjugation) == (16238, 88140)
    assert len(rises) == 16 and max(k for k, _, _ in rises.values()) <= 17
    most = max(rises, key=lambda dk: rises[dk][2] - rises[dk][1])
    assert (most, rises[most]) == ((13, 12), (13, 51, 70))


LADDER = [(125, 1, 1), (343, 3, 18), (343, 1, 1), (1021, 1, 1), (2401, 3, 1047)]


def test_unit_generators_generate_every_oracle_unit_group():
    orders = {g.order for g in valid_groups(128, 12)}
    orders |= {d * e for d, e, _ in LADDER}
    for L in sorted(orders):
        gens = unit_generators(L)
        assert gens[:1] == ([L - 1] if L > 2 else []), L
        assert unit_closure(L, gens) == {u for u in range(L) if gcd(u, L) == 1}, L


@pytest.mark.parametrize("d_order, e_order, n, checked", [
    (125, 1, 1, 494),
    (343, 3, 18, 575),
])
def test_ladder_tables_check_one_gram_row_per_galois_orbit(monkeypatch, d_order,
                                                           e_order, n, checked):
    # the pairing by conjugation alone checked 3,969 and 3,481 entries
    monkeypatch.setattr(orc.CharacterTable, "verify", lambda self: None)
    table = orc.character_table(orc.MetacyclicGroup(d_order, e_order, n))
    levels = reduction_levels(monkeypatch)
    assert table.check_orthogonality()
    assert len(levels) == checked


def galois_orbit_perturbed(table, row, col, e, sign):
    """A copy of the table with sign*sigma_u(zeta_L^e) added to cell col of
    row sigma_u(row), for every unit u: the Galois conjugates of one
    perturbation, so every sigma that permuted the rows still does.  e
    must be fixed by each u that fixes the row."""
    L = table.group.order
    values = [list(r) for r in table.values]
    hit = {}
    for u in reference_galois_units(table):
        image = [{u * k % L: c for k, c in val.items()} for val in table.values[row]]
        j = table.values.index(image)
        assert hit.setdefault(j, u * e % L) == u * e % L
    for j, k in hit.items():
        values[j][col] = {**values[j][col], k: values[j][col].get(k, 0) + sign}
    return orc.CharacterTable(table.group, table.classes, table.names, values)


def test_a_galois_orbit_perturbation_fails():
    rng = random.Random(33)
    cases = 0
    for g in valid_groups(31, 6):
        table = orc.character_table(g)
        L = g.order
        units = reference_galois_units(table)
        reps = orc._galois_orbit_reps(table.values, L)
        moved = [i for i in range(len(table.values)) if i not in reps]
        if not moved:
            continue
        for _ in range(2):
            row = rng.choice(moved)
            fixing = [u for u in units
                      if [{u * k % L: c for k, c in val.items()}
                          for val in table.values[row]] == table.values[row]]
            e = rng.choice([e for e in range(L)
                            if all(u * e % L == e for u in fixing)])
            bad = galois_orbit_perturbed(table, row, rng.randrange(len(table.classes)),
                                         e, rng.choice((1, -1)))
            # every unit still permutes the rows, and the orbits are kept
            assert reference_galois_units(bad) == units, g
            assert orc._galois_orbit_reps(bad.values, L) == reps, g
            assert not bad.check_orthogonality(), g
            assert not reference_orthogonality(bad), g
            cases += 1
    assert cases >= 20


def test_a_table_that_only_conjugation_permutes_keeps_its_verdict(monkeypatch):
    for g in (orc.MetacyclicGroup(49, 3, 18), orc.MetacyclicGroup(25, 4, 7),
              orc.MetacyclicGroup(27, 1, 1)):
        table = orc.character_table(g)
        L = g.order
        i, ibar = non_real_rows(table)[-1]
        # chi_i times zeta_L and its conjugate times zeta_L^-1 stay an
        # orthonormal pair of conjugate rows, moved off the other orbits
        values = list(table.values)
        for r, a in ((i, 1), (ibar, -1)):
            values[r] = [{(k + a) % L: c for k, c in val.items()} for val in values[r]]
        scaled = orc.CharacterTable(g, table.classes, table.names, values)
        assert reference_galois_units(scaled) == [1, L - 1]
        levels = reduction_levels(monkeypatch)
        assert scaled.check_orthogonality() and reference_orthogonality(scaled)
        bar = conjugation_map(scaled)
        k, R = len(values), len({min(r, bar[r]) for r in range(len(bar))})
        assert len(levels) == R * k - R * (R - 1) // 2
        # 1 added to the degree of both rows keeps conjugation the only
        # permutation, and fails
        bad = perturbed(scaled, i, 0, 0, 1)
        bad = perturbed(bad, ibar, 0, 0, 1)
        assert reference_galois_units(bad) == [1, L - 1]
        assert not bad.check_orthogonality() and not reference_orthogonality(bad)


def test_a_conjugate_consistent_perturbation_fails():
    rng = random.Random(31337)
    for g in valid_groups(49, 6):
        table = orc.character_table(g)
        pairs = non_real_rows(table)
        if not pairs:
            continue
        for _ in range(3):
            i, ibar = rng.choice(pairs)
            col = rng.randrange(len(table.classes))
            k = rng.randrange(g.order)
            bad = perturbed(perturbed(table, i, col, k, 1), ibar, col, -k % g.order, 1)
            # the rows stay closed under conjugation, so the pairing is used
            assert conjugation_map(bad) is not None, g
            assert not bad.check_orthogonality(), g
            assert not reference_orthogonality(bad), g


def test_a_row_scaled_by_a_root_of_unity_passes_through_every_pair(monkeypatch):
    for g in (orc.MetacyclicGroup(49, 3, 18), orc.MetacyclicGroup(25, 4, 7),
              orc.MetacyclicGroup(27, 1, 1)):
        table = orc.character_table(g)
        i, _ = non_real_rows(table)[-1]
        L = g.order
        for a in (1, 2, L - 1):
            values = list(table.values)
            values[i] = [{(k + a) % L: c for k, c in val.items()} for val in values[i]]
            scaled = orc.CharacterTable(g, table.classes, table.names, values)
            assert conjugation_map(scaled) is None
            levels = reduction_levels(monkeypatch)
            # orthogonality holds, so the pairing adds no condition
            assert scaled.check_orthogonality() and reference_orthogonality(scaled)
            k = len(values)
            assert len(levels) == k * (k + 1) // 2


def test_partners_are_found_by_content_not_position(monkeypatch):
    rng = random.Random(4242)
    for g in (orc.MetacyclicGroup(49, 3, 18), orc.MetacyclicGroup(125, 4, 57),
              orc.MetacyclicGroup(27, 2, 26)):
        table = orc.character_table(g)
        levels = reduction_levels(monkeypatch)
        assert table.check_orthogonality()
        count = len(levels)
        order = list(range(len(table.values)))
        rng.shuffle(order)
        shuffled = orc.CharacterTable(g, table.classes,
                                      [table.names[i] for i in order],
                                      [table.values[i] for i in order])
        del levels[:]
        assert shuffled.check_orthogonality() and reference_orthogonality(shuffled)
        assert len(levels) == count


def test_a_repeated_row_fails_orthogonality():
    # conjugation then sends two rows to one partner, which is no
    # permutation, so every pair is checked, the repeated one included
    for g in (orc.MetacyclicGroup(7, 3, 2), orc.MetacyclicGroup(49, 3, 18)):
        table = orc.character_table(g)
        for i in (0, 1, len(table.values) - 1):
            repeated = orc.CharacterTable(g, table.classes,
                                          table.names + [table.names[i]],
                                          table.values + [table.values[i]])
            assert not repeated.check_orthogonality()
            assert not reference_orthogonality(repeated)


def test_a_row_of_the_wrong_length_fails_orthogonality():
    g = orc.MetacyclicGroup(7, 3, 2)
    table = orc.character_table(g)
    del table.values[3][-1]         # ind1 vanishes on that class
    assert not table.check_orthogonality()
    table = orc.character_table(g)
    table.values[3].append({})
    assert not table.check_orthogonality()


def test_verify_refuses_a_table_that_is_not_square():
    g = orc.MetacyclicGroup(7, 3, 2)
    # one character removed: the rows stay orthonormal, but the column
    # relation no longer follows from them
    table = orc.character_table(g)
    del table.values[3]
    assert table.check_orthogonality()
    with pytest.raises(orc.Mismatch, match="not square: 4 characters on 5 classes"):
        table.verify()
    # a row missing its value on one class
    table = orc.character_table(g)
    del table.values[0][-1]
    with pytest.raises(orc.Mismatch, match="not square"):
        table.verify()


def test_verify_refuses_a_table_without_an_identity_class():
    g = orc.MetacyclicGroup(7, 3, 2)
    table = orc.character_table(g)
    one = next(i for i, c in enumerate(table.classes) if c.kind == "one")
    table.classes[one] = orc.ConjClass("d", 0, 1)
    with pytest.raises(orc.Mismatch, match="^table has no identity class"):
        table.verify()


def test_regular_class_values_reduce_by_the_ring_map():
    g = orc.MetacyclicGroup(7, 3, 2)
    lift = g.zeta_lift()
    mod = lift.modulus
    # 1 + zeta_3, a sum of two roots of unity: zeta_3 = zeta_21^7 -> lift
    assert orc._reduce_value({0: 1, 7: 1}, g, lift) == (1 + lift.value) % mod
    assert orc._reduce_value({14: -2}, g, lift) == -2 * lift.value ** 2 % mod
    assert orc._reduce_value({}, g, lift) == 0
    with pytest.raises(orc.SingularSystem, match="not an \\|E\\|-th root"):
        orc._reduce_value({0: 1, 3: 1}, g, lift)


def test_brute_decomposition_7_3_2():
    d = orc.brute_decomposition_matrix(orc.MetacyclicGroup(7, 3, 2))
    assert d == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1))


def test_brute_decomposition_trivial_e():
    d = orc.brute_decomposition_matrix(orc.MetacyclicGroup(7, 1, 1))
    assert d == ((1,),) * 7


def test_brute_decomposition_49():
    d = orc.brute_decomposition_matrix(orc.MetacyclicGroup(49, 3, 18))
    assert d == ((1, 0, 0), (0, 1, 0), (0, 0, 1)) + ((1, 1, 1),) * 16


@pytest.mark.parametrize("d_order", [5, 7, 9, 11, 13, 25, 27, 49])
def test_closed_form_equals_elimination(d_order):
    ell, _ = prime_power_split(d_order)
    for e_order in (e for e in range(1, ell) if (ell - 1) % e == 0):
        n = next(n for n in range(1, d_order) if pow(n, e_order, d_order) == 1
                 and has_order(n % ell, e_order, ell))
        g = orc.MetacyclicGroup(d_order, e_order, n)
        assert orc.brute_decomposition_matrix(g) == eliminated_decomposition_matrix(g)


def test_singular_brauer_matrix_raises(monkeypatch):
    # with the trivial lift every Brauer character takes the value 1 on
    # every regular class, so V is all ones and singular mod ell
    monkeypatch.setattr(orc.MetacyclicGroup, "zeta_lift",
                        lambda self: TruncatedPadic(1, self.ell, self.alpha + 1))
    with pytest.raises(orc.SingularSystem, match="not invertible"):
        orc.brute_decomposition_matrix(orc.MetacyclicGroup(7, 3, 2))


@pytest.mark.parametrize("value", [3, 2])
def test_lift_without_order_m_mod_ell_power_raises(monkeypatch, value):
    # 3 has order 6 mod 7; 2 has order 3 mod 7, but 2^3 = 8 != 1 mod 49, the
    # modulus of the solve, where V^-1 = conj(V)^T / m would then fail
    monkeypatch.setattr(orc.MetacyclicGroup, "zeta_lift",
                        lambda self: TruncatedPadic(value, self.ell, self.alpha + 1))
    with pytest.raises(orc.SingularSystem, match="not invertible"):
        orc.brute_decomposition_matrix(orc.MetacyclicGroup(7, 3, 2))


def test_decomposition_number_outside_0_1_is_a_mismatch(monkeypatch):
    # doubling the ordinary character ind1 (row 3) doubles its solution row,
    # (1, 1, 1) -> (2, 2, 2); the rows above stay 0/1, so the first bad
    # cell is (3, 0)
    real = orc.character_table

    def doubled(g):
        table = real(g)
        table.values[3] = [{k: 2 * c for k, c in v.items()} for v in table.values[3]]
        return table

    monkeypatch.setattr(orc, "character_table", doubled)
    with pytest.raises(orc.Mismatch, match="unexpected decomposition number 2") as err:
        orc.brute_decomposition_matrix(orc.MetacyclicGroup(7, 3, 2))
    assert err.value.cell == (3, 0)


def test_dec_transpose_equals_cartan():
    for d_order, e_order, n in [(7, 3, 2), (49, 3, 18), (11, 5, 3)]:
        g = orc.MetacyclicGroup(d_order, e_order, n)
        d = orc.brute_decomposition_matrix(g)
        alg = ta.from_tree(bt.star_tree(d_order, e_order, n), g.ell)
        cols = sorted(alg.vertices)
        dtd = [[sum(row[a] * row[b] for row in d) for b in cols] for a in cols]
        hom = ta.hom_grid(alg)
        assert dtd == [[row.get(c, 0) for c in cols] for row in hom.rows]


def test_exceptional_count_matches_multiplicity():
    g = orc.MetacyclicGroup(49, 3, 18)
    tree = bt.star_tree(49, 3, 18)
    n_induced = sum(name.startswith("ind") for name in orc.character_table(g).names)
    assert n_induced == (49 - 1) // 3 == tree.multiplicity


def test_verify_star_fixtures():
    for d, e, n in [(7, 3, 2), (7, 3, 4), (49, 3, 18)]:
        g = orc.MetacyclicGroup(d, e, n)
        tree = bt.star_tree(d, e, n)
        assert orc.verify_star(tree, g, orc.brute_decomposition_matrix(g),
                               bt.decomposition_matrix(tree).matrix)


def test_verify_star_rotated_numbering():
    # n = 4 = 2^2 also has order 3; the Hensel lift and hence the eta
    # numbering differ from n = 2, but each side is internally consistent
    t2 = bt.star_tree(7, 3, 2)
    t4 = bt.star_tree(7, 3, 4)
    assert t2.star.zeta_lift() != t4.star.zeta_lift()
    g4 = orc.MetacyclicGroup(7, 3, 4)
    assert orc.verify_star(t4, g4, orc.brute_decomposition_matrix(g4),
                           bt.decomposition_matrix(t4).matrix)


def test_verify_star_reports_the_differing_cell():
    g = orc.MetacyclicGroup(7, 3, 2)
    d = [list(row) for row in orc.brute_decomposition_matrix(g)]
    tree_d = bt.decomposition_matrix(bt.star_tree(7, 3, 2)).matrix
    d[4][1] = 0
    with pytest.raises(orc.Mismatch) as err:
        orc.verify_star(bt.star_tree(7, 3, 2), g, tuple(map(tuple, d)), tree_d)
    assert err.value.cell == (4, 1)
    assert "tree 1, oracle 0" in str(err.value)
    # the reverse: the oracle holds a 1 where the tree's row stores nothing,
    # which a walk over the tree's stored entries alone would miss
    d[4][1] = 1
    d[1][2] = 1
    assert 2 not in tree_d.rows[1]
    with pytest.raises(orc.Mismatch) as err:
        orc.verify_star(bt.star_tree(7, 3, 2), g, tuple(map(tuple, d)), tree_d)
    assert err.value.cell == (1, 2)
    assert "tree 0, oracle 1" in str(err.value)
    # two differing cells: the first in row-major order is named
    d[0][2] = 1
    with pytest.raises(orc.Mismatch) as err:
        orc.verify_star(bt.star_tree(7, 3, 2), g, tuple(map(tuple, d)), tree_d)
    assert err.value.cell == (0, 2)
    d[0][2] = d[1][2] = 0
    # a zero stored in the tree's row is no difference
    padded = linalg.SparseMatrix(tree_d.shape, [{**row, 2: row.get(2, 0)}
                                                for row in tree_d.rows])
    assert orc.verify_star(bt.star_tree(7, 3, 2), g, tuple(map(tuple, d)), padded)
    with pytest.raises(orc.Mismatch, match=r"shapes differ: tree \(5, 3\), "
                       r"oracle \(4, 3\)"):
        orc.verify_star(bt.star_tree(7, 3, 2), g, tuple(map(tuple, d[:4])), tree_d)


def test_verify_star_mismatch():
    tree = bt.star_tree(7, 3, 2)
    for g in (orc.MetacyclicGroup(7, 3, 4), orc.MetacyclicGroup(49, 3, 18)):
        with pytest.raises(orc.Mismatch, match=r"star parameters differ: tree "
                           r"MetacyclicGroup\(d_order=7, e_order=3, n=2,"):
            orc.verify_star(tree, g, orc.brute_decomposition_matrix(g),
                            bt.decomposition_matrix(tree).matrix)
    line = bt.assemble_tree(bt.line_series(3), 2, 1)
    g = orc.MetacyclicGroup(7, 3, 2)
    with pytest.raises(orc.Mismatch, match="no star metadata"):
        orc.verify_star(line, g, orc.brute_decomposition_matrix(g),
                        bt.decomposition_matrix(line).matrix)
