import contextlib
import copy
import io
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from coxbrauer import brauer_tree as bt
from coxbrauer import cli
from coxbrauer import homotopy as ho
from coxbrauer import linalg
from coxbrauer import tree_algebra as ta
from coxbrauer.selftest import line_trees, random_trees
from reference import dense, reference_basis, reference_hom_basis

GOLDEN = Path(__file__).parent / "golden"


def line(h0, mu, r=1, ell=5):
    tree = bt.assemble_tree(bt.line_series(h0), mu, r)
    return tree, ta.from_tree(tree, ell)


def ree():
    tree = bt.ree_tree()
    return tree, ta.from_tree(tree, 19)


def test_rickard_terms_and_degrees():
    tree, alg = line(3, 1, r=2)
    cx = ho.rickard_complex(alg, tree, 2)
    assert list(cx.degrees()) == [2, 3, 4]
    assert cx.terms == [[0], [1], [2]]
    star = bt.star_tree(7, 3, 2)
    salg = ta.from_tree(star, 7)
    single = ho.rickard_complex(salg, star, 1)
    assert single.terms == [[1]] and single.lo == 0


def test_complex_leaves_the_callers_lists_alone():
    _, alg = line(2, 1)
    terms, diffs = [[0], []], [[], []]
    cx = ho.ProjComplex(alg, 0, terms, diffs)
    assert cx.terms == [[0]] and cx.diffs == [[]]
    assert terms == [[0], []] and diffs == [[], []]


def test_rickard_d_squared_checked_on_build():
    tree, alg = line(4, 2)
    for j in range(4):
        ho.rickard_complex(alg, tree, j)   # constructor asserts d^2 = 0


def test_rickard_boundaries_nonzero():
    tree, alg = line(3, 3)
    cx = ho.rickard_complex(alg, tree, 2)
    for d in (1, 2):
        mat = cx.diff(d)
        assert any(entry for row in mat for entry in row)


def test_cohomology_line():
    tree, alg = line(3, 1)
    cx = ho.rickard_complex(alg, tree, 2)
    coh = ho.cohomology(cx)
    assert coh == {1: Counter({0: 1}), 3: Counter({2: 1})}


def test_cohomology_kernel_multiset():
    # degree-r cohomology carries mu copies of every edge at the
    # exceptional node once the walk is longer than one step
    tree, alg = line(3, 2)
    cx = ho.rickard_complex(alg, tree, 1)
    coh = ho.cohomology(cx)
    assert coh[1] == Counter({0: 2})
    assert coh[2] == Counter({1: 1, 2: 1})   # dec(chi_1) = S_1 + S_2
    tree2, alg2 = ree()
    cx2 = ho.rickard_complex(alg2, tree2, 1)
    coh2 = ho.cohomology(cx2)
    assert coh2[1] == Counter({0: 3, 2: 3, 3: 3, 4: 3, 5: 3})
    assert coh2[2] == Counter({1: 1})        # dec(chi_1) = S_1, a leaf


def test_cohomology_single_term():
    star = bt.star_tree(7, 3, 2)
    alg = ta.from_tree(star, 7)
    cx = ho.rickard_complex(alg, star, 0)
    coh = ho.cohomology(cx)
    # H^0 = P_0, whose composition factors are the targets of the paths out of 0
    assert coh == {0: Counter(alg.target(p) for p in reference_basis(alg) if p.src == 0)}


def _per_vertex_cohomology(cx):
    """The cohomology read off one stalk Hom complex per vertex of the
    algebra, as cohomology once did."""
    out = {}
    for v in cx.alg.vertices:
        hc = ho.HomComplex(ho.ProjComplex(cx.alg, 0, [[v]]), cx)
        for d, h in hc.all_cohomology().items():
            if h:
                out.setdefault(d, Counter())[v] = h
    return dict(sorted(out.items()))


def test_cohomology_matches_the_per_vertex_stalk_hom_complexes():
    """cohomology reads every S_v off one Hom complex out of a stalk of
    several projectives, block diagonal by source summand; each block must
    give what the stalk P_v alone gives, on canonical, padded-and-mixed
    and zero-boundary complexes and on direct sums of branch complexes."""
    rng = random.Random(65537)
    cases = [(line(h0, mu, ell=31)[0], 31) for h0, mu in ((6, 1), (4, 3))]
    cases += [(tree, 31) for tree in random_trees(12, seed=1729)]
    cases += [(ree()[0], 19), (bt.star_tree(7, 3, 2), 7)]
    kinds = Counter()
    for tree, ell in cases:
        alg = ta.from_tree(tree, ell)
        branch = [ho.rickard_complex(alg, tree, j) for j in alg.vertices]
        for cx in branch:
            for kind, c in (("canonical", cx),
                            ("padded", _padded_mixed(cx, rng, rng.randint(1, 3))),
                            ("zero", ho.ProjComplex(alg, cx.lo, cx.terms))):
                got = ho.cohomology(c)
                assert got == _per_vertex_cohomology(c)
                assert all(list(counts) == sorted(counts) for counts in got.values())
                kinds[kind] += bool(got)
        total = ho.direct_sum(rng.sample(branch, min(3, len(branch))))
        assert ho.cohomology(total) == _per_vertex_cohomology(total)
    assert all(kinds[k] for k in ("canonical", "padded", "zero"))


def test_identity_complex_acyclic():
    _, alg = line(2, 1)
    cc = ho.contractible_complex(alg, 4, 1)
    assert ho.cohomology(cc) == {}


def test_euler_characters():
    tree, alg = line(3, 1)
    h0 = tree.h0
    for j in range(3):
        cx = ho.rickard_complex(alg, tree, j)
        sign = -1 if j % 2 else 1
        want = tuple(sign if k == j else 0 for k in range(h0)), 1
        assert ho.euler_character(tree, cx) == want
    # j = m: chi_exc + chi_m directly
    cx0 = ho.rickard_complex(alg, tree, 0)
    assert ho.euler_character(tree, cx0) == ((1, 0, 0), 1)


def test_trim_identity_to_zero():
    _, alg = line(2, 1)
    z = ho.trim(ho.contractible_complex(alg, 0, 0), 0, 0)
    assert z.terms == []


def test_trim_recovers_rickard():
    rng = random.Random(55)
    tree, alg = line(3, 2)
    base = ho.rickard_complex(alg, tree, 2)
    cx = ho.pad_with_contractible(base, 2, 0)
    cx = ho.pad_with_contractible(cx, 0, 1)
    cx = ho.mix_basis(cx, rng)
    back = ho.trim(cx, base.lo, base.hi)
    assert back.terms == base.terms
    span = base.hi - base.lo + 2
    for i in range(-span, span + 1):
        assert ho.homotopy_hom(back, back, i) == ho.homotopy_hom(base, base, i)


def test_trim_already_trimmed():
    tree, alg = line(3, 1)
    base = ho.rickard_complex(alg, tree, 1)
    out = ho.trim(base, base.lo, base.hi)
    assert out.terms == base.terms and out.lo == base.lo


def test_trim_range_guard():
    tree, alg = line(3, 1)
    cx = ho.rickard_complex(alg, tree, 2)
    with pytest.raises(ho.CohomologyOutsideRange):
        ho.trim(cx, 1, 2)    # cohomology lives in degrees 1 and 3


def test_hom_complex_dims():
    tree, alg = line(2, 1)
    cartan = bt.cartan_matrix(bt.decomposition_matrix(tree)).rows
    c0 = ho.rickard_complex(alg, tree, 0)
    hc = ho.HomComplex(c0, c0)
    assert hc.dim(0) == cartan[0][0]
    c1 = ho.rickard_complex(alg, tree, 1)
    hc01 = ho.HomComplex(c0, c1)
    # Hom^0 = Hom(P0, P0), Hom^1 = Hom(P0, P1)
    assert hc01.dim(0) == cartan[0][0]
    assert hc01.dim(1) == cartan[0][1]


def test_hom_complex_shift():
    tree, alg = line(3, 1)
    cx = ho.rickard_complex(alg, tree, 1)
    plain = ho.HomComplex(cx, cx)
    # C[1]: the same terms one degree down, with negated boundary entries
    cx1 = ho.ProjComplex(alg, cx.lo - 1, [list(t) for t in cx.terms],
                         [[[alg.elt_scale(e, -1) for e in row] for row in mat]
                          for mat in cx.diffs])
    shifted = ho.HomComplex(cx, cx1)
    # Hom(C, C[1])^n = Hom(C, C)^(n+1)
    for n in range(shifted.lo, shifted.hi + 1):
        assert shifted.dim(n) == plain.dim(n + 1)
        assert shifted.cohomology_dim(n) == plain.cohomology_dim(n + 1)


def test_minimal_complex_may_have_terms_without_cohomology():
    # the branch complex of S_3 on line4 is minimal: its terms fill degrees
    # 1-4, between its cohomology degrees 1 and 4, which are the only ones
    tree, alg = line(4, 1)
    cx = ho.rickard_complex(alg, tree, 3)
    trimmed = ho.trim(cx, 1, 4)
    assert (trimmed.lo, trimmed.terms) == (1, [[0], [1], [2], [3]])
    assert sorted(ho.cohomology(trimmed)) == [1, 4]


def test_homotopy_hom_identity_lower_bound():
    for tree in random_trees(10, seed=31):
        alg = ta.from_tree(tree, 5)
        j = sorted(alg.vertices)[0]
        cx = ho.rickard_complex(alg, tree, j)
        assert ho.homotopy_hom(cx, cx, 0) >= 1


def test_end_dimension_star_total():
    star = bt.star_tree(7, 3, 2)
    alg = ta.from_tree(star, 7)
    complexes = [ho.rickard_complex(alg, star, j) for j in range(3)]
    total = sum(ho.homotopy_hom(a, b, 0) for a in complexes for b in complexes)
    assert total == alg.dim == 21


def test_check_tilting_line_and_ree():
    """A passing check returns the End dimension, the star algebra's: on
    short lines and the Ree tree, on every golden tree, and on the line
    and random trees of the selftest."""
    for h0, mu in [(2, 1), (3, 2)]:
        tree, alg = line(h0, mu)
        assert ho.check_tilting(alg, tree) == ho.star_algebra_dimension(h0, mu)
    tree, alg = ree()
    assert ho.check_tilting(alg, tree) == ho.star_algebra_dimension(6, 3) == 114
    golden = [(line(12, 2)[0], 31), (line(40, 3)[0], 31)]
    golden += [(bt.from_json((GOLDEN / name).read_text()), 31)
               for name in ("two_branch20.tree.json", "wide48.tree.json")]
    # the star reports, each over a field with the e-th roots of unity
    golden += [(bt.star_tree(d, e, n), ell) for d, e, n, ell in (
        (7, 3, 2, 7), (27, 2, 26, 5), (121, 5, 3, 11), (125, 4, 57, 5))]
    for tree, ell in golden + [(tree, 31) for tree in line_trees() + random_trees()]:
        alg = ta.from_tree(tree, ell)
        assert ho.check_tilting(alg, tree) == ho.star_algebra_dimension(
            tree.h0, tree.multiplicity)


def _mismatches(fail):
    """(a, b, dim, expected) for each cell where the End grid of a failure
    differs from the star algebra's Cartan matrix."""
    return [(a, b, d, want) for a, (row, want_row)
            in enumerate(zip(fail.end_grid, fail.expected_end_grid))
            for b, (d, want) in enumerate(zip(row, want_row)) if d != want]


def test_a_family_longer_than_the_tree_fails_with_its_report():
    # one complex too many: the labels are the places in the family, so the
    # report names C_3 where the tree has three edges
    tree, alg = line(3, 1)
    fam = [ho.rickard_complex(alg, tree, j) for j in range(3)]
    with pytest.raises(ho.TiltingFailure) as err:
        ho.check_tilting(alg, tree, fam + fam[:1])
    rep = err.value
    assert len(rep.end_grid) == 4
    assert _mismatches(rep) == [(0, 3, 2, 1), (3, 0, 2, 1)]
    assert rep.summary() == ("Hom(C_0, C_3) has dimension 2 != 1 of the star "
                             "algebra; End dimension 22 != star dimension 12")


def test_check_tilting_negative_control():
    tree, alg = line(3, 2)
    fam = [ho.rickard_complex(alg, tree, j) for j in range(3)]
    sab = ho.ProjComplex(alg, fam[2].lo, [list(t) for t in fam[2].terms],
                         [[[{}]], [[{}]], []])
    fam[2] = sab
    with pytest.raises(ho.TiltingFailure) as err:
        ho.check_tilting(alg, tree, fam)
    rep = err.value
    # the summary leads with the first shifted Hom that is not zero
    j, jp, n, h = next(x for x in rep.hom_dims if x[2] and x[3])
    assert rep.summary().startswith(f"Hom(C_{j}, C_{jp}[{n}]) has dimension {h} != 0")


def test_exhaustive_hom_vanishing_desk_scale():
    # every pair of branch complexes, every nonzero shift, h0 <= 4, mu <= 3
    for tree in line_trees():
        alg = ta.from_tree(tree, 5)
        complexes = {j: ho.rickard_complex(alg, tree, j) for j in alg.vertices}
        for j, ca in complexes.items():
            for jp, cb in complexes.items():
                hc = ho.HomComplex(ca, cb)
                for n, h in hc.all_cohomology().items():
                    if n != 0:
                        assert h == 0, (j, jp, n)


def _degrees(tree, alg):
    """Criterion 12's table: each edge's r + height beside the top degree."""
    from coxbrauer.selftest import top_cohomology_degree
    table = [(tree.r + bt.height(tree, j),
              top_cohomology_degree(ho.rickard_complex(alg, tree, j)))
             for j in tree.edges]
    assert all(d == top for d, top in table)
    return [d for d, _ in table]


def test_perversity_report_star_and_line():
    star = bt.star_tree(7, 3, 2)
    assert all(bt.height(star, j) == 0 for j in star.edges)
    assert _degrees(star, ta.from_tree(star, 7)) == [0, 0, 0]
    tree, alg = line(3, 1)
    assert _degrees(tree, alg) == [1, 2, 3]
    # heights exceed r = 1 here, so the filtration misses the deep simples
    assert max(bt.height(tree, j) for j in tree.edges) > tree.r


def test_perversity_report_ree():
    tree, alg = ree()
    assert sorted(_degrees(tree, alg)) == [1, 1, 1, 1, 1, 2]
    assert max(bt.height(tree, j) for j in tree.edges) <= tree.r


def test_top_cohomology_sits_in_degree_r_plus_height():
    from coxbrauer.selftest import top_cohomology_degree
    star = bt.star_tree(7, 3, 2)
    for tree, alg in ((star, ta.from_tree(star, 7)), ree(),
                      line(3, 1), line(4, 2, r=2, ell=31)):
        for j in alg.vertices:
            cx = ho.rickard_complex(alg, tree, j)
            top = top_cohomology_degree(cx)
            assert top == tree.r + bt.height(tree, j)
            # negative control: one more term above the top moves it up
            extra = ho.direct_sum([cx, ho.ProjComplex(alg, top + 1, [[j]])])
            assert top_cohomology_degree(extra) == top + 1


def test_criterion_12_fails_when_the_degree_is_not_the_computed_one(monkeypatch):
    # the top degree of the branch complex of each tree's last edge, one up
    from coxbrauer import selftest as st
    real = st.top_cohomology_degree

    def shifted(cx):
        return real(cx) + (cx.terms[-1] == [max(cx.alg.vertices)])

    monkeypatch.setattr(st, "top_cohomology_degree", shifted)
    ok, detail = st.check_perversity_unitriangular()
    assert not ok and "top cohomology" in detail


def test_hom_complex_differential_squares_to_zero():
    # the Rickard complexes of a short line compose to zero path by path,
    # so padded and mixed copies supply products that cancel only mod ell
    rng = random.Random(5)
    tree, alg = line(3, 2)
    c1 = ho.rickard_complex(alg, tree, 2)
    c2 = ho.rickard_complex(alg, tree, 1)
    pairs = [(c1, c2)]
    for _ in range(4):
        pairs.append(tuple(
            ho.mix_basis(ho.pad_with_contractible(cx, rng.randint(0, 3),
                                                  rng.choice([0, 1, 2])), rng)
            for cx in (c1, c2)))

    products = 0
    for x1, x2 in pairs:
        hc = ho.HomComplex(x1, x2)
        # one row per source map, so D^(n+1) o D^n is the product a b
        for n in range(hc.lo, hc.hi):
            a = dense(hc.matrix(n))
            b = dense(hc.matrix(n + 1))
            assert len(a) == hc.dim(n) and len(b) == hc.dim(n + 1)
            for r in range(hc.dim(n)):
                assert len(a[r]) == hc.dim(n + 1)
                for c in range(hc.dim(n + 2)):
                    terms = [a[r][k] * b[k][c] for k in range(hc.dim(n + 1))]
                    assert sum(terms) % alg.ell == 0
                    products += any(terms)
    assert products


def test_trim_preserves_cohomology_and_cross_homs():
    rng = random.Random(271)
    tree, alg = line(3, 2)
    base = ho.rickard_complex(alg, tree, 2)
    other = ho.rickard_complex(alg, tree, 1)
    for _ in range(10):
        cx = ho.pad_with_contractible(base, rng.randint(0, 3),
                                      rng.choice([0, 1, 2]))
        cx = ho.mix_basis(cx, rng)
        assert ho.cohomology(cx) == ho.cohomology(base)
        back = ho.trim(cx, base.lo, base.hi)
        assert ho.cohomology(back) == ho.cohomology(base)
        for i in range(-3, 4):
            assert ho.homotopy_hom(back, other, i) == \
                ho.homotopy_hom(base, other, i)
            assert ho.homotopy_hom(other, back, i) == \
                ho.homotopy_hom(other, base, i)


def test_direct_sum_shapes():
    tree, alg = line(3, 1)
    c1 = ho.rickard_complex(alg, tree, 1)
    c2 = ho.rickard_complex(alg, tree, 2)
    total = ho.direct_sum([c1, c2])
    assert total.term(1) == [0, 0]
    assert total.term(2) == [1, 1]
    assert total.term(3) == [2]
    assert ho.cohomology(total)[1] == Counter({0: 2})


def test_trim_mix_and_hom_leave_a_padded_complex_unchanged():
    """direct_sum pads every boundary row with one shared empty entry, so
    an operation that changed an entry in place would change many: trim,
    mix_basis and HomComplex leave each entry of a padded complex as it
    was built."""
    rng = random.Random(34)
    tree, alg = line(4, 2)
    cx = ho.rickard_complex(alg, tree, 3)
    for degree, vertex in ((cx.lo - 1, 0), (cx.lo + 1, 2), (cx.hi, 3)):
        cx = ho.pad_with_contractible(cx, degree, vertex)
    empties = [e for mat in cx.diffs for row in mat for e in row if not e]
    assert len({id(e) for e in empties}) < len(empties)
    before = copy.deepcopy(cx.diffs)
    ho.trim(cx, cx.lo, cx.hi)
    mixed = ho.mix_basis(cx, rng)
    ho.HomComplex(cx, cx).all_cohomology()
    ho.HomComplex(mixed, cx).all_cohomology()
    ho.HomComplex(cx, mixed).all_cohomology()
    assert cx.diffs == before


# ---------------------------------------------------------------------------
# homotopy_hom: one Hom complex per pair of complexes across all shifts

def _shift_pairs():
    """A branch complex, its padded-and-mixed copy, that copy trimmed and
    another branch complex, paired every way."""
    rng = random.Random(7883)
    tree, alg = line(5, 2, ell=31)
    base = ho.rickard_complex(alg, tree, 3)
    mixed = _padded_mixed(base, rng, 3)
    cxs = [base, mixed, ho.trim(mixed, base.lo, base.hi),
           ho.rickard_complex(alg, tree, 1)]
    return [(a, b) for a in cxs for b in cxs]


def _every_shift(cx1, cx2):
    """Each degree of their Hom complex, and one beyond either end."""
    return range(cx2.lo - cx1.hi - 1, cx2.hi - cx1.lo + 2)


def test_homotopy_hom_reads_every_shift_off_one_hom_complex(monkeypatch):
    """homotopy_hom at every shift equals a fresh Hom complex's cohomology,
    and builds one Hom complex per pair over all of them."""
    pairs = _shift_pairs()
    want = [[ho.HomComplex(a, b).cohomology_dim(i) for i in _every_shift(a, b)]
            for a, b in pairs]
    built = Counter()
    real = ho.HomComplex.__init__

    def counted(self, cx1, cx2):
        built[id(cx1), id(cx2)] += 1
        real(self, cx1, cx2)

    monkeypatch.setattr(ho.HomComplex, "__init__", counted)
    got = [[ho.homotopy_hom(a, b, i) for i in _every_shift(a, b)] for a, b in pairs]
    assert got == want
    assert built == Counter({(id(a), id(b)): 1 for a, b in pairs})
    # the pairs do have cohomology off degree zero and differ from each other
    assert any(h for row in want for h in row[:len(row) // 2])
    assert len({tuple(row) for row in want}) > 1


def test_homotopy_hom_answers_each_pair_from_its_own_hom_complex(monkeypatch):
    """Negative controls for the share: a pair asked after another gets its
    own answers, and a rank profile sabotaged between two pairs reaches
    the second, whose Hom complex is not the first one's."""
    tree, alg = line(4, 1, ell=31)
    cx, other = ho.rickard_complex(alg, tree, 3), ho.rickard_complex(alg, tree, 1)
    first, second = (cx, cx), (other, cx)
    shifts = range(-4, 5)

    def answers(pair):
        return [ho.homotopy_hom(*pair, i) for i in shifts]

    def fresh(pair):
        return [ho.HomComplex(*pair).cohomology_dim(i) for i in shifts]

    truth = fresh(second)
    assert answers(first) == fresh(first) != truth
    assert answers(second) == truth
    answers(first)          # the share holds the first pair again
    real = linalg.rref_mod_prime
    monkeypatch.setattr(linalg, "rref_mod_prime", lambda a, p: real(a, p)[1:])
    assert answers(second) == fresh(second) != truth


# ---------------------------------------------------------------------------
# the per-pair End grid

def test_end_grid_is_the_star_cartan_matrix():
    trees = [line(h0, mu)[0] for h0, mu in ((5, 1), (6, 2), (8, 1))]
    trees += random_trees(5, seed=404)
    trees.append(ree()[0])
    for tree in trees:
        alg = ta.from_tree(tree, 19 if tree.h0 == 6 else 31)
        mu = tree.multiplicity
        # a passing check builds no grid and returns the End dimension
        assert ho.check_tilting(alg, tree) == ho.star_algebra_dimension(tree.h0, mu)
        # read as a failure reads it, the prefix sums of the masses
        grid, hom_dims = ho.end_grid_read_out(ho.tilting_runs(alg, tree))
        assert grid == ho.star_cartan(tree.h0, mu) == [
            [mu + (a == b) for b in range(tree.h0)] for a in range(tree.h0)]
        assert not any(n and h for _, _, n, h in hom_dims)


def test_end_grid_negative_control_keeps_the_total():
    # one unit moved from a diagonal cell to an off-diagonal one: the total
    # End dimension is still the star algebra's, one pair is not
    mu = 1
    want = ho.star_cartan(3, mu)
    grid = [row[:] for row in want]
    grid[1][1] -= 1
    grid[1][2] += 1
    assert sum(map(sum, grid)) == ho.star_algebra_dimension(3, mu)
    rep = ho.TiltingFailure(True, grid, [], mu, ho.star_algebra_dimension(3, mu))
    assert _mismatches(rep) == [(1, 1, 1, 2), (1, 2, 2, 1)]
    assert rep.summary() == ("Hom(C_1, C_1) has dimension 1 != 2 of the star "
                             "algebra")


def test_end_grid_sabotage_is_caught_by_check_tilting(monkeypatch):
    # the same swap, injected into the degree-0 masses of two pairs of the
    # supplied family, each complex its own top with its one member at (0, 0)
    tree, alg = line(3, 1)
    fam = [ho.rickard_complex(alg, tree, j) for j in range(3)]
    real = ho.hom_masses

    def swapped(top1, members1, top2, members2):
        dims, ranks = real(top1, members1, top2, members2)
        (a, _), (b, _) = members1[0], members2[0]
        dims[0][0, 0] += {(1, 1): -1, (1, 2): 1}.get((a, b), 0)
        return dims, ranks

    monkeypatch.setattr(ho, "hom_masses", swapped)
    with pytest.raises(ho.TiltingFailure) as err:
        ho.check_tilting(alg, tree, fam)
    rep = err.value
    assert rep.end_dim == rep.expected_end_dim
    assert _mismatches(rep) == [(1, 1, 1, 2), (1, 2, 2, 1)]
    assert "Hom(C_1, C_1) has dimension 1 != 2" in rep.summary()


def test_a_dropped_rank_profile_pair_is_rejected(monkeypatch):
    """C_3 of line(4, 1) padded with P_2 == P_2 in degrees 2 and 3 still
    tilts, and its Hom complex with itself is the only one of the family
    whose D_1 has rank: one profile pair.  With that pair dropped, H^1 and
    H^2 of that one pair rise to 1 and degree 0 is untouched, so the
    certificate must reject the family on its nonzero shifts alone, and the
    failure report must differ from the true one in those two entries."""
    tree, alg = line(4, 1)
    fam = [ho.rickard_complex(alg, tree, j) for j in range(4)]
    fam[3] = ho.pad_with_contractible(fam[3], 2, 2)
    runs = ho.tilting_runs(alg, tree, fam)
    _, true_dims = ho.end_grid_read_out(runs)
    assert ho.check_tilting(alg, tree, fam) == ho.star_algebra_dimension(4, 1)
    real = ho.HomComplex.profile

    def dropped(self, n):
        prof = real(self, n)
        return prof[:-1] if n == 1 else prof

    monkeypatch.setattr(ho.HomComplex, "profile", dropped)
    with pytest.raises(ho.TiltingFailure) as err:
        ho.check_tilting(alg, tree, fam)
    rep = err.value
    raised = [(x, y) for x, y in zip(true_dims, rep.hom_dims) if x != y]
    assert raised == [((3, 3, 1, 0), (3, 3, 1, 1)), ((3, 3, 2, 0), (3, 3, 2, 1))]
    assert rep.end_grid == rep.expected_end_grid
    assert rep.summary() == "Hom(C_3, C_3[1]) has dimension 1 != 0"


def test_a_misplaced_mass_is_rejected_by_its_weight(monkeypatch):
    """One Hom^1 basis map of a line's top counted from one member earlier
    on both sides: H^1 rises by one on the pairs that now hold it, and the
    number of masses, the degree-zero masses and every other pair stay.
    The sum over all pairs sees it only through the weight of each mass,
    the number of member pairs that hold it."""
    tree, alg = line(5, 1)
    real = ho.hom_masses

    def misplaced(*args):
        dims, ranks = real(*args)
        (a, b), _ = max(dims[1].items())
        dims[1][a, b] -= 1
        dims[1][a - 1, b - 1] = dims[1].get((a - 1, b - 1), 0) + 1
        return dims, ranks

    monkeypatch.setattr(ho, "hom_masses", misplaced)
    with pytest.raises(ho.TiltingFailure) as err:
        ho.check_tilting(alg, tree)
    rep = err.value
    assert rep.end_grid == rep.expected_end_grid
    assert rep.summary().startswith("Hom(C_")
    assert {n for _, _, n, h in rep.hom_dims if h and n} == {1}


def test_failed_tilting_json_carries_both_grids(monkeypatch, capsys):
    real = ho.check_tilting

    def sabotaged(alg, tree):
        fam = [ho.rickard_complex(alg, tree, j) for j in sorted(alg.vertices)]
        fam[1] = ho.ProjComplex(alg, fam[1].lo, [list(t) for t in fam[1].terms],
                                [[[{}]], []])
        return real(alg, tree, fam)

    monkeypatch.setattr(ho, "check_tilting", sabotaged)
    code = cli.main(["rickard", "--fixture", "line3", "--mu", "2",
                     "--vertex", "2", "--check-tilting"])
    obj = json.loads(capsys.readouterr().out)["tilting"]
    assert code == cli.EXIT_VERIFICATION and obj["ok"] is False
    assert obj["end_grid"]["labels"] == [0, 1, 2]
    assert obj["end_grid"]["expected"] == ho.star_cartan(3, 2)
    assert obj["end_grid"]["dims"] != obj["end_grid"]["expected"]
    assert any(n != 0 and h for _, _, n, h in obj["hom_dims"])
    assert obj["detail"].startswith("Hom(C_")


# ---------------------------------------------------------------------------
# reference construction of the Hom complex

def _single_branches(b):
    series = bt.SeriesDatum(b, tuple(bt.Branch(0, i, i) for i in range(b)))
    return bt.assemble_tree(series, 1, 1)


def test_hom_basis_is_the_grouped_walk_as_a_multiset():
    """Each basis[n] holds the maps of the walk grouped by target, as a
    multiset, and ascends in C1-degree, which `hom_masses` rests on."""
    trees = [*random_trees(), *line_trees(), bt.ree_tree(), bt.star_tree(7, 3, 2),
             _single_branches(3), _single_branches(40)]
    for tree in trees:
        alg = ta.from_tree(tree, 31)
        tops = [top for top, _ in ho.tilting_runs(alg, tree)]
        stalk = ho.ProjComplex(alg, 0, [list(alg.vertices)])
        padded = ho.pad_with_contractible(tops[-1], tops[-1].lo, tops[-1].terms[0][0])
        sample = [*tops[:2], tops[-1], stalk, padded]
        for cx1 in sample:
            for cx2 in sample:
                basis = ho.HomComplex(cx1, cx2).basis
                want = reference_hom_basis(cx1, cx2)
                assert basis.keys() == want.keys()
                for n, b in basis.items():
                    assert Counter(b) == Counter(want[n])
                    assert [f[0] for f in b] == sorted(f[0] for f in b)


def _reference_hom(cx1, cx2):
    """Hom^n and D built the way HomComplex once did: every pair of
    degrees, and every basis map pushed through elt_mul against every
    boundary entry in its row or column, zero entries included.  Returns
    ({n: dim}, {n: rank of D out of degree n})."""
    alg = cx1.alg
    lo, hi = cx2.lo - cx1.hi, cx2.hi - cx1.lo
    basis = {n: [] for n in range(lo, hi + 1)}
    for i in cx1.degrees():
        for j in cx2.degrees():
            for t, tv in enumerate(cx2.term(j)):
                for s, sv in enumerate(cx1.term(i)):
                    for v, p in alg.paths_out[tv]:
                        if v == sv:
                            basis[j - i].append((i, t, s, p))

    def rank(n):
        src, tgt = basis[n], basis.get(n + 1, [])
        index = {b: k for k, b in enumerate(tgt)}
        rows = [{} for _ in tgt]
        sign = -1 if n % 2 else 1
        for col, (i, t, s, p) in enumerate(src):
            f = {p: 1}
            d2 = cx2.diff(i + n)
            for r in range(len(cx2.term(i + n + 1))):
                for q, c in alg.elt_mul(d2[r][t], f).items():
                    k = index[i, r, s, q]
                    rows[k][col] = rows[k].get(col, 0) + c
            d1 = cx1.diff(i - 1)
            for c_idx in range(len(cx1.term(i - 1))):
                for q, c in alg.elt_mul(f, d1[s][c_idx]).items():
                    k = index[i - 1, t, c_idx, q]
                    rows[k][col] = rows[k].get(col, 0) - sign * c
        return len(linalg.rref_mod_prime(
            linalg.SparseMatrix((len(tgt), len(src)), rows), alg.ell))

    return {n: len(b) for n, b in basis.items()}, {n: rank(n) for n in basis}


def _padded_mixed(cx, rng, pads):
    for _ in range(pads):
        cx = ho.pad_with_contractible(cx, rng.randint(cx.lo - 1, cx.hi),
                                      rng.choice(cx.alg.vertices))
    return ho.mix_basis(cx, rng)


def _assert_matches_reference(c1, c2):
    hc = ho.HomComplex(c1, c2)
    dims, ranks = _reference_hom(c1, c2)
    assert {n: hc.dim(n) for n in dims} == dims
    assert {n: len(hc.profile(n)) for n in ranks} == ranks


def test_hom_complex_matches_the_reference_construction():
    rng = random.Random(8191)
    multi_summand = multi_path = 0
    for tree in random_trees(6, seed=1618):
        alg = ta.from_tree(tree, 31)
        branch = [ho.rickard_complex(alg, tree, j) for j in alg.vertices]
        for _ in range(2):
            c1 = _padded_mixed(rng.choice(branch), rng, rng.randint(2, 4))
            c2 = _padded_mixed(rng.choice(branch), rng, rng.randint(2, 4))
            for cx in (c1, c2):
                multi_summand += any(len(t) > 1 for t in cx.terms)
                multi_path += any(len(e) > 1 for mat in cx.diffs
                                  for row in mat for e in row)
            _assert_matches_reference(c1, c2)
            _assert_matches_reference(c2, c1)
            _assert_matches_reference(c1, rng.choice(branch))
    # the inputs do exercise several summands per degree and entries that
    # are sums of several paths
    assert multi_summand == 24 and multi_path >= 6


def test_hom_complex_matches_the_reference_on_the_ree_tree():
    rng = random.Random(19)
    tree, alg = ree()
    branch = [ho.rickard_complex(alg, tree, j) for j in sorted(alg.vertices)]
    for c1 in branch:
        for c2 in branch:
            _assert_matches_reference(c1, c2)
    _assert_matches_reference(_padded_mixed(branch[1], rng, 2), branch[0])


# ---------------------------------------------------------------------------
# work counters of one tilting check

def test_tilting_work_counters_line16(monkeypatch):
    counts = Counter()
    inside = [0]
    real_rref = linalg.rref_mod_prime

    def rref(a, *args, **kwargs):
        counts["rref"] += 1
        counts["cells"] += a.shape[0] * a.shape[1]
        return real_rref(a, *args, **kwargs)

    def guarded(method, after=None):
        def run(self, *args):
            inside[0] += 1
            try:
                out = method(self, *args)
            finally:
                inside[0] -= 1
            if after:
                after(self)
            return out
        return run

    def count_basis(hc):
        counts["hom"] += 1
        counts["basis"] += sum(len(b) for b in hc.basis.values())

    real_mul = ta.TreeAlgebra.elt_mul

    def elt_mul(self, x, y):
        counts["elt_mul"] += 1
        counts["elt_mul_in_hom"] += inside[0] > 0
        return real_mul(self, x, y)

    monkeypatch.setattr(linalg, "rref_mod_prime", rref)
    monkeypatch.setattr(ho.HomComplex, "__init__",
                        guarded(ho.HomComplex.__init__, count_basis))
    monkeypatch.setattr(ho.HomComplex, "profile", guarded(ho.HomComplex.profile))
    monkeypatch.setattr(ho.HomComplex, "matrix", guarded(ho.HomComplex.matrix))
    monkeypatch.setattr(ta.TreeAlgebra, "elt_mul", elt_mul)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["rickard", "--fixture", "line16", "--mu", "1",
                         "--field", "31", "--vertex", "3", "--check-tilting"])
    assert code == 0
    # one Hom complex for the line's branch chain, and one out of a stalk of
    # projectives for the cohomology of the complex reported; per-pair Hom
    # complexes took 272 constructions, 486 kernel calls, 46,252 cells and
    # 5,727 basis maps, and one stalk per vertex 1 + 16 Hom complexes, 8
    # kernel calls and 972 cells
    assert counts["hom"] == 1 + 1
    assert counts["rref"] == 5
    assert counts["cells"] == 1004
    assert counts["basis"] == 77
    # elt_mul serves only the d^2 = 0 checks of the complexes themselves
    assert counts["elt_mul_in_hom"] == 0 and counts["elt_mul"] > 0


def _tilting_counts(monkeypatch, argv):
    """The report of `argv` and what its tilting check alone built: Hom
    complexes, kernel calls and their cells, and ProjComplex constructions."""
    counts = Counter()
    inside = [False]
    real_rref, real_init = linalg.rref_mod_prime, ho.HomComplex.__init__
    real_post_init = ho.ProjComplex.__post_init__
    real_check = ho.check_tilting

    def rref(a, p):
        counts["rref"] += inside[0]
        counts["cells"] += inside[0] and a.shape[0] * a.shape[1]
        return real_rref(a, p)

    def init(self, cx1, cx2):
        counts["hom"] += inside[0]
        real_init(self, cx1, cx2)

    def post_init(self):
        counts["complexes"] += inside[0]
        real_post_init(self)

    def check(*args):
        inside[0] = True
        try:
            return real_check(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "rref_mod_prime", rref)
    monkeypatch.setattr(ho.HomComplex, "__init__", init)
    monkeypatch.setattr(ho.ProjComplex, "__post_init__", post_init)
    monkeypatch.setattr(ho, "check_tilting", check)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return json.loads(out.getvalue()), counts


def test_line60_tilting_builds_one_hom_complex(monkeypatch):
    """The tilting check of a 60-edge line builds one complex, its branch
    top, and reads every pair of its branch complexes off one Hom complex
    and two kernel calls (D out of degrees -1 and 0); per-pair Hom
    complexes would take 3,600 of them.  A tree of several branches builds
    one complex per branch and one Hom complex per pair of branches."""
    report, counts = _tilting_counts(
        monkeypatch, ["rickard", "--fixture", "line60", "--mu", "1",
                      "--field", "31", "--vertex", "3", "--check-tilting"])
    assert report["tilting"] == {
        "ok": True, "end_dimension": 3660, "expected_end_dimension": 3660}
    assert counts == {"complexes": 1, "hom": 1, "rref": 2, "cells": 14_160}
    for argv, branches in (
            (["rickard", "--tree", str(GOLDEN / "wide48.tree.json"), "--field",
              "31", "--vertex", "40", "--check-tilting"], 6),
            (["rickard", "--fixture", "2g2", "--vertex", "1", "--check-tilting"], 5)):
        report, counts = _tilting_counts(monkeypatch, argv)
        assert report["tilting"]["ok"] is True
        assert counts["complexes"] == branches
        assert counts["hom"] == branches ** 2


# ---------------------------------------------------------------------------
# branch chains: one Hom complex per pair of branch tops

def test_branch_complexes_are_top_truncations_of_their_branch_top():
    """check_tilting builds only the top complex C_M of a branch [m, M] and
    reads C_j off it as its terms of degree <= r + j - m; rickard_complex
    must build exactly that cut: the same algebra and lowest degree, the
    first j - m + 1 terms, the boundaries between them, and an empty
    boundary out of the new top."""
    cases = [(line(h0, mu, r=r)[0], 31) for h0, mu, r in ((1, 1, 0), (5, 1, 1),
                                                           (4, 2, 3))]
    cases += [(tree, 31) for tree in random_trees(10, seed=2718)]
    cases += [(ree()[0], 19), (bt.star_tree(7, 3, 2), 7)]
    cut = 0
    for tree, ell in cases:
        alg = ta.from_tree(tree, ell)
        for j in alg.vertices:
            b = tree.branch_of(j)
            top = ho.rickard_complex(alg, tree, b.M)
            cx = ho.rickard_complex(alg, tree, j)
            k = j - b.m + 1
            assert cx.alg is top.alg is alg
            assert cx.lo == top.lo == tree.r
            assert cx.hi == tree.r + j - b.m
            assert cx.terms == top.terms[:k]
            assert cx.diffs[:k - 1] == top.diffs[:k - 1]
            assert cx.diffs[k - 1:] == [[]]
            cut += j < b.M
    assert cut


def _per_pair_hom_dims(fam, labels):
    return [(labels[a], labels[b], n, h)
            for a, ca in enumerate(fam) for b, cb in enumerate(fam)
            for n, h in sorted(ho.HomComplex(ca, cb).all_cohomology().items())]


def _rewritten(fam, rewrite, rng):
    """The family with one complex shifted in lo, padded and mixed, with its
    boundaries zeroed, replaced by the stalk of its lowest term, swapped
    with or replaced by another complex of the family, or the whole family
    shuffled."""
    fam = list(fam)
    if rewrite == "shuffle":
        rng.shuffle(fam)
        return fam
    # the longest complex, so that a chain is broken where there is one
    k = max(range(len(fam)), key=lambda i: (len(fam[i].terms), rng.random()))
    other = rng.choice([i for i in range(len(fam)) if i != k] or [k])
    cx = fam[k]
    if rewrite == "shift":
        fam[k] = ho.ProjComplex(cx.alg, cx.lo + 1, cx.terms, cx.diffs)
    elif rewrite == "pad":
        fam[k] = _padded_mixed(cx, rng, rng.randint(1, 3))
    elif rewrite == "replace":
        fam[k] = ho.ProjComplex(cx.alg, cx.lo, cx.terms[:1])
    elif rewrite == "swap":
        fam[k], fam[other] = fam[other], fam[k]
    elif rewrite == "duplicate":
        fam[k] = fam[other]
    else:
        fam[k] = ho.ProjComplex(cx.alg, cx.lo, cx.terms)
    return fam


def test_a_failure_derives_its_expected_grid_and_end_dimension():
    """A raised TiltingFailure keeps what the check measured and derives
    the rest: the expected grid is the star algebra's Cartan matrix of the
    family's size and mu, the End dimension the sum of the End grid, and
    the message the summary.  A family one complex longer than the tree
    has a grid larger than h0."""
    rng = random.Random(6007)
    sizes = Counter()
    for tree in line_trees() + [ree()[0]]:
        alg = ta.from_tree(tree, 19 if tree.h0 == 6 else 5)
        canonical = [ho.rickard_complex(alg, tree, j) for j in sorted(alg.vertices)]
        families = [_rewritten(canonical, sabotage, rng)
                    for sabotage in ("shift", "zero", "replace", "duplicate")]
        for fam in families + [canonical + canonical[:1]]:
            with pytest.raises(ho.TiltingFailure) as err:
                ho.check_tilting(alg, tree, fam)
            fail, mu = err.value, tree.multiplicity
            assert fail.mu == mu
            assert fail.expected_end_grid == ho.star_cartan(len(fail.end_grid), mu)
            assert fail.end_dim == sum(map(sum, fail.end_grid))
            assert fail.expected_end_dim == ho.star_algebra_dimension(tree.h0, mu)
            assert str(fail) == fail.summary()
            sizes[len(fail.end_grid) - tree.h0] += 1
    assert sizes[0] and sizes[1]


def _matches_per_pair_hom_complexes(alg, tree, fam):
    """Run check_tilting on fam (None: the canonical family) and require
    its verdict, and for a failure its End grid, hom_dims and summary, to be
    those of the per-pair Hom complexes HomComplex(C_a, C_b); the End grid
    and hom_dims read off the masses must be those too, pass or fail.
    Returns the verdict."""
    labels = sorted(alg.vertices)
    try:
        end_dim, fail = ho.check_tilting(alg, tree, fam), None
    except ho.TiltingFailure as err:
        end_dim, fail = err.end_dim, err
    runs = ho.tilting_runs(alg, tree, fam)
    fam = fam or [ho.rickard_complex(alg, tree, j) for j in labels]
    want = _per_pair_hom_dims(fam, labels)
    cells = {(a, b): h for a, b, n, h in want if n == 0}
    grid = [[cells.get((a, b), 0) for b in range(len(fam))]
            for a in range(len(fam))]
    assert ho.end_grid_read_out(runs) == (grid, want)
    mu = tree.multiplicity
    covered = {v for cx in fam for term in cx.terms for v in term}
    ok = (covered == set(labels) and not any(n and h for *_, n, h in want)
          and grid == ho.star_cartan(len(fam), mu)
          and sum(map(sum, grid)) == ho.star_algebra_dimension(tree.h0, mu))
    assert (fail is None) == ok
    expected = ho.star_algebra_dimension(tree.h0, mu)
    assert end_dim == (expected if ok else sum(map(sum, grid)))
    if not ok:
        assert (fail.end_grid, fail.hom_dims) == (grid, want)
        assert fail.expected_end_grid == ho.star_cartan(len(fam), mu)
        assert fail.summary() == ho.TiltingFailure(
            covered == set(labels), grid, want, mu, expected).summary()
    return ok


def test_chain_read_out_matches_per_pair_hom_complexes(monkeypatch):
    """check_tilting certifies each pair of the canonical family off the
    Hom complex of the tops of two branches, and each pair of a supplied
    family off the Hom complex of the two complexes; verdict and read-out
    must be what per-pair Hom complexes give.  A pass reads the masses of
    each pair of tops once."""
    read = Counter()
    real = ho.hom_masses

    def spy(*args):
        read["masses"] += 1
        return real(*args)

    monkeypatch.setattr(ho, "hom_masses", spy)
    rng = random.Random(4099)
    outcomes = Counter()
    cases = [(line(h0, mu, ell=31)[0], 31) for h0, mu in ((5, 1), (4, 2))]
    cases += [(tree, 31) for tree in random_trees(10, seed=2718)]
    cases.append((ree()[0], 19))
    chained = 0
    for tree, ell in cases:
        alg = ta.from_tree(tree, ell)
        canonical = [ho.rickard_complex(alg, tree, j) for j in sorted(alg.vertices)]
        chained += any(b.m < b.M for b in tree.series.branches)
        # None is the canonical family, read off the branch tops
        families = [None] + [_rewritten(canonical, rewrite, rng)
                             for rewrite in ("shift", "pad", "shuffle", "zero")]
        for fam in families:
            read.clear()
            ok = _matches_per_pair_hom_complexes(alg, tree, fam)
            if ok:
                # the check, then the read-out of the comparison
                assert read["masses"] == 2 * len(ho.tilting_runs(alg, tree, fam)) ** 2
            outcomes[ok] += 1
    # every tree has a branch of two or more edges, so chains are read out;
    # the canonical families pass and the shifted and zeroed ones fail
    assert chained == len(cases)
    assert outcomes[True] >= len(cases) and outcomes[False] >= 2 * len(cases)


def test_certificate_agrees_with_per_pair_hom_complexes_on_sabotaged_families():
    """A seeded differential test: the canonical families of random trees,
    short lines and line12, over F_5, F_19 and F_31 in turn, and six
    sabotages of each.  Swapping two complexes permutes the End grid
    mu + delta_ab onto itself, so every swap passes: dimension counts
    cannot see it (ROADMAP item 4)."""
    rng = random.Random(1237)
    trees = random_trees() + line_trees() + [line(12, 2)[0]]
    sabotages = ("shift", "zero", "replace", "swap", "duplicate", "pad")
    outcomes = Counter()
    for k, tree in enumerate(trees):
        alg = ta.from_tree(tree, (5, 19, 31)[k % 3])
        assert _matches_per_pair_hom_complexes(alg, tree, None)
        canonical = [ho.rickard_complex(alg, tree, j) for j in sorted(alg.vertices)]
        for sabotage in sabotages:
            fam = _rewritten(canonical, sabotage, rng)
            outcomes[sabotage, _matches_per_pair_hom_complexes(alg, tree, fam)] += 1
    # padding with contractible summands keeps the homotopy type, so a
    # padded and mixed family tilts, on a larger Hom basis
    for sabotage in ("swap", "pad"):
        assert outcomes[sabotage, True] == len(trees), sabotage
    for sabotage in ("shift", "zero", "replace", "duplicate"):
        assert outcomes[sabotage, False] > 0, sabotage


# ---------------------------------------------------------------------------
# trimming: one forward sweep against the rescan-and-rebuild elimination

TRIM_FIELDS = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def _reference_trim(cx):
    """Split off the first unit entry in (degree, row, column) order,
    rescanning from the lowest degree and rebuilding, and so revalidating,
    the whole complex after every pair, until no unit entry is left.
    Returns the trimmed complex and the degree of each split-off pair."""
    alg = cx.alg
    split = []
    while True:
        hit = next(((i, r, c) for i, mat in enumerate(cx.diffs)
                    for r, row in enumerate(mat) for c, entry in enumerate(row)
                    if entry.get(ta.Path(cx.terms[i][c], "id"), 0) % alg.ell),
                   None)
        if hit is None:
            return cx, split
        i, r, c = hit
        split.append(cx.lo + i)
        terms, diffs = list(cx.terms), list(cx.diffs)
        mat = diffs[i]
        rows = [k for k in range(len(terms[i + 1])) if k != r]
        cols = [k for k in range(len(terms[i])) if k != c]
        neg_uinv = alg.elt_scale(alg.local_inverse(mat[r][c], terms[i][c]), -1)
        corr = alg.mat_mul([[mat[rr][c]] for rr in rows],
                           alg.mat_mul([[neg_uinv]], [[mat[r][cc] for cc in cols]]))
        diffs[i] = [[alg.elt_add(mat[rr][cc], x) for cc, x in zip(cols, corr_row)]
                    for rr, corr_row in zip(rows, corr)]
        if i:
            diffs[i - 1] = [row for k, row in enumerate(diffs[i - 1]) if k != c]
        if i + 1 < len(diffs):
            diffs[i + 1] = [[e for k, e in enumerate(row) if k != r]
                            for row in diffs[i + 1]]
        terms[i] = [v for k, v in enumerate(terms[i]) if k != c]
        terms[i + 1] = [v for k, v in enumerate(terms[i + 1]) if k != r]
        lo = cx.lo
        while terms and not terms[0]:
            terms.pop(0)
            diffs.pop(0)
            lo += 1
        cx = ho.ProjComplex(alg, lo, terms, diffs)


def _trim_cases():
    """(tree, field): lines with h0 2..9 and mu 1..3, the selftest's random
    trees and the Ree tree, over the fields 5..31 in turn."""
    trees = [bt.assemble_tree(bt.line_series(h0), mu, 1 + h0 % 3)
             for h0 in range(2, 10) for mu in (1, 2, 3)]
    trees += random_trees() + [bt.ree_tree()]
    return [(tree, TRIM_FIELDS[k % len(TRIM_FIELDS)]) for k, tree in enumerate(trees)]


def test_trim_sweep_matches_the_rescanning_elimination():
    rng = random.Random(6007)
    complexes = eliminated = crowded = 0
    for tree, ell in _trim_cases():
        alg = ta.from_tree(tree, ell)
        for j in alg.vertices:
            base = ho.rickard_complex(alg, tree, j)
            cx = _padded_mixed(base, rng, rng.randint(1, 4))
            before = (cx.lo, [list(t) for t in cx.terms],
                      [[[dict(e) for e in row] for row in mat] for mat in cx.diffs])
            got = ho.trim(cx, base.lo, base.hi)
            want, split = _reference_trim(cx)
            assert (got.lo, got.terms, got.diffs) == (want.lo, want.terms, want.diffs)
            assert got.terms == base.terms and got.lo == base.lo
            assert (cx.lo, cx.terms, cx.diffs) == before
            complexes += 1
            eliminated += len(split)
            crowded += len(set(split)) < len(split)
    # a sweep that left a boundary after one elimination would keep a
    # contractible summand of every crowded complex
    assert (complexes, eliminated, crowded) == (542, 1346, 211)


def test_trim_builds_one_complex(monkeypatch):
    rng = random.Random(31337)
    tree, alg = line(6, 2, ell=13)
    base = ho.rickard_complex(alg, tree, 5)
    cx = _padded_mixed(base, rng, 5)
    built = []
    real = ho.ProjComplex.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(ho.ProjComplex, "__post_init__", counted)
    back = ho.trim(cx, base.lo, base.hi)
    assert len(built) == 1 and built[0] is back
    assert back.terms == base.terms
    assert sum(map(len, cx.terms)) - sum(map(len, back.terms)) == 10


def test_arrow_table_holds_each_arrow_once():
    # a lone edge of multiplicity one: the socle loop is the arrow
    lone = ta.from_tree(bt.assemble_tree(bt.line_series(1), 1, 1), 5)
    assert lone.degenerate and lone.arrow_at == {(None, 0): ta.Path(0, "soc")}
    algebras = [ta.from_tree(tree, 31) for tree, _ in _trim_cases()]
    algebras += [ta.from_tree(bt.star_tree(7, 3, 2), 7), lone]
    for alg in algebras:
        # the basis paths of length one, each under its own (node, src)
        arrows = [p for p in reference_basis(alg)
                  if p.steps == 1 or (alg.degenerate and p.kind == "soc")]
        assert list(alg.arrow_at.values()) == arrows
        # held once: the arrow table shares the out-lists' path objects
        assert all(alg.arrow_at[a.node, a.src]
                   is next(p for _, p in alg.paths_out[a.src] if p == a) for a in arrows)
