import random
import tracemalloc

import pytest

from coxbrauer import brauer_tree as bt
from coxbrauer import homotopy as ho
from coxbrauer import tree_algebra as ta
from coxbrauer.brauer_tree import EXC
from coxbrauer.selftest import random_trees
from reference import (dense, off_basis_paths, reference_basis, reference_hom_grid,
                       reference_predecessor, reference_target)


def dimension_formula(tree):
    """Sum over edges of 2 + sum over nodes of (degree * mult - 1)."""
    total = 0
    for j in tree.edges:
        total += 2
        for node in tree.ends(j):
            s = len(tree.cyclic_order_at(node))
            total += s * tree.node_multiplicity(node) - 1
    return total


def star732():
    return ta.from_tree(bt.star_tree(7, 3, 2), 7)


def check_associativity(alg):
    """(p q) s == p (q s) for every composable triple of basis paths, so
    every product of basis paths is the product of its arrows."""
    basis = reference_basis(alg)
    for p in basis:
        for q in basis:
            if alg.target(p) != q.src:
                continue
            pq = alg.compose(p, q)
            for s in basis:
                if alg.target(q) != s.src:
                    continue
                qs = alg.compose(q, s)
                left = alg.compose(pq, s) if pq is not None else None
                right = alg.compose(p, qs) if qs is not None else None
                assert left == right, (f"({p} {q}) {s} = {left} but "
                                       f"{p} ({q} {s}) = {right}")


def line(h0, mu, ell=5, r=1):
    tree = bt.assemble_tree(bt.line_series(h0), mu, r)
    return tree, ta.from_tree(tree, ell)


def ree_algebra():
    tree = bt.ree_tree()
    return tree, ta.from_tree(tree, 19)


def test_star_dimension_is_group_order():
    alg = star732()
    check_associativity(alg)
    assert alg.dim == 21 == 7 * 3
    assert dimension_formula(alg.tree) == 21


def test_small_dimensions():
    # single edge with multiplicity 2: uniserial of length 3
    tree = bt.assemble_tree(bt.line_series(1), 2, 1)
    alg = ta.from_tree(tree, 7)
    check_associativity(alg)
    assert alg.dim == 3 == dimension_formula(tree)
    # two-edge line, multiplicity 1: 3 + 3
    tree2, alg2 = line(2, 1)
    assert alg2.dim == 6 == dimension_formula(tree2)


def test_dimension_formula_random():
    for tree in random_trees(40, seed=3):
        alg = ta.from_tree(tree, 5)
        assert alg.dim == dimension_formula(tree)


def test_single_edge_multiplicity_one_is_dual_numbers():
    tree = bt.assemble_tree(bt.line_series(1), 1, 1)
    alg = ta.from_tree(tree, 7)
    check_associativity(alg)
    assert alg.dim == 2 == dimension_formula(tree)
    assert dense(ta.ext1_grid(alg)) == [[1]]
    assert list(alg.arrow_at.values()) == [ta.Path(0, "soc")]
    x = alg.elt(alg.arrow_at[None, 0])
    assert alg.elt_mul(x, x) == {}


def test_relations_hold_on_projectives():
    # the defining relations, checked by multiplying arrow paths;
    # check_associativity makes every product of basis paths the product
    # of its arrows
    for tree in random_trees(10, seed=15):
        alg = ta.from_tree(tree, 7)
        check_associativity(alg)
        arrow = {key: alg.elt(a) for key, a in alg.arrow_at.items()}
        # a step around one node followed by a step around the other vanishes
        for a in alg.arrow_at.values():
            for b in alg.arrow_at.values():
                if b.src == alg.target(a) and b.node != a.node:
                    assert alg.elt_mul(arrow[a.node, a.src],
                                       arrow[b.node, b.src]) == {}
        for e in alg.vertices:
            cycles = []
            for node in tree.ends(e):
                cyclen = len(tree.cyclic_order_at(node)) * tree.node_multiplicity(node)
                if cyclen <= 1:
                    continue
                x, cur = alg.unit(e), e
                for _ in range(cyclen):
                    x = alg.elt_mul(x, arrow[node, cur])
                    cur = reference_predecessor(tree, node, cur)
                cycles.append(x)
                # a full cycle is the socle, and one more step kills it
                assert x == {ta.Path(e, "soc"): 1}
                assert alg.elt_mul(x, arrow[node, e]) == {}
            # the full cycles at the two nodes of an edge agree
            assert all(c == cycles[0] for c in cycles)


def test_ext_star_rule():
    grid = ta.ext1_grid(star732())
    assert dense(grid) == [[1 if i == (j + 1) % 3 else 0 for j in range(3)]
                           for i in range(3)]
    assert grid.rows == [{2: 1}, {0: 1}, {1: 1}]


def test_ext_ree_arrows():
    tree, alg = ree_algebra()
    grid = dense(ta.ext1_grid(alg))
    cycle = tree.cyclic_order_at(EXC)   # (0, 2, 3, 4, 5)
    for pos, j in enumerate(cycle):
        succ = cycle[(pos + 1) % len(cycle)]
        assert grid[succ][j] == 1
    # the branch edge pair: S0 and S1 extend both ways around chi_0
    assert grid[0][1] == 1 and grid[1][0] == 1
    assert grid[1][2] == 0


def test_ext_single_edge():
    tree = bt.assemble_tree(bt.line_series(1), 2, 1)
    alg = ta.from_tree(tree, 7)
    assert dense(ta.ext1_grid(alg)) == [[1]]


def test_hom_dimensions_match_cartan():
    for tree in random_trees(20, seed=21):
        alg = ta.from_tree(tree, 5)
        cartan = bt.cartan_matrix(bt.decomposition_matrix(tree))
        assert ta.hom_grid(alg) == cartan


def test_hom_grid_counts_the_basis_paths_between_each_pair():
    """The per-node count of `hom_grid` is the count of the reference basis
    paths from j to i, stored entries nonzero: on random trees, on star
    trees with mu > 1 and on the lone edge of multiplicity one and three."""
    trees = [*random_trees(40, seed=39),
             *(bt.star_tree(d, e, n) for d, e, n in ((7, 3, 2), (13, 4, 5), (25, 4, 7))),
             *(bt.assemble_tree(bt.line_series(1), mu, 1) for mu in (1, 3))]
    assert {tree.multiplicity for tree in trees[40:45]} == {1, 2, 3, 6}
    for tree in trees:
        alg = ta.from_tree(tree, 13)
        grid = ta.hom_grid(alg)
        assert dense(grid) == reference_hom_grid(alg)
        assert all(map(all, (row.values() for row in grid.rows)))


def test_hom_identity_present():
    alg = star732()
    assert (1, ta.Path(1, "id")) in alg.out_lists()[1]
    assert dense(ta.hom_grid(alg))[0][0] == 3
    _, alg2 = line(2, 1)
    assert dense(ta.hom_grid(alg2))[0][1] == 1


def test_target_is_the_walk_and_refuses_every_path_off_the_basis():
    """`target` ends every basis path where the step-by-step walk does, and
    refuses each path one change away from the basis with a KeyError, as
    do `compose` and a complex holding it (also under python -O, see
    tests/test_invariants.py)."""
    refused = 0
    for tree in [*random_trees(30, seed=36), bt.star_tree(7, 3, 2),
                 bt.assemble_tree(bt.line_series(1), 1, 1)]:
        alg = ta.from_tree(tree, 7)
        basis = reference_basis(alg)
        for p in basis:
            assert alg.target(p) == reference_target(alg, p)
        off = list(off_basis_paths(alg))
        assert not set(off) & set(basis)
        for p in off:
            with pytest.raises(KeyError, match="is not a basis path"):
                alg.target(p)
            with pytest.raises(KeyError, match="is not a basis path"):
                alg.compose(p, ta.Path(0, "id"))
            # a path starting nowhere: no missing target may match it
            with pytest.raises(KeyError, match="is not a basis path"):
                alg.compose(p, ta.Path(None, "id"))
            with pytest.raises(KeyError, match="is not a basis path"):
                ho.ProjComplex(alg, 0, [[0], [p.src]], [[[alg.elt(p)]], []])
            refused += 1
    assert refused > 1000


def test_paths_between_are_the_basis_paths_from_one_edge_to_another():
    """`paths_between` gives the reference basis paths from src to tgt in
    basis order, for every pair of edges (most of them share no node),
    read off the shared node without a per-target table."""
    seen = 0
    for tree in [*random_trees(20, seed=38), bt.star_tree(7, 3, 2), bt.ree_tree(),
                 bt.assemble_tree(bt.line_series(1), 1, 1),
                 bt.assemble_tree(bt.line_series(1), 3, 1)]:
        alg = ta.from_tree(tree, 7)
        basis = reference_basis(alg)
        for src in alg.vertices:
            for tgt in alg.vertices:
                want = [p for p in basis if p.src == src
                        and reference_target(alg, p) == tgt]
                assert alg.paths_between(src, tgt) == want
                seen += len(want) > 1 and src != tgt
    assert seen        # some pairs are joined by several paths


def test_field_too_small():
    tree = bt.star_tree(7, 3, 2)
    with pytest.raises(ta.FieldTooSmall):
        ta.from_tree(tree, 5)     # 3 does not divide 5 - 1
    ta.from_tree(tree, 13)        # 3 | 12: fine


def test_field_must_be_prime():
    tree = bt.star_tree(7, 3, 2)
    with pytest.raises(ValueError):
        ta.from_tree(tree, 49)


def test_local_inverse():
    alg = star732()
    soc = next(p for p in reference_basis(alg) if p.src == 0 and p.kind == "soc")
    x = alg.elt_add(alg.elt(ta.Path(0, "id"), 2), alg.elt(soc, 5))
    inv = alg.local_inverse(x, 0)
    assert alg.elt_mul(x, inv) == alg.unit(0)
    assert alg.elt_mul(inv, x) == alg.unit(0)
    with pytest.raises(ZeroDivisionError):
        alg.local_inverse(alg.elt(soc), 0)


# ---------------------------------------------------------------------------
# matrices of elements

def two_branch_algebra():
    series = bt.SeriesDatum(5, (bt.Branch(0, 0, 2), bt.Branch(1, 3, 4)))
    return ta.from_tree(bt.assemble_tree(series, 2, 1), 31)


def matrix_algebras():
    return [line(4, 2, ell=31)[1], two_branch_algebra(), ree_algebra()[1]]


def random_elt(alg, rng, src, tgt):
    """A random combination of the basis paths from src to tgt."""
    out = {}
    for v, p in alg.out_lists()[src]:
        if v == tgt and rng.random() < 0.6:
            out = alg.elt_add(out, alg.elt(p, rng.randrange(1, alg.ell)))
    return out


def random_matrix(alg, rng, rows, cols):
    """Entry [r][c] is a random map P_cols[c] -> P_rows[r]."""
    return [[random_elt(alg, rng, v, w) for w in cols] for v in rows]


def identity(alg, vs):
    return [[alg.unit(v) if i == j else {} for j in range(len(vs))]
            for i, v in enumerate(vs)]


def mat_add(alg, a, b):
    return [[alg.elt_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def random_nil(alg, rng):
    """Vertices from a few neighbours and a strictly lower-triangular
    matrix of maps between their projectives, long powers included."""
    pool = alg.vertices[:3]
    vs = [rng.choice(pool) for _ in range(rng.randint(3, 6))]
    nil = random_matrix(alg, rng, vs, vs)
    for i, row in enumerate(nil):
        row[i:] = [{}] * (len(vs) - i)
    return vs, nil


def test_unipotent_inverse_is_two_sided():
    rng = random.Random(4099)
    longest = 0
    for alg in matrix_algebras():
        for _ in range(6):
            vs, nil = random_nil(alg, rng)
            one = identity(alg, vs)
            inv = alg.unipotent_inverse(vs, nil)
            assert alg.mat_mul(mat_add(alg, one, nil), inv) == one
            assert alg.mat_mul(inv, mat_add(alg, one, nil)) == one
            power, k = nil, 0
            while any(e for row in power for e in row):
                power, k = alg.mat_mul(power, nil), k + 1
            longest = max(longest, k)
    # the series ran past its second term somewhere
    assert longest >= 3


def test_unipotent_inverse_cut_short_fails():
    rng = random.Random(4099)
    for alg in matrix_algebras():
        vs, nil = random_nil(alg, rng)
        neg = [[alg.elt_scale(e, -1) for e in row] for row in nil]
        # the last nonzero power (-nil)^m of the series
        last, power = None, neg
        while any(e for row in power for e in row):
            last, power = power, alg.mat_mul(power, neg)
        assert last is not None
        inv = alg.unipotent_inverse(vs, nil)
        short = mat_add(alg, inv, [[alg.elt_scale(e, -1) for e in row]
                                   for row in last])
        one = identity(alg, vs)
        assert alg.mat_mul(mat_add(alg, one, nil), short) != one


def test_unipotent_inverse_refuses_entries_on_or_above_the_diagonal():
    """Forward substitution holds only for a strictly lower triangular
    nil: a nonzero entry on the diagonal (the socle, nilpotent itself) or
    above it is refused, and an empty one there is not."""
    for alg in matrix_algebras():
        v = alg.vertices[0]
        soc = alg.elt(ta.Path(v, "soc"))
        nil = [[{}, {}, {}], [soc, {}, {}], [{}, soc, {}]]
        assert alg.unipotent_inverse([v] * 3, nil)[2][0] == {}    # soc^2 = 0
        for r, c in ((1, 1), (0, 2)):
            bad = [list(row) for row in nil]
            bad[r][c] = soc
            with pytest.raises(ValueError, match="strictly lower triangular"):
                alg.unipotent_inverse([v] * 3, bad)


def test_mat_mul_of_one_by_one_is_elt_mul():
    rng = random.Random(31)
    for alg in matrix_algebras():
        for _ in range(40):
            u, v, w = (rng.choice(alg.vertices) for _ in range(3))
            # the pair is composable only when the middle vertices agree
            x = random_elt(alg, rng, u, v)
            y = random_elt(alg, rng, rng.choice([v, w]), w)
            assert alg.mat_mul([[x]], [[y]]) == [[alg.elt_mul(x, y)]]


def test_mat_mul_is_associative():
    rng = random.Random(127)
    nonzero = 0
    for alg in matrix_algebras():
        for _ in range(8):
            shape = [[rng.choice(alg.vertices[:4]) for _ in range(rng.randint(1, 4))]
                     for _ in range(4)]
            a, b, c = (random_matrix(alg, rng, shape[k], shape[k + 1])
                       for k in range(3))
            left = alg.mat_mul(alg.mat_mul(a, b), c)
            assert left == alg.mat_mul(a, alg.mat_mul(b, c))
            nonzero += any(e for row in left for e in row)
    assert nonzero >= 6


def test_field_below_the_kernel_limit():
    tree = bt.assemble_tree(bt.line_series(2), 1, 1)
    with pytest.raises(ValueError, match="2\\^31"):
        ta.from_tree(tree, 2147483659)           # prime, but too large
    assert ta.from_tree(tree, 2 ** 31 - 1).dim == 6


def single_branches(b):
    """The star-shaped tree of b single-edge branches, mu = 1."""
    series = bt.SeriesDatum(b, tuple(bt.Branch(0, i, i) for i in range(b)))
    return bt.assemble_tree(series, 1, 1)


def test_the_algebra_holds_its_basis_once():
    """On single200 the algebra holds at most 1 KB per edge, also at its
    peak while building: the basis is counted from the tree's shape and
    only the arrows are held.  Its out-lists, once asked for, hold at most
    160 bytes per basis path: one record and one (target, path) pair per
    path, the targets read off an O(h0) table of the tree."""
    tree = single_branches(200)
    tracemalloc.start()
    try:
        alg = ta.from_tree(tree, 31)
        built = tracemalloc.get_traced_memory()
        alg.out_lists()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.dim == 200 * 201
    assert max(built) <= 1024 * tree.h0, built
    assert held <= 160 * alg.dim and peak <= 160 * alg.dim, (held, peak)


def test_the_path_bound_is_inclusive_and_counts_the_basis(monkeypatch):
    """The basis is counted from the tree's shape before it is built: an
    algebra is accepted at a bound of its dimension and refused one below."""
    from coxbrauer.selftest import line_trees
    assert ta.MAX_PATHS == 2 ** 21
    trees = [*random_trees(), *line_trees(), bt.ree_tree(), bt.star_tree(7, 3, 2),
             *(bt.assemble_tree(bt.line_series(1), mu, 1) for mu in (1, 3))]
    for tree, dim in [(tree, ta.from_tree(tree, 7).dim) for tree in trees]:
        monkeypatch.setattr(ta, "MAX_PATHS", dim)
        assert ta.from_tree(tree, 7).dim == dim
        monkeypatch.setattr(ta, "MAX_PATHS", dim - 1)
        with pytest.raises(ValueError, match=f"^the algebra would have {dim} "
                           f"basis paths, more than the {dim - 1} supported$"):
            ta.from_tree(tree, 7)


def test_the_path_bound_accepts_the_long_line_and_single800(monkeypatch):
    """line65536 has 4 * 65536 - 2 paths and single800 800 * 801; the
    bound lets both through, and the path walk, here stubbed out, waits
    for the first call of `out_lists`."""
    def walk(alg):
        raise LookupError("walked the paths")

    monkeypatch.setattr(ta.TreeAlgebra, "_enumerate_paths", walk)
    for tree, dim in ((bt.assemble_tree(bt.line_series(65536), 1, 1), 4 * 65536 - 2),
                      (single_branches(800), 800 * 801)):
        alg = ta.from_tree(tree, 31)
        assert alg.dim == dim
        with pytest.raises(LookupError):
            alg.out_lists()
    with pytest.raises(ValueError, match="would have 2098152 basis paths"):
        ta.from_tree(single_branches(1448), 31)
