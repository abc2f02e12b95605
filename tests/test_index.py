"""Property tests of the tree and path indices against linear scans, and
of the sparse report tables against dense references."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrauer import brauer_tree as bt
from coxbrauer import linalg
from coxbrauer import tree_algebra as ta
from coxbrauer.brauer_tree import EXC
from reference import (dense, reference_arrows, reference_basis, reference_grid,
                       reference_target, sparse)


@st.composite
def trees(draw):
    h0 = draw(st.integers(1, 24))
    cuts = sorted(draw(st.sets(st.integers(1, h0 - 1), max_size=6))) if h0 > 1 else []
    bounds = [0, *cuts, h0]
    branches = draw(st.permutations([bt.Branch(draw(st.integers(0, 11)), m, M - 1)
                                     for m, M in zip(bounds, bounds[1:])]))
    mu = draw(st.integers(1, 4))
    r = draw(st.integers(0, 3))
    return bt.assemble_tree(bt.SeriesDatum(h0, tuple(branches)), mu, r)


def successor_walk(series):
    """The exceptional cyclic order by the successor rule: start at the
    smallest m, then go to the branch that starts at (M + 1) mod h0."""
    by_m = {b.m: b for b in series.branches}
    start = min(by_m)
    cycle, b = [], by_m[start]
    for _ in series.branches:
        cycle.append(b.m)
        b = by_m[(b.M + 1) % series.h0]
    assert b.m == start, "the successor rule does not close its cycle"
    return tuple(cycle)


def reference_ends(series):
    """Edge j -> its two ends, walking each branch out from the exceptional
    node: S_m meets it, and every later edge meets the vertex before it."""
    ends = {}
    for b in series.branches:
        prev = EXC
        for j in range(b.m, b.M + 1):
            ends[j] = (prev, j)
            prev = j
    return ends


def reference_height(tree, j):
    """Breadth-first search over all edges from the exceptional node."""
    edges = [tree.ends(k) for k in tree.edges]
    target = edges[j]
    frontier, dist, seen = {EXC}, 0, {EXC}
    while frontier:
        if any(n in frontier for n in target):
            return dist
        nxt = set()
        for e in edges:
            if any(n in frontier for n in e):
                for n in e:
                    if n not in seen:
                        seen.add(n)
                        nxt.add(n)
        frontier, dist = nxt, dist + 1
    raise KeyError(j)


def nodes(tree):
    return {EXC} | {end for ends in reference_ends(tree.series).values()
                    for end in ends}


@settings(max_examples=60, deadline=None)
@given(trees())
def test_exceptional_order_is_the_successor_walk(tree):
    assert tree.cyclic_order_at(EXC) == successor_walk(tree.series)


@settings(max_examples=60, deadline=None)
@given(trees())
def test_the_edges_form_a_tree(tree):
    assert tree.edges == range(tree.h0)
    assert len(nodes(tree)) == tree.h0 + 1
    seen, frontier = {EXC}, [EXC]
    while frontier:
        node = frontier.pop()
        for j in tree.edges:
            if node in tree.ends(j):
                for end in tree.ends(j):
                    if end not in seen:
                        seen.add(end)
                        frontier.append(end)
    assert seen == nodes(tree)


@settings(max_examples=60, deadline=None)
@given(trees())
def test_heights_match_the_all_edges_search(tree):
    for j in tree.edges:
        assert bt.height(tree, j) == reference_height(tree, j)


@settings(max_examples=60, deadline=None)
@given(trees())
def test_lookups_match_linear_scans(tree):
    ends = reference_ends(tree.series)
    for j in tree.edges:
        assert tree.ends(j) == ends[j]
        assert tree.branch_of(j) is next(b for b in tree.series.branches
                                         if b.m <= j <= b.M)
    for node in nodes(tree):
        order = tree.cyclic_order_at(node)
        assert sorted(order) == [j for j, e in sorted(ends.items()) if node in e]


@settings(max_examples=40, deadline=None)
@given(trees())
def test_paths_out_partitions_the_path_basis(tree):
    alg = ta.from_tree(tree, 7)
    basis = reference_basis(alg)
    assert sum(map(len, alg.paths_out.values())) == alg.dim == len(basis)
    for src, out in alg.paths_out.items():
        # the paths out of src with their targets, in basis order
        assert out == [(reference_target(alg, p), p) for p in basis if p.src == src]
    for p in basis:
        assert alg.target(p) == reference_target(alg, p)
    arrows = reference_arrows(alg)
    assert len(alg.arrow_at) == len(arrows)
    assert set(alg.arrow_at.values()) == set(arrows)
    for (node, src), a in alg.arrow_at.items():
        assert (a.node, a.src) == (node, src)


def stored(a):
    """The number of entries a SparseMatrix stores, a repeated row object
    counted at each place."""
    return sum(map(len, a.rows))


def nonzero(rows):
    return sum(x != 0 for row in rows for x in row)


def reference_decomposition(tree):
    """D cell by cell from the walked edge ends: chi_v has a 1 in the
    column of each edge it ends, and each of the mu exceptional rows a 1
    in the column of each edge at the exceptional node."""
    ends = reference_ends(tree.series)
    return ([[int(v in ends[j]) for j in tree.edges] for v in tree.edges]
            + [[int(EXC in ends[j]) for j in tree.edges]] * tree.multiplicity)


def dense_unitriangular(d):
    """Every cell of the reordered matrix on and above the diagonal."""
    chi = [j for kind, j in d.row_labels if kind == "chi"]
    hgt = dict(zip(d.col_edges, d.heights))
    order = sorted(chi, key=lambda j: (-hgt[j], j))
    row_of = {j: i for i, (kind, j) in enumerate(d.row_labels) if kind == "chi"}
    col_of = {j: i for i, j in enumerate(d.col_edges)}
    cells = dense(d.matrix)
    ok = True
    for rpos, j in enumerate(order):
        row = cells[row_of[j]]
        for cpos, jc in enumerate(order):
            entry = row[col_of[jc]]
            if (cpos == rpos and entry != 1) or (cpos > rpos and entry != 0):
                ok = False
    return ok, order


def dense_cartan(d):
    cols = range(len(d.col_edges))
    cells = dense(d.matrix)
    return [[sum(row[a] * row[b] for row in cells) for b in cols] for a in cols]


def with_entry(d, row, col, value):
    rows = dense(d.matrix)
    rows[row][col] = value
    return dataclasses.replace(d, matrix=sparse(rows, len(d.col_edges)))


@settings(max_examples=40, deadline=None)
@given(trees())
def test_report_grids_match_the_per_pair_counts(tree):
    alg = ta.from_tree(tree, 7)
    d = bt.decomposition_matrix(tree)
    assert d.col_edges == alg.vertices == tuple(range(tree.h0))
    # Hom(P_i, P_j) has a basis of the paths from j to i
    per_pair = reference_grid(alg, reference_basis(alg))
    assert dense(ta.hom_grid(alg)) == [list(col) for col in zip(*per_pair)]
    assert ta.hom_grid(alg) == bt.cartan_matrix(d)
    assert dense(ta.ext1_grid(alg)) == reference_grid(alg, reference_arrows(alg))
    assert dense(ta.ext1_grid(alg)) == reference_grid(alg, alg.arrow_at.values())


@settings(max_examples=60, deadline=None)
@given(trees(), st.data())
def test_sparse_matrix_checks_match_dense_references(tree, data):
    d = bt.decomposition_matrix(tree)
    assert dense(bt.cartan_matrix(d)) == dense_cartan(d)
    ok, order = bt.check_unitriangular(d)
    assert ok and (ok, order) == dense_unitriangular(d)
    # one cell rewritten: the check must still agree with every-cell reading
    moved = with_entry(d, data.draw(st.integers(0, d.matrix.shape[0] - 1)),
                       data.draw(st.integers(0, len(d.col_edges) - 1)),
                       data.draw(st.integers(0, 2)))
    assert bt.check_unitriangular(moved) == dense_unitriangular(moved)
    assert dense(bt.cartan_matrix(moved)) == dense_cartan(moved)
    # a zero stored in a row reads as a zero, not as an entry
    row = data.draw(st.integers(0, d.matrix.shape[0] - 1))
    col = data.draw(st.integers(0, len(d.col_edges) - 1))
    rows = [dict(r) for r in d.matrix.rows]
    rows[row].setdefault(col, 0)
    padded = dataclasses.replace(d, matrix=linalg.SparseMatrix(d.matrix.shape, rows))
    assert bt.check_unitriangular(padded) == (ok, order)
    assert dense(bt.cartan_matrix(padded)) == dense_cartan(d)


def test_report_grids_store_their_nonzeros_only():
    # h0 = 100 in four branches, mu = 3: grids 2.5 % nonzero or less
    series = bt.SeriesDatum(100, (bt.Branch(3, 0, 39), bt.Branch(0, 40, 69),
                                  bt.Branch(7, 70, 89), bt.Branch(5, 90, 99)))
    tree = bt.assemble_tree(series, 3, 1)
    d = bt.decomposition_matrix(tree)
    alg = ta.from_tree(tree, 7)
    want_d = reference_decomposition(tree)
    assert d.matrix.shape == (103, 100)
    assert dense(d.matrix) == want_d and stored(d.matrix) == nonzero(want_d)
    # the exceptional rows are one row object
    assert len({id(row) for row in d.matrix.rows[100:]}) == 1
    cartan = bt.cartan_matrix(d)
    want_cartan = dense_cartan(d)
    assert dense(cartan) == want_cartan and stored(cartan) == nonzero(want_cartan)
    assert bt.check_unitriangular(d) == dense_unitriangular(d)
    hom = ta.hom_grid(alg)
    want_hom = [list(col) for col in zip(*reference_grid(alg, reference_basis(alg)))]
    assert want_hom == want_cartan
    assert dense(hom) == want_hom and stored(hom) == nonzero(want_hom)
    ext1 = ta.ext1_grid(alg)
    want_ext1 = reference_grid(alg, reference_arrows(alg))
    assert dense(ext1) == want_ext1 and stored(ext1) == nonzero(want_ext1)


def test_unitriangular_negative_controls():
    # a line tree of 48 edges: the height order is 47, 46, ..., 0 and each
    # row of D has at most two nonzero entries
    d = bt.decomposition_matrix(bt.assemble_tree(bt.line_series(48), 3, 1))
    ok, order = bt.check_unitriangular(d)
    assert ok and order == list(range(47, -1, -1))
    # chi_47 comes first; S_0, last in the order, sits deep in its zero run
    assert dense(d.matrix)[47][5:45] == [0] * 40
    assert d.matrix.rows[47] == {47: 1}
    above = with_entry(d, 47, 0, 1)
    assert bt.check_unitriangular(above) == dense_unitriangular(above) == (False, order)
    double = with_entry(d, 20, 20, 2)
    assert bt.check_unitriangular(double) == dense_unitriangular(double) == (False, order)


def test_unknown_keys():
    tree = bt.assemble_tree(bt.line_series(3), 2, 1)
    for lookup, key in ((tree.ends, 3), (tree.ends, -1),
                        (tree.branch_of, 3), (tree.branch_of, -1),
                        (tree.cyclic_order_at, 99), (tree.cyclic_order_at, "x")):
        with pytest.raises(KeyError):
            lookup(key)
    alg = ta.from_tree(tree, 7)
    for node in (99, EXC, 0):
        with pytest.raises(KeyError):
            alg.target(ta.Path(2, "cyc", node, 1))    # S_2 meets neither node
    with pytest.raises(KeyError):
        bt.height(tree, 3)
