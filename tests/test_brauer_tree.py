import dataclasses
import json

import pytest

from coxbrauer import brauer_tree as bt
from coxbrauer.brauer_tree import (EXC, BadAction, Branch, InvalidSeries,
                                   NonIntegral, ParseError, SeriesDatum)
from coxbrauer.ell_arith import validate_regime
from coxbrauer.root_data import coxeter_datum, parse_type
from coxbrauer.selftest import random_trees


def a2_ctx():
    return validate_regime(coxeter_datum(parse_type("A2")), 2, 7)


def ree_ctx():
    return validate_regime(coxeter_datum(parse_type("2G2")), 27, 19)


def test_series_validation():
    with pytest.raises(InvalidSeries):
        SeriesDatum(3, (Branch(0, 0, 0), Branch(1, 2, 2)))   # misses 1
    with pytest.raises(InvalidSeries):
        SeriesDatum(3, (Branch(0, 0, 1), Branch(1, 1, 2)))   # overlap
    with pytest.raises(InvalidSeries):
        SeriesDatum(3, ())
    with pytest.raises(InvalidSeries):
        SeriesDatum(3, (Branch(0, 0, 3),))                   # out of range


def test_exceptional_multiplicity():
    assert bt.exceptional_multiplicity(a2_ctx()) == 2
    assert bt.exceptional_multiplicity(ree_ctx()) == 3


def test_exceptional_multiplicity_analogue():
    # the metacyclic analogue (|D| - 1)/h0 with |D| = 7, h0 = 3
    assert (7 - 1) // 3 == bt.star_tree(7, 3, 2).multiplicity


def test_non_integral_multiplicity():
    import dataclasses
    # a valid regime forces ell = 1 mod h0, so non-integrality only arises
    # from corrupted data; forge ell = 5 with torus value 5 against h0 = 3
    bad = dataclasses.replace(a2_ctx(), ell=5, torus_value=5)
    with pytest.raises(NonIntegral):
        bt.exceptional_multiplicity(bad)


def test_single_branch_shape():
    tree = bt.principal_block_tree(a2_ctx(), bt.line_series(3))
    assert tree.multiplicity == 2 and tree.r == 2
    assert [e.ends for e in tree.edges] == [(EXC, 0), (0, 1), (1, 2)]
    # edges at the exceptional node are exactly the branch starts
    assert tree.edges_at(EXC) == [0]
    assert tree.cyclic_order_at(EXC) == (0,)


def test_star_shape_and_order():
    tree = bt.star_tree(7, 3, 2)
    assert [e.ends for e in tree.edges] == [(EXC, 0), (EXC, 1), (EXC, 2)]
    assert tree.cyclic_order_at(EXC) == (0, 1, 2)
    assert tree.multiplicity == 2
    meta = dict(tree.star_meta)
    assert meta["zeta"] == 30 and meta["zeta_precision"] == 2


def test_star_variants():
    assert bt.star_tree(5, 1, 1).multiplicity == 4
    t = bt.star_tree(49, 3, 18)
    assert t.multiplicity == 16
    # n = 18 reduces to 4 mod 7; its lift is the cube root of 1 above 4
    zeta = dict(t.star_meta)["zeta"]
    mod = 7 ** dict(t.star_meta)["zeta_precision"]
    assert pow(zeta, 3, mod) == 1 and zeta % 7 == 4


def test_star_bad_action():
    with pytest.raises(BadAction):
        bt.star_tree(7, 3, 3)      # ord_7(3) = 6 != 3
    with pytest.raises(BadAction):
        bt.star_tree(7, 2, 2)      # ord_7(2) = 3 != 2
    with pytest.raises(BadAction):
        bt.star_tree(12, 2, 5)     # |D| not a prime power


def test_successor_rule_cycle():
    for tree in random_trees(40, seed=5):
        order = tree.cyclic_order_at(EXC)
        starts = sorted(b.m for b in tree.series.branches)
        # the exceptional node sees exactly the branch-start edges
        assert sorted(tree.edges_at(EXC)) == starts
        assert sorted(order) == starts
        by_m = {b.m: b for b in tree.series.branches}
        for pos, m in enumerate(order):
            nxt = order[(pos + 1) % len(order)]
            assert nxt == (by_m[m].M + 1) % tree.h0


def test_ree_figure():
    tree = bt.ree_tree()
    assert len(tree.vertices) == 6
    assert len(tree.edges) == 6
    assert tree.multiplicity == 3
    assert tree.cyclic_order_at(EXC) == (0, 2, 3, 4, 5)
    lengths = sorted(b.M - b.m + 1 for b in tree.series.branches)
    assert lengths == [1, 1, 1, 1, 2]
    assert tree.vertex(0).label == "St" and tree.vertex(1).label == "1"


def test_decomposition_matrix_rows():
    tree = bt.ree_tree()
    d = bt.decomposition_matrix(tree)
    # interior edge S1 joins chi_0 and chi_1 only
    col = [row[1] for row in d.matrix]
    assert col == [1, 1, 0, 0, 0, 0, 0, 0, 0]
    # the edge at the exceptional node has chi_m and all mu exceptional rows
    col0 = [row[0] for row in d.matrix]
    assert col0 == [1, 0, 0, 0, 0, 0, 1, 1, 1]
    coll = d.collapsed()
    assert coll == d.matrix[:7]
    assert [sum(col) for col in zip(*coll)] == [2] * 6


def test_cartan_examples():
    star = bt.decomposition_matrix(bt.star_tree(7, 3, 2))
    assert bt.cartan_matrix(star) == ((3, 2, 2), (2, 3, 2), (2, 2, 3))
    single = bt.decomposition_matrix(bt.star_tree(7, 1, 1))
    assert bt.cartan_matrix(single) == ((7,),)
    line = bt.decomposition_matrix(bt.assemble_tree(bt.line_series(2), 1, 1))
    assert bt.cartan_matrix(line) == ((2, 1), (1, 2))
    # D^T D cell by cell, on a tree with several branches and mu = 3
    series = bt.SeriesDatum(7, (bt.Branch(0, 0, 2), bt.Branch(1, 3, 3),
                                bt.Branch(2, 4, 6)))
    dec = bt.decomposition_matrix(bt.assemble_tree(series, 3, 1))
    cols = range(len(dec.col_edges))
    assert bt.cartan_matrix(dec) == tuple(
        tuple(sum(row[a] * row[b] for row in dec.matrix) for b in cols) for a in cols)


def test_heights_and_perversity():
    tree = bt.ree_tree()
    assert [bt.height(tree, j) for j in range(6)] == [0, 1, 0, 0, 0, 0]
    assert bt.perversity(tree, 0) == -2
    assert bt.perversity(tree, 2) == 0
    line = bt.assemble_tree(bt.line_series(4), 1, 1)
    assert [bt.height(line, j) for j in range(4)] == [0, 1, 2, 3]


def test_unitriangular_orders():
    tree = bt.ree_tree()
    d = bt.decomposition_matrix(tree)
    ok, order = bt.check_unitriangular(d)
    assert ok and order[0] == 1          # the deepest edge comes first
    # move the 1 of chi_0 in column S_1 (below the diagonal in this order)
    # to chi_1 in column S_0, above it
    first, second = order[:2]
    moved = [list(row) for row in d.matrix]
    assert moved[second][first] == 1 and moved[first][second] == 0
    moved[second][first], moved[first][second] = 0, 1
    moved = tuple(map(tuple, moved))
    ok_moved, _ = bt.check_unitriangular(dataclasses.replace(d, matrix=moved))
    assert not ok_moved
    star = bt.decomposition_matrix(bt.star_tree(7, 3, 2))
    assert bt.check_unitriangular(star)[0]


def test_unitriangular_a_annotations():
    # Ree block: trivial character has (a, A) = (0, 0), Steinberg (N, N) = (6, 6);
    # the annotations ride along in the tree JSON but the check reads heights
    series, labels = bt.fixture_series("2g2")
    ann = {0: (6, 6), 1: (0, 0), 2: (2, 10), 3: (2, 10), 4: (2, 10), 5: (2, 10)}
    tree = bt.assemble_tree(series, 3, 1, labels=labels, annotations=ann)
    assert bt.tree_to_obj(tree)["annotations"]["0"] == [6, 6]
    assert bt.from_json(json.dumps(bt.tree_to_obj(tree))) == tree
    bare = bt.assemble_tree(series, 3, 1)
    assert (bt.check_unitriangular(bt.decomposition_matrix(tree))
            == bt.check_unitriangular(bt.decomposition_matrix(bare)))
    assert bt.check_unitriangular(bt.decomposition_matrix(tree))[0]


def test_json_round_trip():
    for tree in [bt.ree_tree(), bt.star_tree(7, 3, 2),
                 bt.assemble_tree(bt.line_series(4), 2, 2)]:
        assert bt.from_json(json.dumps(bt.tree_to_obj(tree))) == tree


def test_json_parse_errors():
    with pytest.raises(ParseError):
        bt.from_json("{")
    with pytest.raises(ParseError) as err:
        bt.from_json(json.dumps({"h0": 3, "r": 1, "multiplicity": 1,
                                 "branches": []}))
    assert "branches" in err.value.location
    with pytest.raises(ParseError):
        bt.from_json(json.dumps({"h0": 3, "r": 1, "multiplicity": 1,
                                 "branches": [{"zeta": 0, "m": 0, "M": 2}],
                                 "cyclic_order": [1]}))
    with pytest.raises(ParseError):
        bt.from_json(json.dumps({"h0": "x", "r": 1, "multiplicity": 1,
                                 "branches": [{"zeta": 0, "m": 0, "M": 0}]}))


def test_dot_output():
    dot = bt.to_dot(bt.ree_tree())
    assert dot.count("--") == 6
    assert dot.count("[shape=circle") == 6
    assert "doublecircle" in dot
    assert "order=4" in dot


def test_dot_matches_golden(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden" / "2g2_tree.dot"
    assert bt.to_dot(bt.ree_tree()) == golden.read_text()


def test_height_ordering_certifies_random_trees():
    for tree in random_trees(60, seed=13):
        d = bt.decomposition_matrix(tree)
        ok, _ = bt.check_unitriangular(d)
        assert ok
