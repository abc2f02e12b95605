import dataclasses
import json
import time

import pytest

from coxbrauer import brauer_tree as bt
from coxbrauer import cli
from coxbrauer.brauer_tree import (EXC, BadAction, Branch, InvalidSeries,
                                   NonIntegral, ParseError, SeriesDatum)
from coxbrauer.ell_arith import TruncatedPadic, validate_regime
from coxbrauer.linalg import SparseMatrix
from coxbrauer.root_data import coxeter_datum, parse_type
from coxbrauer.selftest import random_trees
from reference import dense


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
    assert [tree.ends(j) for j in tree.edges] == [(EXC, 0), (0, 1), (1, 2)]
    # edges at the exceptional node are exactly the branch starts
    assert tree.cyclic_order_at(EXC) == (0,)


def test_star_shape_and_order():
    tree = bt.star_tree(7, 3, 2)
    assert [tree.ends(j) for j in tree.edges] == [(EXC, 0), (EXC, 1), (EXC, 2)]
    assert tree.cyclic_order_at(EXC) == (0, 1, 2)
    assert tree.multiplicity == 2
    zeta = tree.star.zeta_lift()
    assert zeta.value == 30 and zeta.n == 2


def test_star_variants():
    assert bt.star_tree(5, 1, 1).multiplicity == 4
    t = bt.star_tree(49, 3, 18)
    assert t.multiplicity == 16
    # n = 18 reduces to 4 mod 7; its lift is the cube root of 1 above 4
    zeta = t.star.zeta_lift()
    assert pow(zeta.value, 3, zeta.modulus) == 1 and zeta.value % 7 == 4
    # n is kept mod |D|, so n = 9 and n = 2 give one tree and one group
    assert bt.star_tree(7, 3, 9) == bt.star_tree(7, 3, 2)
    assert bt.star_tree(7, 3, 9).star.n == 2


def test_trivial_e_lifts_to_one_on_the_general_path():
    # |E| = 1 forces n = 1 mod |D|: the Hensel lift of the seed 1 is 1
    for d in (7, 25, 27, 125):
        g = bt.MetacyclicGroup(d, 1, 1)
        assert g.zeta_lift() == TruncatedPadic(1, g.ell, g.alpha + 1)


STAR_REFUSALS = [
    ((12, 2, 5), "|D| = 12 is not a prime power"),
    ((7, -3, 2), "|E| = -3 must be positive"),
    ((7, 7, 2), "|E| must be prime to ell"),
    ((49, 3, 2), "n=2 does not have order dividing 3 mod 49"),
    ((7, 3, 3), "n=3 does not have order dividing 3 mod 7"),
    ((49, 8, 48), "8 does not divide ell - 1 = 6"),
    ((7, 2 ** 61 - 1, 1), f"{2 ** 61 - 1} does not divide ell - 1 = 6"),
]


@pytest.mark.parametrize("triple, message", STAR_REFUSALS,
                         ids=[",".join(map(str, t)) for t, _ in STAR_REFUSALS])
def test_star_refusals(triple, message, tmp_path, capsys):
    """The tree, the group, `star` and a tree file's star metadata refuse
    a triple with one message; none of them trial-divides a 61-bit |E|."""
    d, e, n = triple
    start = time.perf_counter()
    with pytest.raises(BadAction) as by_tree:
        bt.star_tree(d, e, n)
    with pytest.raises(BadAction) as by_group:
        bt.MetacyclicGroup(d, e, n)
    assert str(by_tree.value) == str(by_group.value) == message
    assert cli.main(["star", "--d", str(d), "--e", str(e), "--n", str(n)]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"
    if not 0 < e <= 12:
        return
    # a star-shaped tree with h0 = |E| whose star object states the triple
    obj = {"h0": e, "r": 0, "multiplicity": 1,
           "branches": [{"zeta": j, "m": j, "M": j} for j in range(e)],
           "star": {"d_order": d, "e_order": e, "n": n,
                    "zeta": 1, "zeta_precision": 2}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["decmatrix", "--tree", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: $.star: not the data of a star tree: {message}\n"


def acts_with_order(d, e, n):
    """Brute force: n^e = 1 mod d and the powers of n mod ell, the prime
    of d, first return to 1 at the e-th."""
    ell = next(p for p in range(2, d + 1) if d % p == 0)
    if pow(n, e, d) != 1:
        return False
    return next(k for k in range(1, ell) if pow(n, k, ell) == 1) == e


def test_star_tree_accepts_exactly_the_actions_of_order_e():
    accepted, want = set(), set()
    for d in (5, 7, 9, 11, 13, 25, 27, 49):
        for e in range(1, 13):
            for n in range(d):
                try:
                    bt.star_tree(d, e, n)
                    accepted.add((d, e, n))
                except BadAction:
                    pass
                if acts_with_order(d, e, n):
                    want.add((d, e, n))
    assert accepted == want
    assert (49, 3, 18) in want and (27, 2, 26) in want and (5, 1, 1) in want


def test_successor_rule_cycle():
    for tree in random_trees(40, seed=5):
        order = tree.cyclic_order_at(EXC)
        starts = sorted(b.m for b in tree.series.branches)
        # the exceptional node sees exactly the branch-start edges
        assert sorted(j for j in tree.edges if tree.ends(j)[0] == EXC) == starts
        assert sorted(order) == starts
        by_m = {b.m: b for b in tree.series.branches}
        for pos, m in enumerate(order):
            nxt = order[(pos + 1) % len(order)]
            assert nxt == (by_m[m].M + 1) % tree.h0


def test_ree_figure():
    tree = bt.ree_tree()
    assert tree.h0 == len(tree.edges) == 6
    assert tree.multiplicity == 3
    assert tree.cyclic_order_at(EXC) == (0, 2, 3, 4, 5)
    lengths = sorted(b.M - b.m + 1 for b in tree.series.branches)
    assert lengths == [1, 1, 1, 1, 2]
    assert tree.labels[:2] == ((0, "St"), (1, "1"))


def test_decomposition_matrix_rows():
    tree = bt.ree_tree()
    d = bt.decomposition_matrix(tree)
    cells = dense(d.matrix)
    # interior edge S1 joins chi_0 and chi_1 only
    col = [row[1] for row in cells]
    assert col == [1, 1, 0, 0, 0, 0, 0, 0, 0]
    # the edge at the exceptional node has chi_m and all mu exceptional rows
    col0 = [row[0] for row in cells]
    assert col0 == [1, 0, 0, 0, 0, 0, 1, 1, 1]
    # the mu exceptional rows are one row; with it counted once, every
    # projective has two ordinary constituents
    assert d.matrix.rows[6] is d.matrix.rows[7] is d.matrix.rows[8]
    assert [sum(col) for col in zip(*cells[:7])] == [2] * 6
    # only the nonzero cells are stored
    assert d.matrix.rows[0] == {0: 1, 1: 1} and d.matrix.rows[6] == {0: 1, 2: 1,
                                                                    3: 1, 4: 1, 5: 1}


def test_cartan_examples():
    star = bt.decomposition_matrix(bt.star_tree(7, 3, 2))
    assert dense(bt.cartan_matrix(star)) == [[3, 2, 2], [2, 3, 2], [2, 2, 3]]
    single = bt.decomposition_matrix(bt.star_tree(7, 1, 1))
    assert bt.cartan_matrix(single) == SparseMatrix((1, 1), [{0: 7}])
    line = bt.decomposition_matrix(bt.assemble_tree(bt.line_series(2), 1, 1))
    assert dense(bt.cartan_matrix(line)) == [[2, 1], [1, 2]]
    # D^T D cell by cell, on a tree with several branches and mu = 3
    series = bt.SeriesDatum(7, (bt.Branch(0, 0, 2), bt.Branch(1, 3, 3),
                                bt.Branch(2, 4, 6)))
    dec = bt.decomposition_matrix(bt.assemble_tree(series, 3, 1))
    cols = range(len(dec.col_edges))
    cells = dense(dec.matrix)
    assert dense(bt.cartan_matrix(dec)) == [
        [sum(row[a] * row[b] for row in cells) for b in cols] for a in cols]


def test_heights():
    tree = bt.ree_tree()
    assert [bt.height(tree, j) for j in range(6)] == [0, 1, 0, 0, 0, 0]
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
    moved = [dict(row) for row in d.matrix.rows]
    assert moved[second].get(first) == 1 and second not in moved[first]
    del moved[second][first]
    moved[first][second] = 1
    moved = SparseMatrix(d.matrix.shape, moved)
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


@pytest.mark.parametrize("h0", [0, -3])
def test_a_nonpositive_h0_is_located_at_h0(h0):
    with pytest.raises(ParseError, match=r"^\$\.h0: h0 must be positive$") as err:
        bt.obj_to_tree({"h0": h0, "r": 0, "multiplicity": 1,
                        "branches": [{"zeta": 0, "m": 0, "M": 0}]})
    assert err.value.location == "$.h0"


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
