"""Complex invariants, the oracle's table checks and solve refusals and the
regime, datum and complex-construction guards are explicit checks, so they
hold under python -O."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxbrauer import brauer_tree as bt
from coxbrauer import homotopy as ho
from coxbrauer import tree_algebra as ta

SRC = Path(__file__).resolve().parent.parent / "src"

# An ill-shaped boundary (two rows for one target summand), a boundary
# list of the wrong length, and d^2 = id on P_0 -> P_0 -> P_0.
SCRIPT = """
from coxbrauer import brauer_tree as bt, homotopy as ho, tree_algebra as ta
assert False, "asserts must be stripped under -O"
tree = bt.assemble_tree(bt.line_series(3), 1, 1)
alg = ta.from_tree(tree, 5)
one = alg.unit(0)
bad = {
    "rows": lambda: ho.ProjComplex(alg, 0, [[0], [1]], [[[{}], [{}]], []]),
    "length": lambda: ho.ProjComplex(alg, 0, [[0], [0]], [[[one]]]),
    "d2": lambda: ho.ProjComplex(alg, 0, [[0], [0], [0]],
                                 [[[one]], [[one]], []]),
}
for name, build in bad.items():
    try:
        build()
    except ho.InvalidComplex as exc:
        print(name, "rejected:", exc)
    else:
        print(name, "ACCEPTED")
"""


def _run_optimized(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_invalid_complexes_rejected_under_optimize():
    lines = _run_optimized(SCRIPT)
    assert [line.split()[:2] for line in lines] == [
        ["rows", "rejected:"], ["length", "rejected:"], ["d2", "rejected:"]]
    assert "d^2 != 0" in lines[2]


# The oracle's own table checks: one changed value off the identity class
# must fail orthogonality, first at the Gram entry (3, 0) of its row with
# eta_0, one on it the degree sum, and a table with one character removed
# (its rows stay orthonormal) the squareness check.  The solve refuses the trivial lift of n (V is all ones) and a doubled
# ordinary row (decomposition numbers 2 from cell (3, 0) on).
ORACLE_SCRIPT = """
from coxbrauer import oracle as orc
from coxbrauer.ell_arith import TruncatedPadic
assert False, "asserts must be stripped under -O"
g = orc.MetacyclicGroup(7, 3, 2)
real_table = orc.character_table

def corrupted(cls):
    table = real_table(g)
    if cls is None:
        del table.values[3]
    else:
        val = table.values[3][cls]
        table.values[3][cls] = {**val, 0: val.get(0, 0) + 1}
    return table.verify

def doubled(group):
    table = real_table(group)
    table.values[3] = [{k: 2 * c for k, c in v.items()} for v in table.values[3]]
    return table

def solve_with(owner, attr, value):
    def run():
        saved = getattr(owner, attr)
        setattr(owner, attr, value)
        try:
            orc.brute_decomposition_matrix(g)
        finally:
            setattr(owner, attr, saved)
    return run

bad = {
    "orthogonality": corrupted(1),
    "degrees": corrupted(0),
    "shape": corrupted(None),
    "lift": solve_with(orc.MetacyclicGroup, "zeta_lift",
                       lambda self: TruncatedPadic(1, self.ell, self.alpha + 1)),
    "doubled": solve_with(orc, "character_table", doubled),
}
for name, run in bad.items():
    try:
        run()
    except (orc.Mismatch, orc.SingularSystem) as exc:
        print(name, "rejected:", type(exc).__name__, exc)
    else:
        print(name, "ACCEPTED")
"""


def test_oracle_table_checks_hold_under_optimize():
    lines = _run_optimized(ORACLE_SCRIPT)
    assert [line.split()[:2] for line in lines] == [
        [name, "rejected:"] for name in
        ("orthogonality", "degrees", "shape", "lift", "doubled")]
    assert "orthogonality failed (table bug) at cell (3, 0)" in lines[0]
    assert "squared degrees" in lines[1]
    assert "not square: 4 characters on 5 classes" in lines[2]
    assert "SingularSystem" in lines[3] and "not invertible" in lines[3]
    assert "Mismatch unexpected decomposition number 2 at cell (3, 0)" in lines[4]


def test_invalid_complex_is_a_value_error():
    tree = bt.assemble_tree(bt.line_series(2), 1, 1)
    alg = ta.from_tree(tree, 5)
    assert issubclass(ho.InvalidComplex, ValueError)
    with pytest.raises(ho.InvalidComplex, match="does not run from"):
        # the arrow path 1 -> 0 placed as a map P_1 -> P_0
        arrow = alg.arrow_at[0, 1]      # around chi_0 out of S_1, to S_0
        ho.ProjComplex(alg, 0, [[1], [0]], [[[alg.elt(arrow)]], []])


# Non-composable paths, and a tree whose exceptional node carries no
# exceptional characters (multiplicity 0), so the projective of an edge
# there has one ordinary constituent instead of two.
ALGEBRA_SCRIPT = """
import dataclasses
from coxbrauer import brauer_tree as bt, tree_algebra as ta
assert False, "asserts must be stripped under -O"
tree = bt.assemble_tree(bt.line_series(3), 1, 1)
alg = ta.from_tree(tree, 5)
arrow = alg.arrow_at[0, 1]          # around chi_0 out of S_1, to S_0
bad = {
    "compose": lambda: alg.compose(arrow, ta.Path(2, "id")),
    "decomposition": lambda: bt.decomposition_matrix(
        dataclasses.replace(tree, multiplicity=0)),
}
for name, run in bad.items():
    try:
        run()
    except ValueError as exc:
        print(name, "rejected:", type(exc).__name__, exc)
    else:
        print(name, "ACCEPTED")
"""


def test_algebra_and_tree_checks_hold_under_optimize():
    lines = _run_optimized(ALGEBRA_SCRIPT)
    assert [line.split()[:3] for line in lines] == [
        ["compose", "rejected:", "NotComposable"],
        ["decomposition", "rejected:", "InvalidDecomposition"]]
    assert "1 ordinary constituents" in lines[1]


# Every path one change away from the basis (`reference.off_basis_paths`)
# is refused by `target`, `compose` (also onto a path starting nowhere, so
# that no missing target can match its source) and a complex holding it.
PATH_SCRIPT = """
import json
import sys
sys.path.insert(0, %r)
from coxbrauer import brauer_tree as bt, homotopy as ho, tree_algebra as ta
from coxbrauer.selftest import random_trees
from reference import off_basis_paths
assert False, "asserts must be stripped under -O"
refused, accepted = {"target": 0, "compose": 0, "compose_nowhere": 0, "complex": 0}, []
for tree in [*random_trees(10, seed=36), bt.star_tree(7, 3, 2)]:
    alg = ta.from_tree(tree, 7)
    for p in off_basis_paths(alg):
        for name, run in (
                ("target", lambda: alg.target(p)),
                ("compose", lambda: alg.compose(p, ta.Path(0, "id"))),
                ("compose_nowhere", lambda: alg.compose(p, ta.Path(None, "id"))),
                ("complex", lambda: ho.ProjComplex(alg, 0, [[0], [p.src]],
                                                   [[[alg.elt(p)]], []]))):
            try:
                run()
            except KeyError:
                refused[name] += 1
            else:
                accepted.append(f"{name} {p}")
print(json.dumps({"refused": refused, "accepted": accepted}))
""" % str(Path(__file__).resolve().parent)


def test_off_basis_paths_refused_under_optimize():
    [line] = _run_optimized(PATH_SCRIPT)
    out = json.loads(line)
    assert out["accepted"] == []
    counts = out["refused"]
    assert len(set(counts.values())) == 1 and counts["target"] > 300


# q^delta = 1 (every eigenvalue collides), q^delta = 3 mod 7 (distinct
# powers but of order 6, not h0 = 3), 2A2 at q = 2, ell = 3 (q of order
# 2, not h = 6), 2G2 at q^2 = 27, ell = 7 (7 does not divide |T_c| = 19),
# A2 with both degrees 3 (the angle 2/3 of order h twice), a direct sum
# of nothing, a Hom complex between complexes over two algebras of the
# same tree, the product zeta_3*q - 1 (a coefficient outside Z), and A2's
# torus with eigenvalues zeta_3, zeta_3 (det(c*sigma) = zeta_3^2, not +-1).
GUARD_SCRIPT = """
import dataclasses
from fractions import Fraction
from coxbrauer import brauer_tree as bt, homotopy as ho, root_data, tree_algebra as ta
from coxbrauer.ell_arith import eigenvalue_table, validate_regime
from coxbrauer.root_data import (coxeter_datum, parse_type,
                                 twisted_coxeter_eigenvalues)
assert False, "asserts must be stripped under -O"
datum = coxeter_datum(parse_type("A2"))
ctx = validate_regime(datum, 2, 7)
tree = bt.assemble_tree(bt.line_series(2), 1, 1)
alg, other = ta.from_tree(tree, 5), ta.from_tree(tree, 5)


def torus_with_angles(angles):
    saved = root_data.twisted_coxeter_eigenvalues
    root_data.twisted_coxeter_eigenvalues = lambda datum: angles
    try:
        return root_data.torus_order_poly(datum)
    finally:
        root_data.twisted_coxeter_eigenvalues = saved


bad = {
    "collision": lambda: eigenvalue_table(dataclasses.replace(ctx, qdelta_mod=1)),
    "root": lambda: eigenvalue_table(dataclasses.replace(ctx, qdelta_mod=3)),
    "order": lambda: validate_regime(coxeter_datum(parse_type("2A2")), 2, 3),
    "ree": lambda: validate_regime(coxeter_datum(parse_type("2G2")), 27, 7),
    "angles": lambda: twisted_coxeter_eigenvalues(
        dataclasses.replace(datum, degrees=(3, 3))),
    "sum": lambda: ho.direct_sum([]),
    "hom": lambda: ho.HomComplex(ho.ProjComplex(alg, 0, [[0]], [[]]),
                                 ho.ProjComplex(other, 0, [[0]], [[]])),
    "integral": lambda: root_data._angles_to_poly(
        [(1, Fraction(1, 3), Fraction(0))], None),
    "det": lambda: torus_with_angles([Fraction(1, 3), Fraction(1, 3)]),
    "cells": lambda: bt.check_report_cells("decmatrix report",
                                           bt.MAX_REPORT_CELLS + 1),
    "rank": lambda: parse_type("A", root_data.MAX_RANK + 1),
}
for name, run in bad.items():
    try:
        run()
    except (ValueError, root_data.IntegralityFailure) as exc:
        print(name, "rejected:", exc)
    else:
        print(name, "ACCEPTED")
"""


def test_regime_datum_and_complex_guards_hold_under_optimize():
    lines = _run_optimized(GUARD_SCRIPT)
    assert [line.split()[:2] for line in lines] == [
        [name, "rejected:"] for name in
        ("collision", "root", "order", "ree", "angles", "sum", "hom",
         "integral", "det", "cells", "rank")]
    assert "collision" in lines[0]
    assert "h0-th root" in lines[1]
    assert "WrongOrder: q has order != h = 6 mod 3" in lines[2]
    assert "NotDividing: ell=7 does not divide |T_c| = 19" in lines[3]
    assert "multiplicity > 1" in lines[4]
    assert "no complexes" in lines[5]
    assert "different algebras" in lines[6]
    assert "non-rational cyclotomic residue" in lines[7]
    assert "non-unit leading torus coefficient" in lines[8]
    assert "decmatrix report would have 67108865 cells" in lines[9]
    assert "rank 513 is more than the 512 supported" in lines[10]
