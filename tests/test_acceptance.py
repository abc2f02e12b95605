"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The checks and their runner live in coxbrauer.selftest, so the CLI
selftest runs exactly the same code; `run_one` enforces the stated runtime
budgets as part of the criterion and reports an overrun as a failure.
"""

import pathlib


from coxbrauer import selftest as st


def _run(name):
    result = st.run_one(name)
    print(result.line())
    assert result.ok, result.detail


def test_criterion_01_coxeter_tables():
    _run("1-coxeter-tables")


def test_criterion_02_torus_orders():
    _run("2-torus-orders")


def test_criterion_03_regime_validation():
    _run("3-regime-validation")


def test_criterion_04_hensel():
    _run("4-hensel")


def test_criterion_05_ree_tree():
    _run("5-ree-tree")


def test_criterion_05_ree_tree_golden_file():
    golden = pathlib.Path(__file__).parent / "golden" / "2g2_tree.dot"
    from coxbrauer.brauer_tree import ree_tree, to_dot
    assert to_dot(ree_tree()) == golden.read_text() == st.REE_DOT
    print("PASS 5-ree-tree-golden: DOT output byte-identical to the checked-in file")


def test_criterion_06_star_oracle():
    _run("6-star-oracle")


def test_criterion_07_algebra_dimensions():
    _run("7-algebra-dimensions")


def test_criterion_08_ext_adjacency():
    _run("8-ext-adjacency")


def test_criterion_09_rickard_complexes():
    _run("9-rickard-complexes")


def test_criterion_10_tilting():
    _run("10-tilting")


def test_criterion_11_trimming():
    _run("11-trimming")


def test_criterion_12_perversity_unitriangular():
    _run("12-perversity-unitriangular")
