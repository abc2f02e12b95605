"""Acceptance fixture suite, shared by the CLI selftest and the test suite.

Each check returns (ok, detail); run_all executes every criterion, timing
included, and is what `coxbrauer selftest` prints.  The checks recompute
their expected values from independent data (literature table formulas,
exhaustive searches, the metacyclic oracle) rather than trusting the code
paths they exercise.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import brauer_tree as bt
from . import homotopy as ho
from . import oracle as orc
from . import tree_algebra as ta
from .ell_arith import TruncatedPadic, eigenvalue_table, hensel_root, validate_regime
from .root_data import coxeter_datum, parse_type, torus_order_poly

# frozen rendering of the Ree tree; also stored at tests/golden/2g2_tree.dot
REE_DOT = """graph brauer_tree {
  graph [ordering=out];
  exc [shape=doublecircle, label="exc (3)"];
  v0 [shape=circle, label="St"];
  v1 [shape=circle, label="1"];
  v2 [shape=circle, label="2G2[i]"];
  v3 [shape=circle, label="2G2[xi]"];
  v4 [shape=circle, label="2G2[xibar]"];
  v5 [shape=circle, label="2G2[-i]"];
  exc -- v0 [label="S0", order=0];
  exc -- v2 [label="S2", order=1];
  exc -- v3 [label="S3", order=2];
  exc -- v4 [label="S4", order=3];
  exc -- v5 [label="S5", order=4];
  v0 -- v1 [label="S1", order=1];
}
"""


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name:32s} {self.elapsed:6.2f}s  {self.detail}"


# --------------------------------------------------------------------------
# criterion 1: Coxeter number tables

def check_tables() -> tuple[bool, str]:
    # literature rows restated independently of the table module
    expected: list[tuple[str, int, int, int]] = []
    for n in range(1, 9):
        expected.append((f"A{n}", n, n + 1, n + 1))
    for n in range(2, 9):
        expected.append((f"B{n}", n, 2 * n, 2 * n))
        expected.append((f"C{n}", n, 2 * n, 2 * n))
    for n in range(4, 9):
        expected.append((f"D{n}", n, 2 * n - 2, 2 * n - 2))
    expected += [("E6", 6, 12, 12), ("E7", 7, 18, 18), ("E8", 8, 30, 30),
                 ("F4", 4, 12, 12), ("G2", 2, 6, 6)]
    for n in range(2, 9):
        h = 2 * n + 2 if n % 2 == 0 else 2 * n
        expected.append((f"2A{n}", n, h, h // 2))
    for n in range(4, 9):
        expected.append((f"2D{n}", n, 2 * n, n))
    expected += [("3D4", 4, 12, 4), ("2E6", 6, 18, 9),
                 ("2B2", 2, 8, 4), ("2F4", 4, 24, 12), ("2G2", 2, 12, 6)]
    bad = []
    for name, _, h, h0 in expected:
        d = coxeter_datum(parse_type(name))
        if (d.h, d.h0) != (h, h0):
            bad.append(f"{name}: got ({d.h}, {d.h0}), want ({h}, {h0})")
    detail = f"{len(expected)} table rows across the 16 listed types"
    return not bad, "; ".join(bad) or detail


# criterion 2: twisted torus order polynomials

def check_torus_orders() -> tuple[bool, str]:
    want = {
        "2B2": (((1, 0), (0, -1), (1, 0)), 2),
        "2G2": (((1, 0), (0, -1), (1, 0)), 3),
        "2F4": (((1, 0), (0, -1), (1, 0), (0, -1), (1, 0)), 2),
    }
    bad = []
    for name, (coeffs, p) in want.items():
        poly = torus_order_poly(coxeter_datum(parse_type(name)))
        if poly.coeffs != coeffs or poly.p != p:
            bad.append(f"{name}: {poly.pretty()}")
    return not bad, "; ".join(bad) or "2B2, 2G2, 2F4 coefficient-exact"


# criterion 3: regime validation and eigenvalue congruence tables

def check_regimes() -> tuple[bool, str]:
    ctx_a = validate_regime(coxeter_datum(parse_type("A2")), 2, 7)
    tab_a = eigenvalue_table(ctx_a)
    ctx_g = validate_regime(coxeter_datum(parse_type("2G2")), 27, 19)
    tab_g = eigenvalue_table(ctx_g)
    ok = (list(tab_a.values()) == [1, 2, 4]
          and list(tab_g.values()) == [1, 8, 7, 18, 11, 12])
    for ctx, tab in ((ctx_a, tab_a), (ctx_g, tab_g)):
        roots = {x for x in range(1, ctx.ell) if pow(x, ctx.h0, ctx.ell) == 1}
        ok = ok and set(tab.values()) == roots
    return ok, f"A2 -> {sorted(tab_a.values())}, 2G2 -> {list(tab_g.values())}"


# criterion 4: Hensel anchor plus precision tower property

def check_hensel() -> tuple[bool, str]:
    got = hensel_root(TruncatedPadic(1, 7, 2), 3, 2).value
    brute = [x for x in range(49) if x % 7 == 2 and pow(x, 3, 49) == 1]
    if got != 30 or brute != [30]:
        return False, f"anchor failed: got {got}, exhaustive {brute}"
    rng = random.Random(20240)
    primes = [3, 5, 7, 11, 13, 19]
    for _ in range(50):
        ell = rng.choice(primes)
        e = rng.choice([k for k in range(2, 8) if k % ell])
        n_hi = rng.randint(3, 5)
        x0 = rng.randrange(1, ell)
        a_val = pow(x0, e, ell ** n_hi) + ell * rng.randrange(ell ** (n_hi - 1))
        a_val %= ell ** n_hi
        if pow(x0, e, ell) != a_val % ell:
            continue
        hi = hensel_root(TruncatedPadic(a_val, ell, n_hi), e, x0)
        for n_lo in range(1, n_hi):
            lo = hensel_root(TruncatedPadic(a_val, ell, n_lo), e, x0)
            if hi.reduce(n_lo) != lo:
                return False, f"tower failed at ell={ell}, e={e}"
    return True, "30 mod 49 anchored by exhaustive search; 50 tower trials"


# criterion 5: the Ree tree reproduces the known planar embedding

def check_ree_tree() -> tuple[bool, str]:
    tree = bt.ree_tree()
    lengths = sorted(b.M - b.m + 1 for b in tree.series.branches)
    ok = (tree.h0 == 6
          and tree.multiplicity == 3
          and lengths == [1, 1, 1, 1, 2]
          and tree.cyclic_order_at(bt.EXC) == (0, 2, 3, 4, 5)
          and bt.to_dot(tree) == REE_DOT)
    return ok, (f"6 vertices, mu=3, branches {lengths}, "
                f"cycle {tree.cyclic_order_at(bt.EXC)}, DOT byte-stable")


# criterion 6: star oracle agreement

def check_star_oracle() -> tuple[bool, str]:
    oracle = {}
    for d, e, n in [(7, 3, 2), (7, 3, 4), (49, 3, 18)]:
        g = orc.MetacyclicGroup(d, e, n)
        oracle[d, e, n] = orc.brute_decomposition_matrix(g)
        tree = bt.star_tree(d, e, n)
        orc.verify_star(tree, g, oracle[d, e, n], bt.decomposition_matrix(tree).matrix)
    want = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 1))
    ok = oracle[7, 3, 2] == want
    return ok, "verify_star cell-exact on (7,3,2), (7,3,4), (49,3,18)"


# criterion 7: algebra dimension and the three Cartan routes

def check_algebra_dims() -> tuple[bool, str]:
    tree = bt.star_tree(7, 3, 2)
    alg = ta.from_tree(tree, 7)
    cartan = bt.cartan_matrix(bt.decomposition_matrix(tree))
    want = [{0: 3, 1: 2, 2: 2}, {0: 2, 1: 3, 2: 2}, {0: 2, 1: 2, 2: 3}]
    ok = alg.dim == 21 and cartan.rows == want and ta.hom_grid(alg) == cartan
    return ok, f"dim {alg.dim} = |D x| E|; Cartan == D^T D == Hom grid"


# criteria 8/9 fixtures

def random_trees(count: int = 100, seed: int = 77):
    """Random valid trees: h0 <= 6, at most 4 branches, mu <= 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        h0 = rng.randint(2, 6)
        n_branches = rng.randint(1, min(4, h0))
        cuts = sorted(rng.sample(range(1, h0), n_branches - 1))
        bounds = [0] + cuts + [h0]
        branches = tuple(bt.Branch(i, bounds[i], bounds[i + 1] - 1)
                         for i in range(n_branches))
        mu = rng.randint(1, 3)
        r = rng.randint(1, 3)
        out.append(bt.assemble_tree(bt.SeriesDatum(h0, branches), mu, r))
    return out


def line_trees():
    return [bt.assemble_tree(bt.line_series(h0), mu, 1)
            for h0 in (2, 3, 4) for mu in (1, 2, 3)]


def _expected_ext(tree: bt.PlanarBrauerTree, i: int, j: int) -> int:
    """Planar successor relation read straight off the cyclic orders."""
    count = 0
    for node in (bt.EXC, *tree.edges):
        order = tree.cyclic_order_at(node)
        if len(order) * tree.node_multiplicity(node) <= 1:
            continue
        if i in order and j in order and order[(order.index(j) + 1) % len(order)] == i:
            count += 1
    return count


def check_ext_adjacency() -> tuple[bool, str]:
    star = ta.ext1_grid(ta.from_tree(bt.star_tree(7, 3, 2), 7))
    for i in range(3):
        for j in range(3):
            want = 1 if i == (j + 1) % 3 else 0
            if star.rows[i].get(j, 0) != want:
                return False, f"star ext1({i},{j}) != {want}"
    for tree in random_trees():
        alg = ta.from_tree(tree, 5)
        grid = ta.ext1_grid(alg)
        for i in alg.vertices:
            for j in alg.vertices:
                if grid.rows[i].get(j, 0) != _expected_ext(tree, i, j):
                    return False, f"ext mismatch at ({i},{j}) on {tree.series}"
    return True, "star rule i = j+1 mod 3; 100 random trees match the embedding"


def check_rickard_family() -> tuple[bool, str]:
    for tree in line_trees():
        alg = ta.from_tree(tree, 5)
        for j in alg.vertices:
            cx = ho.rickard_complex(alg, tree, j)   # d^2 checked on build
            m = tree.branch_of(j).m
            coh = ho.cohomology(cx)
            lo, hi = tree.r, tree.r + j - m
            if set(coh) - ({lo, hi} if j > m else {lo}):
                return False, f"stray cohomology for j={j} on {tree.series}"
            if lo not in coh or hi not in coh:
                return False, f"missing end cohomology for j={j}"
            sign = -1 if (j - m) % 2 else 1
            want = tuple(sign if k == j else 0 for k in range(tree.h0)), 1
            if ho.euler_character(tree, cx) != want:
                return False, f"euler mismatch for j={j}"
    return True, "lines h0 in 2..4, mu in 1..3: d^2 = 0, concentration, euler"


def check_tilting_suite() -> tuple[bool, str]:
    trees = line_trees() + [bt.ree_tree()]
    for tree in trees:
        field = 19 if tree.h0 == 6 else 5
        alg = ta.from_tree(tree, field)
        ho.check_tilting(alg, tree)
    # negative control: zero out a boundary of the middle complex
    tree = bt.assemble_tree(bt.line_series(3), 2, 1)
    alg = ta.from_tree(tree, 5)
    fam = [ho.rickard_complex(alg, tree, j) for j in range(3)]
    sab = ho.ProjComplex(alg, fam[1].lo, [list(t) for t in fam[1].terms],
                         [[[{}]], []])
    fam[1] = sab
    try:
        ho.check_tilting(alg, tree, fam)
        return False, "sabotaged family was not rejected"
    except ho.TiltingFailure:
        pass
    return True, f"{len(trees)} trees tilt; sabotage rejected with TiltingFailure"


def check_trimming() -> tuple[bool, str]:
    rng = random.Random(90125)
    bases = []
    for h0, mu in ((2, 1), (3, 2)):
        tree = bt.assemble_tree(bt.line_series(h0), mu, 1)
        alg = ta.from_tree(tree, 5)
        for j in alg.vertices:
            bases.append((tree, ho.rickard_complex(alg, tree, j)))
    for trial in range(200):
        tree, base = bases[trial % len(bases)]
        cx = base
        for _ in range(rng.randint(1, 2)):
            deg = rng.randint(base.lo - 1, base.hi)
            vertex = rng.choice(base.alg.vertices)
            cx = ho.pad_with_contractible(cx, deg, vertex)
        cx = ho.mix_basis(cx, rng)
        back = ho.trim(cx, base.lo, base.hi)
        # H^n vanishes where Hom^n is empty, so the nonzero degrees give
        # dim Hom_K(x, x[n]) at every shift n
        got, want = ({n: h for n, h in ho.HomComplex(x, x).all_cohomology().items() if h}
                     for x in (back, base))
        if got != want:
            return False, f"hom dims changed on trial {trial}: {got} != {want}"
    return True, "200 padded complexes trim back with identical Hom dimensions"


def top_cohomology_degree(cx: ho.ProjComplex) -> int | None:
    """The highest degree with nonzero cohomology, None for an acyclic complex."""
    return max(ho.cohomology(cx), default=None)


def check_perversity_unitriangular() -> tuple[bool, str]:
    trees = random_trees() + line_trees() + [bt.ree_tree()]
    complexes = 0
    for tree in trees:
        d = bt.decomposition_matrix(tree)
        ok, _ = bt.check_unitriangular(d)
        if not ok:
            return False, f"height ordering not unitriangular on {tree.series}"
        alg = ta.from_tree(tree, 31)
        for j in tree.edges:
            degree = tree.r + bt.height(tree, j)
            top = top_cohomology_degree(ho.rickard_complex(alg, tree, j))
            if top != degree:
                return False, (f"top cohomology of the branch complex of edge "
                               f"{j} in degree {top}, not r + height "
                               f"= {degree} on {tree.series}")
            complexes += 1
    # negative control: one more term above the top moves the top degree
    tree = bt.ree_tree()
    alg = ta.from_tree(tree, 31)
    cx = ho.rickard_complex(alg, tree, 1)
    top = top_cohomology_degree(cx)
    extra = ho.direct_sum([cx, ho.ProjComplex(alg, top + 1, [[0]])])
    if top_cohomology_degree(extra) == tree.r + bt.height(tree, 1):
        return False, "an extra term above the top degree was not detected"
    return True, (f"{len(trees)} trees unitriangular; top cohomology of all "
                  f"{complexes} branch complexes in degree r + height")


CRITERIA = [
    ("1-coxeter-tables", check_tables, 1.0),
    ("2-torus-orders", check_torus_orders, None),
    ("3-regime-validation", check_regimes, 1.0),
    ("4-hensel", check_hensel, None),
    ("5-ree-tree", check_ree_tree, None),
    ("6-star-oracle", check_star_oracle, 1.0),
    ("7-algebra-dimensions", check_algebra_dims, None),
    ("8-ext-adjacency", check_ext_adjacency, None),
    ("9-rickard-complexes", check_rickard_family, 5.0),
    ("10-tilting", check_tilting_suite, 30.0),
    ("11-trimming", check_trimming, None),
    ("12-perversity-unitriangular", check_perversity_unitriangular, None),
]


def run_one(name: str) -> CheckResult:
    """Run one criterion; a crash or an overrun time budget is a failure."""
    fn, budget = {n: (f, b) for n, f, b in CRITERIA}[name]
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a criterion crashing is a failure
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if ok and budget is not None and elapsed > budget:
        ok, detail = False, f"over time budget {budget}s: {detail}"
    return CheckResult(name, ok, detail, elapsed)


def run_all(name_filter: str | None = None) -> list[CheckResult]:
    return [run_one(name) for name, _, _ in CRITERIA
            if not name_filter or name_filter in name]
