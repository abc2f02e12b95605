"""Bounded complexes of explicit projectives over a Brauer tree algebra.

A complex stores, per degree, a formal direct sum of indecomposable
projectives (a list of quiver vertices) and one boundary matrix whose
entries are algebra elements acting by left multiplication.  Every
operation on complexes is arithmetic with such matrices and their
entries, done by the tree algebra's one product and its two inverses, of
a local unit by its series and of a unitriangular matrix by forward
substitution: the d^2 = 0 check, one forward sweep of Gaussian
elimination of contractible summands, whose Schur complements multiply
the pivot column and pivot row entries directly, and the change of basis
that hides padded ones.
Built on this: total Hom complexes, the only place where complexes become
sparse scalar matrices over F_ell, and their cohomology, read off the row
rank profile of each boundary; the cohomology of a complex, read off one
Hom complex out of a stalk of projectives; its Euler character, the signed
sum of the ends of the edges of its terms; the branch-walking complex
attached to each tree edge, each boundary an arrow read off the algebra's
(node, source) table; and the tilting verification for their direct sum
(Hom vanishing off degree zero, generation, and the degree-zero Hom grid
being the Cartan matrix of the star algebra with the same parameters).
The complexes of a branch are the top-truncations of its top complex, so
the check builds one complex per branch and one Hom complex per pair of
branches.  Such a Hom complex is a set of point masses, one per basis
map and rank-profile pair, whose 2-D prefix sums are the Hom dimensions
of every pair of members: a pass is certified from sums of the masses,
and only a failure builds the grids.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import add, itemgetter

from . import linalg
from .brauer_tree import EXC, PlanarBrauerTree, check_report_cells
from .tree_algebra import TreeAlgebra


class CohomologyOutsideRange(ValueError):
    """trim target range does not contain all the cohomology."""


class InvalidComplex(ValueError):
    """A complex or Hom complex breaks an invariant: ill-shaped boundary
    matrices, d^2 != 0, or an image that does not sit inside the kernel.
    Raised explicitly, so the checks also run under python -O."""


@dataclass(eq=False)
class ProjComplex:
    """Bounded complex of projectives; diffs[d] maps terms[d] -> terms[d+1].

    diffs[d][row][col] is an algebra element (a {Path: coeff} dict) giving
    the map from summand col of terms[d] to summand row of terms[d+1] by
    left multiplication.  A complex is checked once, when it is built, and
    never changed afterwards: every operation builds a new one.  So it
    compares and hashes by identity, and what is derived from it (the
    certificate's d^2 = 0, `homotopy_hom`'s shared Hom complex) holds for
    as long as the object lives.
    """

    alg: TreeAlgebra
    lo: int
    terms: list[list[int]]          # terms[i] lives in degree lo + i
    diffs: list[list[list[dict]]] = field(default_factory=list)

    def __post_init__(self):
        # strip trailing empty terms from copies, not the caller's lists
        self.terms, self.diffs = list(self.terms), list(self.diffs)
        while self.terms and not self.terms[-1]:
            self.terms.pop()
            if len(self.diffs) >= len(self.terms) + 1:
                self.diffs.pop()
        if not self.diffs:
            self.diffs = [self._zero_diff(i) for i in range(len(self.terms))]
        if len(self.diffs) != len(self.terms):
            raise InvalidComplex(f"{len(self.diffs)} boundary matrices for "
                                 f"{len(self.terms)} terms")
        self.check_shapes()
        self.check_d_squared()

    def _zero_diff(self, i: int) -> list[list[dict]]:
        n_src = len(self.terms[i])
        n_tgt = len(self.terms[i + 1]) if i + 1 < len(self.terms) else 0
        return [[{} for _ in range(n_src)] for _ in range(n_tgt)]

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    def term(self, degree: int) -> list[int]:
        i = degree - self.lo
        return self.terms[i] if 0 <= i < len(self.terms) else []

    def diff(self, degree: int) -> list[list[dict]]:
        i = degree - self.lo
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return []

    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.terms))

    def check_shapes(self):
        """Check every boundary matrix against the terms it joins, and
        every path in an entry against the summands the entry maps."""
        for i, mat in enumerate(self.diffs):
            d = self.lo + i
            n_tgt = len(self.terms[i + 1]) if i + 1 < len(self.terms) else 0
            if len(mat) != n_tgt:
                raise InvalidComplex(f"boundary at degree {d} has {len(mat)} "
                                     f"rows for {n_tgt} target summands")
            for row_idx, row in enumerate(mat):
                if len(row) != len(self.terms[i]):
                    raise InvalidComplex(
                        f"boundary at degree {d}, row {row_idx} has {len(row)} "
                        f"entries for {len(self.terms[i])} source summands")
                for col_idx, entry in enumerate(row):
                    # entry maps P_col -> P_row by left multiplication,
                    # so its paths run from the row vertex to the column vertex
                    for p in entry:
                        if (p.src != self.terms[i + 1][row_idx]
                                or self.alg.target(p) != self.terms[i][col_idx]):
                            raise InvalidComplex(
                                f"boundary at degree {d}, entry ({row_idx}, "
                                f"{col_idx}) holds a path {p} that does not run "
                                f"from P_{self.terms[i + 1][row_idx]} to "
                                f"P_{self.terms[i][col_idx]}")

    def check_d_squared(self):
        for i in range(len(self.terms) - 2):
            square = self.alg.mat_mul(self.diffs[i + 1], self.diffs[i])
            if any(e for row in square for e in row):
                raise InvalidComplex(f"d^2 != 0 at degree {self.lo + i}")


def direct_sum(complexes: list[ProjComplex]) -> ProjComplex:
    """The direct sum, each summand's boundary rows padded with one shared
    empty entry on the left and on the right; a summand with no boundary
    at degree d, below its lo, gives len(term(d + 1)) empty rows."""
    if not complexes:
        raise ValueError("direct sum of no complexes")
    lo = min(c.lo for c in complexes)
    terms, diffs, empty = [], [], {}
    for d in range(lo, max(c.hi for c in complexes) + 1):
        terms.append(sum((c.term(d) for c in complexes), []))
        mat, left = [], 0
        for c in complexes:
            width = len(c.term(d))
            right = len(terms[-1]) - left - width
            mat += [[empty] * left + row + [empty] * right
                    for row in c.diff(d) or [[]] * len(c.term(d + 1))]
            left += width
        diffs.append(mat)
    return ProjComplex(complexes[0].alg, lo, terms, diffs)


def rickard_complex(alg: TreeAlgebra, tree: PlanarBrauerTree, j: int) -> ProjComplex:
    """Walk the branch of S_j from the exceptional node.

    Terms P_m, P_(m+1), ..., P_j in degrees r .. r + j - m, where [m, M] is
    the branch of j; each boundary is the canonical map P_i -> P_(i+1)
    through the two-layer module S_i over S_(i+1), realized by the arrow
    at the vertex chi_i with scalar one.  d^2 = 0 holds by the mixed-node
    relation, and each boundary is nonzero over the field.
    """
    if j not in alg.vertices:
        raise KeyError(j)
    b = tree.branch_of(j)
    terms = [[i] for i in range(b.m, j + 1)]
    # the arrow at chi_i runs S_(i+1) -> S_i, a path from i+1 to i, which
    # is exactly a left-multiplication map P_i -> P_(i+1)
    diffs = [[[alg.elt(alg.arrow_at[i, i + 1])]] for i in range(b.m, j)]
    return ProjComplex(alg, tree.r, terms, diffs + [[]])


# ---------------------------------------------------------------------------
# cohomology

def cohomology(cx: ProjComplex) -> dict[int, Counter]:
    """Per-degree composition multisets of the cohomology modules.

    The multiplicity of S_v in H^d(C) is dim Hom_K(P_v, C[d]), which is 0
    unless some term of C has a path to v.  One Hom complex out of the
    stalk of those P_v answers every v: the stalk has no boundary, so
    D(f) = d o f keeps the source summand of each basis map f.  D is block
    diagonal by source summand, a row is independent of the rows above it
    exactly when it is so within its block, and the rank of the block of
    P_v is the number of profile pairs whose row maps out of P_v.
    """
    alg, tree = cx.alg, cx.alg.tree
    # the paths out of w end at the edges around its two ends
    stalk = sorted({v for term in cx.terms for w in term
                    for node in tree.ends(w) for v in tree.cyclic_order_at(node)})
    hc = HomComplex(ProjComplex(alg, 0, [stalk]), cx)
    summand = itemgetter(2)
    out: dict[int, Counter] = {}
    for n, b in hc.basis.items():
        dims = Counter(map(summand, b))
        rank_out = Counter(summand(b[row]) for row, _ in hc.profile(n))
        rank_in = Counter(summand(hc.basis[n - 1][row]) for row, _ in hc.profile(n - 1))
        for s in sorted(dims):
            if h := _cohomology_dim(n, dims[s], rank_out[s], rank_in[s]):
                out.setdefault(n, Counter())[stalk[s]] = h
    return out


def euler_character(tree: PlanarBrauerTree,
                    cx: ProjComplex) -> tuple[tuple[int, ...], int]:
    """Alternating sum of the term characters, with signs relative to degree
    r, as (chi_0 .. chi_(h0-1) coefficients, exceptional coefficient).

    [P_v] is the sum of the two ends of the edge S_v: chi_k for the vertex
    k, the exceptional character for the exceptional node."""
    total = [0] * (tree.h0 + 1)     # the exceptional coefficient comes last
    for d in cx.degrees():
        sign = -1 if (d - tree.r) % 2 else 1
        for v in cx.term(d):
            for end in tree.ends(v):
                total[-1 if end == EXC else end] += sign
    return tuple(total[:-1]), total[-1]


# ---------------------------------------------------------------------------
# trimming by Gaussian elimination on invertible boundary entries

def _unit_at(mat: list[list[dict]], src: list[int],
             alg: TreeAlgebra) -> tuple[int, int] | None:
    """(row, column) of the first entry of a boundary matrix, in row-major
    order, with an invertible trivial-path coefficient; check_shapes lets
    an identity path sit only where the row and column vertices agree."""
    ids = [alg.unit_path(v) for v in src]
    ell = alg.ell
    for r, row in enumerate(mat):
        for c, entry in enumerate(row):
            if entry.get(ids[c], 0) % ell:
                return r, c
    return None


def trim(cx: ProjComplex, m: int, M: int) -> ProjComplex:
    """Homotopy-equivalent minimal complex, supported inside [m, M].

    Splits off contractible 0 -> P == P -> 0 summands by Gaussian
    elimination on boundary entries that are invertible in the algebra,
    until none remain.  A Brauer tree algebra is self-injective, so a
    boundary that is injective out of the lowest term, or onto the highest,
    would split, and a split map between projectives has an invertible
    entry.  The terms of the minimal complex therefore run from its lowest
    to its highest cohomology degree, though a degree between them may
    carry a term and no cohomology.  So the cohomology lies inside [m, M]
    exactly when those terms do; CohomologyOutsideRange is raised otherwise.

    One forward sweep over one working copy splits off the unit entries of
    boundary i in row-major order until none is left.  Each elimination
    replaces boundary i by its Schur complement and deletes, in place, a
    row of boundary i - 1 and a column of boundary i + 1; that creates no
    unit entry, so no earlier boundary is visited again, and the order is
    that of a rescan from the lowest degree after every pair.  The result
    is built, and checked, once.
    """
    alg = cx.alg
    terms = [list(t) for t in cx.terms]
    diffs = [[list(row) for row in mat] for mat in cx.diffs]
    for i, mat in enumerate(diffs):
        while (hit := _unit_at(mat, terms[i], alg)) is not None:
            r, c = hit
            rows = [k for k in range(len(mat)) if k != r]
            cols = [k for k in range(len(terms[i])) if k != c]
            # Schur complement d - d[:, c] u^-1 d[r, :] on the remaining
            # block, one product per pair of nonzero pivot column and row
            # entries
            neg_uinv = alg.elt_scale(alg.local_inverse(mat[r][c], terms[i][c]), -1)
            pivot_row = [alg.elt_mul(neg_uinv, mat[r][cc]) if mat[r][cc] else {}
                         for cc in cols]
            block = []
            for rr in rows:
                x = mat[rr][c]
                block.append([alg.elt_add(mat[rr][cc], alg.elt_mul(x, y)) if x and y
                              else mat[rr][cc] for cc, y in zip(cols, pivot_row)])
            mat[:] = block
            # incoming boundary: drop the row of the removed source summand;
            # outgoing boundary: drop the column of the removed target summand
            if i:
                del diffs[i - 1][c]
            if i + 1 < len(diffs):
                for row in diffs[i + 1]:
                    del row[r]
            del terms[i][c], terms[i + 1][r]
    lo = cx.lo
    while terms and not terms[0]:
        del terms[0], diffs[0]
        lo += 1
    out = ProjComplex(alg, lo, terms, diffs)
    occupied = [d for d in out.degrees() if out.term(d)]
    if any(d < m or d > M for d in occupied):
        raise CohomologyOutsideRange(
            f"minimal complex has terms in degrees {occupied}, "
            f"so cohomology outside [{m}, {M}]")
    return out


# ---------------------------------------------------------------------------
# Hom complexes and homotopy-category Hom groups

def _cohomology_dim(n: int, dim: int, rank_out: int, rank_in: int) -> int:
    """dim H^n of a Hom complex from dim Hom^n and the ranks of D out of
    and into degree n; a negative value means D o D != 0."""
    h = dim - rank_out - rank_in
    if h < 0:
        raise InvalidComplex(f"Hom complex image does not sit inside the "
                             f"kernel in degree {n}")
    return h


class HomComplex:
    """Total Hom complex of two bounded complexes of projectives.

    Hom^n = sum over i of Hom(C1^i, C2^(i+n)); the differential is
    D(f) = d2 o f - (-1)^n f o d1.  Since all terms are projective, the
    cohomology of this complex computes Hom in the homotopy category.

    basis[n] lists the basis maps f = (i, t, s, p) of Hom^n in C1-degree
    order i, which within one n is also C2-degree order i + n.  So the
    Hom complex of the top-truncations of C1 and C2 (their terms up to
    some degree, the lower boundaries unchanged) is a prefix of every
    basis[n], its D the projection of this D, and one row rank profile
    of each D answers every pair of truncations (`hom_masses`).

    The basis is built from the smaller side of each summand tv of C2:
    the vertices of C1, each with the paths from tv to it
    (`TreeAlgebra.paths_between`), when C1 has fewer distinct vertices
    than tv has basis paths, and otherwise the paths out of tv, each
    matched to the places of its target in C1.  Only the order of the
    maps inside one summand (j, t) depends on the side walked.
    """

    def __init__(self, cx1: ProjComplex, cx2: ProjComplex):
        if cx1.alg is not cx2.alg:
            raise ValueError("Hom complex of complexes over different algebras")
        self.alg = alg = cx1.alg
        self.cx1, self.cx2 = cx1, cx2
        self.lo = cx2.lo - cx1.hi
        self.hi = cx2.hi - cx1.lo
        # where each vertex sits in C1: vertex -> [(degree, summand)]
        at: dict[int, list[tuple[int, int]]] = {}
        for i, term in enumerate(cx1.terms, cx1.lo):
            for s, v in enumerate(term):
                at.setdefault(v, []).append((i, s))
        # Hom(P_v, P_tv) for v in C1^i and tv in C2^j is spanned by the
        # paths from tv to v and lands in degree j - i; j ascends, so each
        # basis[n] ascends in i = j - n
        self.basis: dict[int, list] = {n: [] for n in range(self.lo, self.hi + 1)}
        basis, out_lists, between = self.basis, alg.out_lists(), alg.paths_between
        for j, term in enumerate(cx2.terms, cx2.lo):
            for t, tv in enumerate(term):
                if len(at) < len(out := out_lists[tv]):
                    for v, places in at.items():
                        if paths := between(tv, v):
                            for i, s in places:
                                basis[j - i] += [(i, t, s, p) for p in paths]
                else:
                    for v, p in out:
                        for i, s in at.get(v, ()):
                            basis[j - i].append((i, t, s, p))
        self._profiles: dict[int, list[tuple[int, int]]] = {}

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, []))

    def matrix(self, n: int) -> linalg.SparseMatrix:
        """Scalar matrix of D: Hom^n -> Hom^(n+1) over the integers, one
        row per basis map f of Hom^n holding D(f) over the basis of
        Hom^(n+1); the elimination kernel reduces its own copy mod ell.

        f = (left multiplication by p) is pushed through the boundary
        entries in its column of d2 and its row of d1, one path
        composition per term of each nonzero entry."""
        compose = self.alg.compose
        d1s, lo1 = self.cx1.diffs, self.cx1.lo
        d2s, lo2 = self.cx2.diffs, self.cx2.lo
        src = self.basis.get(n, [])
        tgt = self.basis.get(n + 1, [])
        pos = {b: k for k, b in enumerate(tgt)}
        rows: list[dict[int, int]] = []
        sign = -1 if n % 2 else 1
        for i, t, s, p in src:
            row: dict[int, int] = {}
            # d2 o f: down column t of C2's boundary out of degree i + n
            for r, d2_row in enumerate(d2s[i + n - lo2]):
                for q, c in d2_row[t].items():
                    qp = compose(q, p)
                    if qp is not None:
                        k = pos[i, r, s, qp]
                        row[k] = row.get(k, 0) + c
            # -(-1)^n f o d1: along row s of C1's boundary into degree i
            for c_idx, entry in enumerate(d1s[i - 1 - lo1][s] if i > lo1 else ()):
                for q, c in entry.items():
                    pq = compose(p, q)
                    if pq is not None:
                        k = pos[i - 1, t, c_idx, pq]
                        row[k] = row.get(k, 0) - sign * c
            rows.append(row)
        return linalg.SparseMatrix((len(src), len(tgt)), rows)

    def profile(self, n: int) -> list[tuple[int, int]]:
        """Row rank profile of D: Hom^n -> Hom^(n+1) over F_ell, computed
        once per degree; an empty end gives [] without building the
        matrix.  Its length is the rank of D."""
        if n not in self._profiles:
            self._profiles[n] = (
                linalg.rref_mod_prime(self.matrix(n), self.alg.ell)
                if self.dim(n) and self.dim(n + 1) else [])
        return self._profiles[n]

    def cohomology_dim(self, n: int) -> int:
        if not self.dim(n):
            return 0
        return _cohomology_dim(n, self.dim(n), len(self.profile(n)),
                               len(self.profile(n - 1)))

    def all_cohomology(self) -> dict[int, int]:
        """H^n for every degree where Hom^n is not empty (elsewhere it is 0)."""
        return {n: self.cohomology_dim(n) for n, b in self.basis.items() if b}


def homotopy_hom(cx1: ProjComplex, cx2: ProjComplex, i: int) -> int:
    """dim Hom_K(cx1, cx2[i]) = dim H^i of the Hom complex.

    Calls in a row on the same two complex objects share one Hom complex,
    its basis and each degree's rank profile, so asking every shift costs
    one Hom complex.  The share is keyed by identity and holds the pair,
    so an id is never reused while it stands; it is sound because a
    complex is never changed after it is built (`ProjComplex`)."""
    return _shared_hom_complex(cx1, cx2).cohomology_dim(i)


@lru_cache(maxsize=1)
def _shared_hom_complex(cx1: ProjComplex, cx2: ProjComplex) -> HomComplex:
    return HomComplex(cx1, cx2)


# ---------------------------------------------------------------------------
# tilting verification

def star_algebra_dimension(h0: int, mu: int) -> int:
    """Dimension h0*(h0*mu + 1) of the star algebra with these parameters."""
    return h0 * (h0 * mu + 1)


def star_cartan(size: int, mu: int) -> list[list[int]]:
    """mu + delta_ab: dim Hom(P_a, P_b) in the star algebra with exceptional
    multiplicity mu."""
    return [[mu + (a == b) for b in range(size)] for a in range(size)]


class TiltingFailure(AssertionError):
    """The candidate family is not a tilting complex.  Carries what the
    check measured: whether every projective shows up among the terms,
    the End grid dim Hom_K(C_a, C_b) over the places a, b of the family,
    (j, j', n, dim) wherever Hom^n(C_j, C_j') is not empty, and the
    multiplicity mu and dimension of the star algebra it was held to."""

    def __init__(self, generation_ok: bool, end_grid: list[list[int]],
                 hom_dims: list[tuple[int, int, int, int]], mu: int,
                 expected_end_dim: int):
        self.generation_ok = generation_ok
        self.end_grid = end_grid
        self.hom_dims = hom_dims
        self.mu = mu
        self.expected_end_dim = expected_end_dim
        super().__init__(self.summary())

    @property
    def expected_end_grid(self) -> list[list[int]]:
        return star_cartan(len(self.end_grid), self.mu)

    @property
    def end_dim(self) -> int:
        return sum(map(sum, self.end_grid))

    def summary(self) -> str:
        """The first failure of each kind."""
        parts = []
        for j, jp, i, d in self.hom_dims:
            if i and d:
                parts.append(f"Hom(C_{j}, C_{jp}[{i}]) has dimension {d} != 0")
                break
        if not self.generation_ok:
            parts.append("some projective is missing from the terms")
        bad = [(a, b, d, want) for a, (row, want_row)
               in enumerate(zip(self.end_grid, self.expected_end_grid))
               for b, (d, want) in enumerate(zip(row, want_row)) if d != want]
        if bad:
            a, b, d, want = bad[0]
            parts.append(f"Hom(C_{a}, C_{b}) has dimension {d} != {want} of "
                         f"the star algebra")
        if self.end_dim != self.expected_end_dim:
            parts.append(f"End dimension {self.end_dim} != star dimension "
                         f"{self.expected_end_dim}")
        return "; ".join(parts) or "tilting verification failed"


# point masses on the grid of member pairs of two tops, (A, B) -> weight,
# and such cells per degree n
Cells = dict[tuple[int, int], int]
Masses = dict[int, Cells]


def tilting_runs(alg: TreeAlgebra, tree: PlanarBrauerTree,
                 complexes: list[ProjComplex] | None = None
                 ) -> list[tuple[ProjComplex, list[tuple[int, int]]]]:
    """The family to verify as (top, members) runs: each member a (label,
    top degree) pair, in ascending top degree, standing for the top cut to
    its terms of degree <= that degree.  C_j of a branch [m, M] is its top
    C_M so cut at r + j - m; a supplied complex is its own top."""
    if complexes is None:
        return [(rickard_complex(alg, tree, b.M),
                 [(j, tree.r + j - b.m) for j in range(b.m, b.M + 1)])
                for b in tree.series.branches]
    return [(cx, [(k, cx.hi)]) for k, cx in enumerate(complexes)]


def hom_masses(top1: ProjComplex, members1: list[tuple[int, int]],
               top2: ProjComplex, members2: list[tuple[int, int]]
               ) -> tuple[Masses, Masses]:
    """The Hom complex of two tops as point masses on the grid of member
    pairs (A, B), A and B places in members1 and members2: (dims, ranks).

    alpha(i) is the first member of top1 of top degree >= i, beta(j) the
    same in top2.  basis[n] ascends in C1-degree i and C2-degree j = i + n,
    so the Hom complex of members A and B holds the prefix of it with
    A >= alpha(i) and B >= beta(j): dims[n] has one mass per basis map, at
    (alpha(i), beta(j)).  Its D is this D projected onto the prefix of
    basis[n + 1]; a row beyond the C2-degree of B projects to zero, and a
    row meets no target of higher C1-degree, so its rank is the number of
    profile pairs (r, c) of D_n inside both prefixes: ranks[n] has one mass
    per pair, at (alpha(i_r), beta(j_c)).  dim H^n(A, B) is the sum of
    dims[n] - ranks[n] - ranks[n - 1] over the cells <= (A, B).
    """
    hc = HomComplex(top1, top2)
    tops1, tops2 = [h for _, h in members1], [h for _, h in members2]
    alpha = [bisect_left(tops1, i) for i in top1.degrees()]
    beta = [bisect_left(tops2, j) for j in top2.degrees()]
    lo1, lo2 = top1.lo, top2.lo
    dims: Masses = {}
    ranks: Masses = {}
    for n, b in hc.basis.items():
        if not b:
            continue
        cells = dims[n] = {}
        for f in b:
            cell = alpha[f[0] - lo1], beta[f[0] + n - lo2]
            cells[cell] = cells.get(cell, 0) + 1
        if up := hc.basis.get(n + 1):
            cells = ranks[n] = {}
            for r, c in hc.profile(n):
                cell = alpha[b[r][0] - lo1], beta[up[c][0] + n + 1 - lo2]
                cells[cell] = cells.get(cell, 0) + 1
    return dims, ranks


def _star_masses(size: int, mu: int, within: bool) -> Cells:
    """The second difference of mu + delta_ab on a size x size grid: the
    degree-zero masses of the Hom complex of a run's top with itself
    (within), or of the tops of two runs."""
    if not within:
        return {(0, 0): mu}
    out = {(0, 0): mu + 1}
    for a in range(1, size):
        out[a, a] = 2
        out[a - 1, a] = out[a, a - 1] = -1
    return out


def _certified(dims: Masses, ranks: Masses,
               size1: int, size2: int, expected: Cells) -> bool:
    """Whether every H^n(A, B) off degree zero vanishes and the degree-zero
    masses are `expected`, in O(masses).  A mass at (a, b) counts in the
    (size1 - a)(size2 - b) pairs (A, B) >= (a, b); weighted by that, the
    masses off degree zero (a profile pair of D_n in H^n and H^(n + 1))
    sum to the sum of all those H^n(A, B).  Each is a dimension, as every
    complex is checked for d^2 = 0 when it is built, so the sum is 0
    exactly when each is."""
    def weighed(cells: Cells) -> int:
        return sum(w * (size1 - a) * (size2 - b) for (a, b), w in cells.items())

    if (sum(weighed(cells) for n, cells in dims.items() if n)
            != sum(weighed(cells) * ((n != 0) + (n != -1))
                   for n, cells in ranks.items())):
        return False
    zero = dict(dims.get(0, {}))
    for n in (0, -1):
        for cell, w in ranks.get(n, {}).items():
            zero[cell] = zero.get(cell, 0) - w
    return {cell: w for cell, w in zero.items() if w} == expected


def _prefix_sums(cells: Cells, rows: int, cols: int) -> list[list[int]]:
    """The sum of the masses over the cells <= (a, b), for each (a, b)."""
    grid = [[0] * cols for _ in range(rows)]
    for (a, b), w in cells.items():
        grid[a][b] += w
    out, above = [], [0] * cols
    for row in grid:
        above = list(map(add, above, accumulate(row)))
        out.append(above)
    return out


def end_grid_read_out(runs: list[tuple[ProjComplex, list[tuple[int, int]]]]
                      ) -> tuple[list[list[int]], list[tuple[int, int, int, int]]]:
    """The End grid dim Hom_K(C_a, C_b) and the sorted (j, j', n, dim H^n)
    wherever Hom^n(C_j, C_j') is not empty, as 2-D prefix sums of the
    masses; InvalidComplex for a negative dimension.  Only a failed check
    builds these, and refuses a family of size s when the s x s grid would
    have more than MAX_REPORT_CELLS cells."""
    size = sum(len(members) for _, members in runs)
    check_report_cells("End grid of the tilting check", size ** 2)
    grid = [[0] * size for _ in range(size)]
    hom_dims = []
    for top1, members1 in runs:
        for top2, members2 in runs:
            dims, ranks = hom_masses(top1, members1, top2, members2)
            shape = len(members1), len(members2)
            sums = [(n, _prefix_sums(cells, *shape),
                     _prefix_sums(ranks.get(n, {}), *shape),
                     _prefix_sums(ranks.get(n - 1, {}), *shape))
                    for n, cells in dims.items()]
            for x, (a, _) in enumerate(members1):
                for y, (b, _) in enumerate(members2):
                    for n, dim, rank_out, rank_in in sums:
                        if d := dim[x][y]:
                            h = _cohomology_dim(n, d, rank_out[x][y], rank_in[x][y])
                            hom_dims.append((a, b, n, h))
                            if not n:
                                grid[a][b] = h
    return grid, sorted(hom_dims)


def check_tilting(alg: TreeAlgebra, tree: PlanarBrauerTree,
                  complexes: list[ProjComplex] | None = None) -> int:
    """Verify that the direct sum of the branch-walking complexes tilts.

    Checks Hom vanishing in all nonzero shifts for every pair, that every
    indecomposable projective shows up among the terms, and that the
    degree-zero Hom grid dim Hom_K(C_a, C_b) is the Cartan matrix
    mu + delta_ab of the star algebra with the same h0 and multiplicity,
    so that the endomorphism ring has the star algebra's dimension pair by
    pair.  Only the top of each branch is built, and the masses of one Hom
    complex between two tops certify every pair of their members at once,
    resting on d^2 = 0 of the tops (`_certified`); a pass builds no grid
    and returns the End dimension, the star algebra's h0(h0 mu + 1).
    Raises TiltingFailure on any failure, with the End grid and every
    Hom^n dimension; when complexes are supplied they are verified instead
    of the canonical family (the negative-control hook).
    """
    runs = tilting_runs(alg, tree, complexes)
    size = sum(len(members) for _, members in runs)
    covered = {v for top, _ in runs for term in top.terms for v in term}
    generation_ok = covered == set(alg.vertices)
    mu = tree.multiplicity
    expected = star_algebra_dimension(tree.h0, mu)
    # a certified End grid is mu + delta_ab, of dimension size(size mu + 1)
    if (generation_ok and star_algebra_dimension(size, mu) == expected
            and all(_certified(*hom_masses(top1, members1, top2, members2),
                               len(members1), len(members2),
                               _star_masses(len(members1), mu, x == y))
                    for x, (top1, members1) in enumerate(runs)
                    for y, (top2, members2) in enumerate(runs))):
        return expected
    raise TiltingFailure(generation_ok, *end_grid_read_out(runs), mu, expected)


# ---------------------------------------------------------------------------
# helpers for randomized tests: padding and mixing

def contractible_complex(alg: TreeAlgebra, degree: int, vertex: int) -> ProjComplex:
    """0 -> P_vertex == P_vertex -> 0 in degrees degree, degree + 1."""
    ident = alg.unit(vertex)
    return ProjComplex(alg, degree, [[vertex], [vertex]], [[[ident]], []])


def pad_with_contractible(cx: ProjComplex, degree: int, vertex: int) -> ProjComplex:
    return direct_sum([cx, contractible_complex(cx.alg, degree, vertex)])


def mix_basis(cx: ProjComplex, rng) -> ProjComplex:
    """Conjugate by unitriangular automorphisms of each term.

    The automorphism adds rng-chosen multiples of arbitrary Hom elements
    below the diagonal, so padded summands stop being visible as literal
    identity blocks while the homotopy type is unchanged.
    """
    alg = cx.alg
    out_lists = alg.out_lists()
    lows, invs = [], []
    for vs in cx.terms:
        n = len(vs)
        low = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                # a random Hom(P_{vs[j]}, P_{vs[i]}) element: paths vs[i]->vs[j]
                opts = [p for v, p in out_lists[vs[i]] if v == vs[j]]
                if opts and rng.random() < 0.7:
                    p = opts[rng.randrange(len(opts))]
                    low[i][j] = alg.elt(p, rng.randrange(1, alg.ell))
        # phi = 1 + low with low strictly block-triangular
        lows.append(low)
        invs.append(alg.unipotent_inverse(vs, low))
    # phi d phi^-1 = m + low m with m = d phi^-1; the boundary out of the
    # top term is the empty matrix
    diffs = []
    for i, mat in enumerate(cx.diffs[:-1]):
        m = alg.mat_mul(mat, invs[i])
        diffs.append([[alg.elt_add(x, y) if y else x for x, y in zip(m_row, lm_row)]
                      for m_row, lm_row in zip(m, alg.mat_mul(lows[i + 1], m))])
    return ProjComplex(alg, cx.lo, cx.terms, diffs + cx.diffs[-1:])
