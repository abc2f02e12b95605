"""Planar-embedded Brauer trees for principal blocks in the Coxeter regime.

A tree here has one exceptional node of multiplicity mu and a line branch

    exc --- chi_m --- chi_(m+1) --- ... --- chi_M

for every interval [m, M] in the series data; the intervals partition
{0..h0-1}.  Edge S_j joins chi_j to chi_(j-1), or to the exceptional node
when j starts its branch.  The anticlockwise cyclic order of the edges at
the exceptional node follows the congruence successor rule: after the edge
of the branch [m, M] comes the edge of the branch starting at M+1 mod h0.

Star trees (h0 singleton branches, the block of a metacyclic group D x| E)
are the degenerate special case and the target of the derived equivalence
checked in `homotopy`.  `MetacyclicGroup` owns a star's parameters
(|D|, |E|, n): it makes every refusal and fixes the Hensel lift zeta that
numbers the edges eta_j, and a star tree carries its group, so the tree,
its JSON and the oracle in `oracle` share one validated datum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from math import gcd

from .ell_arith import EllContext, TruncatedPadic, hensel_root, validate_regime
from .linalg import SparseMatrix
from .numtheory import has_order, prime_power_split, valuation
from .root_data import coxeter_datum, parse_type

EXC = "exc"

# The most edges a tree may have, refused before any per-edge work: every
# per-edge table, the algebra and the complexes grow with h0 or faster.
MAX_EDGES = 2 ** 16
# The largest exceptional multiplicity mu, refused as early: the
# decomposition matrix has mu exceptional rows and the algebra mu paths per
# edge around the exceptional node.
MAX_MULTIPLICITY = 2 ** 16
# The most conjugacy classes, mu + |E|, of a group whose character table
# the oracle builds: the table is dense, so it grows with the square.
MAX_CLASSES = 2 ** 10
# The most cells of a report with one or more cells per pair of edges,
# refused from (h0, mu) or (|E|, mu) before any of it is built.  What it
# limits differs by command: `decmatrix`, `algebra` and `star` hold only
# the nonzero cells, so for them it limits the bytes printed, about 9 a
# cell; `rickard --check-tilting` builds its h0 x h0 End grid, with the Hom
# dimensions of every pair, only when the check fails.
MAX_REPORT_CELLS = 2 ** 26


def check_report_cells(report: str, cells: int):
    """Refuse a dense report of more than MAX_REPORT_CELLS cells."""
    if cells > MAX_REPORT_CELLS:
        raise ValueError(f"the {report} would have {cells} cells, more than "
                         f"the {MAX_REPORT_CELLS} supported")


class InvalidSeries(ValueError):
    """Branch intervals fail to partition {0..h0-1}."""


class NonIntegral(ArithmeticError):
    """(ell^v - 1)/h0 is not an integer; the regime is invalid."""


class BadAction(ValueError):
    """(|D|, |E|, n) are not the parameters of a metacyclic group D x| E."""


class InvalidDecomposition(ValueError):
    """A projective's column does not have exactly two ordinary constituents."""


class ParseError(ValueError):
    """Malformed tree JSON; `location` points at the offending field."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class Branch:
    zeta: int
    m: int
    M: int


@dataclass(frozen=True)
class SeriesDatum:
    """Consecutive-integer intervals [m, M] per root-of-unity tag."""

    h0: int
    branches: tuple[Branch, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches",
                           tuple(sorted(self.branches, key=lambda b: b.m)))
        self.validate()

    def validate(self):
        if self.h0 < 1:
            raise InvalidSeries("h0 must be positive")
        if self.h0 > MAX_EDGES:
            raise InvalidSeries(f"h0 = {self.h0} is more than the {MAX_EDGES} "
                                f"edges supported")
        if not self.branches:
            raise InvalidSeries("series has no branches")
        for b in self.branches:
            if not (0 <= b.m <= b.M < self.h0):
                raise InvalidSeries(f"branch [{b.m}, {b.M}] outside 0..{self.h0 - 1}")
        # sorted by m, the intervals partition 0..h0-1 exactly when each
        # starts where the one before it ends and the last ends at h0 - 1
        ends = [b.M + 1 for b in self.branches]
        if [b.m for b in self.branches] != [0, *ends[:-1]] or ends[-1] != self.h0:
            raise InvalidSeries("intervals do not partition {0..h0-1}")


@dataclass(frozen=True)
class MetacyclicGroup:
    """D x| E with D cyclic of order ell^alpha and E cyclic of order m prime
    to ell, whose generator acts on D by y -> y^n; n has order m already
    mod ell, so the action is faithful.  n is stored mod |D|."""

    d_order: int
    e_order: int
    n: int
    ell: int = field(init=False)
    alpha: int = field(init=False)

    def __post_init__(self):
        d, e, n = self.d_order, self.e_order, self.n
        split = prime_power_split(d)
        if split is None:
            raise BadAction(f"|D| = {d} is not a prime power")
        ell, alpha = split
        if e < 1:
            raise BadAction(f"|E| = {e} must be positive")
        if gcd(e, ell) != 1:
            raise BadAction("|E| must be prime to ell")
        if pow(n, e, d) != 1:
            raise BadAction(f"n={n} does not have order dividing {e} mod {d}")
        # before has_order, which factorizes |E| by trial division
        if (ell - 1) % e:
            raise BadAction(f"{e} does not divide ell - 1 = {ell - 1}")
        if e > MAX_EDGES:
            raise BadAction(f"|E| = {e} is more than the {MAX_EDGES} edges "
                            f"supported")
        if (d - 1) // e > MAX_MULTIPLICITY:
            raise BadAction(f"multiplicity (|D| - 1)/|E| = {(d - 1) // e} is more "
                            f"than the {MAX_MULTIPLICITY} supported")
        if not has_order(n % ell, e, ell):
            raise BadAction(f"n={n} does not have order {e} mod {ell}")
        object.__setattr__(self, "n", n % d)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "alpha", alpha)

    @property
    def order(self) -> int:
        return self.d_order * self.e_order

    def zeta_lift(self) -> TruncatedPadic:
        """The root of unity of order |E| congruent to n, mod ell^(alpha+1)."""
        return hensel_root(TruncatedPadic(1, self.ell, self.alpha + 1),
                           self.e_order, self.n % self.ell)


@dataclass(frozen=True)
class PlanarBrauerTree:
    """The branches of `series` glued at the exceptional node.

    The series is the only stored shape: every edge end, cyclic order and
    height is read off the branch of an edge index in O(1).  `labels` and
    `annotations` hold, sorted by vertex, only the (vertex, value) pairs
    that were given.
    """

    h0: int
    r: int
    multiplicity: int
    series: SeriesDatum
    labels: tuple[tuple[int, str], ...] = ()
    annotations: tuple[tuple[int, tuple[int, int]], ...] = ()
    star: MetacyclicGroup | None = None

    @cached_property
    def _place(self) -> dict[int, int]:
        """Edge (or vertex) index j -> place in `series.branches` of the
        branch [m, M] holding j, which is also the place of S_m in the
        cyclic order at the exceptional node."""
        return {j: k for k, b in enumerate(self.series.branches)
                for j in range(b.m, b.M + 1)}

    def branch_of(self, j: int) -> Branch:
        """The branch [m, M] holding edge j; KeyError for an unknown j."""
        return self.series.branches[self._place[j]]

    @property
    def edges(self) -> range:
        """The edge indices, which are also the vertex indices."""
        return range(self.h0)

    def ends(self, j: int) -> tuple[object, int]:
        """(EXC, j) when edge j starts its branch, else (j - 1, j);
        KeyError for an unknown j."""
        return (EXC, j) if j == self.branch_of(j).m else (j - 1, j)

    @cached_property
    def _exc_order(self) -> tuple[int, ...]:
        # the branch starts in increasing order: the successor rule
        # M + 1 mod h0 visits them so, as the branches partition 0..h0-1
        return tuple(b.m for b in self.series.branches)

    def cyclic_order_at(self, node) -> tuple[int, ...]:
        """The anticlockwise order at node: the branch starts at the
        exceptional node, (S_v, S_v+1) at an inner vertex and S_M alone at
        the last vertex of a branch; KeyError for an unknown node."""
        if node == EXC:
            return self._exc_order
        last = self.branch_of(node).M
        return (node, node + 1) if node < last else (node,)

    def node_multiplicity(self, node) -> int:
        return self.multiplicity if node == EXC else 1


def exceptional_multiplicity(ctx: EllContext) -> int:
    """(ell-part of |T_c| minus 1) / h0; raises NonIntegral when it is not
    an integer, which signals an invalid regime."""
    v = valuation(ctx.torus_value, ctx.ell)
    num = ctx.ell ** v - 1
    if num % ctx.h0:
        raise NonIntegral(f"({ctx.ell}^{v} - 1)/{ctx.h0} is not integral")
    return num // ctx.h0


def assemble_tree(series: SeriesDatum, mu: int, r: int,
                  labels: dict[int, str] | None = None,
                  annotations: dict[int, tuple[int, int]] | None = None,
                  star: MetacyclicGroup | None = None) -> PlanarBrauerTree:
    """Glue the line branches of a series at the exceptional node.

    The anticlockwise successor of the exceptional edge of a branch [m, M]
    is the exceptional edge of the branch starting at M+1 mod h0.
    """
    if mu < 1:
        raise InvalidSeries("multiplicity must be >= 1")
    if mu > MAX_MULTIPLICITY:
        raise InvalidSeries(f"multiplicity = {mu} is more than the "
                            f"{MAX_MULTIPLICITY} supported")
    return PlanarBrauerTree(h0=series.h0, r=r, multiplicity=mu, series=series,
                            labels=tuple(sorted((labels or {}).items())),
                            annotations=tuple(sorted((annotations or {}).items())),
                            star=star)


def principal_block_tree(ctx: EllContext, series: SeriesDatum,
                         labels: dict[int, str] | None = None) -> PlanarBrauerTree:
    """The tree of the principal block for a validated regime."""
    if series.h0 != ctx.h0:
        raise InvalidSeries(f"series h0={series.h0} but context h0={ctx.h0}")
    return assemble_tree(series, exceptional_multiplicity(ctx), ctx.datum.r,
                         labels=labels)


def star_tree(d_order: int, e_order: int, n: int) -> PlanarBrauerTree:
    """Star tree of the block of D x| E with cyclic D of order ell^alpha.

    Edges are numbered by the linear characters eta_j pinned by the Hensel
    lift zeta of n (eta_j sends the generator of E to zeta^j); the
    anticlockwise successor of edge j is edge j+1 mod e_order.  BadAction
    for parameters that are not those of such a group.
    """
    group = MetacyclicGroup(d_order, e_order, n)
    series, mu = _star_shape(group)
    labels = {j: f"eta{j}" for j in range(e_order)}
    return assemble_tree(series, mu, 0, labels=labels, star=group)


def _star_shape(g: MetacyclicGroup) -> tuple[SeriesDatum, int]:
    """The series and exceptional multiplicity of the star tree of g."""
    series = SeriesDatum(h0=g.e_order,
                         branches=tuple(Branch(j, j, j) for j in range(g.e_order)))
    return series, (g.d_order - 1) // g.e_order


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class DecompositionMatrix:
    """Rows: ordinary characters (chi_j ascending, then mu exceptional
    copies); columns: edges S_j ascending.  Entries count constituents.
    The matrix stores its nonzero entries only, and its mu exceptional rows
    are one row object."""

    row_labels: tuple[tuple[str, int], ...]
    col_edges: tuple[int, ...]
    matrix: SparseMatrix
    heights: tuple[int, ...]              # height of each column edge


def decomposition_matrix(tree: PlanarBrauerTree) -> DecompositionMatrix:
    """The incidence matrix of characters and edges, read off the two ends
    of each edge: O(h0 + mu)."""
    # edges, characters and their indices are all 0..h0-1
    cols = tuple(tree.edges)
    chi_rows = [("chi", j) for j in cols]
    exc_rows = [("exc", t) for t in range(tree.multiplicity)]
    rows: list[dict[int, int]] = [{} for _ in cols]
    exc_row: dict[int, int] = {}
    for j in cols:
        for end in tree.ends(j):
            (exc_row if end == EXC else rows[end])[j] = 1
    rows += [exc_row] * tree.multiplicity
    heights = tuple(height(tree, j) for j in cols)
    # the mu exceptional rows are one row repeated, counted once
    totals = [0] * len(cols)
    for row in rows[:len(chi_rows) + 1]:
        for c, x in row.items():
            totals[c] += x
    for j, total in zip(cols, totals):
        if total != 2:
            raise InvalidDecomposition(f"projective P_{j} has {total} ordinary "
                                       f"constituents, not two")
    return DecompositionMatrix(tuple(chi_rows + exc_rows), cols,
                               SparseMatrix((len(rows), len(cols)), rows), heights)


def cartan_matrix(d: DecompositionMatrix) -> SparseMatrix:
    """D^T D with the mu exceptional rows each counted.  A run of one row
    object repeated, as the exceptional rows are, is multiplied once and
    weighted by its length, so each distinct row of D costs the square of
    its stored entries and the product costs O(h0 + mu) besides."""
    n = len(d.col_edges)
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for _, run in groupby(d.matrix.rows, key=id):
        row = next(run)
        copies = 1 + sum(1 for _ in run)
        for a, x in row.items():
            out_a = out[a]
            for b, y in row.items():
                out_a[b] = out_a.get(b, 0) + copies * x * y
    return SparseMatrix((n, n), out)


def height(tree: PlanarBrauerTree, j: int) -> int:
    """Minimal number of edges between the exceptional node and edge S_j:
    j - m on the branch [m, M] of j."""
    return j - tree.branch_of(j).m


def check_unitriangular(d: DecompositionMatrix):
    """Test lower unitriangularity under the height order.

    The character/edge pairs are sorted by decreasing edge height.  Returns
    (is_unitriangular, row_order); the matrix is reordered with the
    exceptional rows kept at the bottom and column S_j tracking row chi_j.
    Unitriangular means: in the row of chi_j, column S_j holds 1 and every
    column S_k with k after j in the order holds 0.  Each row costs its
    stored entries, so the check costs O(h0 + nonzeros)."""
    # chi_j is row j and S_j column j
    order = sorted(d.col_edges, key=lambda j: (-d.heights[j], j))
    place = {j: pos for pos, j in enumerate(order)}
    for pos, j in enumerate(order):
        row = d.matrix.rows[j]
        if row.get(j) != 1 or any(x and place[c] > pos for c, x in row.items()):
            return False, order
    return True, order


# ---------------------------------------------------------------------------
# serialization

def tree_to_obj(tree: PlanarBrauerTree) -> dict:
    obj = {
        "h0": tree.h0,
        "r": tree.r,
        "multiplicity": tree.multiplicity,
        "branches": [{"zeta": b.zeta, "m": b.m, "M": b.M}
                     for b in tree.series.branches],
        "cyclic_order": list(tree.cyclic_order_at(EXC)),
    }
    if tree.labels:
        obj["labels"] = {str(j): label for j, label in tree.labels}
    if tree.annotations:
        obj["annotations"] = {str(j): list(a) for j, a in tree.annotations}
    if tree.star is not None:
        obj["star"] = _star_obj(tree.star)
    return obj


def _star_obj(g: MetacyclicGroup) -> dict:
    """The `star` object of the tree JSON: the triple and its lift zeta."""
    zeta = g.zeta_lift()
    return {"d_order": g.d_order, "e_order": g.e_order, "n": g.n,
            "zeta": zeta.value, "zeta_precision": zeta.n}


def _expect(obj, key, types, loc):
    if key not in obj:
        raise ParseError(f"{loc}.{key}", "missing field")
    val = obj[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ParseError(f"{loc}.{key}", f"expected {types}")
    return val


def _vertex_items(obj, key, h0, loc):
    """The entries of the optional {vertex: value} object obj[key]; every
    key must be the decimal index of a vertex 0..h0-1."""
    val = obj.get(key)
    if val is None:
        return []
    if not isinstance(val, dict):
        raise ParseError(f"{loc}.{key}", "expected an object")
    names = {str(v) for v in range(h0)}
    for k in val:
        if k not in names:
            raise ParseError(f"{loc}.{key}.{k}",
                             f"names no vertex of a tree with h0 = {h0}")
    return val.items()


_STAR_KEYS = ("d_order", "e_order", "n", "zeta", "zeta_precision")


def _check_star(star, series: SeriesDatum, mu: int, loc: str) -> MetacyclicGroup:
    """The group of star metadata, accepted only as tree_to_obj writes it
    for a star tree and only on a tree of that star's shape."""
    if not isinstance(star, dict):
        raise ParseError(loc, "expected an object")
    if (sorted(star) != sorted(_STAR_KEYS)
            or not all(type(star[k]) is int for k in _STAR_KEYS)):
        raise ParseError(loc, f"expected integer fields {', '.join(_STAR_KEYS)}")
    if star["e_order"] != series.h0:
        raise ParseError(loc, f"e_order {star['e_order']} but the tree has "
                              f"h0 = {series.h0} edges")
    try:
        group = MetacyclicGroup(star["d_order"], star["e_order"], star["n"])
    except BadAction as exc:
        raise ParseError(loc, f"not the data of a star tree: {exc}") from exc
    want = _star_obj(group)
    if want != star:
        raise ParseError(loc, f"differs from the star tree of these parameters: "
                              f"{want}")
    if _star_shape(group) != (series, mu):
        raise ParseError(loc, "the tree does not have the shape of this star")
    return group


def obj_to_tree(obj: dict, loc: str = "$") -> PlanarBrauerTree:
    if not isinstance(obj, dict):
        raise ParseError(loc, "expected an object")
    h0 = _expect(obj, "h0", int, loc)
    r = _expect(obj, "r", int, loc)
    mu = _expect(obj, "multiplicity", int, loc)
    raw = _expect(obj, "branches", list, loc)
    if not raw:
        raise ParseError(f"{loc}.branches", "series has no branches")
    branches = []
    for i, b in enumerate(raw):
        bloc = f"{loc}.branches[{i}]"
        if not isinstance(b, dict):
            raise ParseError(bloc, "expected an object")
        branches.append(Branch(_expect(b, "zeta", int, bloc),
                               _expect(b, "m", int, bloc),
                               _expect(b, "M", int, bloc)))
    try:
        series = SeriesDatum(h0=h0, branches=tuple(branches))
    except InvalidSeries as exc:
        where = "branches" if 1 <= h0 <= MAX_EDGES else "h0"
        raise ParseError(f"{loc}.{where}", str(exc)) from exc
    labels = {}
    for k, v in _vertex_items(obj, "labels", h0, loc):
        if not isinstance(v, str) or not v:
            raise ParseError(f"{loc}.labels.{k}", "expected a nonempty string")
        labels[int(k)] = v
    annotations = {}
    for k, v in _vertex_items(obj, "annotations", h0, loc):
        if (not isinstance(v, list) or len(v) != 2
                or not all(type(x) is int for x in v)):
            raise ParseError(f"{loc}.annotations.{k}", "expected [a, A]")
        annotations[int(k)] = (v[0], v[1])
    if mu < 1:
        raise ParseError(f"{loc}.multiplicity", "must be >= 1")
    if mu > MAX_MULTIPLICITY:
        raise ParseError(f"{loc}.multiplicity",
                         f"{mu} is more than the {MAX_MULTIPLICITY} supported")
    star = obj.get("star")
    if star is not None:
        star = _check_star(star, series, mu, f"{loc}.star")
    tree = assemble_tree(series, mu, r, labels=labels, annotations=annotations,
                         star=star)
    stated = obj.get("cyclic_order")
    order = list(tree.cyclic_order_at(EXC))
    if stated is not None and not (isinstance(stated, list) and stated == order
                                   and all(type(x) is int for x in stated)):
        raise ParseError(f"{loc}.cyclic_order",
                         f"expected the list {order} given by the successor rule")
    return tree


def from_json(text: str) -> PlanarBrauerTree:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"$:offset {exc.pos}", exc.msg) from exc
    return obj_to_tree(obj)


def to_dot(tree: PlanarBrauerTree) -> str:
    """Graphviz rendering; the `order` edge attribute is the position in
    the anticlockwise cyclic order at the node written first.  Labels are
    written as DOT strings, with backslash and double quote escaped."""
    lines = ["graph brauer_tree {", "  graph [ordering=out];"]
    lines.append(f'  exc [shape=doublecircle, label="exc ({tree.multiplicity})"];')
    labels = dict(tree.labels)
    for j in tree.edges:
        label = labels.get(j) or f"chi{j}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{j} [shape=circle, label="{label}"];')
    for pos, j in enumerate(tree.cyclic_order_at(EXC)):
        lines.append(f'  exc -- v{j} [label="S{j}", order={pos}];')
    for j in tree.edges:
        a = tree.ends(j)[0]
        if a != EXC:
            # an edge off the exceptional node joins chi_(j-1) and chi_j
            order = tree.cyclic_order_at(a).index(j)
            lines.append(f'  v{a} -- v{j} [label="S{j}", order={order}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in fixtures

def line_series(h0: int) -> SeriesDatum:
    """Single principal-series branch, the tree shape of the split A types."""
    return SeriesDatum(h0=h0, branches=(Branch(0, 0, h0 - 1),))


_REE_LABELS = {0: "St", 1: "1", 2: "2G2[i]", 3: "2G2[xi]",
               4: "2G2[xibar]", 5: "2G2[-i]"}

# Root-of-unity tags for the Ree tree, recorded as exponents of xi, the
# twelfth root of unity congruent to q^5 mod ell (so i = xi^3).
_REE_SERIES = SeriesDatum(h0=6, branches=(
    Branch(0, 0, 1),    # principal series: St, then the trivial character
    Branch(3, 2, 2),    # cuspidal, zeta = xi^3 = i
    Branch(1, 3, 3),    # cuspidal, zeta = xi
    Branch(11, 4, 4),   # cuspidal, zeta = xi^11 = conj(xi)
    Branch(9, 5, 5),    # cuspidal, zeta = xi^9 = -i
))


# The 2g2 fixture is the principal ell-block of 2G2(q) at q^2 = 27, ell = 19.
REE_QSQ, REE_ELL = 27, 19


def ree_tree(qsq: int = REE_QSQ, ell: int = REE_ELL) -> PlanarBrauerTree:
    """The tree of the principal ell-block of 2G2(q), q^2 = qsq; BadRegime
    when (2G2, qsq, ell) is not a Coxeter-case regime."""
    ctx = validate_regime(coxeter_datum(parse_type("2G2")), qsq, ell)
    series, labels = fixture_series("2g2")
    return principal_block_tree(ctx, series, labels=labels)


def fixture_series(name: str) -> tuple[SeriesDatum, dict[int, str]]:
    """The series and labels of a built-in fixture: 2g2, or lineN with
    N >= 1; ValueError naming any other value."""
    key = name.lower()
    if key == "2g2":
        return _REE_SERIES, dict(_REE_LABELS)
    if key.startswith("line") and key[4:].isdecimal() and int(key[4:]) >= 1:
        return line_series(int(key[4:])), {}
    raise ValueError(f"unknown fixture {name!r}: expected 2g2, or lineN with "
                     f"N >= 1")
