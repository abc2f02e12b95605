"""Reference helpers shared by the tests: literal constructions that the
fast paths of the package are compared against."""

from functools import lru_cache
from math import gcd

from coxbrauer import linalg
from coxbrauer.brauer_tree import EXC
from coxbrauer.cyclotomic import power_basis
from coxbrauer.numtheory import euler_phi, valuation
from coxbrauer.tree_algebra import Path


def dense(a):
    """The rows of a SparseMatrix, every cell written out."""
    return [[row.get(c, 0) for c in range(a.shape[1])] for row in a.rows]


def sparse(rows, width):
    """A SparseMatrix of dense rows of the given width, storing their
    nonzero cells only."""
    return linalg.SparseMatrix((len(rows), width),
                               [{c: x for c, x in enumerate(r) if x} for r in rows])


def reference_rref(rows, p, modulus):
    """Schoolbook unit-pivot Gauss-Jordan over Z/modulus, modulus = p^N,
    on lists of ints: the pivot of a column is its first entry at or below
    the current row that is not divisible by p."""
    m = [[x % modulus for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, modulus)
        m[r] = [x * inv % modulus for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % modulus for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_orthogonality(table):
    """The row orthogonality relation with every inner product reduced
    modulo the full Phi_L, L = |G|, and compared with (n, 0, ..., 0)."""
    L = table.group.order
    zeros = (0,) * (euler_phi(L) - 1)
    sizes = [c.size for c in table.classes]
    # (exponent, coefficient) lists, not dicts: two exponents of a cell
    # that agree mod L flip to one, and neither term may be lost
    conj = [[[(-k % L, c) for k, c in val.items()] for val in row]
            for row in table.values]
    for i, row in enumerate(table.values):
        for j in range(i, len(table.values)):
            acc = {}
            for weight, x, y in zip(sizes, row, conj[j]):
                for kx, cx in x.items():
                    for ky, cy in y:
                        k = (kx + ky) % L
                        acc[k] = acc.get(k, 0) + weight * cx * cy
            if power_basis(L, acc) != (L if i == j else 0,) + zeros:
                return False
    return True


def _galois_key(row, u, L):
    """Row sigma_u(row), every exponent of every cell multiplied by u mod
    L, as a hashable key that ignores the order of the terms in a cell."""
    return tuple(frozenset((u * k % L, c) for k, c in val.items()) for val in row)


def _first_row_index(table):
    L = table.group.order
    index = {}
    for i, row in enumerate(table.values):
        index.setdefault(_galois_key(row, 1, L), i)
    return index


def reference_galois_units(table):
    """Every unit u of Z/L, L = |G|, whose sigma_u sends each row to a row,
    cell by cell as exponent vectors, and no two rows to the same first
    equal row: the units that permute the rows."""
    L = table.group.order
    index = _first_row_index(table)
    units = []
    for u in range(L):
        if gcd(u, L) == 1:
            image = [index.get(_galois_key(row, u, L)) for row in table.values]
            if None not in image and len(set(image)) == len(image):
                units.append(u)
    return units


def reference_galois_orbit_reps(table):
    """The smallest row of each class of i ~ j, row j = sigma_u(row i) for
    some unit u of Z/L, L = |G|, found by applying every unit to the
    smallest row of each class; for a table of distinct rows.  sigma_u of
    a row depends on u mod L/g only, g the gcd of L and the row's
    exponents, so each residue is applied once."""
    L = table.group.order
    index = _first_row_index(table)
    units = [u for u in range(L) if gcd(u, L) == 1]
    seen, reps = set(), []
    for i, row in enumerate(table.values):
        if i not in seen:
            reps.append(i)
            level = L // gcd(L, *(k for val in row for k in val))
            seen.update(index.get(_galois_key(row, u, L))
                        for u in {u % level for u in units})
    return reps


def unit_closure(L, gens):
    """The subgroup of (Z/L)^x generated by gens, element by element."""
    seen, todo = {1 % L}, [1 % L]
    while todo:
        x = todo.pop()
        for g in gens:
            y = x * g % L
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@lru_cache(maxsize=None)
def reference_cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n == 1:
        return (-1, 1)
    # (x^n - 1) / prod_{d | n, d < n} Phi_d(x), exact division by monic factors
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, list(reference_cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i, b in enumerate(den):
                num[k + i] -= c * b
    if any(num[: dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


def reference_evaluate(poly, q_or_qsq: int) -> int:
    """CycloPoly `poly` at q, summed term by term with the parity of each
    power of q = s*sqrt(p) kept apart.

    For ordinary types the argument is q itself.  For Suzuki/Ree types
    it is q^2 = p^(2m+1); the value is then computed in Z[sqrt(p)] and
    must come out rational, which is asserted.
    """
    if poly.p is None:
        q = q_or_qsq
        return sum(a * q ** k for k, (a, _) in enumerate(poly.coeffs))
    qsq = q_or_qsq
    v = valuation(qsq, poly.p)
    if qsq != poly.p ** v or v % 2 == 0:
        raise ValueError(f"q^2 must be an odd power of {poly.p}")
    s = poly.p ** ((v - 1) // 2)      # q = s * sqrt(p)
    rat, irr = 0, 0                   # value = rat + irr*sqrt(p)
    for k, (a, b) in enumerate(poly.coeffs):
        c = s ** k * poly.p ** (k // 2)
        if k % 2 == 0:
            rat += a * c
            irr += b * c
        else:
            rat += b * c * poly.p
            irr += a * c
    if irr:
        raise AssertionError("order evaluation left a sqrt residue")
    return rat


def reference_orbit_reps(g):
    """Representatives (smallest exponent) of the E-orbits on D - {1} of
    the MetacyclicGroup g, each orbit walked as a set."""
    seen = set()
    reps = []
    for a in range(1, g.d_order):
        if a in seen:
            continue
        orbit = set()
        cur = a
        while cur not in orbit:
            orbit.add(cur)
            cur = cur * g.n % g.d_order
        reps.append(min(orbit))
        seen |= orbit
    return reps


@lru_cache(maxsize=64)
def reference_basis(alg):
    """The basis paths in basis order, from the tree's cyclic orders and
    node multiplicities only: per edge its trivial path, the proper partial
    cycles around each node whose cyclic order holds it (the exceptional
    node first, then the vertices by index), and its socle."""
    tree = alg.tree
    ends = {e: [] for e in tree.edges}
    for node in (EXC, *tree.edges):
        order = tree.cyclic_order_at(node)
        for e in order:
            ends[e].append((node, len(order) * tree.node_multiplicity(node)))
    basis = []
    for e in tree.edges:
        basis.append(Path(e, "id"))
        for node, cyclen in ends[e]:
            basis += [Path(e, "cyc", node, t) for t in range(1, cyclen)]
        basis.append(Path(e, "soc"))
    return tuple(basis)


def off_basis_paths(alg):
    """Paths outside the basis, each one change away from a basis path: a
    cyclic path of no steps or of a full cycle, or around a node its
    source does not meet (a node of the tree, an unknown one, or None); a
    source out of range; a trivial path or socle carrying a node or steps;
    an unknown kind."""
    tree = alg.tree
    for e in tree.edges:
        for node in (EXC, *tree.edges):
            order = tree.cyclic_order_at(node)
            if e in order:
                yield from (Path(e, "cyc", node, 0),
                            Path(e, "cyc", node, len(order) * tree.node_multiplicity(node)),
                            Path(e, "id", node), Path(e, "soc", node))
            else:
                yield Path(e, "cyc", node, 1)
        yield from (Path(e, "cyc", "nowhere", 1), Path(e, "cyc", None, 1),
                    Path(e, "id", None, 1), Path(e, "soc", None, 1), Path(e, "loop"))
    for src in (-1, tree.h0):
        yield from (Path(src, "id"), Path(src, "soc"), Path(src, "cyc", EXC, 1))


def reference_predecessor(tree, node, e):
    """The edge one place clockwise of e in the cyclic order at node."""
    order = tree.cyclic_order_at(node)
    return order[order.index(e) - 1]


def reference_target(alg, p):
    """Walk `steps` predecessors around the node of a cyclic path."""
    e = p.src
    if p.kind == "cyc":
        for _ in range(p.steps):
            e = reference_predecessor(alg.tree, p.node, e)
    return e


def reference_arrows(alg):
    """The basis paths of length one: a step around a node, or the socle
    loop of a lone edge of multiplicity one."""
    return [p for p in reference_basis(alg)
            if p.steps == 1 or (alg.degenerate and p.kind == "soc")]


def reference_grid(alg, paths):
    """Count the paths from i to j, each ending where `reference_target` says."""
    grid = [[0] * len(alg.vertices) for _ in alg.vertices]
    for p in paths:
        grid[p.src][reference_target(alg, p)] += 1
    return grid


def reference_hom_basis(cx1, cx2):
    """HomComplex.basis by the grouped walk: per summand tv of C2, the
    basis paths out of tv grouped by target v, the groups in the order
    their first path comes, each group placed whole at every (degree,
    summand) of v in C1."""
    alg = cx1.alg
    at = {}
    for i, term in enumerate(cx1.terms, cx1.lo):
        for s, v in enumerate(term):
            at.setdefault(v, []).append((i, s))
    basis = {n: [] for n in range(cx2.lo - cx1.hi, cx2.hi - cx1.lo + 1)}
    for j, term in enumerate(cx2.terms, cx2.lo):
        for t, tv in enumerate(term):
            for v, paths in _paths_by_target(alg, tv).items():
                for i, s in at.get(v, ()):
                    basis[j - i].extend((i, t, s, p) for p in paths)
    return basis


@lru_cache(maxsize=256)
def _paths_by_target(alg, src):
    groups = {}
    for p in reference_basis(alg):
        if p.src == src:
            groups.setdefault(reference_target(alg, p), []).append(p)
    return groups


def reference_hom_grid(alg):
    """[dim Hom(P_i, P_j)]: the basis paths from j to i, counted one by one
    off `reference_basis`, each ending where `reference_target` says."""
    return [list(col) for col in zip(*reference_grid(alg, reference_basis(alg)))]
