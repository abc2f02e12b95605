"""Brute-force character theory for metacyclic groups D x| E.

D is cyclic of order ell^alpha, E cyclic of order m prime to ell, acting
faithfully: the action exponent n has order m already mod ell, and the
generator x of E acts on y in D by y -> x^-1 y x = y^n.  (That right-hand
convention is what makes Ext^1(k_i, k_j) nonzero exactly for i = j + 1
with the character numbering below.)

Ordinary character values are exact cyclotomic integers in Z[zeta_L] with
L = |G|, kept as the sparse exponent vectors {k: c} (the sum of c*zeta_L^k)
that the construction produces.  The row orthogonality relation is
checked literally on a square table; the column relation follows from
it.  Each inner product is summed over flat (exponent, coefficient)
lists into L/g dense slots, g the gcd of L and the exponents of its two
rows, and, like each degree, reduced once by `cyclotomic.fold` in the
smallest ring Z[zeta_(L/gh)] that holds it, h the gcd of L/g and the
nonzero slots: Z[zeta_|E|] for two linear characters, Z[zeta_|D|] when
an induced character is involved.  One Gram row is checked per Galois
orbit of rows: sigma_k, k a unit mod L, multiplies every exponent by k,
a ring automorphism of Z[x]/(x^L - 1) that keeps (Phi_L), commutes with
conjugation and fixes the expected integers, so <sigma chi_i, sigma
chi_j> = sigma <chi_i, chi_j>.  The generators of (Z/L)^x that permute
the rows, matched cell by cell as exponent vectors, are merged into
orbits; for R orbits of k rows that is R k - R(R - 1)/2 inner products,
where all k(k + 1)/2 pairs took one each.  On the table built here eta_j
falls into one orbit per divisor gcd(j, m) of m and Theta_t into one per
ell-adic valuation of t, so R is the number of divisors of m plus alpha.
A table that no sigma_k permutes has every pair checked.

The Brauer characters of the m simple modules are pinned by the Hensel
lift zeta of n (eta_j sends x to zeta^j), which fixes the row and column
numbering of the decomposition matrix so the comparison against the star
tree is cell-exact, not up to permutation.

The group is `brauer_tree.MetacyclicGroup`, the datum a star tree
carries: the parameter checks and the lift zeta, hence the eta numbering,
are shared with the tree by construction.  What this module checks
independently of the tree is the character table, its orthogonality and
the solve for the decomposition numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd

from .brauer_tree import MAX_CLASSES, MetacyclicGroup, PlanarBrauerTree
from .cyclotomic import fold
from .ell_arith import TruncatedPadic
from .linalg import SparseMatrix
from .numtheory import has_order, unit_generators

# The most exponent terms a character table may hold, counted from
# (|D|, |E|) before it is built (`table_terms`): (7681, 10), 5.9M terms,
# answers `star --verify` in 30 s and 407 MB under 1 GiB on a shared
# 2-core machine, where summing the Gram entries into dicts took 45 s, and
# (12289, 16), 9.5M terms, ran past 60 s.
MAX_TABLE_TERMS = 2 ** 23


class SingularSystem(ArithmeticError):
    """The Brauer-character system was not uniquely solvable (a bug)."""


class Mismatch(AssertionError):
    """Star tree and oracle disagree, or the oracle fails one of its own
    checks; carries the differing cell when there is one."""

    def __init__(self, reason: str, cell: tuple[int, int] | None = None):
        self.reason = reason
        self.cell = cell
        super().__init__(reason if cell is None else f"{reason} at cell {cell}")


@dataclass(frozen=True)
class ConjClass:
    kind: str        # "one", "d" (element of D), or "e" (x^b coset)
    rep: int         # exponent a for y^a, or b for x^b
    size: int


@dataclass
class CharacterTable:
    group: MetacyclicGroup
    classes: list[ConjClass]
    # rows: m linear characters eta_0..eta_(m-1), then the induced
    # characters Theta_t over orbit representatives t
    names: list[str]
    values: list[list[dict[int, int]]]    # {k: c} is sum c*zeta_|G|^k

    def degree(self, row: int) -> int:
        one = next((i for i, c in enumerate(self.classes) if c.kind == "one"), None)
        if one is None:
            raise Mismatch("table has no identity class (kind 'one')")
        coords = _smallest_ring_coords(self.group.order, self.values[row][one])
        if any(coords[1:]):
            raise Mismatch(f"degree of {self.names[row]} is not an integer")
        return coords[0]

    def verify(self):
        """Raise Mismatch unless the table is square, the squared degrees
        sum to the group order and the row orthogonality relation holds;
        an orthogonality failure names the first failing Gram entry (r, j)
        as its cell, found by checking the table once more.

        On a square table the column relation follows: X diag(|C|) X*^T =
        |G| I makes X invertible, so X*^T X = |G| diag(|C|)^-1."""
        n_classes = len(self.classes)
        if (len(self.values) != n_classes
                or any(len(row) != n_classes for row in self.values)):
            raise Mismatch(f"table is not square: {len(self.values)} characters "
                           f"on {n_classes} classes")
        if sum(self.degree(i) ** 2 for i in range(len(self.values))) != self.group.order:
            raise Mismatch("squared degrees do not sum to the group order")
        if not self.check_orthogonality():
            raise Mismatch("orthogonality failed (table bug)",
                           cell=self._first_failing_entry())

    def check_orthogonality(self) -> bool:
        """Exact row orthogonality relation: sum over classes of
        |C| chi_i(C) conj(chi_j(C)) is |G| if i = j and 0 otherwise.
        A row with a value missing or to spare fails it.

        Worked in Z[x]/(x^L - 1), where conjugation is the exponent flip
        and products are convolutions of flat (exponent, coefficient)
        lists; an exponent is read mod L, and two exponents of a cell
        that agree mod L keep both their terms.  Each row's g_r, the gcd
        of L and all its exponents, is taken once; <chi_r, chi_j> is
        summed into L/g slots, g = gcd(g_r, g_j), slot i holding the
        coefficient of zeta_L^(g i): g divides L and every exponent of
        both rows, so every product exponent mod L is a multiple of it.
        The sum is then reduced once, by `cyclotomic.fold`, in the
        smallest ring Z[zeta_(L/gh)] that holds it, h the gcd of L/g and
        its nonzero slots, and compared with the coordinates (n, 0, ...,
        0) of the expected integer n.

        One Gram row is checked per Galois orbit of rows
        (`_galois_orbit_reps`): <chi_r, chi_j> for each representative r
        and every row j, except a representative j after r, whose entry
        is the conjugate of one checked; for R orbits of k rows that is
        R k - R(R - 1)/2 inner products.  Each representative row is held
        once more with its values weighted by the class sizes (the whole
        table, when no sigma_k permutes it), and one conjugated row at a
        time.  Column j = 0 comes first, so a row that fails against the
        first row fails before most work.

        This is exact: sigma_k, which multiplies every exponent by a unit
        k, is a ring automorphism of Z[x]/(x^L - 1) that keeps (Phi_L),
        commutes with conjugation and fixes the class sizes and n
        delta_ij, so when it permutes the rows, <sigma chi_r, sigma chi_j>
        = sigma <chi_r, chi_j> is right exactly when <chi_r, chi_j> is.  A
        table that no sigma_k permutes has every pair checked; closure
        under Galois is no condition.
        """
        if any(len(row) != len(self.classes) for row in self.values):
            return False
        return self._first_failing_entry() is None

    def _first_failing_entry(self) -> tuple[int, int] | None:
        """The first Gram entry (r, j), in the order `check_orthogonality`
        checks them, that is not |G| delta_rj, or None if there is none."""
        L = self.group.order
        sizes = [c.size for c in self.classes]
        reps = _galois_orbit_reps(self.values, L)
        position = {r: p for p, r in enumerate(reps)}
        row_gcd = [gcd(L, *(k for val in row for k in val)) for row in self.values]
        weighted = {r: [[(k, size * c) for k, c in val.items()]
                        for size, val in zip(sizes, self.values[r])]
                    for r in reps}
        for j, row in enumerate(self.values):
            conj = [[(-k % L, c) for k, c in val.items()] for val in row]
            for r in reps[position.get(j, 0):]:
                acc = _gram_sum(L, gcd(row_gcd[r], row_gcd[j]), weighted[r], conj)
                n = len(acc)
                h = gcd(n, *compress(range(n), acc))
                coords = fold(n // h, acc[::h])
                if coords[0] != (L if r == j else 0) or any(coords[1:]):
                    return r, j
        return None


def _gram_sum(L: int, g: int, xs: list[list[tuple[int, int]]],
              ys: list[list[tuple[int, int]]]) -> list[int]:
    """The sum over the cells x of xs and y of ys of the products x*y in
    Z[Z/L], each cell a flat (exponent, coefficient) list, as L/g dense
    slots, slot i holding the coefficient of zeta_L^(g i).  g must divide L
    and every exponent, so that it divides every product exponent mod L."""
    acc = [0] * (L // g)
    for x, y in zip(xs, ys):
        for kx, cx in x:
            for ky, cy in y:
                acc[(kx + ky) % L // g] += cx * cy
    return acc


def _galois_orbit_reps(values: list[list[dict[int, int]]], L: int) -> list[int]:
    """The smallest row of each orbit of the rows under the sigma_k, k in
    `unit_generators(L)`, that permute them.

    sigma_k multiplies every exponent by k mod L and maps row i to the
    first row equal to it, cell by cell as exponent vectors.  The rows
    are mapped one at a time, and a sigma_k is dropped at the first row
    that has no partner or takes one already taken; the orbits of the
    kept maps are merged.  Any set of kept maps makes the check exact, so
    a dropped one costs speed only.

    Each comparison of two rows stops at their first differing cell, and
    the rows of a metacyclic table differ within a few cells, except the
    eta_j, which differ first on the x^b classes at the end; so the scan
    costs less than hashing every row would.
    """
    root = list(range(len(values)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for k in unit_generators(L):
        image: list[int] = []
        taken = bytearray(len(values))
        for row in values:
            try:
                t = values.index([{k * e % L: c for e, c in val.items()}
                                  for val in row])
            except ValueError:
                break
            if taken[t]:
                break
            taken[t] = 1
            image.append(t)
        else:
            for i, t in enumerate(image):
                a, b = find(i), find(t)
                root[max(a, b)] = min(a, b)
    return [i for i, r in enumerate(root) if r == i]


def _smallest_ring_coords(L: int, terms: dict[int, int]) -> tuple[int, ...]:
    """Power-basis coordinates of the sum of c*zeta_L^k over terms {k: c}
    in Z[zeta_(L/g)], g = gcd(L, every k): the terms are scattered into
    L/g slots, slot i holding the coefficient of zeta_L^(g i), and folded.

    Sending zeta_(L/g) to zeta_L^g is an injective ring map into Z[zeta_L]
    that fixes the integers, so the element is the integer n in one ring
    exactly when it is in the other; the reduction folds L/g - phi(L/g)
    exponents instead of L - phi(L).
    """
    g = gcd(L, *terms)
    acc = [0] * (L // g)
    for k, c in terms.items():
        acc[k % L // g] += c
    return fold(L // g, acc)


def _orbit_reps(g: MetacyclicGroup) -> list[int]:
    """Representatives of the E-orbits on D - {1}: the exponents a with
    a <= a*n^i mod |D| for i = 1 .. m - 1, the smallest of their orbits."""
    powers = [pow(g.n, i, g.d_order) for i in range(1, g.e_order)]
    return [a for a in range(1, g.d_order)
            if all(a <= a * k % g.d_order for k in powers)]


def table_terms(g: MetacyclicGroup) -> int:
    """The exponent terms `character_table` holds at most, one per cell of
    a linear character and up to m per Theta-Theta cell: m (k + m) for the
    m rows eta_j over k + m classes, and k (1 + k m) = k |D| for the k =
    (|D| - 1)/m rows Theta_t, whose m - 1 cells off D are empty."""
    m = g.e_order
    k = (g.d_order - 1) // m
    return m * (k + m) + k * g.d_order


def character_table(g: MetacyclicGroup) -> CharacterTable:
    """All irreducible ordinary characters with exact cyclotomic values.

    The m linear characters eta_j are inflated from E: one shared {0: 1}
    on the identity and the D-classes, then zeta^(jb) on x^b.  The
    (ell^alpha - 1)/m induced characters Theta_t come from the E-orbits of
    nontrivial characters of D: {0: m}, the orbit sums on the D-classes,
    then one shared {} on the m - 1 classes off D.  No cell is changed once
    built.  A group with more than MAX_CLASSES classes, or a table of more
    than MAX_TABLE_TERMS terms, is refused with a ValueError before any of
    the table is built.
    """
    n_classes = (g.d_order - 1) // g.e_order + g.e_order
    if n_classes > MAX_CLASSES:
        raise ValueError(f"the character table would have {n_classes} classes, "
                         f"more than the {MAX_CLASSES} supported")
    if (terms := table_terms(g)) > MAX_TABLE_TERMS:
        raise ValueError(f"the character table of |D| = {g.d_order}, |E| = "
                         f"{g.e_order} would hold {terms} exponent terms, more "
                         f"than the {MAX_TABLE_TERMS} supported")
    m, d = g.e_order, g.d_order
    L = m * d                # zeta_m = zeta_L^d, zeta_d = zeta_L^m
    reps = _orbit_reps(g)
    classes = ([ConjClass("one", 0, 1)] + [ConjClass("d", a, m) for a in reps]
               + [ConjClass("e", b, d) for b in range(1, m)])
    names = [f"eta{j}" for j in range(m)] + [f"ind{t}" for t in reps]
    one, degree, off_d = {0: 1}, {0: m}, [{}] * (m - 1)
    values = [[one] * (1 + len(reps)) + [{d * j * b % L: 1} for b in range(1, m)]
              for j in range(m)]
    powers = [pow(g.n, i, d) for i in range(m)]
    for t in reps:
        row = [degree]
        for a in reps:
            acc: dict[int, int] = {}
            for x in powers:
                k = m * (t * a * x % d)
                acc[k] = acc.get(k, 0) + 1
            row.append(acc)
        values.append(row + off_d)
    table = CharacterTable(g, classes, names, values)
    table.verify()
    return table


def brute_decomposition_matrix(g: MetacyclicGroup) -> tuple[tuple[int, ...], ...]:
    """Decomposition matrix by restriction to the ell-regular classes.

    The Brauer characters are the m linear characters of E lifted through
    the fixed root of unity zeta = lift of n: phi_j(x^b) = zeta^(jb).  That
    matrix V is the character table of the cyclic group E, so column
    orthogonality inverts it, V^-1 = m^-1 conj(V)^T, and each decomposition
    number is d_ij = m^-1 sum_b zeta^(-jb) chi_i(x^b) mod ell^(alpha+1).
    """
    table = character_table(g)
    m = g.e_order
    zeta = g.zeta_lift()
    mod = zeta.modulus
    # regular classes: identity and the x^b cosets, in that order
    reg = [i for i, c in enumerate(table.classes) if c.kind != "d"]
    exps = [0] + [c.rep for c in table.classes if c.kind == "e"]
    if len(reg) != m:
        raise SingularSystem(f"{len(reg)} regular classes for {m} Brauer characters")
    values = [[_reduce_value(row[c], g, zeta) for c in reg] for row in table.values]
    # V^-1 = m^-1 conj(V)^T holds when zeta has order m mod ell^(alpha+1): m
    # is prime to ell, so then zeta^k - 1 is a unit for 0 < k < m
    if not has_order(zeta.value, m, mod):
        raise SingularSystem(f"lift {zeta.value} does not have order {m} mod "
                             f"{mod}: Brauer character matrix not invertible")
    powers = [pow(zeta.value, k, mod) for k in range(m)]
    m_inv = pow(m, -1, mod)
    sol = [[m_inv * sum(powers[-j * b % m] * v for b, v in zip(exps, row)) % mod
            for j in range(m)] for row in values]
    # decomposition numbers are small nonnegative integers
    for i, row in enumerate(sol):
        for j, x in enumerate(row):
            if x not in (0, 1):
                x = x if x <= mod // 2 else x - mod
                raise Mismatch(f"unexpected decomposition number {x}", cell=(i, j))
    return tuple(map(tuple, sol))


def _reduce_value(val: dict[int, int], g: MetacyclicGroup,
                  zeta: TruncatedPadic) -> int:
    """Reduce a character value on a regular class into Z/ell^N.

    The values on the classes x^b lie in Z[zeta_m], m = |E|, with zeta_m =
    zeta_L^|D|.  Sending zeta_m to the Hensel lift of n is a ring map into
    Z/ell^N: the lift has order m mod ell and m is prime to ell, so Phi_m
    vanishes at it.  The map is exactly the numbering convention of the
    simple modules.
    """
    mod = zeta.modulus
    total = 0
    for k, c in val.items():
        if k % g.d_order:
            raise SingularSystem(f"zeta_{g.order}^{k} is not an |E|-th root of "
                                 f"unity, so not a regular-class value")
        total += c * pow(zeta.value, k // g.d_order, mod)
    return total % mod


def verify_star(tree: PlanarBrauerTree, g: MetacyclicGroup,
                oracle_d: tuple[tuple[int, ...], ...],
                tree_d: SparseMatrix) -> bool:
    """Cell-exact comparison of the star tree against the oracle.

    oracle_d is brute_decomposition_matrix(g) and tree_d is
    decomposition_matrix(tree).matrix, each computed once by the caller.
    The tree must be the star tree of g itself: the group fixes the Hensel
    lift that numbers eta on both sides, so rows and columns must agree
    literally, not up to permutation.  Each row pair compares the tree's
    stored entries with the oracle's nonzero ones, so a differing cell is
    found wherever either side holds a nonzero, and the first in row-major
    order is reported.
    """
    if tree.star is None:
        raise Mismatch("tree carries no star metadata")
    if tree.star != g:
        raise Mismatch(f"star parameters differ: tree {tree.star}, group {g}")
    oracle_shape = (len(oracle_d), len(oracle_d[0]) if oracle_d else 0)
    if tree_d.shape != oracle_shape:
        raise Mismatch(f"decomposition shapes differ: tree {tree_d.shape}, "
                       f"oracle {oracle_shape}")
    for i, (tree_row, oracle_row) in enumerate(zip(tree_d.rows, oracle_d)):
        want = dict(compress(enumerate(oracle_row), oracle_row))
        differ = [j for j in tree_row.keys() | want.keys()
                  if tree_row.get(j, 0) != want.get(j, 0)]
        if differ:
            j = min(differ)
            raise Mismatch(f"decomposition entries differ: tree "
                           f"{tree_row.get(j, 0)}, oracle {want.get(j, 0)}",
                           cell=(i, j))
    return True
