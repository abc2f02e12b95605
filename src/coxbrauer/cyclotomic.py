"""Exact arithmetic in rings of cyclotomic integers Z[zeta_L].

A cyclotomic integer is written down as a sparse exponent vector {k: c},
the sum of c*zeta_L^k, an element of the group ring Z[Z/L]: the oracle's
character tables carry their values that way, and `expand_product`, the
one multiplication here, expands the order polynomials in it.
`power_basis` reduces such a vector once, to its coordinates on the power
basis 1, zeta, ..., zeta^(phi(L)-1): the remainder modulo the L-th
cyclotomic polynomial.  It scatters the terms into a dense list of L
slots and hands that to `fold`, the one reduction of a dense list, which
the oracle also calls on the lists it sums into directly.  `CycloInt` is
the record of a reduced element.  No floating point is used anywhere;
equality of elements is literal equality of coordinates.

The module also knows how to express sqrt(2) and sqrt(3) inside a large
enough cyclotomic ring (8 | L, resp. 12 | L), which is what the twisted
torus order polynomials need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .numtheory import euler_phi, factorize


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic: the
    Moebius product prod_(d | n) (x^(n/d) - 1)^mu(d) over the squarefree d,
    the binomials with mu(d) = 1 multiplied first and those with mu(d) = -1
    then divided out exactly, O(n) each."""
    mobius = [(1, 1)]
    for p in factorize(n):
        mobius += [(d * p, -mu) for d, mu in mobius]
    poly = [1]
    for d, mu in sorted(mobius, key=lambda dm: -dm[1]):
        k = n // d
        if mu > 0:
            poly = [b - a for a, b in zip(poly + [0] * k, [0] * k + poly)]
            continue
        # poly = q (x^k - 1) coefficientwise is q_i = q_(i-k) - p_i
        q: list[int] = []
        for i, c in enumerate(poly):
            q.append((q[i - k] if i >= k else 0) - c)
        if any(q[-k:]):
            raise ArithmeticError("inexact polynomial division")
        poly = q[:-k]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(L: int) -> tuple[tuple[int, int], ...]:
    """The nonzero coefficients (i, c) of Phi_L below its leading term."""
    phi = cyclotomic_polynomial(L)
    return tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def power_basis(L: int, terms: dict[int, int]) -> tuple[int, ...]:
    """Power-basis coordinates of the sum of c*zeta_L^k over terms {k: c}:
    the terms are scattered into a dense list, the exponents read mod L,
    and `fold` reduces it."""
    acc = [0] * L
    for k, c in terms.items():
        acc[k % L] += c
    return fold(L, acc)


def fold(L: int, acc: list[int]) -> tuple[int, ...]:
    """Power-basis coordinates of the sum of acc[k]*zeta_L^k, k < L: the
    one reduction modulo Phi_L.

    One pass over the exponents L-1 down to phi(L) folds each, in place in
    acc, with zeta^d = -(Phi_L - x^d)(zeta) through the nonzero terms of
    Phi_L.
    """
    d = euler_phi(L)
    tail = _phi_tail(L)
    for k in range(L - 1, d - 1, -1):
        c = acc[k]
        if c:
            for i, b in tail:
                acc[k - d + i] -= c * b
    return tuple(acc[:d])


def expand_product(L: int,
                   factors: list[tuple[int, int, int]]) -> list[dict[int, int]]:
    """prod_j (zeta^(t_j) * q^(k_j) - zeta^(l_j)) over factors (k, t, l) in
    Z[Z/L][q], where exponents add mod L: one exponent vector per power of
    q, ascending.  Z[Z/L] -> Z[zeta_L] is a ring map, so `power_basis` of
    each coefficient is the product in Z[zeta_L]."""
    poly: list[dict[int, int]] = [{0: 1}]
    for k, t, l in factors:
        new: list[dict[int, int]] = [{} for _ in range(len(poly) + k)]
        for i, vec in enumerate(poly):
            low, top = new[i], new[i + k]
            for e, c in vec.items():
                x, y = (e + l) % L, (e + t) % L
                low[x] = low.get(x, 0) - c
                top[y] = top.get(y, 0) + c
        poly = new
    return poly


@dataclass(frozen=True)
class CycloInt:
    """A reduced element of Z[zeta_L]: its power-basis coordinates.  It
    adds and scales by integers; products are taken by `expand_product`."""

    L: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != euler_phi(self.L):
            raise ValueError("coordinate vector has wrong length")

    @staticmethod
    def integer(L: int, a: int) -> "CycloInt":
        return CycloInt(L, (a,) + (0,) * (euler_phi(L) - 1))

    def __add__(self, other: "CycloInt") -> "CycloInt":
        return CycloInt(self.L, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return CycloInt(self.L, tuple(a * other for a in self.coords))

    __rmul__ = __mul__

    def as_integer(self) -> int | None:
        """The element as a rational integer, or None if it is not one."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]


def sqrt_element(L: int, p: int) -> CycloInt:
    """sqrt(p) for p in {2, 3} as an element of Z[zeta_L].

    Uses sqrt(2) = zeta_8 + zeta_8^-1 and sqrt(3) = zeta_12 + zeta_12^-1,
    so L must be divisible by 8 resp. 12.
    """
    if p == 2:
        if L % 8:
            raise ValueError("sqrt(2) needs 8 | L")
        k = L // 8
    elif p == 3:
        if L % 12:
            raise ValueError("sqrt(3) needs 12 | L")
        k = L // 12
    else:
        raise ValueError("only sqrt(2) and sqrt(3) are supported")
    return CycloInt(L, power_basis(L, {k: 1, -k % L: 1}))


def as_quadratic_pair(x: CycloInt, p: int | None) -> tuple[int, int]:
    """Write x as a + b*sqrt(p) with integers a, b (b = 0 when p is None).

    Raises ArithmeticError when x does not lie in Z[sqrt(p)]; the caller
    treats that as a table bug.
    """
    if p is None:
        a = x.as_integer()
        if a is None:
            raise ArithmeticError(f"non-rational cyclotomic residue: {x.coords}")
        return a, 0
    w = sqrt_element(x.L, p)
    # solve x = a*1 + b*w coordinatewise; basis vectors 1 and w are
    # supported on disjoint sets of power-basis positions (w[0] == 0)
    b = 0
    for i in range(1, len(w.coords)):
        if w.coords[i]:
            if x.coords[i] % w.coords[i]:
                raise ArithmeticError(f"residue outside Z[sqrt({p})]: {x.coords}")
            b = x.coords[i] // w.coords[i]
            break
    a = x.coords[0] - b * w.coords[0]
    if (CycloInt.integer(x.L, a) + b * w).coords != x.coords:
        raise ArithmeticError(f"residue outside Z[sqrt({p})]: {x.coords}")
    return a, b
