"""Degrees, twist factors and order polynomials for twisted Cartan types.

For each supported type the table below stores the invariant degrees d_j of
the reflection representation together with the twist eigenvalue of each
fundamental invariant, written as an exact rational angle a/b meaning
exp(2*pi*i*a/b).  The degree and twist data are classical (Shephard-Todd /
Steinberg) and are the only per-type source; everything else here is
derived arithmetic: the order delta of the twist (the lcm of the angle
denominators), the number r of F-orbits on the simple reflections (the
number of invariants the twist fixes, Springer), the Coxeter number h, the
twisted Coxeter number h0 = h/delta, the number of positive roots N and the
order polynomials of the group and of its Coxeter torus.

A separate literature table of (h, h0) values per type is kept as a
checksum: `coxeter_datum` recomputes h and h0 from the degree/twist pairs
and refuses to return a datum that disagrees with the table.

Both are products of factors (zeta^t*q^k - zeta^l), expanded by
`cyclotomic.expand_product`.  For the Suzuki and Ree types the parameter q
is not an integer (q^2 is an odd power of 2 or 3), so torus order
polynomials live over Z[sqrt(p)]; coefficients are stored as pairs (a, b)
meaning a + b*sqrt(p).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclotomic import CycloInt, as_quadratic_pair, expand_product, power_basis
from .numtheory import valuation


class UnsupportedType(ValueError):
    """Requested (family, rank) is outside the built-in tables."""


FAMILIES = (
    "A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2",
    "2A", "2B2", "2D", "3D4", "2E6", "2F4", "2G2",
)

_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2,
               "2B2": 2, "3D4": 4, "2E6": 6, "2F4": 4, "2G2": 2}

_SUZUKI_REE_PRIME = {"2B2": 2, "2G2": 3, "2F4": 2}

# The largest rank accepted: the largest power of two at which `info` of
# each classical family A, B, D and 2A finishes within 60 s and 1 GiB (the
# order polynomials have degree about rank^2).
MAX_RANK = 2 ** 9

_HALF = Fraction(1, 2)
_E_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


@dataclass(frozen=True)
class TwistedType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedType(f"unknown family {self.family!r}")
        fixed = _FIXED_RANK.get(self.family)
        if fixed is not None and self.rank != fixed:
            raise UnsupportedType(f"{self.family} has rank {fixed}, not {self.rank}")
        minimum = {"A": 1, "B": 2, "C": 2, "D": 4, "2A": 2, "2D": 4}.get(self.family)
        if minimum is not None and self.rank < minimum:
            raise UnsupportedType(f"{self.family} needs rank >= {minimum}")
        if self.rank > MAX_RANK:
            raise UnsupportedType(f"rank {self.rank} is more than the {MAX_RANK} "
                                  f"supported")

    @property
    def name(self) -> str:
        return self.family if self.family in _FIXED_RANK else f"{self.family}{self.rank}"

    @property
    def sqrt_prime(self) -> int | None:
        return _SUZUKI_REE_PRIME.get(self.family)


def _degree_twist_pairs(t: TwistedType) -> tuple[tuple[int, Fraction], ...]:
    f, n = t.family, t.rank
    if f == "A":
        return tuple((d, Fraction(0)) for d in range(2, n + 2))
    if f in ("B", "C"):
        return tuple((2 * j, Fraction(0)) for j in range(1, n + 1))
    if f == "D":
        return tuple((2 * j, Fraction(0)) for j in range(1, n)) + ((n, Fraction(0)),)
    if f in _E_DEGREES:
        return tuple((d, Fraction(0)) for d in _E_DEGREES[f])
    if f == "2A":
        return tuple((d, Fraction(0) if d % 2 == 0 else _HALF) for d in range(2, n + 2))
    if f == "2D":
        return tuple((2 * j, Fraction(0)) for j in range(1, n)) + ((n, _HALF),)
    if f == "3D4":
        return ((2, Fraction(0)), (4, Fraction(1, 3)), (4, Fraction(2, 3)), (6, Fraction(0)))
    if f == "2E6":
        return tuple((d, Fraction(0) if d % 2 == 0 else _HALF) for d in _E_DEGREES["E6"])
    if f == "2B2":
        return ((2, Fraction(0)), (4, _HALF))
    if f == "2G2":
        return ((2, Fraction(0)), (6, _HALF))
    if f == "2F4":
        return ((2, Fraction(0)), (6, _HALF), (8, Fraction(0)), (12, _HALF))
    raise UnsupportedType(f)


def _table_h_h0(t: TwistedType) -> tuple[int, int]:
    """Coxeter numbers straight from the literature tables (the checksum)."""
    f, n = t.family, t.rank
    if f == "A":
        return n + 1, n + 1
    if f in ("B", "C"):
        return 2 * n, 2 * n
    if f == "D":
        return 2 * n - 2, 2 * n - 2
    if f in ("E6", "E7", "E8", "F4", "G2"):
        h = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}[f]
        return h, h
    if f == "2A":
        return (2 * n + 2, n + 1) if n % 2 == 0 else (2 * n, n)
    if f == "2D":
        return 2 * n, n
    if f == "3D4":
        return 12, 4
    if f == "2E6":
        return 18, 9
    if f == "2B2":
        return 8, 4
    if f == "2F4":
        return 24, 12
    if f == "2G2":
        return 12, 6
    raise UnsupportedType(f)


@dataclass(frozen=True)
class CoxeterDatum:
    type: TwistedType
    degrees: tuple[int, ...]
    epsilons: tuple[Fraction, ...]   # twist eigenvalue angles, exp(2*pi*i*eps)
    h: int
    delta: int
    h0: int
    r: int
    N: int


def cyclotomic_multiplicity(datum: CoxeterDatum, d: int) -> int:
    """a(d): how many invariants satisfy eps_j = exp(2*pi*i*d_j/d).

    This is the multiplicity of the d-th cyclotomic polynomial in the
    generic order of the group.
    """
    if d < 1:
        raise ValueError("d must be positive")
    return _multiplicity(zip(datum.degrees, datum.epsilons), d)


def _multiplicity(pairs, d: int) -> int:
    """a(d) over degree/twist pairs, d >= 1."""
    return sum(1 for dj, ej in pairs if Fraction(dj, d) % 1 == ej % 1)


def coxeter_datum(type: TwistedType) -> CoxeterDatum:
    """Build the full datum for a type and cross-check it against the
    literature h/h0 tables."""
    return _checked_datum(type, _degree_twist_pairs(type))


@functools.cache
def _checked_datum(type: TwistedType,
                   pairs: tuple[tuple[int, Fraction], ...]) -> CoxeterDatum:
    """The datum of `type` with these degree/twist pairs.  Cached on the
    pairs as well as the type, so a table that changes is checked again;
    a refused table raises and is not cached."""
    degrees = tuple(d for d, _ in pairs)
    epsilons = tuple(e for _, e in pairs)
    delta = lcm(*(e.denominator for e in epsilons))   # the order of the twist
    # h is the largest d with a(d) > 0; candidates are bounded by delta*max degree
    h = max(d for d in range(1, delta * max(degrees) + 1) if _multiplicity(pairs, d))
    table_h, table_h0 = _table_h_h0(type)
    if h != table_h or h % delta or h // delta != table_h0:
        raise AssertionError(
            f"degree table checksum failed for {type.name}: computed h={h}, "
            f"table (h, h0) = ({table_h}, {table_h0})")
    # r, the number of F-orbits on the simple reflections, is the number
    # of invariants the twist fixes
    datum = CoxeterDatum(type=type, degrees=degrees,
                         epsilons=epsilons, h=h, delta=delta, h0=h // delta,
                         r=sum(1 for e in epsilons if e % 1 == 0),
                         N=sum(d - 1 for d in degrees))
    if cyclotomic_multiplicity(datum, h) != 1:
        raise AssertionError(f"a(h) != 1 for {type.name}")
    return datum


def twisted_coxeter_eigenvalues(datum: CoxeterDatum) -> list[Fraction]:
    """Angles of the eigenvalues of the twisted Coxeter rotation.

    The eigenvalues are eps_j^-1 * exp(2*pi*i*(d_j - 1)/h); angles are
    reduced mod 1.  Angles of exact order h must occur with multiplicity
    one; ValueError otherwise.
    """
    angles = [(-e + Fraction(d - 1, datum.h)) % 1
              for d, e in zip(datum.degrees, datum.epsilons)]
    of_order_h = [a for a in angles if a.denominator == datum.h]
    if len(of_order_h) != len(set(of_order_h)):
        raise ValueError("eigenvalue of order h with multiplicity > 1")
    return angles


@dataclass(frozen=True)
class CycloPoly:
    """Polynomial in q over Z[sqrt(p)]; coefficient k is (a, b) = a + b*sqrt(p).

    For types without a twisted root length all sqrt parts are zero and p
    is None.
    """

    coeffs: tuple[tuple[int, int], ...]
    p: int | None

    def __post_init__(self):
        if self.p is None and any(b for _, b in self.coeffs):
            raise AssertionError("sqrt part in a rational polynomial")

    def evaluate(self, q_or_qsq: int) -> int:
        """Evaluate at q by Horner's rule in Z[sqrt(p)], q = u + v*sqrt(p).

        For ordinary types the argument is q itself, (u, v) = (q, 0).  For
        Suzuki/Ree types it is q^2 = p^(2m+1), so (u, v) = (0, p^m); the
        value must come out rational, which is asserted.
        """
        p, u, v = self.p or 0, q_or_qsq, 0
        if p:
            m2 = valuation(u, p)
            if u != p ** m2 or m2 % 2 == 0:
                raise ValueError(f"q^2 must be an odd power of {p}")
            u, v = 0, p ** (m2 // 2)
        rat = irr = 0                     # the value so far, rat + irr*sqrt(p)
        for a, b in reversed(self.coeffs):
            rat, irr = rat * u + irr * v * p + a, rat * v + irr * u + b
        if irr:
            raise AssertionError("order evaluation left a sqrt residue")
        return rat

    def pretty(self) -> str:
        root = f"sqrt({self.p})" if self.p is not None else None
        parts = []
        for k, (a, b) in enumerate(self.coeffs):
            qpow = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            if a:
                parts.append(_term(a, qpow, None))
            if b:
                parts.append(_term(b, qpow, root))
        if not parts:
            return "0"
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def _term(c: int, qpow: str, root: str | None) -> str:
    factors = [f for f in (qpow, root) if f]
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


class IntegralityFailure(ArithmeticError):
    """Cyclotomic expansion left coefficients outside Z[sqrt(p)]."""


def _angles_to_poly(factors: list[tuple[int, Fraction, Fraction]],
                    p: int | None) -> CycloPoly:
    """Expand prod_j (zeta^(top_j) * q^(k_j) - zeta^(low_j)) over Z[sqrt(p)]:
    in Z[Z/L] for the L that holds every angle and sqrt(p), then each
    coefficient reduced once and read as a + b*sqrt(p)."""
    L = lcm(8 if p == 2 else 12 if p else 1,
            *(a.denominator for _, top, low in factors for a in (top, low)))
    coeffs = expand_product(L, [(k, int(top * L), int(low * L))
                                for k, top, low in factors])
    try:
        pairs = tuple(as_quadratic_pair(CycloInt(L, power_basis(L, c)), p)
                      for c in coeffs)
    except ArithmeticError as exc:
        raise IntegralityFailure(str(exc)) from exc
    return CycloPoly(coeffs=pairs, p=p)


ZERO_ANGLE = Fraction(0)


def group_order_poly(datum: CoxeterDatum) -> CycloPoly:
    """|G| = q^N * prod_j (q^(d_j) - eps_j^-1) as an exact polynomial."""
    factors = [(d, ZERO_ANGLE, (-e) % 1)
               for d, e in zip(datum.degrees, datum.epsilons)]
    body = _angles_to_poly(factors, datum.type.sqrt_prime)
    shifted = ((0, 0),) * datum.N + body.coeffs
    return CycloPoly(coeffs=shifted, p=body.p)


def torus_order_poly(datum: CoxeterDatum) -> CycloPoly:
    """|T_c| = det(q * c*sigma - 1) = prod_j (q*mu_j - 1) over Z[sqrt(p)][q].

    The raw determinant carries the sign det(c*sigma) = prod_j mu_j in its
    leading coefficient.  That product is read off the angles first and
    must be +-1; the group order is the positive value, so the polynomial
    is normalized to be monic.
    """
    angles = twisted_coxeter_eigenvalues(datum)
    det = sum(angles, ZERO_ANGLE) % 1          # det(c*sigma) = exp(2*pi*i*det)
    if det not in (ZERO_ANGLE, _HALF):
        raise IntegralityFailure(f"non-unit leading torus coefficient: "
                                 f"det(c*sigma) = exp(2*pi*i*{det})")
    poly = _angles_to_poly([(1, a, ZERO_ANGLE) for a in angles],
                           datum.type.sqrt_prime)
    if det:
        return CycloPoly(tuple((-a, -b) for a, b in poly.coeffs), poly.p)
    return poly


def weyl_fixed_order(datum: CoxeterDatum) -> int:
    """Order of the twist-fixed Weyl subgroup, prod of d_j over eps_j = 1.

    Classical consequence of Springer's theory of twisted invariants; it is
    exactly the data the order polynomial tables already carry.
    """
    out = 1
    for d, e in zip(datum.degrees, datum.epsilons):
        if e % 1 == 0:
            out *= d
    return out


def parse_type(name: str, rank: int | None = None) -> TwistedType:
    """Parse names like 'A', 'E8', '2G2', '3D4', optionally with a rank."""
    name = name.strip()
    canonical = {f.upper(): f for f in FAMILIES}
    key = name.upper()
    if key in canonical:
        fam = canonical[key]
        fixed = _FIXED_RANK.get(fam)
        if rank is None:
            if fixed is None:
                raise UnsupportedType(f"family {fam} needs an explicit rank")
            rank = fixed
        return TwistedType(fam, rank)
    # allow a trailing rank in the name, e.g. "A2", "2A3", "B4"
    for fam in sorted(FAMILIES, key=len, reverse=True):
        if key.startswith(fam.upper()) and key[len(fam):].isdigit():
            inline = int(key[len(fam):])
            if rank is not None and rank != inline:
                raise UnsupportedType(f"conflicting ranks {inline} and {rank}")
            return TwistedType(fam, inline)
    raise UnsupportedType(f"cannot parse type {name!r}")
