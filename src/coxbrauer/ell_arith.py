"""Modular and truncated ell-adic arithmetic for the Coxeter regime.

Validates triples (type, q, ell): ell must divide the Coxeter torus order
but not the order of the twist-fixed Weyl group, and q must have order h,
which is decided in F_ell even for the Suzuki and Ree types, where q itself
need not lie in F_ell.  On top of the validated context the module
provides the eigenvalue congruence table j -> q^(j*delta) mod ell and
Hensel lifting of prime-to-ell roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .numtheory import has_order, is_prime, prime_power_split
from .root_data import CoxeterDatum, torus_order_poly, weyl_fixed_order


class BadRegime(ValueError):
    """(type, q, ell) is not a valid Coxeter-case modular regime."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class NoRoot(ArithmeticError):
    """Hensel seed does not solve the equation mod ell."""


@dataclass(frozen=True)
class EllContext:
    """A validated modular regime for one Coxeter datum; qdelta_mod is
    q^delta mod ell, which lies in the prime field for every type."""

    datum: CoxeterDatum
    ell: int
    qdelta_mod: int
    torus_value: int

    @property
    def h0(self) -> int:
        return self.datum.h0


def validate_regime(datum: CoxeterDatum, qsq: int, ell: int) -> EllContext:
    """Check the Coxeter-case conditions and assemble the context.

    `qsq` is q itself for ordinary types and q^2 (an odd power of 2 or 3)
    for the Suzuki and Ree types.
    """
    p_root = datum.type.sqrt_prime
    split = prime_power_split(qsq)
    if split is None:
        raise BadRegime("BadParameter", f"q={qsq} is not a prime power")
    base_p, exp = split
    if p_root is not None and (base_p != p_root or exp % 2 == 0):
        raise BadRegime("BadParameter",
                        f"{datum.type.name} needs q^2 an odd power of {p_root}")
    if not is_prime(ell):
        raise BadRegime("BadParameter", f"ell={ell} is not prime")
    if ell == base_p:
        raise BadRegime("BadParameter", "ell divides q")

    weyl_order = weyl_fixed_order(datum)
    if weyl_order % ell == 0:
        raise BadRegime("DividesWeylOrder",
                        f"ell={ell} divides |W^F| = {weyl_order}")
    torus_value = torus_order_poly(datum).evaluate(qsq)
    if torus_value % ell:
        raise BadRegime("NotDividing",
                        f"ell={ell} does not divide |T_c| = {torus_value}")

    # For Suzuki/Ree types q = sqrt(q^2) need not lie in F_ell, but h0 = h/2
    # is even (4, 6 or 12).  If q^2 has order h0, then q^h0 = (q^2)^(h0/2) =
    # -1 and q^(2*h0/p) = (q^2)^(h0/p) != 1 for each odd prime p | h0, so
    # every square root q has order 2*h0 = h; conversely ord(q) = h gives
    # ord(q^2) = h0.  For the other types ord(q) = h gives ord(q^delta) = h0.
    h = datum.h
    if p_root is None:
        if not has_order(qsq, h, ell):
            raise BadRegime("WrongOrder", f"q has order != h = {h} mod {ell}")
        qdelta_mod = pow(qsq, datum.delta, ell)
    else:
        qdelta_mod = qsq % ell            # delta = 2, so q^delta = q^2
        if not has_order(qdelta_mod, datum.h0, ell):
            # Euler's criterion: q lies in F_ell iff q^2 is a square there
            where = (f"mod {ell}" if pow(qdelta_mod, (ell - 1) // 2, ell) == 1
                     else f"in F_{ell}^2")
            raise BadRegime("WrongOrder", f"q has order != h = {h} {where}")
    return EllContext(datum=datum, ell=ell, qdelta_mod=qdelta_mod,
                      torus_value=torus_value)


def eigenvalue_table(ctx: EllContext) -> dict[int, int]:
    """j -> (q^delta)^j mod ell for j = 0..h0-1.

    The values are pairwise distinct and exhaust the h0-th roots of unity
    in F_ell; ValueError otherwise.
    """
    table = {j: pow(ctx.qdelta_mod, j, ctx.ell) for j in range(ctx.h0)}
    values = set(table.values())
    if len(values) != ctx.h0:
        raise ValueError(f"eigenvalue table collision: q^delta = "
                         f"{ctx.qdelta_mod} has order below h0 = {ctx.h0}")
    if any(pow(v, ctx.h0, ctx.ell) != 1 for v in values):
        raise ValueError(f"q^delta = {ctx.qdelta_mod} is not an h0-th root "
                         f"of unity mod {ctx.ell}")
    return table


# ---------------------------------------------------------------------------
# truncated ell-adic numbers and Hensel lifting

@dataclass(frozen=True)
class TruncatedPadic:
    """An element of Z/ell^n in its canonical representative."""

    value: int
    ell: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.ell ** self.n)

    @property
    def modulus(self) -> int:
        return self.ell ** self.n

    def reduce(self, n: int) -> "TruncatedPadic":
        if n > self.n:
            raise ValueError("cannot gain precision by reduction")
        return TruncatedPadic(self.value, self.ell, n)


def hensel_root(a: TruncatedPadic, e: int, seed: int) -> TruncatedPadic:
    """The unique x with x^e = a mod ell^n and x = seed mod ell.

    Requires gcd(e, ell) = 1; raises NoRoot when seed^e != a mod ell.
    """
    ell, n = a.ell, a.n
    if gcd(e, ell) != 1:
        raise ValueError("exponent must be prime to ell")
    if (pow(seed, e, ell) - a.value) % ell:
        raise NoRoot(f"{seed}^{e} != {a.value} mod {ell}")
    x, prec = seed % ell, 1
    while prec < n:
        prec = min(2 * prec, n)
        mod = ell ** prec
        fx = (pow(x, e, mod) - a.value) % mod
        dfx = e * pow(x, e - 1, mod) % mod
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return TruncatedPadic(x, ell, n)
