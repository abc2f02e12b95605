"""Small exact number-theory helpers used throughout the package.

Everything here works on plain Python integers; nothing is randomized and
nothing uses floating point.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_split(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, or None."""
    f = factorize(n)
    if len(f) != 1:
        return None
    p, k = next(iter(f.items()))
    return p, k


def valuation(n: int, p: int) -> int:
    """Largest v with p**v dividing n (n nonzero)."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


from functools import lru_cache


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def has_order(x: int, order: int, mod: int) -> bool:
    """True iff x has exact multiplicative order `order` mod `mod`."""
    x %= mod
    if pow(x, order, mod) != 1:
        return False
    return all(pow(x, order // p, mod) != 1 for p in factorize(order))


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod odd prime p."""
    for z in range(2, p):
        if pow(z, (p - 1) // 2, p) == p - 1:
            return z
    raise ValueError(f"{p} has no non-residue; not an odd prime?")
