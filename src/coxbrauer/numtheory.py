"""Small exact number-theory helpers used throughout the package.

Everything here works on plain Python integers; nothing is randomized and
nothing uses floating point.
"""

from __future__ import annotations

from functools import lru_cache


# The first 13 primes.  Miller-Rabin with these bases is exact for every
# n below MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError from
    MILLER_RABIN_BOUND (about 3.3e24) on, where the bases stop being
    exact."""
    if n < 2:
        return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is too large for the primality test "
                         f"(exact below {MILLER_RABIN_BOUND})")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, by Newton's method from above."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)        # 2^ceil(bits/k) > the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_split(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, or None.

    If n = p**k, the largest k for which n is a perfect k-th power is that
    k, so the exponents are tried from the top down and the first perfect
    power decides.
    """
    if n < 2:
        return None
    for k in range(n.bit_length(), 0, -1):
        root = integer_root(n, k)
        if root ** k == n:
            return (root, k) if is_prime(root) else None
    return None


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


def unit_generators(n: int) -> list[int]:
    """A generating set of the unit group (Z/n)^x, -1 first, read off the
    factorization of n; the group itself is never listed.

    Each odd prime power q = p^e of n gives a primitive root g mod p, or
    g + p when g^(p-1) = 1 mod p^2, which is then primitive mod every
    power of p, lifted by the Chinese remainder theorem to 1 modulo n/q.
    A power of two 2^e, e >= 3, gives 5 so lifted; (Z/2^e)^x is generated
    by -1 and 5, and the lift of -1 mod 2^e is -1 times the unit that is
    -1 on every odd prime power, a power of their generators.  A unit
    equal to one already listed is left out, so n <= 2 gives the empty
    set.
    """
    gens = [n - 1] if n > 2 else []
    for p, e in factorize(n).items():
        q = p ** e
        if p == 2:
            local = [5] if e >= 3 else []
        else:
            g = next(g for g in range(2, p) if has_order(g, p - 1, p))
            local = [g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g]
        rest = n // q
        for g in local:
            lift = 1 + rest * ((g - 1) * pow(rest, -1, q) % q)
            if lift not in gens:
                gens.append(lift)
    return gens
