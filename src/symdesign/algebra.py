"""Exact arithmetic: primality, factorization, divisor streams, GF(p^a) tables.

Everything here works on plain Python ints, so all results are exact at any
size.  Primality is deterministic below 2**64 (Miller-Rabin with the first t
prime witnesses, t graded by the size of n) and Baillie-PSW above;
``is_prime_certain`` reports which regime was used so callers can flag
probabilistic answers.  Factorization trial-divides in chunks of primes,
skipping a chunk by one gcd with its product, and splits what is left with
Brent's rho.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache

__all__ = [
    "is_prime",
    "is_prime_certain",
    "Factorization",
    "factorize",
    "divisors",
    "PrimePower",
    "FieldTable",
]


# Deterministic for all n < 2**64 (Sorenson & Webster witness set).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_t for t = 1..11 (Jaeschke 1993; OEIS A014233): the least odd composite
# that is a strong pseudoprime to the first t witnesses, so below psi_t those
# t witnesses prove primality.  psi_12 is above 2**64.
_MR_BOUNDS = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051,
)

_SMALL_PRIME_LIMIT = 10_000
_CHUNK = 64


@lru_cache(maxsize=1)
def _prime_chunks() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The primes below 10**4, by sieve of Eratosthenes, in ascending chunks
    of 64, each with its product."""
    limit = _SMALL_PRIME_LIMIT
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    primes = tuple(i for i in range(limit) if sieve[i])
    chunks = (primes[i : i + _CHUNK] for i in range(0, len(primes), _CHUNK))
    return tuple((math.prod(chunk), chunk) for chunk in chunks)


def _miller_rabin(n: int, base: int) -> bool:
    """True if n is a strong probable prime to the given base, for odd n
    greater than the base."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameter choice."""
    # find D in 5, -7, 9, -11, ... with jacobi(D, n) == -1
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
        if abs(d) > 1_000_000:  # pragma: no cover - would mean n is square
            raise ArithmeticError(f"no Lucas parameter found for {n}")
    p, q = 1, (1 - d) // 4
    # n + 1 = t * 2**s with t odd
    t = n + 1
    s = 0
    while t % 2 == 0:
        t //= 2
        s += 1
    # Lucas sequences U_t, V_t by binary ladder
    u, v, qk = 1, p, q % n
    for bit in bin(t)[3:]:
        u, v = (u * v) % n, (v * v - 2 * qk) % n
        qk = (qk * qk) % n
        if bit == "1":
            u, v = ((p * u + v) * ((n + 1) // 2)) % n, ((d * u + p * v) * ((n + 1) // 2)) % n
            qk = (qk * q) % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u, v = (u * v) % n, (v * v - 2 * qk) % n
        qk = (qk * qk) % n
        if v == 0:
            return True
    return False


def is_prime_certain(n: int) -> tuple[bool, bool]:
    """Primality of n together with whether the answer is deterministic.

    Returns (prime, certain).  Below 2**64 Miller-Rabin is a proof with the
    first t witnesses, where t is the least index with n < psi_t
    (``_MR_BOUNDS``); above, Baillie-PSW (no known counterexample) is used
    and certainty is reported as False.
    """
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n < 2:
        return False, True
    for p in _MR_WITNESSES:
        if n == p:
            return True, True
        if n % p == 0:
            return False, True
    if n < 2**64:
        witnesses = _MR_WITNESSES[: bisect_right(_MR_BOUNDS, n) + 1]
        return all(_miller_rabin(n, a) for a in witnesses), True
    if math.isqrt(n) ** 2 == n:
        return False, True
    ok = _miller_rabin(n, 2) and _strong_lucas(n)
    return ok, not ok  # a composite verdict is certain, a prime one is not


def is_prime(n: int) -> bool:
    return is_prime_certain(n)[0]


class Factorization(namedtuple("Factorization", "value factors")):
    """Complete prime factorization: value == prod(p**e), factors a tuple of
    (p, e) pairs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        prod = 1
        for p, e in self.factors:
            prod *= p**e
        if prod != self.value:
            raise ValueError("factor list does not reconstruct the value")
        return self


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant).

    The additive constant runs through a fixed schedule, so results are
    reproducible run to run.  Between gcd checkpoints the differences x - y
    are multiplied four to a reduction mod n; their signs do not change any
    gcd, so each checkpoint sees the same gcd as one product per step.
    """
    for c in itertools.count(1):
        y, m = 2, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)  # a power of two, so steps & 3 is 0 once r >= 4
                for _ in range(steps & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                for _ in range(steps >> 2):
                    a = (y * y + c) % n
                    b = (a * a + c) % n
                    d = (b * b + c) % n
                    y = (d * d + c) % n
                    q = q * (x - a) * (x - b) * (x - d) * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        # cycle collapsed; retry with the next constant


def factorize(n: int) -> Factorization:
    """Complete factorization.

    Trial division by the primes below 10**4 strips the small factors.  It
    runs over chunks of 64 primes: the first chunk is always divided out,
    and a later one only when its product shares a factor with what is left
    of n.  Each cofactor left over is recorded when ``is_prime`` says it is
    prime, and otherwise split by Pollard rho, whose parts are treated the
    same way.
    """
    if n < 2:
        raise ValueError("factorize needs n >= 2")
    value = n
    counts: dict[int, int] = {}
    for i, (product, chunk) in enumerate(_prime_chunks()):
        if chunk[0] * chunk[0] > n:
            break
        if i and math.gcd(n, product) == 1:
            continue
        for p in chunk:
            if p * p > n:
                break  # and the next chunk's first prime ends the outer loop
            while n % p == 0:
                counts[p] = counts.get(p, 0) + 1
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(value, tuple(sorted(counts.items())))


def divisors(f: Factorization):
    """All divisors of f.value, ascending, each once."""
    divs = [1]
    for p, e in f.factors:
        divs += [d * p**i for d in divs for i in range(1, e + 1)]
    divs.sort()
    yield from divs


class PrimePower(namedtuple("PrimePower", "p a q")):
    """q = p**a with p verified prime."""

    __slots__ = ()

    def __new__(cls, p: int, a: int) -> "PrimePower":
        if a < 1:
            raise ValueError("exponent must be positive")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p, a, p**a)

    def __getnewargs__(self):
        return self.p, self.a  # q is computed, so pickle and copy pass two

    @classmethod
    def of(cls, q: int) -> "PrimePower":
        """Recognize q as p**a or raise.

        Nothing is factored: for each a up to the bit length of q, the
        integer a-th root r of q is taken, and q == r**a with r prime gives
        p = r.  Only the true exponent can give a prime root.
        """
        if q >= 2:
            for a in range(1, q.bit_length() + 1):
                r = _iroot(q, a)
                if r**a == q and is_prime(r):
                    return cls(r, a)
        raise ValueError(f"{q} is not a prime power")


def _iroot(n: int, a: int) -> int:
    """The largest r with r**a <= n, for n >= 1, by integer Newton steps
    down from a power of two above the root (floats overflow past 1e308)."""
    r = 1 << -(-n.bit_length() // a)
    while True:
        s = ((a - 1) * r + n // r ** (a - 1)) // a
        if s >= r:
            return r
        r = s


class FieldTable:
    """GF(p^a) tabulated once, as lists indexed by element.

    Elements are ints in [0, q): the base-p digits of x are the coefficients
    of the polynomial residue, low degree first.  The reducing modulus is
    the lexicographically smallest monic irreducible of degree a over GF(p)
    (coefficients compared low-degree-first), so tables are reproducible.
    ``add[x][y]`` is x + y, ``mul[x][y]`` is x * y, ``neg[x]`` is -x and
    ``inv[x]`` is 1/x for x != 0 (``inv[0]`` is None).

    ``mul`` is built from ``add`` alone, row by row.  Row x < p is the
    scalar multiple, y added to itself x times.  Row x >= p follows from
    rows x % p and x // p by Horner's rule, x = x % p + t * (x // p).
    Candidate moduli are tried in ascending order, and one is rejected as
    soon as a row x >= p holds 0 at some y != 0: the first with no zero
    divisor is irreducible, since a finite commutative ring with no zero
    divisors is a field.
    """

    def __init__(self, prime_power: PrimePower):
        p, a, q = prime_power.p, prime_power.a, prime_power.q
        self.p, self.a, self.q = p, a, q
        weights = [p**i for i in range(a)]
        digits = [[x // w % p for w in weights] for x in range(q)]

        def enc(v) -> int:
            return sum(c * w for c, w in zip(v, weights))

        add = [[enc((u + w) % p for u, w in zip(dx, dy)) for dy in digits] for dx in digits]
        scalars = [[0] * q]
        for _ in range(1, p):
            scalars.append([add[z][y] for y, z in enumerate(scalars[-1])])
        top = q // p
        for coeffs in itertools.product(range(p), repeat=a):
            # t**a = -(m_0 + m_1 t + ... + m_{a-1} t**(a-1)) modulo the candidate
            r = enc(-c % p for c in coeffs)
            # t * y: the lower digits of y move up one place, the top one meets t**a
            times_t = [add[y % top * p][scalars[y // top][r]] for y in range(q)]
            mul = scalars[:]
            for x in range(p, q):
                row = [add[u][times_t[w]] for u, w in zip(mul[x % p], mul[x // p])]
                if 0 in row[1:]:
                    break  # x is a zero divisor
                mul.append(row)
            else:
                break  # every row is built: the candidate is irreducible
        self.modulus = coeffs + (1,)
        self.add, self.mul = add, mul
        self.neg = [row.index(0) for row in add]
        self.inv = [None] + [row.index(1) for row in mul[1:]]
