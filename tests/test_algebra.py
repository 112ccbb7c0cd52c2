import itertools
import math
import random
from collections import Counter

import pytest

from oracles import (
    brent_rho_reference,
    brute_factorize,
    brute_gf,
    sieve_primes,
    strong_test_12,
)
from symdesign import algebra, elimination
from symdesign.algebra import (
    FieldTable,
    Factorization,
    PrimePower,
    divisors,
    factorize,
    is_prime,
    is_prime_certain,
    _miller_rabin,
    _pollard_rho,
    _prime_chunks,
    _strong_lucas,
)


def test_is_prime_small_values():
    assert is_prime(223)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert not is_prime(3241)  # 7 * 463
    assert 3241 == 7 * 463


def test_is_prime_agrees_with_sieve_below_million():
    flags = sieve_primes(10**6)
    mismatches = [n for n in range(10**6) if is_prime(n) != flags[n]]
    assert mismatches == []


def test_is_prime_certainty_flag():
    assert is_prime_certain(10**9 + 7) == (True, True)
    prime_big = 2**89 - 1  # Mersenne prime above 2**64
    ok, certain = is_prime_certain(prime_big)
    assert ok and not certain
    # composite verdicts above 2**64 are certain
    assert is_prime_certain(2**89 - 1 + 2) == (False, True)


# OEIS A217255: strong Lucas pseudoprimes (Selfridge parameters) below 140000
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
    40309, 58519, 75077, 97439, 100127, 113573, 115639, 130139,
]


def test_strong_lucas_matches_sieve_and_pseudoprime_list():
    limit = 140_000
    flags = sieve_primes(limit)
    passing_composites = []
    for n in range(5, limit, 2):
        if math.isqrt(n) ** 2 == n:
            continue
        if flags[n]:
            assert _strong_lucas(n), n
        elif _strong_lucas(n):
            passing_composites.append(n)
    assert passing_composites == STRONG_LUCAS_PSEUDOPRIMES


def test_is_prime_above_2_64_runs_lucas_ladder():
    # neither is a Mersenne number, so the Lucas ladder has bits to climb
    p = 2**64 + 13
    assert is_prime(p)
    assert is_prime(10**20 + 39)
    assert not is_prime(p * (2**61 - 1))
    assert is_prime_certain(p * p) == (False, True)  # caught as a perfect square


def test_factorize_known_values():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(645120).factors == ((2, 11), (3, 2), (5, 1), (7, 1))
    f = factorize(6710027434028590694400)
    assert f.value == 6710027434028590694400
    prod = 1
    for p, e in f.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == f.value


def test_factorize_random_reconstruction():
    rng = random.Random(20260823)
    for _ in range(10**4):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


# primes above 10**6, beyond the old trial-division table
_LARGE_PRIMES = (1000003, 2**31 - 1, 10**9 + 7, 2**61 - 1)


def test_factorize_products_of_mid_primes():
    """Primes in (10**4, 10**6) are past trial division and go to rho:
    p^2, p^3, p*q, p*q*r and p^2*q, each also times a prime above 10**6."""
    flags = sieve_primes(10**6)
    mid = [p for p in range(10**4, 10**6) if flags[p]]
    rng = random.Random(20261018)
    for shape in ((2,), (3,), (1, 1), (1, 1, 1), (2, 1)):
        for _ in range(40):
            primes = []
            for e in shape:
                primes += [rng.choice(mid)] * e
            for extra in ([], [rng.choice(_LARGE_PRIMES)]):
                n = 1
                for p in primes + extra:
                    n *= p
                expected = tuple(sorted(Counter(primes + extra).items()))
                assert factorize(n).factors == expected, n


# psi_t (Jaeschke 1993; OEIS A014233), keyed by the largest t it bounds:
# the least odd composite that is a strong pseudoprime to the first t primes
_PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    8: 341550071728321,
    11: 3825123056546413051,
}
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_is_prime_rejects_each_psi_bound():
    """Each psi_t passes the first t witnesses, so it is exactly the input a
    witness prefix one too short would call prime."""
    for t, psi in _PSI.items():
        assert all(_miller_rabin(psi, a) for a in _WITNESSES[:t]), psi
        assert not _miller_rabin(psi, _WITNESSES[t]), psi
        assert is_prime_certain(psi) == (False, True), psi


def test_is_prime_matches_twelve_witnesses_below_2_64():
    rng = random.Random(20261019)
    ns = [rng.randrange(1, 2**64, 2) for _ in range(10**5)]
    ns += [psi + d for psi in _PSI.values() for d in (-2, 2)]
    ns += [2**64 - 59, 2**64 - 1]  # the largest prime below 2**64, and a composite
    mismatches = [n for n in ns if is_prime_certain(n) != (strong_test_12(n), True)]
    assert mismatches == []
    assert is_prime(2**64 - 59)


def test_pollard_rho_matches_per_step_reference():
    """The batched loop returns the per-step loop's factor: on odd composites
    below 2000, whose cycles are so short that the lone steps at r = 1 and 2
    decide the factor; on products of primes just above 10**4 (cycles met
    within a few batches, often only on the backtrack); on 30-32-bit prime
    pairs; and on prime squares."""
    flags = sieve_primes(10**6)
    ns = [n for n in range(9, 2000, 2) if not flags[n]]
    above = [p for p in range(10**4, 10**6) if flags[p]]
    ns += [p * q for p, q in itertools.combinations_with_replacement(above[:24], 2)]
    rng = random.Random(20261019)
    ns += [p * p for p in rng.sample([p for p in range(3, 10**6) if flags[p]], 40)]

    def prime_between(lo, hi):
        while True:
            p = rng.randrange(lo, hi) | 1
            if is_prime(p):
                return p

    ns += [prime_between(2**29, 2**32) * prime_between(2**29, 2**32) for _ in range(10)]
    # found with the reference: 10007 * 10151 meets a batch gcd equal to n, so
    # the ys backtrack runs; 10007 * 10099 also collapses once and retries c = 2
    ns += [101581057, 101060693]
    assert len(ns) >= 1000
    mismatches = [n for n in ns if _pollard_rho(n) != brent_rho_reference(n)]
    assert mismatches == []
    assert _pollard_rho(101581057) == _pollard_rho(101060693) == 10007


def _chunk_edge_values():
    chunks = [chunk for _, chunk in _prime_chunks()]
    values = [prev[-1] * nxt[0] for prev, nxt in zip(chunks, chunks[1:])]
    values += [chunk[i] ** 2 for chunk in chunks for i in (0, -1)]
    values += [9973**2, 9973 * 10007, 2**200 * 3**100 * 9973]
    values += [math.prod(chunk) for chunk in chunks]
    values.append(math.prod(p for chunk in chunks for p in chunk))
    return values


def test_factorize_at_chunk_edges():
    for n in _chunk_edge_values():
        assert factorize(n).factors == brute_factorize(n), n


def test_factorize_hands_per_prime_cofactor_to_is_prime(monkeypatch):
    """The gcd-gated chunks leave the cofactor that dividing by every prime
    below 10**4, up to the first p with p*p > n, leaves; factorize asks
    ``is_prime`` about it through the module name, which the tracer patches."""
    flags = sieve_primes(10**4)
    small = [p for p in range(10**4) if flags[p]]

    def per_prime_cofactor(n):
        for p in small:
            if p * p > n:
                break
            while n % p == 0:
                n //= p
        return n

    asked = []

    def recording(n, _is_prime=algebra.is_prime):
        asked.append(n)
        return _is_prime(n)

    monkeypatch.setattr(algebra, "is_prime", recording)
    rng = random.Random(20261019)
    values = _chunk_edge_values() + [rng.randrange(2, 10**12) for _ in range(2000)]
    values += [p * 1000003 for p in small[60:70]] + [small[200] ** 3 * 10007**2]
    for n in values:
        asked.clear()
        factorize(n)
        cofactor = per_prime_cofactor(n)
        assert asked[:1] == ([cofactor] if cofactor > 1 else []), n


def test_elimination_imports_the_traced_names():
    # bench/tracing.py patches these names in elimination as well as in algebra
    assert elimination.factorize is algebra.factorize
    assert elimination.divisors is algebra.divisors
    assert elimination.is_prime is algebra.is_prime


def test_factorization_rejects_bad_list():
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))


def test_divisors_streams():
    assert list(divisors(factorize(360))) == [
        1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30, 36, 40, 45, 60,
        72, 90, 120, 180, 360,
    ]
    assert list(divisors(factorize(24))) == [1, 2, 3, 4, 6, 8, 12, 24]
    assert list(divisors(Factorization(1, ()))) == [1]
    f = factorize(645120)
    ds = list(divisors(f))
    assert len(ds) == 144
    assert ds == sorted(set(ds))
    assert all(645120 % d == 0 for d in ds)


def test_divisors_match_brute_filter():
    rng = random.Random(20261018)
    for _ in range(200):
        primes = rng.sample([2, 3, 5, 7, 11, 13, 10007, 1000003], rng.randrange(0, 5))
        factors = tuple(sorted((p, rng.randrange(1, 5)) for p in primes))
        n = 1
        for p, e in factors:
            n *= p**e
        f = Factorization(n, factors)
        every = []
        for exps in itertools.product(*(range(e + 1) for _, e in factors)):
            d = 1
            for (p, _), i in zip(factors, exps):
                d *= p**i
            every.append(d)
        every.sort()
        assert list(divisors(f)) == every, factors


def test_prime_power_recognition():
    assert PrimePower.of(81) == PrimePower(3, 4)
    assert PrimePower.of(2).q == 2
    # p above the trial-division table
    assert PrimePower.of(10007**2) == PrimePower(10007, 2)
    assert PrimePower.of(1000003**2) == PrimePower(1000003, 2)
    with pytest.raises(ValueError, match="is not a prime power"):
        PrimePower.of(10007 * 1000003)
    # recognized without factoring: a product of two large primes, and a
    # cube of a 521-bit prime, are answered at once
    with pytest.raises(ValueError, match="is not a prime power"):
        PrimePower.of((2**61 - 1) * (2**89 - 1))
    assert PrimePower.of((2**521 - 1) ** 3) == PrimePower(2**521 - 1, 3)
    for q in (-1, 0, 1):
        with pytest.raises(ValueError, match="is not a prime power"):
            PrimePower.of(q)
    with pytest.raises(ValueError):
        PrimePower.of(12)
    with pytest.raises(ValueError):
        PrimePower(4, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    F = FieldTable(PrimePower.of(q))
    add, mul = F.add, F.mul
    for x in range(q):
        for y in range(q):
            assert add[x][y] == add[y][x]
            assert mul[x][y] == mul[y][x]
            for z in range(q):
                assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
                assert add[x][add[y][z]] == add[add[x][y]][z]
    for x in range(1, q):
        assert mul[x][F.inv[x]] == 1
        assert add[x][F.neg[x]] == 0


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125])
def test_field_tables_match_brute_force(q):
    F = FieldTable(PrimePower.of(q))
    add, mul, neg, inv = brute_gf(F.p, F.modulus)
    assert F.add == add
    assert F.mul == mul
    assert F.neg == neg
    assert F.inv == inv


def test_gf2_addition():
    F = FieldTable(PrimePower(2, 1))
    assert F.add[1][1] == 0


def test_gf4_product_of_generators():
    F = FieldTable(PrimePower(2, 2))
    # modulus is t^2 + t + 1; elements 2 and 3 encode t and t+1
    assert F.modulus == (1, 1, 1)
    assert F.mul[2][3] == 1


@pytest.mark.parametrize(
    "q,modulus",
    [
        (4, (1, 1, 1)),
        (8, (1, 0, 1, 1)),
        (9, (1, 0, 1)),
        (16, (1, 0, 0, 1, 1)),
        (25, (1, 1, 1)),
        (27, (1, 0, 2, 1)),
        (49, (1, 0, 1)),
        (81, (1, 0, 1, 1, 1)),
        (32, (1, 0, 0, 1, 0, 1)),
        (64, (1, 0, 0, 0, 0, 1, 1)),
        (121, (1, 0, 1)),
        (125, (1, 0, 1, 1)),
        (128, (1, 0, 0, 0, 0, 0, 1, 1)),
        (169, (1, 3, 1)),
        (243, (1, 0, 0, 0, 2, 1)),
        (256, (1, 0, 0, 0, 1, 1, 0, 1, 1)),
    ],
)
def test_field_modulus_is_smallest_irreducible(q, modulus):
    # pinned: the modulus fixes every field table, hence every written file
    assert FieldTable(PrimePower.of(q)).modulus == modulus


def test_gf9_inverses_exhaustive():
    F = FieldTable(PrimePower(3, 2))
    for x in range(1, 9):
        assert F.mul[x][F.inv[x]] == 1


def field_power(F, x, e):
    """x**e in F by e - 1 multiplications."""
    out = x
    for _ in range(e - 1):
        out = F.mul[out][x]
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 81])
def test_frobenius_is_additive(q):
    F = FieldTable(PrimePower.of(q))
    frob = [field_power(F, x, F.p) for x in range(q)]
    for x in range(q):
        for y in range(q):
            assert frob[F.add[x][y]] == F.add[frob[x]][frob[y]]


def test_multiplicative_group_cyclic():
    for q in (4, 8, 9, 16, 25, 27):
        F = FieldTable(PrimePower.of(q))
        orders = []
        for g in range(1, q):
            powers = [g]
            while powers[-1] != 1 and len(powers) < q:
                powers.append(F.mul[powers[-1]][g])
            assert powers[-1] == 1, (q, g)
            orders.append(len(powers))
        assert all((q - 1) % e == 0 for e in orders)
        assert max(orders) == q - 1  # a generator exists
