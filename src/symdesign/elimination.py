"""Arithmetic elimination machinery.

Exact order formulas for the classical simple groups, the flag-transitivity
divisibility/primality constraints on (v, k, lambda), and a catalog of
(v, k-divisor-bound) rows that a divisor scan shows admit no prime lambda.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import Factorization, PrimePower, divisors, factorize, is_prime

FAMILIES = ("PSL", "PSU", "PSp", "OmegaOdd", "POmegaPlus", "POmegaMinus")


class GroupFamilySpec(namedtuple("GroupFamilySpec", "family n q")):
    """A classical simple group X: family, ambient dimension n, and q, a
    PrimePower."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        f, n, q = self.family, self.n, self.q.q
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}")
        if f == "PSL" and (n < 2 or (n, q) in ((2, 2), (2, 3))):
            raise ValueError("PSL_n(q) needs n >= 2 and (n,q) != (2,2),(2,3)")
        if f == "PSU" and (n < 3 or (n, q) == (3, 2)):
            raise ValueError("PSU_n(q) needs n >= 3 and (n,q) != (3,2)")
        if f == "PSp" and (n < 4 or n % 2 or (n, q) == (4, 2)):
            raise ValueError("PSp_n(q) needs even n >= 4 and (n,q) != (4,2)")
        if f == "OmegaOdd" and (n < 7 or n % 2 == 0 or q % 2 == 0):
            raise ValueError("Omega_n(q) needs odd n >= 7 and odd q")
        if f in ("POmegaPlus", "POmegaMinus") and (n < 8 or n % 2):
            raise ValueError("POmega needs even n >= 8")
        return self


def _prod(q: int, lo: int, hi: int, sign_alt: bool = False) -> int:
    """Product of q^j - 1 over lo <= j <= hi, or of q^j - (-1)^j with sign_alt."""
    out = 1
    for j in range(lo, hi + 1):
        out *= q**j - ((-1) ** j if sign_alt else 1)
    return out


def simple_order(spec: GroupFamilySpec) -> int:
    """Exact order of the simple group."""
    n, q = spec.n, spec.q.q
    if spec.family == "PSL":
        return q ** (n * (n - 1) // 2) * _prod(q, 2, n) // math.gcd(n, q - 1)
    if spec.family == "PSU":
        return q ** (n * (n - 1) // 2) * _prod(q, 2, n, sign_alt=True) // math.gcd(n, q + 1)
    m = n // 2
    if spec.family in ("PSp", "OmegaOdd"):  # PSp_2m(q) and Omega_2m+1(q) share an order
        return q ** (m * m) * _prod(q * q, 1, m) // math.gcd(2, q - 1)
    sign = 1 if spec.family == "POmegaPlus" else -1
    o = q ** (m * (m - 1)) * (q**m - sign) * _prod(q * q, 1, m - 1)
    return o // math.gcd(4, q**m - sign)


def out_order(spec: GroupFamilySpec) -> int:
    """Exact |Out(X)| for the linear, unitary, symplectic and odd-dimensional
    orthogonal families; for the even-dimensional orthogonal families only a
    divisibility bound is safe (see out_order_bound)."""
    n, q, a = spec.n, spec.q.q, spec.q.a
    if spec.family == "PSL":
        if n == 2:
            return a * math.gcd(2, q - 1)
        return 2 * a * math.gcd(n, q - 1)
    if spec.family == "PSU":
        return 2 * a * math.gcd(n, q + 1)
    if spec.family == "PSp":
        # graph automorphism only for Sp4 in characteristic 2
        extra = 2 if (n == 4 and q % 2 == 0) else 1
        return extra * a * math.gcd(2, q - 1)
    if spec.family == "OmegaOdd":
        return 2 * a
    raise ValueError(
        f"exact |Out| not modeled for {spec.family}; use out_order_bound"
    )


def out_order_bound(spec: GroupFamilySpec) -> int:
    """An integer that |Out(X)| divides, for every family."""
    a = spec.q.a
    if spec.family == "POmegaPlus":
        return 24 * a if spec.n == 8 else 8 * a
    if spec.family == "POmegaMinus":
        return 8 * a
    return out_order(spec)


AdmissiblePair = namedtuple("AdmissiblePair", "k lam")


def admissible(v, k_bound, required_lambda=None):
    """All k dividing k_bound that survive the flag-transitivity arithmetic.

    Constraints: 2 < k < v-1; (v-1) | k(k-1); lambda = k(k-1)/(v-1) prime;
    lambda*v < k^2; lambda equals required_lambda when given.  Returns the
    admissible (k, lambda) pairs in increasing k.

    k_bound itself is never factorized.  Since gcd(k, k-1) = 1, each prime
    power exactly dividing v-1 divides k or k-1, so a = gcd(v-1, k) is a
    unitary divisor of v-1 (coprime to b = (v-1)/a) that divides
    g = gcd(v-1, k_bound).  By the CRT, k = 0 (mod a) and k = 1 (mod b) fix
    k modulo v-1, so each such a gives at most one k in 3..v-2.  That k is
    a(a^-1 mod b) <= a(b-1) <= v-2, so lambda < k and lambda*v =
    k^2 - k + lambda < k^2 hold without a test.
    """
    if v < 4:
        raise ValueError("admissible needs v >= 4")
    value = k_bound.value if isinstance(k_bound, Factorization) else k_bound
    if value < 1:
        raise ValueError("admissible needs k_bound >= 1")
    pairs = []
    g = math.gcd(v - 1, value)
    if g == 1:
        return pairs
    for a in divisors(factorize(g)):
        b = (v - 1) // a
        if math.gcd(a, b) != 1:
            continue
        k = a * pow(a, -1, b)
        if k < 3 or value % k:
            continue
        lam = k * (k - 1) // (v - 1)
        if required_lambda is not None and lam != required_lambda:
            continue
        if not is_prime(lam):
            continue
        pairs.append(AdmissiblePair(k, lam))
    return sorted(pairs, key=lambda pair: pair.k)


def corollary_families(lam: int):
    """Imprimitivity parameter families for a prime lambda.

    Returns tuples (v, k, lambda, c, d, l) where c*d = v and every block
    meets a class in 0 or l points, one per rule that applies, so two
    rules that coincide give equal tuples (lambda = 2 and 3).
    """
    if not is_prime(lam):
        raise ValueError("lambda must be prime")
    out = []
    v = lam * lam * (lam + 2)
    k = lam * (lam + 1)
    out.append((v, k, lam, lam * lam, lam + 2, lam))
    out.append((v, k, lam, lam + 2, lam * lam, 2))
    if lam % 6 in (1, 3):  # lam is odd, so 4 divides lam^2 + 4 lam - 1
        d = (lam * lam + 4 * lam - 1) // 4
        out.append(((lam + 6) * d, lam * (lam + 5) // 2, lam, lam + 6, d, 3))
    return out


# --- the elimination catalog -------------------------------------------------


class CatalogRow(namedtuple("CatalogRow", "id x h0 v k_bound required_lambda table")):
    __slots__ = ()  # v and k_bound are ints, required_lambda an int or None

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.v % 2 == 0 or self.v < 3 or self.k_bound < 1:
            raise ValueError(f"bad catalog row {self.id}")
        return self


# rows where the expected scan outcome is a specific nonempty pair list
EXPECTED_PAIRS = {
    "t1-fano": [AdmissiblePair(4, 2)],
    "t1-paley": [AdmissiblePair(5, 2), AdmissiblePair(6, 3)],
    "t1-unitary": [AdmissiblePair(12, 3)],
    "inline-891": [AdmissiblePair(446, 223)],
}

# rows that scan admissibly but are excluded by external classification
EXTERNALLY_EXCLUDED = {"inline-891"}


def load_catalog() -> list[CatalogRow]:
    from importlib import resources  # imported on first read: it is slow to load

    text = resources.files("symdesign.data").joinpath("catalog.txt").read_text(encoding="utf-8")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) not in (5, 6):
            raise ValueError(f"malformed catalog line: {line}")
        lam = int(parts[5]) if len(parts) == 6 and parts[5] else None
        rows.append(
            CatalogRow(
                parts[0], parts[1], parts[2], int(parts[3]), int(parts[4]),
                lam, parts[0].split("-")[0],
            )
        )
    return rows


# status is PASS, FAIL or INCONCLUSIVE; pairs a tuple of AdmissiblePair
RowReport = namedtuple("RowReport", "row pairs status note", defaults=("",))


def run_row(row: CatalogRow) -> RowReport:
    try:
        pairs = admissible(row.v, row.k_bound, row.required_lambda)
    except (ValueError, ArithmeticError) as exc:  # factorization trouble, not a bug
        return RowReport(row, (), "INCONCLUSIVE", str(exc))
    expected = EXPECTED_PAIRS.get(row.id, [])
    if pairs == expected:
        note = ""
        if row.id in EXTERNALLY_EXCLUDED:
            note = "arithmetic-consistent; excluded by external classification"
        return RowReport(row, tuple(pairs), "PASS", note)
    return RowReport(
        row, tuple(pairs), "FAIL",
        f"expected {expected or 'EMPTY'}, scan found {pairs or 'EMPTY'}",
    )


def run_catalog(table: str = "all") -> list[RowReport]:
    rows = load_catalog()
    if table != "all":
        rows = [r for r in rows if r.table == table or r.id == table]
        if not rows:
            raise ValueError(f"no catalog rows match {table!r}")
    return [run_row(row) for row in rows]
