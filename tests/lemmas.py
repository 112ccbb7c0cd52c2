"""The paper's exact bound lemmas and polynomial division identities.

Property checks for acceptance criterion 6 and the elimination tests: the
inequalities on |X|, |Out X| and |H0| are evaluated with `Fraction`, and the
division identities coefficientwise.  No library path calls them.
"""

import math
from fractions import Fraction

from symdesign.algebra import PrimePower
from symdesign.elimination import GroupFamilySpec, _prod, simple_order


# --- inequality lemmas, evaluated exactly -----------------------------------


def check_bounds(kind: str, **params) -> bool:
    """Exact evaluation of the bound lemmas; True when the bounds hold.

    The group-order kinds raise ValueError, from GroupFamilySpec, for an
    (n, q) outside their family's range.
    """
    if kind == "psl_order":
        n, q = params["n"], params["q"]
        spec = GroupFamilySpec("PSL", n, PrimePower.of(q))
        psl = simple_order(spec)
        sl = psl * math.gcd(n, q - 1)
        upper = Fraction(q**2 - 1, q**2) * q ** (n * n - 1)
        # equality holds at n = 2, where |SL2(q)| = q(q^2 - 1)
        return q ** (n * n - 2) < psl <= sl <= upper
    if kind == "psu_order":
        n, q = params["n"], params["q"]
        spec = GroupFamilySpec("PSU", n, PrimePower.of(q))
        psu = simple_order(spec)
        su = psu * math.gcd(n, q + 1)
        lower = Fraction(q - 1, q) * q ** (n * n - 2)
        upper = Fraction(q**2 - 1, q**2) * Fraction(q**3 + 1, q**3) * q ** (n * n - 1)
        # equality holds at n = 3, where |SU3(q)| = q^3 (q^2 - 1)(q^3 + 1)
        return lower < psu <= su <= upper
    if kind == "psp_order":
        n, q = params["n"], params["q"]
        spec = GroupFamilySpec("PSp", n, PrimePower.of(q))
        psp = simple_order(spec)
        sp = psp * math.gcd(2, q - 1)
        beta = math.gcd(2, q - 1)
        e = n * (n + 1) // 2
        lower = Fraction(q**e, 2 * beta)
        upper = Fraction(q**2 - 1, q**2) * Fraction(q**4 - 1, q**4) * q**e
        return lower < psp <= sp <= upper
    if kind == "omega_order":
        n, q = params["n"], params["q"]
        spec = GroupFamilySpec("OmegaOdd", n, PrimePower.of(q))
        omega = simple_order(spec)  # = Omega_n(q): trivial center in odd dim
        so = 2 * omega
        e = n * (n - 1) // 2
        lower = Fraction(q**e, 4)
        upper = Fraction(q**2 - 1, q**2) * Fraction(q**4 - 1, q**4) * q**e
        return lower < omega < so <= upper
    if kind == "pomega_order":
        n, q, eps = params["n"], params["q"], params["eps"]
        fam = "POmegaPlus" if eps == 1 else "POmegaMinus"
        spec = GroupFamilySpec(fam, n, PrimePower.of(q))
        pomega = simple_order(spec)
        m = n // 2
        # q odd: |SO| = gcd(4, q^m - eps) * |POmega|; q even: SO = O ) Omega
        # with index 2 and POmega = Omega, so |SO| = 2 |POmega|
        so = pomega * (math.gcd(4, q**m - eps) if q % 2 else 2)
        delta = math.gcd(2, q)
        e = n * (n - 1) // 2
        lower = Fraction(q**e, 8)
        upper = (
            delta
            * Fraction(q**2 - 1, q**2)
            * Fraction(q**4 - 1, q**4)
            * Fraction(q**m + 1, q**m)
            * q**e
        )
        return lower < pomega < so <= upper
    if kind == "factorial5":
        t = params["t"]
        if t < 5:
            raise ValueError("factorial5 needs t >= 5")
        return math.factorial(t) ** 3 < 5 ** (t * t - 3 * t + 1)
    if kind == "factorial2":
        t = params["t"]
        if t < 4:
            raise ValueError("factorial2 needs t >= 4")
        return math.factorial(t) ** 3 < 2 ** (4 * t * (t - 3))
    if kind == "product":
        n, q = params["n"], params["q"]
        if n < 3:
            raise ValueError("product needs n >= 3")
        plain = _prod(q, 2, n)
        alt = _prod(q, 2, n, sign_alt=True)
        return q ** (n * (n - 1) // 2) < plain < alt < q ** ((n * n + n - 2) // 2)
    if kind == "large":
        return params["x_order"] < params["out_order"] ** 2 * params["h0_order"] ** 3
    raise ValueError(f"unknown bound kind {kind!r}")


# --- polynomial division identities -----------------------------------------


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _g_poly(n: int) -> dict:
    return _poly_add(
        {2 * n - 1: 1, n + 2: 1, n + 1: -1, n: -1, n - 1: -1},
        {5: 1, 4: -1, 3: -1, 1: 1, 0: 1},
    )


_H_R_TABLE = {
    # t: (h less its top term q^(n+t-1), r), each as exponent -> coefficient
    3: ({5: 2, 4: -1, 3: -1, 2: -1}, {5: 3, 4: -2, 3: -2, 2: -1, 1: 1, 0: 1}),
    4: ({7: 1, 6: 1, 5: -1, 4: -1, 3: -1}, {7: 1, 6: 1, 4: -2, 3: -2, 1: 1, 0: 1}),
    5: ({9: 1, 7: 1, 6: -1, 5: -1, 4: -1}, {9: 1, 7: 1, 6: -1, 4: -2, 3: -1, 1: 1, 0: 1}),
    6: ({11: 1, 8: 1, 7: -1, 6: -1, 5: -1}, {11: 1, 8: 1, 7: -1, 6: -1, 4: -1, 3: -1, 1: 1, 0: 1}),
}


def check_division_identity(n: int, t: int) -> bool:
    """g_n(q) == h_j(q)*(q^j - 1) + r_j(q) with j = n - t, coefficientwise."""
    if t not in _H_R_TABLE:
        raise ValueError("t must be in 3..6")
    j = n - t
    if n < 7 or j < 2:
        raise ValueError("need n >= 7 and j = n - t >= 2")
    h_low, r = _H_R_TABLE[t]
    h = {n + t - 1: 1, **h_low}
    rhs = _poly_add(_poly_mul(h, {j: 1, 0: -1}), r)
    return rhs == _g_poly(n)
