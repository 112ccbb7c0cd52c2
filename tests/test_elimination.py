import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import check_bounds, check_division_identity
from oracles import brute_admissible
from symdesign.algebra import PrimePower, factorize, is_prime
from symdesign import elimination
from symdesign.elimination import (
    EXPECTED_PAIRS,
    EXTERNALLY_EXCLUDED,
    AdmissiblePair,
    GroupFamilySpec,
    admissible,
    corollary_families,
    load_catalog,
    out_order,
    out_order_bound,
    run_catalog,
    run_row,
    simple_order,
)


def spec(family, n, q):
    return GroupFamilySpec(family, n, PrimePower.of(q))


# --- group orders ------------------------------------------------------------


def test_simple_orders_known_values():
    assert simple_order(spec("PSL", 2, 7)) == 168
    assert simple_order(spec("PSL", 2, 11)) == 660
    assert simple_order(spec("PSL", 3, 2)) == 168
    assert simple_order(spec("PSU", 4, 2)) == 25920
    assert simple_order(spec("PSp", 4, 3)) == 25920
    assert simple_order(spec("PSL", 3, 4)) == 20160
    assert simple_order(spec("OmegaOdd", 7, 3)) == 4585351680
    assert simple_order(spec("POmegaPlus", 8, 2)) == 174182400
    assert simple_order(spec("POmegaMinus", 8, 2)) == 197406720


def test_exceptional_isomorphism_orders():
    assert simple_order(spec("PSL", 2, 4)) == simple_order(spec("PSL", 2, 5)) == 60
    assert simple_order(spec("PSL", 2, 9)) == 360
    assert simple_order(spec("PSL", 4, 2)) == 20160
    assert simple_order(spec("PSp", 4, 3)) == simple_order(spec("PSU", 4, 2))
    # PSL4(2) ~ Alt8 shares its order with PSL3(4) but is not isomorphic to it
    assert simple_order(spec("PSL", 4, 2)) == simple_order(spec("PSL", 3, 4))


def test_psu4_2_index_of_h0():
    # |PSU4(2)| / |stabilizer of an isotropic point| = 45
    assert simple_order(spec("PSU", 4, 2)) // 576 == 45


def test_spec_validation():
    with pytest.raises(ValueError):
        spec("PSL", 2, 2)
    with pytest.raises(ValueError):
        spec("PSU", 3, 2)
    with pytest.raises(ValueError):
        spec("PSp", 4, 2)
    with pytest.raises(ValueError):
        spec("PSp", 5, 3)
    with pytest.raises(ValueError):
        spec("OmegaOdd", 7, 4)
    with pytest.raises(ValueError):
        spec("POmegaPlus", 6, 3)
    with pytest.raises(ValueError):
        GroupFamilySpec("E8", 8, PrimePower.of(2))


def test_out_orders():
    assert out_order(spec("PSL", 2, 7)) == 2
    assert out_order(spec("PSL", 2, 9)) == 4
    assert out_order(spec("PSL", 3, 4)) == 12
    assert out_order(spec("PSU", 4, 2)) == 2
    assert out_order(spec("PSU", 6, 2)) == 6
    assert out_order(spec("PSp", 4, 4)) == 4  # graph automorphism in char 2
    assert out_order(spec("PSp", 6, 3)) == 2
    assert out_order(spec("OmegaOdd", 7, 3)) == 2
    with pytest.raises(ValueError):
        out_order(spec("POmegaPlus", 8, 3))


def test_out_order_bounds():
    assert out_order_bound(spec("POmegaPlus", 8, 3)) == 24
    assert out_order_bound(spec("POmegaPlus", 10, 3)) == 8
    assert out_order_bound(spec("POmegaMinus", 8, 9)) == 16
    assert out_order_bound(spec("PSL", 2, 7)) == 2


def test_order_p_part_divisibility():
    # the full q-power in the formula divides the simple order
    for family, n in (("PSL", 4), ("PSU", 4), ("PSp", 4)):
        for q in (2, 3, 4, 5, 7, 8, 9):
            try:
                s = spec(family, n, q)
            except ValueError:
                continue
            e = {"PSL": n * (n - 1) // 2, "PSU": n * (n - 1) // 2, "PSp": (n // 2) ** 2}[
                family
            ]
            p, a = s.q.p, s.q.a
            assert simple_order(s) % (p ** (a * e)) == 0


# --- admissibility scans -----------------------------------------------------


def test_admissible_paley():
    pairs = admissible(11, 60)
    assert [(p.k, p.lam) for p in pairs] == [(5, 2), (6, 3)]


def test_admissible_fano():
    pairs = admissible(7, 24)
    assert pairs == [AdmissiblePair(4, 2)]


def test_admissible_unitary():
    pairs = admissible(45, 1152)
    assert pairs == [AdmissiblePair(12, 3)]


def test_admissible_empty_cases():
    assert admissible(28431, 645120) == []
    assert admissible(325, 360, 5) == []
    assert admissible(3159, 2903040) == []
    # min(k_bound, v - 2) < 3 leaves no k to scan
    assert admissible(7, 2) == []
    assert admissible(4, 12) == []


def test_admissible_891():
    pairs = admissible(891, 446 * 223)
    assert AdmissiblePair(446, 223) in pairs


def test_admissible_required_lambda_filter():
    pairs = admissible(11, 60, required_lambda=2)
    assert pairs == [AdmissiblePair(5, 2)]


def test_admissible_rejects_tiny_v():
    with pytest.raises(ValueError):
        admissible(3, 6)


# v - 1 and k_bound share many small primes, so the scan meets 2^m unitary
# divisors of gcd(v - 1, k_bound); planted rows (lam^2(lam + 2), lam(lam + 1)c)
# carry k = lam(lam + 1)
MANY_PRIMES = 2**5 * 3**4 * 5**2 * 7 * 11 * 13 * 17
AGREEMENT_CASES = [
    (7, 24, None),
    (11, 60, None),
    (45, 1152, None),
    (891, 446 * 223, None),
    (325, 360, 5),
    (7381, 3960, 11),
    (41905, 14688, 17),
    (28431, 645120, None),
    (3838185, 15482880, None),
    (3159, 2903040, None),
    (22113, 415720, None),
    (22113, 414720, None),
    (2401, 2400, None),
    (1001, 5040, None),
    (11, 1, None),
    (11, 2, None),
    (30031, MANY_PRIMES, None),
    (360361, MANY_PRIMES, None),
    (510511, MANY_PRIMES, None),
    (510511, MANY_PRIMES, 2),
    (7**2 * 9, 7 * 8 * 3 * 5 * 11, None),
    (13**2 * 15, 13 * 14 * 2 * 3**2, 13),
]


def test_admissible_accepts_factorization():
    pairs = admissible(11, factorize(60))
    assert len(pairs) == 2
    for v, bound, lam in AGREEMENT_CASES:
        if bound == 1:  # factorize needs n >= 2
            continue
        assert admissible(v, factorize(bound), lam) == admissible(v, bound, lam)


# (2^61 - 1)(2^89 - 1): a product of two large primes
HARD_BOUND = (2**61 - 1) * (2**89 - 1)


def refuse_unless_divides(monkeypatch, n):
    """Stub factorize so that it raises unless its argument divides n."""

    def stub(m):
        if n % m:
            raise AssertionError(f"factorize({m}) called")
        return factorize(m)

    monkeypatch.setattr(elimination, "factorize", stub)


def test_admissible_small_range_needs_no_factorization(monkeypatch):
    # only gcd(v - 1, k_bound), a divisor of v - 1, is ever factorized
    for v in (100, 10**4 + 2, 1000003):
        refuse_unless_divides(monkeypatch, v - 1)
        assert admissible(v, HARD_BOUND) == []
    refuse_unless_divides(monkeypatch, 10**4 - 1)
    assert admissible(10**4, 2**3 * 3 * 9973 * HARD_BOUND) == brute_admissible(
        10**4, 2**3 * 3 * 9973
    )


def test_admissible_agrees_with_brute_scan():
    for v, bound, lam in AGREEMENT_CASES:
        pairs = admissible(v, bound, lam)
        assert [(p.k, p.lam) for p in pairs] == brute_admissible(v, bound, lam), (
            v,
            bound,
        )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 2000),
    st.integers(1, 10**6),
    st.none() | st.sampled_from([p for p in range(50) if is_prime(p)]),
)
def test_admissible_property_matches_brute_scan(v, b, lam):
    assert [(p.k, p.lam) for p in admissible(v, b, lam)] == brute_admissible(v, b, lam)


# --- exact bound lemmas --------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_psl_order_bounds(n, q):
    if (n, q) in ((2, 2), (2, 3)):
        pytest.skip("PSL not simple")
    assert check_bounds("psl_order", n=n, q=q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_psu_order_bounds(n, q):
    if (n, q) == (3, 2):
        pytest.skip("PSU3(2) not simple")
    assert check_bounds("psu_order", n=n, q=q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_psp_order_bounds(n, q):
    if (n, q) == (4, 2):
        pytest.skip("PSp4(2) not simple")
    assert check_bounds("psp_order", n=n, q=q)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("n", [7, 9, 11])
def test_omega_order_bounds(n, q):
    assert check_bounds("omega_order", n=n, q=q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize("eps", [1, -1])
def test_pomega_order_bounds(n, q, eps):
    assert check_bounds("pomega_order", n=n, q=q, eps=eps)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("psl_order", {"n": 1}, r"PSL_n\(q\) needs n >= 2"),
        ("psu_order", {"n": 2}, r"PSU_n\(q\) needs n >= 3"),
        ("psp_order", {"n": 5}, r"PSp_n\(q\) needs even n >= 4"),
        ("omega_order", {"n": 5}, r"Omega_n\(q\) needs odd n >= 7"),
        ("pomega_order", {"n": 6, "eps": 1}, "POmega needs even n >= 8"),
        ("pomega_order", {"n": 9, "eps": -1}, "POmega needs even n >= 8"),
    ],
)
def test_order_bounds_reject_n_below_family_range(kind, params, message):
    with pytest.raises(ValueError, match=message):
        check_bounds(kind, q=3, **params)


def test_factorial_bounds():
    for t in range(5, 31):
        assert check_bounds("factorial5", t=t)
    for t in range(4, 31):
        assert check_bounds("factorial2", t=t)
    with pytest.raises(ValueError):
        check_bounds("factorial5", t=4)
    with pytest.raises(ValueError):
        check_bounds("factorial2", t=3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_product_bounds(n, q):
    assert check_bounds("product", n=n, q=q)


def test_large_bound_predicate():
    assert check_bounds("large", x_order=100, out_order=2, h0_order=5)
    assert not check_bounds("large", x_order=1000, out_order=2, h0_order=5)


def test_unknown_bound_kind():
    with pytest.raises(ValueError):
        check_bounds("nonsense")


# --- division identities -------------------------------------------------------


def test_division_identities_all_cases():
    for t in (3, 4, 5, 6):
        for n in range(max(7, t + 2), 41):
            assert check_division_identity(n, t), (n, t)


def test_division_identity_guards():
    with pytest.raises(ValueError):
        check_division_identity(6, 3)
    with pytest.raises(ValueError):
        check_division_identity(7, 6)  # j = 1 < 2
    with pytest.raises(ValueError):
        check_division_identity(10, 7)


def test_division_identity_perturbation_control():
    # a perturbed remainder must break the identity: check by recomputing the
    # remainder of g_n modulo q^j - 1 directly and comparing
    from lemmas import _H_R_TABLE, _g_poly

    n, t = 12, 4
    j = n - t
    g = _g_poly(n)
    # long division of g by q^j - 1 over the integers
    rem = dict(g)
    quo: dict = {}
    while rem and max(rem) >= j:
        e = max(rem)
        c = rem[e]
        quo[e - j] = quo.get(e - j, 0) + c
        rem[e - j] = rem.get(e - j, 0) + c
        del rem[e]
        rem = {k: v for k, v in rem.items() if v}
    assert rem == _H_R_TABLE[t][1]


# --- parameter families --------------------------------------------------------


def test_corollary_families_lambda3():
    fams = corollary_families(3)
    assert (45, 12, 3, 9, 5, 3) in fams
    assert (45, 12, 3, 5, 9, 2) in fams
    assert (45, 12, 3, 9, 5, 3) == fams[0]
    assert len(fams) == 3  # 3 mod 6 == 3, so the third family applies
    assert fams[2] == (9 * 5, 3 * 8 // 2, 3, 9, 5, 3)


def test_corollary_families_lambda7():
    fams = corollary_families(7)
    assert fams[0] == (441, 56, 7, 49, 9, 7)
    assert fams[1] == (441, 56, 7, 9, 49, 2)
    # 7 mod 6 == 1: third family with d = (49+28-1)/4 = 19
    assert fams[2] == (13 * 19, 42, 7, 13, 19, 3)


def test_corollary_families_lambda5():
    fams = corollary_families(5)
    assert fams == [(175, 30, 5, 25, 7, 5), (175, 30, 5, 7, 25, 2)]


def test_corollary_families_rejects_composite():
    with pytest.raises(ValueError):
        corollary_families(4)


def test_corollary_families_identity_for_small_primes():
    lam = 2
    while lam <= 1000:
        if is_prime(lam):
            for v, k, l, c, d, ell in corollary_families(lam):
                assert k * (k - 1) == l * (v - 1)
                assert c * d == v
                assert l == lam
        lam += 1


# --- catalog -------------------------------------------------------------------


def test_catalog_loads_and_validates():
    rows = load_catalog()
    assert len(rows) == 32
    ids = [r.id for r in rows]
    assert len(set(ids)) == 32
    assert "t1-fano" in ids and "inline-891" in ids
    for row in rows:
        assert row.v % 2 == 1


def test_catalog_all_rows_pass():
    reports = run_catalog()
    assert all(r.status == "PASS" for r in reports), [
        (r.row.id, r.status, r.note) for r in reports if r.status != "PASS"
    ]


def test_catalog_expected_pairs():
    by_id = {r.row.id: r for r in run_catalog()}
    for row_id, pairs in EXPECTED_PAIRS.items():
        assert list(by_id[row_id].pairs) == pairs
    for rep in by_id.values():
        if rep.row.id not in EXPECTED_PAIRS:
            assert rep.pairs == ()


def test_catalog_externally_excluded_note():
    by_id = {r.row.id: r for r in run_catalog()}
    for row_id in EXTERNALLY_EXCLUDED:
        assert "external" in by_id[row_id].note


def test_inline_omega7_row_derives_from_the_group_order():
    # X = Omega_7(3) on the nondegenerate minus-type 2-spaces, X_alpha =
    # (Omega_2^-(3) x Omega_5(3)).4 (class C1, Kleidman-Liebeck 1990), with
    # |Omega_2^-(3)| = (3 + 1)/2 and Omega_5(3) of the order of PSp_4(3)
    x = spec("OmegaOdd", 7, 3)
    row = next(r for r in load_catalog() if r.id == "inline-omega7")
    assert row.v * ((3 + 1) // 2 * simple_order(spec("PSp", 4, 3)) * 4) == simple_order(x)
    assert row.k_bound == out_order(x) * simple_order(x) // row.v == 414720


def test_run_catalog_table_filter():
    t1 = run_catalog("t1")
    assert [r.row.id for r in t1] == ["t1-fano", "t1-paley", "t1-unitary"]
    one = run_catalog("t6-1")
    assert len(one) == 1 and one[0].status == "PASS"
    with pytest.raises(ValueError):
        run_catalog("t99")


def test_run_row_detects_mismatch():
    from symdesign.elimination import CatalogRow

    bogus = CatalogRow("x", "X", "H", 11, 60, None, "x")
    rep = run_row(bogus)
    assert rep.status == "FAIL"
    assert "expected" in rep.note


def test_run_row_reports_scan_error_as_inconclusive(monkeypatch):
    def fail(v, k_bound, required_lambda):
        raise ValueError("factorization gave up")

    monkeypatch.setattr(elimination, "admissible", fail)
    rep = run_row(load_catalog()[0])
    assert (rep.pairs, rep.status, rep.note) == ((), "INCONCLUSIVE", "factorization gave up")


def test_run_row_lets_a_bug_in_the_scan_raise(monkeypatch):
    def broken(v, k_bound, required_lambda):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(elimination, "admissible", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_row(load_catalog()[0])
