"""Acceptance suite: eight criteria, each printing one pass/fail line.

Run via `pytest tests/test_acceptance.py -v -s`; without `-s` pytest captures the
`ACCEPT n PASS` lines, and the conftest hook still prints its summary.
"""

import random
import time

from lemmas import check_bounds, check_division_identity
from oracles import (
    brute_admissible,
    brute_group_order,
    brute_minimal_block,
    brute_verify_symmetric,
    group_from_text,
)
from symdesign.algebra import is_prime
from symdesign.constructions import catalog, pg_params, projective_space
from symdesign.design import is_flag_transitive
from symdesign.elimination import (
    AdmissiblePair,
    corollary_families,
    load_catalog,
    run_catalog,
)
from symdesign.perm import Permutation, PermutationGroup

BLOCK_C = (1, 6, 11, 17, 20, 23, 26, 29, 32)


def _report(num, label, start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"\nACCEPT {num} PASS {label} ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    expected = {
        "fano_complement": (7, 4, 2),
        "paley_11_5_2": (11, 5, 2),
        "paley_complement_11_6_3": (11, 6, 3),
        "unitary_45_12_3": (45, 12, 3),
        "imprimitive_45_12_3": (45, 12, 3),
    }
    for name, params in expected.items():
        inst = catalog(name)
        p = inst.design.verify_symmetric()
        assert (p.v, p.k, p.lam) == params, name
        assert is_flag_transitive(inst.group, inst.design), name
    _report(1, "Table-1 designs verify and are flag-transitive", start, 5)


def test_criterion_2_example_2_4_end_to_end():
    start = time.perf_counter()
    inst = catalog("imprimitive_45_12_3")  # sigma45.grp and the base block of Example 2.4
    G, D = inst.group, inst.design
    assert G.order() == 3240
    assert len(D.blocks) == 45
    p = D.verify_symmetric()
    assert (p.v, p.k, p.lam) == (45, 12, 3)
    assert is_flag_transitive(G, D)
    primitive, system = G.is_primitive()
    assert not primitive
    block = G.minimal_block(0, 5)
    assert sorted(x + 1 for x in block) == sorted(BLOCK_C)
    assert frozenset(x - 1 for x in BLOCK_C) in {
        frozenset(c) for c in system.classes()
    }
    _report(2, "degree-45 example: order 3240, (45,12,3), 9x5 system", start, 2)


def test_criterion_3_projective_family():
    start = time.perf_counter()
    cases = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    for n, q in cases:
        v = (q**n - 1) // (q - 1)
        k = (q ** (n - 1) - 1) // (q - 1)
        lam = (q ** (n - 2) - 1) // (q - 1)
        assert pg_params(n, q) == (v, k, lam)
        p = projective_space(n, q).verify_symmetric()
        assert (p.v, p.k, p.lam) == (v, k, lam), (n, q)
    prime_lams = {(n, q): is_prime(pg_params(n, q)[2]) for n, q in cases}
    assert prime_lams == {
        (3, 2): False, (3, 3): False, (4, 2): True, (4, 3): False, (5, 2): True,
    }
    assert pg_params(4, 2)[2] == 3 and pg_params(5, 2)[2] == 7
    _report(3, "projective spaces verify; lambda prime exactly for (4,2),(5,2)", start, 5)


def test_criterion_4_elimination_catalog():
    start = time.perf_counter()
    from symdesign.elimination import run_row

    big_row = next(r for r in load_catalog() if r.id == "inline-psl10")
    big_start = time.perf_counter()
    big = run_row(big_row)
    big_elapsed = time.perf_counter() - big_start
    assert big.status == "PASS"
    reports = run_catalog()
    assert len(reports) == 32
    by_id = {r.row.id: r for r in reports}
    for rep in reports:
        assert rep.status == "PASS", (rep.row.id, rep.note)
        if rep.row.id in ("t1-fano", "t1-paley", "t1-unitary", "inline-891"):
            assert rep.pairs, rep.row.id
        else:
            assert rep.pairs == (), rep.row.id
    assert big.pairs == ()
    excl = by_id["inline-891"]
    assert excl.pairs == (AdmissiblePair(446, 223),)
    assert "excluded by external classification" in excl.note
    total = time.perf_counter() - start
    assert total < 600 and big_elapsed < 300
    print(f"\nACCEPT 4 PASS 32-row elimination catalog, all EMPTY or as expected"
          f" ({total:.2f}s < 600s)")


def test_criterion_5_family_identities():
    start = time.perf_counter()
    lam = 2
    while lam <= 1000:
        if is_prime(lam):
            fams = corollary_families(lam)
            for v, k, l, c, d, ell in fams:
                assert k * (k - 1) == l * (v - 1), lam
                assert c * d == v
            has_c = len(fams) == 3
            assert has_c == (lam % 6 in (1, 3)), lam
        lam += 1
    _report(5, "family identities hold for all primes lambda <= 1000", start, 1)


def test_criterion_6_bound_lemmas():
    start = time.perf_counter()
    qs = (2, 3, 4, 5, 7, 8, 9)
    for q in qs:
        for n in range(3, 13):
            assert check_bounds("product", n=n, q=q)
            if n >= 2 and (n, q) not in ((2, 2), (2, 3)):
                assert check_bounds("psl_order", n=n, q=q)
            if n >= 3 and (n, q) != (3, 2):
                assert check_bounds("psu_order", n=n, q=q)
            if n >= 4 and n % 2 == 0 and (n, q) != (4, 2):
                assert check_bounds("psp_order", n=n, q=q)
            if n >= 7 and n % 2 and q % 2:
                assert check_bounds("omega_order", n=n, q=q)
            if n >= 8 and n % 2 == 0:
                assert check_bounds("pomega_order", n=n, q=q, eps=1)
                assert check_bounds("pomega_order", n=n, q=q, eps=-1)
    for t in range(4, 31):
        assert check_bounds("factorial2", t=t)
        if t >= 5:
            assert check_bounds("factorial5", t=t)
    for t in (3, 4, 5, 6):
        for n in range(max(7, t + 2), 41):
            assert check_division_identity(n, t)
    _report(6, "order/factorial/product bounds and division identities", start, 10)


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    # designs with v <= 50 vs brute-force pair counting
    designs = []
    for name in ("fano_complement", "paley_11_5_2", "paley_complement_11_6_3",
                 "unitary_45_12_3", "imprimitive_45_12_3", "biplane16_ea",
                 "biplane16_z2z8", "biplane16_q8z2"):
        inst = catalog(name)
        designs.append((name, inst.design, inst.expected_params))
    for n, q in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2)):
        D = projective_space(n, q)
        if D.v <= 50:
            designs.append((f"pg({n},{q})", D, pg_params(n, q)))
    for name, D, params in designs:
        assert D.v <= 50
        assert brute_verify_symmetric(D.v, D.blocks) == params, name
        p = D.verify_symmetric()
        assert (p.v, p.k, p.lam) == params, name

    # Schreier-Sims order vs closure enumeration, 25 random groups
    rng = random.Random(20260823)
    checked = 0
    while checked < 25:
        degree = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        G = PermutationGroup(gens, degree)
        brute = brute_group_order([g.images for g in gens], degree)
        if brute > 10**4:
            continue
        assert G.order() == brute
        checked += 1

    # minimal blocks vs exhaustive search, degree <= 12
    for text, degree in (
        ("(1,2,3,4,5,6,7,8,9,10,11,12)", 12),
        ("(1,2,3,4,5,6)\n(1,4)(2,3)(5,6)", 6),
        ("(1,2,3)(4,5,6)(7,8,9)\n(1,4,7)(2,5,8)(3,6,9)", 9),
        ("(1,2,3,4,5,6,7,8)", 8),
    ):
        G = group_from_text(text, degree)
        raw = [g.images for g in G.generators]
        for beta in range(1, degree):
            assert G.minimal_block(0, beta) == brute_minimal_block(
                raw, degree, 0, beta
            )

    # admissible vs full-range scan for all catalog rows with k_bound <= 10^7
    from symdesign.elimination import admissible

    rows = [r for r in load_catalog() if r.k_bound <= 10**7]
    assert rows, "no small catalog rows"
    for row in rows:
        pairs = admissible(row.v, row.k_bound, row.required_lambda)
        assert [(p.k, p.lam) for p in pairs] == brute_admissible(
            row.v, row.k_bound, row.required_lambda
        ), row.id
    elapsed = time.perf_counter() - start
    print(f"\nACCEPT 7 PASS oracle equivalence: designs, orders, blocks,"
          f" divisor scans -- zero discrepancies ({elapsed:.2f}s)")


def test_criterion_8_subdegree_divisibility():
    start = time.perf_counter()
    for name in ("fano_complement", "paley_11_5_2", "paley_complement_11_6_3",
                 "unitary_45_12_3", "imprimitive_45_12_3"):
        inst = catalog(name)
        _, k, lam = inst.expected_params
        subs = inst.group.subdegrees(0)
        assert subs[0] == 1 and sum(subs) == inst.design.v
        for d in subs[1:]:
            assert (lam * d) % k == 0, (name, d)
    _report(8, "k divides lambda*d for every subdegree, all five instances", start, 5)
