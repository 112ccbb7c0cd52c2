import random
import tracemalloc
from itertools import combinations

import pytest

from oracles import brute_first_bad_pair, brute_verify_symmetric, flag_transitive_two_step
from symdesign.constructions import catalog, load_group, projective_space
from symdesign.design import (
    DesignError,
    DesignParams,
    IncidenceStructure,
    is_flag_transitive,
    orbit_design,
    read_design_file,
    write_design_file,
)
from symdesign.perm import Permutation, parse_generators

FANO_BLOCKS = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


def test_params_validation():
    p = DesignParams(7, 3, 1)
    assert p.nontrivial
    assert not DesignParams(7, 7, 7).nontrivial
    with pytest.raises(ValueError):
        DesignParams(7, 3, 2)


def test_verify_fano():
    D = IncidenceStructure(7, FANO_BLOCKS)
    assert D.verify_symmetric() == DesignParams(7, 3, 1)


def test_verify_rejects_block_count():
    D = IncidenceStructure(7, FANO_BLOCKS[:6])
    with pytest.raises(DesignError) as exc:
        D.verify_symmetric()
    assert exc.value.code == "block_count"
    assert "6 blocks" in str(exc.value)


def test_verify_rejects_block_size():
    blocks = FANO_BLOCKS[:6] + [(0, 1, 2, 3)]
    with pytest.raises(DesignError) as exc:
        IncidenceStructure(7, blocks).verify_symmetric()
    assert exc.value.code == "block_size"


def test_verify_rejects_pair_count_with_witness():
    # swap one block so the pair {1,2} (1-based 2,3) is covered twice
    blocks = FANO_BLOCKS[:6] + [(1, 2, 4)]
    with pytest.raises(DesignError) as exc:
        IncidenceStructure(7, blocks).verify_symmetric()
    assert exc.value.code == "pair_count"
    # the message names a concrete 1-based witness pair
    assert any(ch.isdigit() for ch in str(exc.value))


def _pair_count_message(v, blocks):
    """The pair_count message for v distinct blocks of one size, from a direct
    scan; None when every pair lies on the same number of blocks."""
    k = len(blocks[0])
    lam = k * (k - 1) // (v - 1) if k * (k - 1) % (v - 1) == 0 else None
    bad = brute_first_bad_pair(v, [set(b) for b in blocks], lam)
    if bad is None:
        return None
    x, y, count = bad
    expected = f", expected {lam}" if lam is not None else ""
    return f"point pair {x + 1},{y + 1} lies on {count} blocks{expected}"


def _verify_message(v, blocks):
    try:
        IncidenceStructure(v, blocks).verify_symmetric()
    except DesignError as exc:
        assert exc.code == "pair_count"
        return str(exc)
    return None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pair_count_names_first_bad_pair_on_corrupted_pg(n):
    # one point of one hyperplane of PG(n-1,2) moved off it
    rng = random.Random(n)
    blocks = [sorted(b) for b in projective_space(n, 2).blocks]
    v = len(blocks)
    for _ in range(20):
        moved = [list(b) for b in blocks]
        blk = rng.choice(moved)
        blk[rng.randrange(len(blk))] = rng.choice([x for x in range(v) if x not in blk])
        expected = _pair_count_message(v, moved)
        assert expected is not None and "expected" in expected
        assert _verify_message(v, moved) == expected


def test_pair_count_names_first_bad_pair_on_random_structures():
    rng = random.Random(0)
    seen = set()
    for _ in range(300):
        v = rng.randrange(3, 11)
        k = rng.randrange(2, v)
        blocks = set()
        while len(blocks) < v:
            blocks.add(tuple(sorted(rng.sample(range(v), k))))
        blocks = list(blocks)
        expected = _pair_count_message(v, blocks)
        assert _verify_message(v, blocks) == expected
        seen.add(None if expected is None else "expected" in expected)
    assert seen == {None, True, False}


def test_verify_rejects_irregular_pair_coverage():
    # 4 points, 4 blocks of size 2 covering only 4 of the 6 pairs
    blocks = [(0, 1), (2, 3), (0, 2), (1, 3)]
    with pytest.raises(DesignError) as exc:
        IncidenceStructure(4, blocks).verify_symmetric()
    assert exc.value.code == "pair_count"


def test_rejects_bad_blocks():
    with pytest.raises(ValueError):
        IncidenceStructure(3, [()])
    with pytest.raises(ValueError):
        IncidenceStructure(3, [(0, 3)])
    with pytest.raises(ValueError):
        IncidenceStructure(0, [])


def test_dedup():
    D = IncidenceStructure(3, [(0, 1), (1, 2), (1, 0)])
    assert len(D.blocks) == 3
    with pytest.raises(DesignError) as exc:
        D.verify_symmetric()
    assert exc.value.code == "repeated_block"
    assert str(exc.value) == "block 1,2 is repeated"
    # two different blocks repeated: the first repeat by position is named,
    # not the repeated block that occurs first
    D = IncidenceStructure(3, [(0, 1), (1, 2), (1, 2), (0, 1)])
    with pytest.raises(DesignError) as exc:
        D.verify_symmetric()
    assert str(exc.value) == "block 2,3 is repeated"


def test_complement_involution_and_params():
    D = IncidenceStructure(7, FANO_BLOCKS)
    C = D.complement()
    assert C.verify_symmetric() == DesignParams(7, 4, 2)
    assert C.complement() == D


def test_complement_of_paley():
    D = catalog("paley_11_5_2").design
    C = D.complement()
    assert C.verify_symmetric() == DesignParams(11, 6, 3)


def test_is_automorphism():
    D = IncidenceStructure(7, FANO_BLOCKS)
    g = Permutation.from_cycles("(1,2,3)(4,6,5)", 7)
    assert D.is_automorphism(g)
    assert not D.is_automorphism(Permutation.from_cycles("(1,2)", 7))
    with pytest.raises(ValueError):
        D.is_automorphism(Permutation.identity(8))


def test_flags_count():
    D = IncidenceStructure(7, FANO_BLOCKS)
    assert sum(len(b) for b in D.blocks) == 21


@pytest.mark.parametrize(
    "name",
    [
        "fano_complement",
        "paley_11_5_2",
        "paley_complement_11_6_3",
        "unitary_45_12_3",
        "imprimitive_45_12_3",
    ],
)
def test_flag_transitive_catalog_both_methods(name):
    inst = catalog(name)
    assert is_flag_transitive(inst.group, inst.design)
    assert flag_transitive_two_step(inst.group, inst.design)


def test_flag_transitivity_methods_agree_on_negative():
    # cyclic group of order 7 on the Fano plane: point-transitive but the
    # point stabilizer is trivial, so not flag-transitive (21 flags > 7)
    cyclic_fano = [(i % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    D = IncidenceStructure(7, cyclic_fano)
    G = parse_generators("(1,2,3,4,5,6,7)", 7)
    assert all(D.is_automorphism(g) for g in G.generators)
    assert not is_flag_transitive(G, D)
    assert not flag_transitive_two_step(G, D)


def test_flag_transitive_rejects_non_automorphism():
    D = IncidenceStructure(7, FANO_BLOCKS)
    G = parse_generators("(1,2)", 7)
    with pytest.raises(ValueError):
        is_flag_transitive(G, D)
    G = parse_generators("(1,2,3)(4,6,5)\n(1,2)(3,4)\n(1,2)", 7)
    with pytest.raises(ValueError, match=r"^generator \(1,2\)\(3,4\) is not an automorphism$"):
        is_flag_transitive(G, D)


def test_flag_transitive_false_with_repeated_block():
    inst = catalog("fano_complement")
    D = IncidenceStructure(7, inst.design.blocks + inst.design.blocks[2:3])
    assert not is_flag_transitive(inst.group, D)
    assert not flag_transitive_two_step(inst.group, D)


def test_flag_orbit_size_equals_vk():
    inst = catalog("unitary_45_12_3")
    # for a flag-transitive symmetric design the flag count is v * k
    assert sum(len(b) for b in inst.design.blocks) == 45 * 12


def test_orbit_design_rejects_bad_block():
    G = load_group("psl2_7.grp")
    with pytest.raises(ValueError):
        orbit_design(G, ())
    with pytest.raises(ValueError):
        orbit_design(G, (0, 9))


def test_orbit_design_fano():
    G = load_group("psl2_7.grp")
    D = orbit_design(G, FANO_BLOCKS[0])
    assert brute_verify_symmetric(7, D.blocks) in ((7, 3, 1), None)
    assert D.verify_symmetric().k == 3


@pytest.mark.parametrize(
    "name,params",
    [
        ("fano_complement", (7, 4, 2)),
        ("paley_11_5_2", (11, 5, 2)),
        ("paley_complement_11_6_3", (11, 6, 3)),
        ("unitary_45_12_3", (45, 12, 3)),
        ("imprimitive_45_12_3", (45, 12, 3)),
        ("biplane16_ea", (16, 6, 2)),
        ("biplane16_z2z8", (16, 6, 2)),
        ("biplane16_q8z2", (16, 6, 2)),
    ],
)
def test_brute_pair_counter_agrees(name, params):
    D = catalog(name).design
    assert brute_verify_symmetric(D.v, D.blocks) == params
    p = D.verify_symmetric()
    assert (p.v, p.k, p.lam) == params


def _verify_or_none(v, blocks):
    """verify_symmetric's answer in the oracle's terms: (v, k, lam) or None."""
    try:
        p = IncidenceStructure(v, blocks).verify_symmetric()
    except DesignError:
        return None
    return (p.v, p.k, p.lam)


# v >= 2: at v = 1 there is no point pair, so the oracle leaves lambda undefined
@pytest.mark.parametrize("v", [2, 3, 4, 5])
def test_verify_agrees_with_brute_on_all_small_families(v):
    # every family of v distinct k-subsets: verify_symmetric no longer checks
    # the dual block-pair condition, the oracle still does
    for k in range(1, v + 1):
        for blocks in combinations(combinations(range(v), k), v):
            assert _verify_or_none(v, blocks) == brute_verify_symmetric(v, blocks), blocks


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog("fano_complement").design,
        lambda: projective_space(4, 2),  # PG(3,2): (15,7,3)
        lambda: catalog("paley_11_5_2").design,
    ],
    ids=["fano_complement", "pg_3_2", "paley_11_5_2"],
)
def test_verify_agrees_with_brute_on_one_point_perturbations(make):
    D = make()
    blocks = D.blocks_sorted()
    assert _verify_or_none(D.v, blocks) == brute_verify_symmetric(D.v, blocks)
    for i, blk in enumerate(blocks):
        for old in blk:
            for new in set(range(D.v)) - set(blk):
                moved = blocks[:i] + [(set(blk) - {old}) | {new}] + blocks[i + 1 :]
                assert _verify_or_none(D.v, moved) == brute_verify_symmetric(D.v, moved)


def test_k_divides_lambda_times_subdegree():
    # for each flag-transitive instance, k divides lambda*d for every
    # nontrivial subdegree d of the group
    for name in ("fano_complement", "paley_11_5_2", "unitary_45_12_3",
                 "imprimitive_45_12_3"):
        inst = catalog(name)
        _, k, lam = inst.expected_params
        for d in inst.group.subdegrees(0)[1:]:
            assert (lam * d) % k == 0, (name, d)


def test_design_file_round_trip(tmp_path):
    D = catalog("unitary_45_12_3").design
    path = tmp_path / "d.design"
    write_design_file(path, D)
    E = read_design_file(path)
    assert E == D
    # byte-identical on rewrite (deterministic output)
    write_design_file(tmp_path / "d2.design", E)
    assert (tmp_path / "d2.design").read_bytes() == path.read_bytes()


def test_design_file_sparse_points_on_large_v(tmp_path):
    # labels are made for the points in use: a table sized by v would take
    # tens of megabytes here
    D = IncidenceStructure(10**6, [(0,), (10**6 - 1, 4)])
    path = tmp_path / "sparse.design"
    tracemalloc.start()
    try:
        write_design_file(path, D)
        E = read_design_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == "v 1000000\n1\n5,1000000\n"
    assert E == D
    assert peak < 10**6


def test_design_file_bad_header(tmp_path):
    path = tmp_path / "bad.design"
    path.write_text("points 7\n1,2,3\n")
    with pytest.raises(ValueError):
        read_design_file(path)


def test_projective_space_round_trip(tmp_path):
    D = projective_space(3, 3)
    path = tmp_path / "pg.design"
    write_design_file(path, D)
    assert read_design_file(path) == D


def test_dual_pair_counts_hold_on_catalog():
    # spot-check the dual condition independently of verify_symmetric
    D = catalog("paley_11_5_2").design
    for b1, b2 in combinations(D.blocks, 2):
        assert len(b1 & b2) == 2
