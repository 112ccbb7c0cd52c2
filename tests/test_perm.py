import random
import time
from itertools import combinations, permutations, product
from math import factorial

import pytest

from oracles import brute_elements, brute_group_order, brute_minimal_block
from symdesign.constructions import load_group
from symdesign.perm import (
    Permutation,
    PermutationGroup,
    parse_generators,
    read_group_file,
    write_group_file,
)

SIGMA1 = (
    "(1,2,4,5,3)(6,16,43,13,14)(7,39,33,45,26)(8,21,37,32,28)(9,11,25,35,10)"
    "(12,44,24,40,17)(15,30,38,23,19)(18,34,20,31,41)(22,36,27,42,29)"
)


def perm_order(g):
    n = 1
    h = g
    while not h.is_identity():
        h = h * g
        n += 1
    return n


def test_parse_sigma1():
    g = Permutation.from_cycles(SIGMA1, 45)
    assert perm_order(g) == 5
    assert Permutation.from_cycles(g.cycle_string(), 45) == g


def test_parse_empty_is_identity():
    G = parse_generators("", 5)
    assert G.order() == 1
    assert G.orbit(3) == {3}


def test_parse_cycle_type():
    g = Permutation.from_cycles("(1,2)(3,4,5)", 5)
    assert perm_order(g) == 6


@pytest.mark.parametrize(
    "text",
    ["(1,2", "(1,2)(2,3)", "(0,1)", "(1,6)", "(1,,2)", "1,2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        Permutation.from_cycles(text, 5)


def test_compose_inverse_identity():
    g = Permutation.from_cycles("(1,2,3)(4,5)", 6)
    assert (g * g.inverse()).is_identity()


def test_orbit_sigma_group_transitive():
    G = load_group("sigma45.grp")
    assert G.orbit(0) == frozenset(range(45))


def test_orbit_fixed_point():
    G = parse_generators("(1,2)", 4)
    assert G.orbit(2) == {2}


def test_order_sym3():
    G = parse_generators("(1,2)\n(1,2,3)", 3)
    assert G.order() == 6


def test_order_sigma_group():
    assert load_group("sigma45.grp").order() == 3240


def test_order_psu42():
    assert load_group("psu4_2.grp").order() == 25920


def test_contains():
    G = parse_generators("(1,2,3)", 3)
    assert G.contains(Permutation.from_cycles("(1,3,2)", 3))
    assert not G.contains(Permutation.from_cycles("(1,2)", 3))
    S = load_group("sigma45.grp")
    s3 = Permutation.from_cycles(
        "(2,5,3,4)(6,17,32,20,11,26,23,29)(7,30,42,43,12,21,34,35)"
        "(8,31,10,45,15,22,13,40)(9,39,19,27,14,44,28,18)(16,24,37,41,25,33,38,36)",
        45,
    )
    s5 = Permutation.from_cycles(
        "(1,6,11)(3,40,45)(4,41,36)(5,13,10)(8,35,39)(9,42,38)(14,37,34)"
        "(15,44,43)(17,32,29)(18,30,33)(20,23,26)(21,27,24)",
        45,
    )
    assert S.contains(s3 * s5)


def test_contains_degree_mismatch():
    G = parse_generators("(1,2,3)", 3)
    with pytest.raises(ValueError):
        G.contains(Permutation.identity(4))


def test_contains_generator_products():
    for name in ("sigma45.grp", "psl2_11.grp", "psl2_7.grp"):
        G = load_group(name)
        gens = G.generators
        for a, b in combinations(gens, 2):
            assert G.contains(a * b)
        for a, b, c in list(product(gens, repeat=3))[:40]:
            assert G.contains(a * (b * c))


def test_point_stabilizer_sym3():
    G = parse_generators("(1,2)\n(1,2,3)", 3)
    assert G.point_stabilizer(0).order() == 2


def test_point_stabilizer_sigma():
    G = load_group("sigma45.grp")
    stab = G.point_stabilizer(0)
    assert stab.order() == 72
    assert all(g(0) == 0 for g in stab.generators)


def test_point_stabilizer_identity_group():
    G = parse_generators("", 4)
    assert G.point_stabilizer(2).order() == 1


def test_orbit_stabilizer_identity():
    rng = random.Random(7)
    for _ in range(10):
        degree = rng.randrange(4, 9)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        G = PermutationGroup(gens, degree)
        for alpha in range(degree):
            assert (
                G.order()
                == len(G.orbit(alpha)) * G.point_stabilizer(alpha).order()
            )


def check_chain_against_brute(G):
    """Order, membership and every point stabilizer of G against the
    closure of its generators."""
    degree = G.degree
    raw = [g.images for g in G.generators]
    elements = brute_elements(raw, degree)
    assert G.order() == len(elements)
    for a in range(degree):
        assert G.orbit(a) == {p[a] for p in elements}
    if degree <= 6:
        for images in permutations(range(degree)):
            assert G.contains(Permutation(images)) == (images in elements), images
    for a in range(degree):
        stab = G.point_stabilizer(a)
        assert all(g(a) == a and g.images in elements for g in stab.generators)
        assert stab.order() == sum(1 for p in elements if p[a] == a)


def test_schreier_sims_vs_brute_closure():
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
        if brute > 10**4:  # pragma: no cover - degree cap keeps this small
            continue
        assert G.order() == brute
        check_chain_against_brute(G)
        checked += 1
    for G in (
        PermutationGroup([], 5),
        PermutationGroup([Permutation.identity(5)]),
        PermutationGroup([], 1),
        PermutationGroup([Permutation.identity(1)]),
    ):
        check_chain_against_brute(G)


def test_deep_chain_symmetric_30():
    # a 30-level chain: every base point has a full orbit
    G = parse_generators("(" + ",".join(map(str, range(1, 31))) + ")\n(1,2)", 30)
    assert G.order() == factorial(30)
    assert G.point_stabilizer(29).order() == factorial(29)


def test_subdegrees_sym3():
    G = parse_generators("(1,2)\n(1,2,3)", 3)
    assert G.subdegrees(0) == [1, 2]


def test_subdegrees_psl2_11():
    G = load_group("psl2_11.grp")
    assert G.subdegrees(0) == [1, 10]


def test_subdegrees_sigma():
    G = load_group("sigma45.grp")
    sub = G.subdegrees(0)
    assert sum(sub) == 45
    assert sub[0] == 1


def test_subdegrees_requires_transitive():
    G = parse_generators("(1,2)", 4)
    with pytest.raises(ValueError):
        G.subdegrees(0)


def test_minimal_block_sigma_exact():
    G = load_group("sigma45.grp")
    blk = G.minimal_block(0, 5)
    assert sorted(p + 1 for p in blk) == [1, 6, 11, 17, 20, 23, 26, 29, 32]


def test_minimal_block_cyclic4():
    G = parse_generators("(1,2,3,4)", 4)
    assert G.minimal_block(0, 2) == {0, 2}


def test_minimal_block_vs_brute_force():
    cases = [
        ("(1,2,3,4)", 4),
        ("(1,2,3,4,5,6)", 6),
        ("(1,2,3,4,5,6,7,8)", 8),
        ("(1,2,3,4,5,6)\n(1,4)(2,3)(5,6)", 6),
        ("(1,2,3,4,5,6,7,8,9,10,11,12)", 12),
        ("(1,2,3)(4,5,6)(7,8,9)\n(1,4,7)(2,5,8)(3,6,9)", 9),
        ("(1,2)(3,4)\n(1,3)(2,4)", 4),
        # intransitive groups
        ("(1,2,3,4)", 6),
        ("(1,2)(3,4)\n(5,6,7)", 7),
        ("(1,2,3,4,5,6)(7,8)", 8),
        ("", 3),
    ]
    for text, degree in cases:
        G = parse_generators(text, degree)
        raw = [g.images for g in G.generators]
        for beta in range(1, degree):
            assert G.minimal_block(0, beta) == brute_minimal_block(
                raw, degree, 0, beta
            ), (text, beta)


def test_is_primitive_sigma_witness():
    G = load_group("sigma45.grp")
    primitive, system = G.is_primitive()
    assert not primitive
    assert (system.class_size, system.num_classes) == (9, 5)
    classes = system.classes()
    # classes are numbered in the order of their smallest points
    assert [min(cls) for cls in classes] == [0, 1, 2, 3, 4]
    for g in G.generators:
        for cls in classes:
            assert frozenset(g(p) for p in cls) in classes


def test_is_primitive_prime_degree():
    G = load_group("psl2_11.grp")
    primitive, system = G.is_primitive()
    assert primitive and system is None


def test_is_primitive_psu42():
    primitive, _ = load_group("psu4_2.grp").is_primitive()
    assert primitive


def test_block_system_rejects_non_block():
    G = load_group("sigma45.grp")
    with pytest.raises(ValueError, match="set is not a block"):
        G.block_system({0, 1})
    # the class of {2, 3} is every point, so its least point is 0, not 2
    with pytest.raises(ValueError, match="set is not a block"):
        parse_generators("(1,2,3,4,5,6)", 6).block_system({2, 3})


def test_block_system_rejects_large_non_block_fast():
    # S_30 moves {0..9} onto C(30, 10) distinct sets; the union-find never
    # builds them
    G = parse_generators("(" + ",".join(map(str, range(1, 31))) + ")\n(1,2)", 30)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="set is not a block"):
        G.block_system(range(10))
    assert time.perf_counter() - start < 0.5


def test_block_system_rejects_intransitive_group():
    # {0, 2} is a block of <(1,2,3,4)> on 6 points, but points 4 and 5 lie
    # in no image of it
    G = parse_generators("(1,2,3,4)", 6)
    with pytest.raises(ValueError, match="block orbit does not cover all points"):
        G.block_system({0, 2})
    assert G.block_system({0, 1, 2, 3, 4, 5}).num_classes == 1


def test_group_file_round_trip(tmp_path):
    G = load_group("sigma45.grp")
    path = tmp_path / "g.grp"
    write_group_file(path, G)
    H = read_group_file(path)
    assert H.degree == 45 and H.order() == 3240
    assert [g.images for g in H.generators] == [g.images for g in G.generators]


def test_group_file_round_trip_identity_generator(tmp_path):
    G = PermutationGroup([Permutation.identity(5), Permutation.from_cycles("(1,2,3)", 5)])
    path = tmp_path / "g.grp"
    write_group_file(path, G)
    assert path.read_text() == "degree 5\n()\n(1,2,3)\n"
    H = read_group_file(path)
    assert [g.images for g in H.generators] == [g.images for g in G.generators]
    assert H.order() == 3


def test_group_file_bad_header(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("points 5\n(1,2)\n")
    with pytest.raises(ValueError):
        read_group_file(path)


def test_concurrent_chain_build():
    import threading

    G = load_group("psu4_2.grp")
    results = []

    def worker():
        results.append(G.order())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [25920] * 4
