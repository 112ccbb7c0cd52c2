import random
import time
import tracemalloc
from importlib import resources
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_elements,
    brute_group_order,
    brute_minimal_block,
    brute_orbital_block,
    brute_subdegrees,
    chain_subdegrees,
    compose,
    conjugate,
    eager_schreier_generators,
    group_from_text,
    image,
    knuth_chain_reference,
    pgl2_generators,
    relabelled,
    scan_is_primitive,
)
from symdesign.constructions import load_group
from symdesign.perm import (
    MAX_DEGREE,
    Permutation,
    PermutationGroup,
    _kernels,
    _StabilizerChain,
    parse_group_text,
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
    while h != Permutation(range(g.degree)):
        h = compose(h, g)
        n += 1
    return n


def test_parse_sigma1():
    g = Permutation.from_cycles(SIGMA1, 45)
    assert perm_order(g) == 5
    # equal images, parsed or given as a list, make equal permutations
    for h in (Permutation.from_cycles(g.cycle_string(), 45), Permutation(list(g.images))):
        assert h == g and hash(h) == hash(g) and type(h.images) is tuple


def test_parse_empty_is_identity():
    G = group_from_text("", 5)
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


@pytest.mark.parametrize("images", [(0, 0, 1), [1, 2]])
def test_constructor_rejects_non_bijection(images):
    with pytest.raises(ValueError, match="images do not form a bijection"):
        Permutation(images)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: PermutationGroup([]),
            "degree required for an empty generator list",
            id="no-generators",
        ),
        pytest.param(
            lambda: PermutationGroup([Permutation([1, 0]), Permutation([0, 2, 1])]),
            "generator degree mismatch",
            id="generator-degrees",
        ),
        pytest.param(lambda: group_from_text("(1,2,3)", 3).orbit(3), "point out of range", id="orbit"),
        pytest.param(
            lambda: group_from_text("(1,2,3)", 3).point_stabilizer(3),
            "point out of range",
            id="point_stabilizer",
        ),
        pytest.param(
            lambda: group_from_text("(1,2,3)", 3).minimal_block(1, 1),
            "alpha and beta must differ",
            id="minimal_block",
        ),
        pytest.param(
            lambda: group_from_text("(1,2,3,4,5,6)", 6).minimal_block(0, -3),
            "point out of range",
            id="minimal_block-negative",
        ),
        pytest.param(
            lambda: group_from_text("(1,2,3,4,5,6)", 6).minimal_block(0, 6),
            "point out of range",
            id="minimal_block-degree",
        ),
        pytest.param(
            lambda: group_from_text("(1,2,3,4,5,6)", 6).block_system({0, -3}),
            "point out of range",
            id="block_system-negative",
        ),
    ],
)
def test_bad_arguments_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_orbit_sigma_group_transitive():
    G = load_group("sigma45.grp")
    assert G.orbit(0) == frozenset(range(45))


def test_orbit_fixed_point():
    G = group_from_text("(1,2)", 4)
    assert G.orbit(2) == {2}


def test_order_sym3():
    G = group_from_text("(1,2)\n(1,2,3)", 3)
    assert G.order() == 6


def test_order_sigma_group():
    assert load_group("sigma45.grp").order() == 3240


def test_order_psu42():
    assert load_group("psu4_2.grp").order() == 25920


def test_contains():
    G = group_from_text("(1,2,3)", 3)
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
    assert S.contains(compose(s3, s5))


def test_contains_degree_mismatch():
    G = group_from_text("(1,2,3)", 3)
    with pytest.raises(ValueError):
        G.contains(Permutation(range(4)))


def test_contains_generator_products():
    for name in ("sigma45.grp", "psl2_11.grp", "psl2_7.grp"):
        G = load_group(name)
        gens = G.generators
        for a, b in combinations(gens, 2):
            assert G.contains(compose(a, b))
        for a, b, c in list(product(gens, repeat=3))[:40]:
            assert G.contains(compose(a, compose(b, c)))


def test_point_stabilizer_sym3():
    G = group_from_text("(1,2)\n(1,2,3)", 3)
    assert G.point_stabilizer(0).order() == 2


def test_point_stabilizer_sigma():
    G = load_group("sigma45.grp")
    stab = G.point_stabilizer(0)
    assert stab.order() == 72
    assert all(g.images[0] == 0 for g in stab.generators)


def test_point_stabilizer_identity_group():
    G = group_from_text("", 4)
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


def check_chain(chain):
    """The chain's invariants: distinct base points, one generator list, one
    table and one (base point, table) pair in `levels` per level, gens[i]
    fixing base[:i], each table of length degree with the identity table at
    base[i], its non-None points exactly the orbit of base[i] under gens[i]
    and of at least 2 points, and each stored inverse carrying its point
    back to base[i].  Generators and inverses are in the table form of the
    chain's kernels, fixing every point from degree up, and each
    representative, the inverse of a stored inverse, encodes to
    degree-length bytes (tuples above degree 256) whose inverse is exactly
    the stored one."""
    base, identity = chain.base, chain.identity
    degree = len(identity)
    assert len(set(base)) == len(base) == len(chain.gens) == len(chain.transversals)
    assert len(chain.levels) == len(base)
    for (lb, ltr), b, tr in zip(chain.levels, base, chain.transversals):
        assert lb == b and ltr is tr
    for i, (b, gens, tr) in enumerate(zip(base, chain.gens, chain.transversals)):
        assert len(tr) == degree and tr[b] == chain.table(identity)
        stored = {x: inv for x, inv in enumerate(tr) if inv is not None}
        assert len(stored) >= 2
        assert all(g == chain.table(g[:degree]) for g in [*gens, *stored.values()])
        images = [g[:degree] for g in gens]
        assert all(g[c] == c for g in images for c in base[:i])
        level = PermutationGroup([Permutation(g) for g in images], degree)
        assert stored.keys() == level.orbit(b)
        for x, inv in stored.items():
            assert inv[x] == b
            rep = chain.encode(sorted(range(degree), key=inv.__getitem__))
            assert len(rep) == degree and rep[b] == x and chain.invert(rep) == inv


def check_chain_against_brute(G):
    """Order, membership and every point stabilizer of G against the
    closure of its generators."""
    degree = G.degree
    raw = [g.images for g in G.generators]
    elements = brute_elements(raw, degree)
    assert G.order() == len(elements)
    check_chain(G._chain())
    for a in range(degree):
        assert G.orbit(a) == {p[a] for p in elements}
    if degree <= 6:
        for images in permutations(range(degree)):
            assert G.contains(Permutation(images)) == (images in elements), images
    for a in range(degree):
        stab = G.point_stabilizer(a)
        assert all(g.images[a] == a and g.images in elements for g in stab.generators)
        assert stab.order() == sum(1 for p in elements if p[a] == a)


def random_small_groups():
    """25 groups of degree 3-7 on 1 or 2 random generators, the same on
    every call."""
    rng = random.Random(20260823)
    checked = 0
    while checked < 25:
        degree = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        if brute_group_order([g.images for g in gens], degree) > 10**4:  # pragma: no cover
            continue  # the degree cap keeps every group this small
        yield PermutationGroup(gens, degree)
        checked += 1


def test_schreier_sims_vs_brute_closure():
    for G in random_small_groups():
        assert G.order() == brute_group_order([g.images for g in G.generators], G.degree)
        check_chain_against_brute(G)
    for G in (
        PermutationGroup([], 5),
        PermutationGroup([Permutation(range(5))]),
        PermutationGroup([], 1),
        PermutationGroup([Permutation(range(1))]),
    ):
        check_chain_against_brute(G)


def test_orbits_vs_brute_closure():
    for G in random_small_groups():
        elements = brute_elements([g.images for g in G.generators], G.degree)
        want = {frozenset(g[x] for g in elements) for x in range(G.degree)}
        assert G.orbits() == sorted(want, key=min)


def test_orbits_linear_in_degree():
    G = group_from_text("(1,2)", 20_000)
    start = time.perf_counter()
    orbits = G.orbits()
    assert time.perf_counter() - start < 1.0
    assert orbits[0] == {0, 1} and orbits[1:] == [{x} for x in range(2, 20_000)]


def test_one_chain_per_group():
    G = load_group("sigma45.grp")
    G.order()
    chain = G._stabilizer_chain
    for a in range(G.degree):
        G.point_stabilizer(a)
    assert chain is not None
    assert [c for c in vars(G).values() if isinstance(c, _StabilizerChain)] == [chain]
    assert G.contains(G.generators[0]) and G._stabilizer_chain is chain


@pytest.mark.parametrize(
    "name, base, sizes",
    [
        ("sigma45", [0, 5, 1], [45, 8, 9]),
        ("psu4_2", [1, 0, 9, 3], [45, 32, 6, 3]),
        ("psl2_7", [3, 0, 1], [7, 6, 4]),
        ("psl2_11", [2, 1, 0], [11, 10, 6]),
    ],
)
def test_vendored_chain_bases(name, base, sizes):
    # the base follows the generator order and the worklist's order, so a
    # change to either shows here before it shows in a product
    chain = load_group(f"{name}.grp")._chain()
    assert chain.base == base
    assert [sum(inv is not None for inv in tr) for tr in chain.transversals] == sizes


def reference_chain_groups():
    """The groups whose chains are pinned to knuth_chain_reference:
    random_small_groups(), the four vendored groups, relabelled PGL(5,2),
    S14 and A15 (deep bases), PGL(5,2) with identity and repeated
    generators, and the boundary groups at degrees 255, 256 and 257."""
    rng = random.Random(39)
    yield from random_small_groups()
    for name in ("sigma45", "psu4_2", "psl2_7", "psl2_11"):
        yield load_group(f"{name}.grp")
    deep = [pgl2_generators(5)] + [
        group_from_text(f"{head}\n(" + ",".join(map(str, range(1, n + 1))) + ")", n).generators
        for n, head in ((14, "(1,2)"), (15, "(1,2,3)"))
    ]
    for gens in deep:
        yield PermutationGroup(relabelled(gens, rng))
    yield PermutationGroup([Permutation(range(31))] + pgl2_generators(5) * 2)
    for degree in KERNEL_BOUNDARY:
        for _, G in boundary_groups(degree):
            yield G


def test_chain_matches_knuth_reference():
    # the tables hold the reference's stored inverses at the same points,
    # with the same base and the same generators in the same order
    count = 0
    for G in reference_chain_groups():
        base, gens, transversals = knuth_chain_reference(G)
        chain = G._chain()
        assert chain.base == base and chain.gens == gens
        assert len(chain.transversals) == len(transversals)
        for tr, want in zip(chain.transversals, transversals):
            assert {x: inv for x, inv in enumerate(tr) if inv is not None} == want
        count += 1
    assert count == 25 + 4 + 3 + 1 + 3 * len(KERNEL_BOUNDARY)


def test_deep_chain_symmetric_30():
    # a 30-level chain: every base point has a full orbit
    G = group_from_text("(" + ",".join(map(str, range(1, 31))) + ")\n(1,2)", 30)
    assert G.order() == factorial(30)
    assert G.point_stabilizer(29).order() == factorial(29)


def gl2_order(n):
    return prod(2**n - 2**i for i in range(n))


def random_word(rng, gens, length=12):
    g = Permutation(range(gens[0].degree))
    for _ in range(length):
        g = compose(g, rng.choice(gens))
    return g


def full_walk_strip(chain, g):
    """The residue of g sifted through every level of the chain, with each
    product rebuilt through the validating constructor."""
    for b, tr in zip(chain.base, chain.transversals):
        img = g.images[b]
        if img != b:
            inv = tr[img]
            if inv is None:
                return g
            g = Permutation([inv[x] for x in g.images])
    return g


def check_strip_depth(G, members, non_members):
    chain = G._chain()
    check_chain(chain)
    for g, member in [(g, True) for g in members] + [(g, False) for g in non_members]:
        residue = chain.strip(chain.encode(g.images))
        assert residue == chain.encode(full_walk_strip(chain, g).images)
        assert len(residue) == G.degree
        assert (residue == chain.identity) == member


def test_strip_depth_cut_small_groups():
    rng = random.Random(5)
    for G in random_small_groups():
        elements = brute_elements([g.images for g in G.generators], G.degree)
        candidates = [tuple(rng.sample(range(G.degree), G.degree)) for _ in range(40)]
        check_strip_depth(
            G,
            [Permutation(p) for p in sorted(elements)[:40]],
            [Permutation(p) for p in candidates if p not in elements],
        )


def test_strip_depth_cut_symmetric_30():
    rng = random.Random(30)
    G = group_from_text("(" + ",".join(map(str, range(1, 31))) + ")\n(1,2)", 30)
    randoms = [Permutation(rng.sample(range(30), 30)) for _ in range(60)]
    check_strip_depth(G, randoms, [])
    # the stabilizer of the last point: its chain is trivial from level 28 on,
    # and a permutation moving point 29 is outside it
    H = G.point_stabilizer(29)
    check_strip_depth(
        H,
        [random_word(rng, H.generators) for _ in range(30)],
        [g for g in randoms if g.images[29] != 29],
    )


@pytest.mark.parametrize("n", [6, 7])
def test_strip_skips_trivial_levels_pgl(n):
    # in the natural order the base is the basis vectors, points 2^i - 1,
    # in discovery order: 6 of 63 points for PGL(6,2), 7 of 127 for PGL(7,2)
    rng = random.Random(n)
    gens = pgl2_generators(n)
    G = PermutationGroup(gens)
    assert G._chain().base == [0, 1] + [2**i - 1 for i in range(n - 1, 1, -1)]
    members = [random_word(rng, gens) for _ in range(30)]
    # PGL(n,2) is simple, so a member times a transposition is outside; the
    # transpositions move a base point, a point between two base points and
    # a point after the largest base point
    degree = G.degree
    swaps = [(1, 2), (5, 6), (2**n - 3, 2**n - 2), (1, 41)]
    non_members = [
        compose(g, Permutation.from_cycles(f"({x},{y})", degree))
        for g in members for x, y in swaps
    ]
    assert G.order() == gl2_order(n)
    check_strip_depth(G, members, non_members)


@pytest.mark.parametrize(
    "degree, text, b0",
    [
        (250, "(1,2,3)\n(200,225,250)", 0),
        (300, "(1,2,3)\n(200,250,300)", 0),
        (250, "(11,12,13)\n(200,225,250)", 10),
        (300, "(11,12,13)\n(200,250,300)", 10),
    ],
)
def test_strip_across_a_gap_of_trivial_levels(degree, text, b0):
    # C3 x C3 with base points b0 and 199 only, on the byte kernel (250) and
    # the tuple kernel (300)
    G = group_from_text(text, degree)
    b1 = 199
    assert G._chain().base == [b0, b1]
    elements = brute_elements([g.images for g in G.generators], degree)
    members = [Permutation(p) for p in sorted(elements)]
    # each transposition (1-based) moves a point between the base points, a
    # point after the last, a point before the first (when there is one) or
    # a base point
    swaps = [(100, 150), (150, 151), (240, 241), (degree - 1, degree), (b0 + 1, b0 + 2),
             (b1 + 1, b1 + 2)]
    if b0:
        swaps += [(1, 2), (b0, b0 + 1)]
    non_members = [
        compose(g, Permutation.from_cycles(f"({x},{y})", degree))
        for g in members for x, y in swaps
    ]
    non_members += [compose(Permutation.from_cycles(f"({x},{y})", degree), g) for g in members[:3]
                    for x, y in swaps]
    assert not any(g.images in elements for g in non_members)
    assert all(G.contains(g) for g in members)
    assert not any(G.contains(g) for g in non_members)
    check_strip_depth(G, members, non_members)


def test_lone_transposition_at_max_degree_is_one_level():
    # a level opens only at a point some generator moves, so the chain keeps
    # no table per point of the degree
    G = group_from_text(f"({MAX_DEGREE - 1},{MAX_DEGREE})", MAX_DEGREE)
    outside = Permutation.from_cycles("(1,2)", MAX_DEGREE)
    tracemalloc.start()
    try:
        assert G.order() == 2
        assert G.contains(G.generators[0]) and not G.contains(outside)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 8 * 2**20
    assert G._chain().base == [MAX_DEGREE - 2]


def test_many_level_chain_memory():
    # 32 disjoint transpositions at degree 2,048: 32 levels, level i holding
    # 32 - i generators and one inverse as 2,048-tuples besides its table of
    # 2,048 pointers.  A chain with one dict per level retained 9.9 MiB under
    # CPython 3.11; the ceiling is 9% over that, so a layout costing more
    # than one table per level shows.
    G = group_from_text("\n".join(f"({2 * i + 1},{2 * i + 2})" for i in range(32)), 2048)
    tracemalloc.start()
    try:
        assert G.order() == 2**32
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 10.8 * 2**20
    assert G._chain().base == list(range(0, 64, 2))


# Chains and Schreier generators use 256-byte strings up to degree 256 and
# image tuples above; these degrees sit on both sides of the switch.
KERNEL_BOUNDARY = [255, 256, 257]


def boundary_groups(degree):
    """S4 on the last four points, the degree-cycle C_n, and the dihedral
    group D_n (the cycle and the reflection x -> -x), as (name, group)."""
    a, b, c, d = range(degree - 3, degree + 1)
    cycle = Permutation.from_cycles("(" + ",".join(map(str, range(1, degree + 1))) + ")", degree)
    reflection = Permutation([-x % degree for x in range(degree)])
    return [
        ("S4", group_from_text(f"({a},{b},{c},{d})\n({c},{d})", degree)),
        ("C", PermutationGroup([cycle])),
        ("D", PermutationGroup([cycle, reflection])),
    ]


@pytest.mark.parametrize("degree", [1, 2, 31, *KERNEL_BOUNDARY])
def test_kernels_match_image_tuples(degree):
    rng = random.Random(degree)
    encode, table, then, invert, identity = _kernels(degree)
    short = degree <= 256
    form = bytes if short else tuple
    assert type(identity) is form and tuple(identity) == tuple(range(degree))
    # up to degree 256 composing is one C call, with no Python frame
    assert (then is bytes.translate) == short
    for _ in range(20):
        a = tuple(rng.sample(range(degree), degree))
        b = tuple(rng.sample(range(degree), degree))
        a_inv = tuple(sorted(range(degree), key=a.__getitem__))
        ea, eb = encode(a), encode(b)
        assert type(ea) is form and tuple(ea) == a
        ta = table(ea)
        if short:
            # the table fixes every point from degree on
            assert ta == ea + bytes(range(degree, 256))
        else:
            assert ta is ea
            # a sift at a base point ea fixes composes with the identity
            # table itself, which costs no copy
            assert then(ea, identity) is ea
        # invert returns a table
        assert invert(ea) == table(encode(a_inv))
        ab = then(eb, ta)
        assert type(ab) is form and tuple(ab) == tuple(a[x] for x in b)
        assert then(ea, invert(ea)) == identity == then(encode(a_inv), ta)


@pytest.mark.parametrize("degree", KERNEL_BOUNDARY)
def test_chain_at_kernel_boundary(degree):
    rng = random.Random(degree)
    for name, G in boundary_groups(degree):
        elements = brute_elements([g.images for g in G.generators], degree)
        assert G.order() == len(elements) == {"S4": 24, "C": degree, "D": 2 * degree}[name]
        assert type(G._chain().identity) is (bytes if degree <= 256 else tuple)
        members = [Permutation(p) for p in sorted(elements)]
        swap = Permutation.from_cycles(f"(1,{degree - 4})", degree)
        non_members = [Permutation(rng.sample(range(degree), degree)) for _ in range(10)]
        non_members += [compose(g, swap) for g in members[:10]]
        non_members += [compose(swap, g) for g in members[-10:]]
        non_members = [g for g in non_members if g.images not in elements]
        assert len(non_members) >= 20
        assert all(G.contains(g) for g in members)
        assert not any(G.contains(g) for g in non_members)
        check_strip_depth(G, members, non_members)


@pytest.mark.parametrize("degree", KERNEL_BOUNDARY)
def test_stabilizers_at_kernel_boundary(degree):
    for name, G in boundary_groups(degree)[1:]:
        elements = brute_elements([g.images for g in G.generators], degree)
        for point in (0, 1, degree // 2, degree - 1):
            assert G.subdegrees(point) == brute_subdegrees(elements, point)
            stab = G.point_stabilizer(point)
            assert all(g.images[point] == point and g.images in elements for g in stab.generators)
            assert stab.order() == sum(1 for g in elements if g[point] == point)
        primitive, system = G.is_primitive()
        blocks = {brute_orbital_block(elements, 0, beta) for beta in range(1, degree)}
        assert primitive == (blocks == {frozenset(range(degree))}) == (degree == 257)
        assert (primitive, system) == scan_is_primitive(G)
        if not primitive:
            smallest = min(len(b) for b in blocks)
            assert system.class_size == smallest
            assert system.classes()[0] in blocks
            for g in G.generators:
                assert {image(g, cls) for cls in system.classes()} == set(system.classes())


def is_even(g):
    seen = set()
    transpositions = 0
    for start in range(g.degree):
        length = 0
        pt = start
        while pt not in seen:
            seen.add(pt)
            pt = g.images[pt]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 0


def test_strip_depth_cut_relabelled_pgl_5_2():
    rng = random.Random(52)
    gens = relabelled(pgl2_generators(5), rng)
    G = PermutationGroup(gens)
    members = [random_word(rng, gens) for _ in range(40)]
    # PGL(5,2) is simple, so it has only even permutations; a member times a
    # transposition is odd and outside
    swap = Permutation.from_cycles("(1,2)", 31)
    non_members = [compose(g, swap) for g in members]
    for _ in range(40):
        g = Permutation(rng.sample(range(31), 31))
        if not is_even(g):
            non_members.append(g)
    assert G.order() == gl2_order(5)
    check_strip_depth(G, members, non_members)


def test_pgl_7_2_on_127_points():
    G = PermutationGroup(pgl2_generators(7))
    assert G.degree == 127
    assert G.order() == gl2_order(7)
    assert G.subdegrees(0) == [1, 126]
    assert G.is_primitive()[0]


def test_subdegrees_sym3():
    G = group_from_text("(1,2)\n(1,2,3)", 3)
    assert G.subdegrees(0) == [1, 2]


def test_subdegrees_psl2_11():
    G = load_group("psl2_11.grp")
    assert G.subdegrees(0) == [1, 10]


def test_subdegrees_sigma():
    G = load_group("sigma45.grp")
    for p in range(G.degree):
        assert G.subdegrees(p) == [1, 8, 36]


def test_subdegrees_psu42():
    G = load_group("psu4_2.grp")
    for p in range(G.degree):
        assert G.subdegrees(p) == [1, 12, 32]


def test_subdegrees_requires_transitive():
    G = group_from_text("(1,2)", 4)
    with pytest.raises(ValueError):
        G.subdegrees(0)


def test_subdegrees_rejects_point_out_of_range():
    G = group_from_text("(1,2,3,4,5)", 5)
    for point in (-1, 5):
        with pytest.raises(ValueError, match="point out of range"):
            G.subdegrees(point)
    # transitivity is checked first
    for point in (0, -1, 4):
        with pytest.raises(ValueError, match="subdegrees require a transitive group"):
            group_from_text("(1,2)", 4).subdegrees(point)


@pytest.mark.parametrize("n", [8, 9])
def test_subdegrees_build_no_chain(n):
    # the chain of PGL(9, 2) takes seconds; a few Schreier generators of G_0
    # already leave two classes, {0} and the rest
    G = PermutationGroup(pgl2_generators(n))
    assert G.subdegrees(0) == [1, 2**n - 2]
    stab = G.point_stabilizer(0)
    assert stab.generators and all(g.images[0] == 0 for g in stab.generators)
    assert G._stabilizer_chain is None


def test_subdegrees_degree_one_and_two():
    assert PermutationGroup([], 1).subdegrees(0) == [1]
    assert PermutationGroup([Permutation(range(1))]).subdegrees(0) == [1]
    G = group_from_text("(1,2)", 2)
    assert G.subdegrees(0) == G.subdegrees(1) == [1, 1]


def test_subdegrees_regular_group():
    # every Schreier generator of a regular group is the identity
    Z13 = group_from_text("(" + ",".join(map(str, range(1, 14))) + ")", 13)
    for p in range(13):
        assert Z13.subdegrees(p) == [1] * 13


def test_subdegrees_identity_and_repeated_generators():
    g = Permutation.from_cycles("(1,2,3,4,5,6)", 6)
    r = Permutation.from_cycles("(2,6)(3,5)", 6)
    for gens in ([Permutation(range(6)), g], [g, g], [g, Permutation(range(6)), g]):
        assert PermutationGroup(gens).subdegrees(2) == [1, 1, 1, 1, 1, 1]
    for gens in ([g, r, r], [r, Permutation(range(6)), g, g]):
        G = PermutationGroup(gens)  # the dihedral group of order 12
        for p in range(6):
            assert G.subdegrees(p) == [1, 1, 2, 2] == chain_subdegrees(G, p)
    G = PermutationGroup([Permutation(range(31))] + pgl2_generators(5) * 2)
    assert G.subdegrees(7) == [1, 30]


def test_minimal_block_sigma_exact():
    G = load_group("sigma45.grp")
    blk = G.minimal_block(0, 5)
    assert sorted(p + 1 for p in blk) == [1, 6, 11, 17, 20, 23, 26, 29, 32]


def test_minimal_block_cyclic4():
    G = group_from_text("(1,2,3,4)", 4)
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
        G = group_from_text(text, degree)
        raw = [g.images for g in G.generators]
        for beta in range(1, degree):
            assert G.minimal_block(0, beta) == brute_minimal_block(
                raw, degree, 0, beta
            ), (text, beta)


@st.composite
def small_groups(draw):
    degree = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, gens


@settings(max_examples=50, deadline=None)
@given(small_groups())
def test_blocks_and_primitivity_vs_brute_random_groups(case):
    degree, raw = case
    G = PermutationGroup([Permutation(g) for g in raw], degree)
    elements = brute_elements(raw, degree)
    blocks = [brute_minimal_block(raw, degree, 0, beta, elements) for beta in range(1, degree)]
    for beta, blk in enumerate(blocks, start=1):
        assert G.minimal_block(0, beta) == blk == brute_orbital_block(elements, 0, beta), beta
    if {p[0] for p in elements} == set(range(degree)):
        primitive, system = G.is_primitive()
        assert primitive == all(len(blk) == degree for blk in blocks)
        if not primitive:
            # the witness develops the first smallest proper block found
            smallest = min(len(blk) for blk in blocks)
            assert system.classes()[0] == next(b for b in blocks if len(b) == smallest)
            assert system.num_classes * smallest == degree


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
            assert frozenset(g.images[p] for p in cls) in classes


def test_is_primitive_prime_degree():
    G = load_group("psl2_11.grp")
    primitive, system = G.is_primitive()
    assert primitive and system is None


def test_is_primitive_psu42():
    primitive, _ = load_group("psu4_2.grp").is_primitive()
    assert primitive


def wreath_generators(a, b):
    """S_a wr S_b on a*b points, point block*a + i: a transposition and an
    a-cycle inside block 0, and a swap and a b-cycle of whole blocks."""

    def perm(f):
        return Permutation(f(x // a, x % a) for x in range(a * b))

    return [
        perm(lambda blk, i: blk * a + ((1 - i) if blk == 0 and i < 2 else i)),
        perm(lambda blk, i: blk * a + ((i + 1) % a if blk == 0 else i)),
        perm(lambda blk, i: (1 - blk if blk < 2 else blk) * a + i),
        perm(lambda blk, i: (blk + 1) % b * a + i),
    ]


def assert_matches_scan(G):
    primitive, system = G.is_primitive()
    want_primitive, want_system = scan_is_primitive(G)
    assert primitive == want_primitive
    assert (system and system.class_of) == (want_system and want_system.class_of)
    return primitive, system


def scan_cases():
    """Named groups whose is_primitive is checked against the full scan."""
    rng = random.Random(12)
    cases = {}
    for n in range(3, 7):
        cases[f"PGL{n}_2"] = PermutationGroup(relabelled(pgl2_generators(n), rng))
    for a, b in ((2, 4), (3, 3), (4, 2)):
        cases[f"S{a}wrS{b}"] = PermutationGroup(wreath_generators(a, b))
    cases["Z12"] = group_from_text("(" + ",".join(map(str, range(1, 13))) + ")", 12)
    cases["Z3xZ3"] = group_from_text("(1,2,3)(4,5,6)(7,8,9)\n(1,4,7)(2,5,8)(3,6,9)", 9)
    cases["Z2xZ2xZ2"] = group_from_text(
        "(1,2)(3,4)(5,6)(7,8)\n(1,3)(2,4)(5,7)(6,8)\n(1,5)(2,6)(3,7)(4,8)", 8
    )
    for entry in resources.files("symdesign.data").iterdir():
        if entry.name.endswith(".grp"):
            cases[entry.name] = load_group(entry.name)
    return cases


SCAN_CASES = scan_cases()


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_is_primitive_matches_every_beta_scan(name):
    G = SCAN_CASES[name]
    primitive, system = assert_matches_scan(G)
    if "wr" in name:
        assert not primitive and system.num_classes > 1
    if name in ("Z3xZ3", "Z2xZ2xZ2"):
        # every minimal block has the same size; the first beta's wins
        assert system.classes()[0] == G.minimal_block(0, 1)


@st.composite
def transitive_groups(draw):
    """A transitive group of degree <= 12 inside S_c wr S_d, d = degree / c,
    relabelled: the blocks are the residue classes mod d.  One generator is
    the degree-cycle x -> x + 1 unless the draw leaves it out and the other
    generators are transitive alone."""
    degree = draw(st.integers(1, 12))
    d = draw(st.sampled_from([d for d in range(1, degree + 1) if degree % d == 0]))
    c = degree // d
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        blocks = draw(st.permutations(range(d)))
        inside = [draw(st.permutations(range(c))) for _ in range(d)]
        # x = r + d*i lies in class r at place i
        gens.append(Permutation(blocks[x % d] + d * inside[x % d][x // d] for x in range(degree)))
    if draw(st.booleans()) or not PermutationGroup(gens, degree).is_transitive():
        gens.append(Permutation((x + 1) % degree for x in range(degree)))
    relabel = Permutation(draw(st.permutations(range(degree))))
    return PermutationGroup([conjugate(g, relabel) for g in gens], degree)


@settings(max_examples=100, deadline=None)
@given(transitive_groups())
def test_is_primitive_matches_every_beta_scan_random(G):
    assert G.is_transitive()
    assert_matches_scan(G)


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_answers_do_not_depend_on_generator_order(name):
    # the base follows the order of the generators; order and membership
    # must not, under every rotation and the reversal of the list
    G = SCAN_CASES[name]
    gens = G.generators
    rng = random.Random(name)
    members = [random_word(rng, gens) for _ in range(10)]
    swap = Permutation.from_cycles("(1,2)", G.degree)
    candidates = members + [compose(g, swap) for g in members]
    candidates += [Permutation(rng.sample(range(G.degree), G.degree)) for _ in range(10)]
    want = [G.contains(g) for g in candidates]
    assert all(want[:10]) and not all(want)
    for reordered in [gens[i:] + gens[:i] for i in range(1, len(gens))] + [gens[::-1]]:
        H = PermutationGroup(reordered, G.degree)
        assert H.order() == G.order()
        assert [H.contains(g) for g in candidates] == want


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_subdegrees_match_chain(name):
    G = SCAN_CASES[name]
    for p in range(G.degree):
        assert G.subdegrees(p) == chain_subdegrees(G, p)


@settings(max_examples=100, deadline=None)
@given(transitive_groups())
def test_subdegrees_match_chain_random(G):
    for p in range(G.degree):
        assert G.subdegrees(p) == chain_subdegrees(G, p)


def test_subdegrees_vs_brute_closure():
    # the random groups are 2-transitive or regular; the wreath products and
    # the abelian groups of SCAN_CASES add ranks from 3 to 12
    groups = [G for G in random_small_groups() if G.is_transitive()]
    assert len(groups) == 9  # of the 25, so the check is not vacuous
    groups += [SCAN_CASES[name] for name in ("S2wrS4", "S3wrS3", "S4wrS2", "Z12", "Z3xZ3")]
    for G in groups:
        elements = brute_elements([g.images for g in G.generators], G.degree)
        for p in range(G.degree):
            assert G.subdegrees(p) == brute_subdegrees(elements, p) == chain_subdegrees(G, p)


def affine_300():
    """x -> x + 1 and x -> 7x on Z_300: transitive of order 1200, and the
    stabilizer of 0, generated by x -> 7x, has order 4.  Degree 300 takes
    the tuple kernels."""
    return PermutationGroup(
        [Permutation((x + 1) % 300 for x in range(300)), Permutation(7 * x % 300 for x in range(300))]
    )


def assert_same_schreier_generators(G, points):
    """The lazy Schreier generators equal the eager reference's, in the
    same order, with the same orbit; returns how many there were."""
    count = 0
    for point in points:
        orbit, generators = G._schreier_generators(point)
        generators = list(generators)
        assert (orbit, generators) == eager_schreier_generators(G, point)
        count += len(generators)
    return count


def test_schreier_generators_match_eager_reference():
    for G in random_small_groups():
        assert_same_schreier_generators(G, range(G.degree))
    G = PermutationGroup(relabelled(pgl2_generators(5), random.Random(37)))
    assert assert_same_schreier_generators(G, range(G.degree)) > 0


def test_schreier_generators_match_eager_reference_above_256():
    G = affine_300()
    points = (0, 1, 150, 299)
    assert type(_kernels(G.degree)[4]) is tuple
    assert assert_same_schreier_generators(G, points) > 0
    elements = brute_elements([g.images for g in G.generators], G.degree)
    assert len(elements) == 1200
    for point in points:
        assert G.subdegrees(point) == brute_subdegrees(elements, point) == chain_subdegrees(G, point)
    assert not assert_matches_scan(G)[0]


def test_suborbits_stop_at_rank_2(monkeypatch):
    # PGL(8, 2) has 146 nontrivial Schreier generators at 0; a few already
    # leave the classes {0} and the rest, and the pass takes no more
    schreier_generators = PermutationGroup._schreier_generators
    taken = []

    def counted(self, point):
        orbit, generators = schreier_generators(self, point)
        return orbit, (taken.append(h) or h for h in generators)

    monkeypatch.setattr(PermutationGroup, "_schreier_generators", counted)
    G = PermutationGroup(pgl2_generators(8))
    assert G.subdegrees(0) == [1, 254]
    assert 0 < len(taken) < 10
    taken.clear()
    assert G.is_primitive() == (True, None)
    assert 0 < len(taken) < 10


def two_transitive_groups():
    """The 2-transitive groups the tests build, by name: PGL(n, 2) on
    PG(n-1, 2) for n = 2..8 (relabelled), with repeated and identity
    generators, S_3, S_14, A_15, the degree-2 group with and without an
    identity generator (the regular C_2), the vendored PSL(2, 7) and
    PSL(2, 11), AGL(1, 257), which takes the tuple kernels, and the
    2-transitive ones among random_small_groups()."""
    rng = random.Random(2)
    cases = {f"PGL{n}_2": PermutationGroup(relabelled(pgl2_generators(n), rng)) for n in range(2, 9)}
    cases["PGL5_2-repeated"] = PermutationGroup([Permutation(range(31))] + pgl2_generators(5) * 2)
    cases["S3"] = group_from_text("(1,2)\n(1,2,3)", 3)
    cases["S14"] = group_from_text("(1,2)\n(" + ",".join(map(str, range(1, 15))) + ")", 14)
    cases["A15"] = group_from_text("(1,2,3)\n(" + ",".join(map(str, range(1, 16))) + ")", 15)
    cases["C2"] = group_from_text("(1,2)", 2)
    cases["C2-identity"] = group_from_text("()\n(1,2)", 2)
    for name in ("psl2_7.grp", "psl2_11.grp"):
        cases[name] = load_group(name)
    # 3 generates the units mod 257
    cases["AGL1_257"] = PermutationGroup(
        [Permutation((x + 1) % 257 for x in range(257)), Permutation(3 * x % 257 for x in range(257))]
    )
    for i, G in enumerate(random_small_groups()):
        if G.is_transitive() and len(G.subdegrees(0)) == 2:
            cases[f"random{i}"] = G
    return cases


TWO_TRANSITIVE = two_transitive_groups()


def test_two_transitive_groups_include_random_ones():
    assert sum(name.startswith("random") for name in TWO_TRANSITIVE) >= 3


@pytest.mark.parametrize("name", sorted(TWO_TRANSITIVE))
def test_is_primitive_matches_scan_on_two_transitive_groups(name):
    G = TWO_TRANSITIVE[name]
    # rank 2: G_0 is transitive on the other points
    assert G.subdegrees(0) == [1, G.degree - 1]
    assert assert_matches_scan(G) == (True, None)


def count_minimal_block_calls(monkeypatch, G):
    calls = []
    minimal_block = PermutationGroup.minimal_block

    def counted(self, alpha, beta):
        calls.append(beta)
        return minimal_block(self, alpha, beta)

    monkeypatch.setattr(PermutationGroup, "minimal_block", counted)
    answer = G.is_primitive()
    monkeypatch.undo()
    return answer, len(calls)


@pytest.mark.parametrize("n", [6, 8, "S14", "A15", "psl2_7.grp", "psl2_11.grp"])
def test_is_primitive_tests_a_handful_of_points(monkeypatch, n):
    # PGL(n, 2) and the others are 2-transitive: one orbit of G_0 on the
    # other points, so G is primitive and no block is sought
    G = PermutationGroup(pgl2_generators(n)) if isinstance(n, int) else TWO_TRANSITIVE[n]
    (primitive, system), calls = count_minimal_block_calls(monkeypatch, G)
    assert primitive and system is None
    assert calls == 0


@pytest.mark.parametrize("name", ["sigma45.grp", "psu4_2.grp"])
def test_is_primitive_tests_one_point_per_suborbit(monkeypatch, name):
    # rank 3: two nontrivial orbits of G_0, so two calls
    G = load_group(name)
    assert count_minimal_block_calls(monkeypatch, G)[1] == 2


def test_is_primitive_degree_one_and_two():
    assert PermutationGroup([], 1).is_primitive() == (True, None)
    assert PermutationGroup([Permutation(range(1))]).is_primitive() == (True, None)
    assert group_from_text("(1,2)", 2).is_primitive() == (True, None)
    assert group_from_text("()\n(1,2)", 2).is_primitive() == (True, None)


def test_is_primitive_regular_groups(monkeypatch):
    # a regular group's point stabilizer is trivial, so every Schreier
    # generator is the identity and every beta is tested
    Z13 = group_from_text("(" + ",".join(map(str, range(1, 14))) + ")", 13)
    assert assert_matches_scan(Z13) == (True, None)
    Z12 = group_from_text("(" + ",".join(map(str, range(1, 13))) + ")", 12)
    primitive, system = assert_matches_scan(Z12)
    assert not primitive and system.classes()[0] == {0, 6}
    assert count_minimal_block_calls(monkeypatch, Z12)[1] == 11


def test_is_primitive_identity_and_repeated_generators():
    g = Permutation.from_cycles("(1,2,3,4,5,6)", 6)
    for gens in ([Permutation(range(6)), g], [g, g], [g, Permutation(range(6)), g]):
        primitive, system = assert_matches_scan(PermutationGroup(gens))
        assert not primitive and system.classes()[0] == {0, 3}
    G = PermutationGroup([Permutation(range(31))] + pgl2_generators(5) * 2)
    assert assert_matches_scan(G) == (True, None)


def test_is_primitive_rejects_intransitive_group():
    with pytest.raises(ValueError, match="primitivity requires a transitive group"):
        group_from_text("(1,2,3)", 4).is_primitive()


def test_block_system_rejects_non_block():
    G = load_group("sigma45.grp")
    with pytest.raises(ValueError, match="set is not a block"):
        G.block_system({0, 1})
    # the class of {2, 3} is every point, so its least point is 0, not 2
    with pytest.raises(ValueError, match="set is not a block"):
        group_from_text("(1,2,3,4,5,6)", 6).block_system({2, 3})


def test_block_system_rejects_large_non_block_fast():
    # S_30 moves {0..9} onto C(30, 10) distinct sets; the union-find never
    # builds them
    G = group_from_text("(" + ",".join(map(str, range(1, 31))) + ")\n(1,2)", 30)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="set is not a block"):
        G.block_system(range(10))
    assert time.perf_counter() - start < 0.5


def test_block_system_rejects_intransitive_group():
    # {0, 2} is a block of <(1,2,3,4)> on 6 points, but points 4 and 5 lie
    # in no image of it
    G = group_from_text("(1,2,3,4)", 6)
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
    G = PermutationGroup([Permutation(range(5)), Permutation.from_cycles("(1,2,3)", 5)])
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


def test_group_file_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_bytes(b"degree 3\n(1,2)\n\xff\n")
    with pytest.raises(ValueError) as exc:
        read_group_file(path)
    assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize(
    "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_group_text_lines_end_at_line_feeds_only(separator):
    # str.splitlines breaks at each of these and an editor does not: the
    # first generator line holds both cycles, and (1,9) is on line 3
    text = f"degree 5\n(1,2){separator}(3,4)\n"
    G = parse_group_text(text, "g.grp")
    assert [g.cycle_string() for g in G.generators] == ["(1,2)(3,4)"]
    with pytest.raises(ValueError, match=r"^g\.grp: line 3: point 9 out of range 1\.\.5$"):
        parse_group_text(text + "(1,9)\n", "g.grp")


def test_concurrent_chain_build(monkeypatch):
    import threading

    builds = []
    init = _StabilizerChain.__init__

    def counted_init(self, *args):
        builds.append(self)
        time.sleep(0.05)  # a slow build: every thread asks for the chain meanwhile
        init(self, *args)

    monkeypatch.setattr(_StabilizerChain, "__init__", counted_init)
    G = load_group("psu4_2.grp")
    results = []
    start = threading.Barrier(4)

    def worker():
        start.wait()
        results.append(G.order())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [25920] * 4
    assert builds == [G._stabilizer_chain]

    # a fresh group, queried by contains while its slowed build runs;
    # PSU(4,2) is simple, so a member times a transposition is outside
    builds.clear()
    G = load_group("psu4_2.grp")
    gens = G.generators
    members = [compose(a, b) for a, b in product(gens, repeat=2)]
    swap = Permutation.from_cycles("(1,2)", G.degree)
    queries = [(g, True) for g in members] + [(compose(g, swap), False) for g in members]
    answers = []
    start = threading.Barrier(4)

    def asker():
        start.wait()
        answers.append([G.contains(g) for g, _ in queries])

    threads = [threading.Thread(target=asker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert answers == [[member for _, member in queries]] * 4
    assert builds == [G._stabilizer_chain]

    # a built chain is read without the lock
    with G._lock:
        reader = threading.Thread(target=lambda: answers.append(G.contains(gens[0])))
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive()
    assert answers[-1] is True
