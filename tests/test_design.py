import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_first_bad_pair,
    brute_flag_transitive,
    brute_is_automorphism,
    brute_verify_symmetric,
    compose,
    conjugate,
    flag_transitive_two_step,
    group_from_text,
    image,
    pgl2_generators,
)
from symdesign import design
from symdesign.constructions import (
    _AMBIENTS,
    CATALOG_NAMES,
    catalog,
    develop_difference_set,
    find_difference_set,
    load_group,
    pg_params,
    projective_space,
)
from symdesign.design import (
    DesignError,
    DesignParams,
    IncidenceStructure,
    is_flag_transitive,
    orbit_design,
    read_design_file,
    write_design_file,
)
from symdesign.perm import Permutation, PermutationGroup

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


def _late_first_bad_block_pair(v, blocks):
    """The blocks reordered so that the first block pair, in
    combinations order, that does not meet in lambda points comes late:
    blocks that meet fewer others in a count other than lambda go first.
    The point pair counts, and so the message, do not depend on the order."""
    k = len(blocks[0])
    if k * (k - 1) % (v - 1):
        return list(blocks)  # lambda is not an integer: no block pair is counted
    lam = k * (k - 1) // (v - 1)
    sets = [set(b) for b in blocks]
    bad = [sum(len(a & b) != lam for b in sets) - (len(a) != lam) for a in sets]
    return [blocks[j] for j in sorted(range(len(blocks)), key=bad.__getitem__)]


def _first_bad_block_pair_index(v, blocks):
    """The position, in combinations order, of the first block pair that
    does not meet in lambda points; None when there is none."""
    k = len(blocks[0])
    lam = k * (k - 1) // (v - 1)
    pairs = combinations(map(set, blocks), 2)
    return next((i for i, (a, b) in enumerate(pairs) if len(a & b) != lam), None)


def _verify_message(v, blocks):
    try:
        IncidenceStructure(v, blocks).verify_symmetric()
    except DesignError as exc:
        assert exc.code == "pair_count"
        return str(exc)
    return None


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pair_count_names_first_bad_pair_on_corrupted_pg(n):
    # one point of one hyperplane of PG(n-1,2) moved off it, the blocks as
    # built and reordered so that the first bad block pair comes after half
    # of all block pairs
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
        late = _late_first_bad_block_pair(v, moved)
        assert _first_bad_block_pair_index(v, late) > v * (v - 1) // 4
        assert _verify_message(v, late) == expected


def test_pair_count_names_first_bad_pair_on_random_structures():
    # k runs from 1 (lambda = 0) to v - 1, and lambda is often not an
    # integer; each structure is also checked with its blocks reordered so
    # that the first bad block pair comes late
    rng = random.Random(0)
    seen, sizes = set(), set()
    for _ in range(300):
        v = rng.randrange(3, 11)
        k = rng.randrange(1, v)
        blocks = set()
        while len(blocks) < v:
            blocks.add(tuple(sorted(rng.sample(range(v), k))))
        blocks = list(blocks)
        expected = _pair_count_message(v, blocks)
        assert _verify_message(v, blocks) == expected
        assert _verify_message(v, _late_first_bad_block_pair(v, blocks)) == expected
        seen.add(None if expected is None else "expected" in expected)
        sizes.add(min(k, 2) if k < v - 1 else "v-1")
    assert seen == {None, True, False}
    assert sizes == {1, 2, "v-1"}


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


def test_complement_does_not_check():
    # two blocks on four points: no symmetric design, complemented all the same
    D = IncidenceStructure(4, [(0, 1), (1, 2, 3)])
    assert D.complement().blocks == [frozenset({2, 3}), frozenset({0})]
    with pytest.raises(ValueError, match="^empty block$"):
        IncidenceStructure(3, [(0, 1, 2)]).complement()


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
        D.is_automorphism(Permutation(range(8)))


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
    G = group_from_text("(1,2,3,4,5,6,7)", 7)
    assert all(D.is_automorphism(g) for g in G.generators)
    assert not is_flag_transitive(G, D)
    assert not flag_transitive_two_step(G, D)


def test_flag_transitive_rejects_non_automorphism():
    D = IncidenceStructure(7, FANO_BLOCKS)
    G = group_from_text("(1,2)", 7)
    with pytest.raises(ValueError):
        is_flag_transitive(G, D)
    G = group_from_text("(1,2,3)(4,6,5)\n(1,2)(3,4)\n(1,2)", 7)
    with pytest.raises(ValueError, match=r"^generator \(1,2\)\(3,4\) is not an automorphism$"):
        is_flag_transitive(G, D)


def test_flag_transitive_false_with_repeated_block():
    inst = catalog("fano_complement")
    D = IncidenceStructure(7, inst.design.blocks + inst.design.blocks[2:3])
    assert not is_flag_transitive(inst.group, D)
    assert not flag_transitive_two_step(inst.group, D)


def _flag_outcome(flag_test, G, D):
    """The answer of a flag test, or the message of its ValueError."""
    try:
        return flag_test(G, D)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def flag_cases(draw):
    """A group on 1..7 points and an incidence structure for it.

    Each of the 0..3 generators permutes a random subset of the points and
    fixes the rest, so the group is often intransitive.  The blocks are a
    union of orbits of random sets under the generators, so every generator
    is an automorphism and points may lie on no block.  Then a repeated
    block or a block from outside those orbits (often making some
    generator no automorphism) may be added, the structure may get one
    point more than the group's degree, and the blocks are shuffled."""
    v = draw(st.integers(1, 7))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        moved = draw(st.lists(st.integers(0, v - 1), unique=True))
        images = list(range(v))
        for x, y in zip(moved, draw(st.permutations(moved))):
            images[x] = y
        gens.append(Permutation(images))
    points = st.frozensets(st.integers(0, v - 1), min_size=1)
    blocks = []
    for base in draw(st.lists(points, max_size=3)):
        queue = [base]
        for blk in queue:
            for g in gens:
                if (moved := image(g, blk)) not in queue:
                    queue.append(moved)
        blocks += [blk for blk in queue if blk not in blocks]
    if blocks and draw(st.booleans()):
        blocks.append(draw(st.sampled_from(blocks)))
    if draw(st.integers(0, 3)) == 0:
        blocks.append(draw(points))
    extra = draw(st.sampled_from([0, 0, 0, 1]))
    blocks = draw(st.permutations(blocks))
    return PermutationGroup(gens, v), IncidenceStructure(v + extra, blocks)


@settings(max_examples=300, deadline=None)
@given(flag_cases())
def test_flag_transitive_matches_brute_on_random_structures(case):
    G, D = case
    assert _flag_outcome(is_flag_transitive, G, D) == _flag_outcome(brute_flag_transitive, G, D)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_flag_transitive_matches_brute_on_relabelled_pg(n):
    """PGL(n,2) on PG(n-1,2) is flag-transitive; the cyclic permutation
    matrix alone is not.  At n = 8 points and blocks together are 510, so
    the test runs on the tuple kernels."""
    v = 2**n - 1
    rng = random.Random(n)
    sigma = Permutation(rng.sample(range(v), v))
    gens = [conjugate(g, sigma) for g in pgl2_generators(n)]
    # point x - 1 is the vector with bitmask x, and x lies on a-perp when
    # a & x has an even number of ones
    hyperplanes = [
        [x - 1 for x in range(1, v + 1) if (a & x).bit_count() % 2 == 0] for a in range(1, v + 1)
    ]
    blocks = [image(sigma, b) for b in hyperplanes]
    rng.shuffle(blocks)
    D = IncidenceStructure(v, blocks)
    for group, expected in ((gens, True), (gens[1:], False)):
        G = PermutationGroup(group, v)
        assert is_flag_transitive(G, D) is brute_flag_transitive(G, D) is expected


@pytest.mark.parametrize("n, most", [(5, 10), (6, 19)])
def test_flag_orbit_pass_stops_once_the_blocks_through_x_merge(monkeypatch, n, most):
    """The Schreier pass of the combined group stops once the blocks through
    x share one class.  Run to the end it takes 18 to 20 generators on
    PG(4,2) and 37 to 39 on PG(5,2) for these inputs; a group that is not
    flag-transitive still runs it to the end."""
    schreier_generators = PermutationGroup._schreier_generators
    taken = []

    def counted(self, point):
        orbit, generators = schreier_generators(self, point)
        return orbit, (taken.append(h) or h for h in generators)

    monkeypatch.setattr(PermutationGroup, "_schreier_generators", counted)
    for seed in range(5):
        gens, blocks = _relabelled_pg(n, random.Random(seed))
        D = IncidenceStructure(len(blocks), blocks)
        for group, expected in ((gens, True), (gens[1:], False)):
            G = PermutationGroup(group, D.v)
            taken.clear()
            assert is_flag_transitive(G, D) is expected
            if expected:
                assert 0 < len(taken) < most
            assert brute_flag_transitive(G, D) is expected


def _relabelled_pg(n, rng):
    """PGL(n,2) generators and the hyperplanes of PG(n-1,2) as point lists,
    with the points relabelled and the blocks shuffled."""
    v = 2**n - 1
    sigma = Permutation(rng.sample(range(v), v))
    gens = [conjugate(g, sigma) for g in pgl2_generators(n)]
    # point x - 1 is the vector with bitmask x, and x lies on a-perp when
    # a & x has an even number of ones
    blocks = [
        sorted(sigma.images[x - 1] for x in range(1, v + 1) if (a & x).bit_count() % 2 == 0)
        for a in range(1, v + 1)
    ]
    rng.shuffle(blocks)
    return gens, blocks


@pytest.mark.parametrize("n", [4, 5, 6])
def test_mask_images_match_brute_on_relabelled_pg(n):
    """is_automorphism, is_flag_transitive and orbit_design move blocks by
    permuting point rows and transposing back; the oracles move point sets."""
    rng = random.Random(100 + n)
    gens, blocks = _relabelled_pg(n, rng)
    v = len(blocks)
    D = IncidenceStructure(v, blocks)
    swap = list(range(v))
    i, j = rng.sample(range(v), 2)
    swap[i], swap[j] = j, i
    transposition = Permutation(swap)
    others = [transposition, Permutation(rng.sample(range(v), v)), compose(*gens)]
    for g in gens + others:
        assert D.is_automorphism(g) is brute_is_automorphism(g.images, blocks)
    assert not brute_is_automorphism(transposition.images, blocks)
    for group, expected in (
        (gens, True),
        (gens[1:], False),
        (gens + [transposition], f"ValueError: generator {transposition.cycle_string()}"),
        ([transposition] + gens, f"ValueError: generator {transposition.cycle_string()}"),
    ):
        G = PermutationGroup(group, v)
        outcome = _flag_outcome(is_flag_transitive, G, D)
        assert outcome == _flag_outcome(brute_flag_transitive, G, D)
        if isinstance(expected, bool):
            assert outcome is expected
        else:
            assert outcome == expected + " is not an automorphism"
    E = orbit_design(PermutationGroup(gens, v), blocks[0])
    assert E == D and E.blocks[0] == frozenset(blocks[0])


@pytest.mark.parametrize(
    "v, masks, message",
    [
        (3, [0b011, 0], "empty block"),
        (3, [0, 0b1000], "empty block"),
        (3, [0b1000, 0], "block point out of range"),
        (3, [0b011, -1], "block point out of range"),
        (0, [], "v must be positive"),
        (0, [0b1000], "v must be positive"),
    ],
)
def test_from_masks_rejects_bad_blocks(v, masks, message):
    # the first bad block by position is named, as for blocks given as points
    with pytest.raises(ValueError, match=f"^{message}$"):
        IncidenceStructure.from_masks(v, masks)


@pytest.mark.parametrize(
    "blocks, message",
    [([(0, 1), ()], "empty block"), ([(0, 1), (-1,)], "block point out of range")],
)
def test_point_blocks_rejected_like_masks(blocks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        IncidenceStructure(3, blocks)


def test_masks_and_point_views():
    D = IncidenceStructure(7, [(3, 1, 0, 1), (6, 5, 4), (0,)])
    assert D.masks == [0b1011, 0b1110000, 0b1]
    assert D == IncidenceStructure.from_masks(7, [0b1, 0b1011, 0b1110000])
    assert D.blocks == [frozenset({0, 1, 3}), frozenset({4, 5, 6}), frozenset({0})]
    assert D.blocks_sorted() == [(0,), (0, 1, 3), (4, 5, 6)]
    # a sparse block on a huge v and a dense one give the same points either way
    big = 10**6
    assert IncidenceStructure.from_masks(big, [1 << (big - 1) | 1 << 4]).blocks == [
        frozenset({4, big - 1})
    ]
    dense = list(range(0, 200, 3))
    assert IncidenceStructure(200, [dense]).blocks_sorted() == [tuple(dense)]


def test_no_blocks_is_automorphism_of_everything():
    D = IncidenceStructure(3, [])
    assert D.is_automorphism(Permutation([1, 2, 0]))
    with pytest.raises(ValueError, match="^no blocks$"):
        is_flag_transitive(PermutationGroup([Permutation([1, 2, 0])], 3), D)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda G: IncidenceStructure(7, [[0, 2**40]]), "block point out of range"),
        (lambda G: IncidenceStructure(7, [[0, -(2**40)]]), "block point out of range"),
        (lambda G: IncidenceStructure(7, [[], [0, 2**40]]), "empty block"),
        (lambda G: orbit_design(G, [2**40]), "base block point out of range"),
    ],
    ids=["constructor", "negative", "empty-first", "orbit_design"],
)
def test_far_points_rejected_before_any_bit(build, message):
    # a point far past v is refused by its value: its bit alone would take
    # 2**40 bits
    G = PermutationGroup([Permutation([1, 2, 0, 3, 4, 5, 6])], 7)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("digits", [1, 40, 500])
def test_checks_agree_when_the_transpose_runs_in_pieces(monkeypatch, digits):
    # the transpose formats about _TRANSPOSE_DIGITS digits at a time; runs of
    # one mask or a few give the same rows, verdicts, first bad pair and
    # block images as one run
    rng = random.Random(digits)
    gens, blocks = _relabelled_pg(5, rng)
    v = len(blocks)
    rows = [sum(1 << j for j, b in enumerate(blocks) if x in b) for x in range(v)]
    monkeypatch.setattr(design, "_TRANSPOSE_DIGITS", digits)
    D = IncidenceStructure(v, blocks)
    assert design._transpose(D.masks, v) == rows
    assert D.verify_symmetric() == DesignParams(31, 15, 7)
    assert is_flag_transitive(PermutationGroup(gens, v), D)
    assert all(D.is_automorphism(g) for g in gens)
    assert not D.is_automorphism(Permutation([1, 0] + list(range(2, v))))
    bad = [list(b) for b in blocks]
    bad[0][0] = next(x for x in range(v) if x not in bad[0])
    x, y, count = brute_first_bad_pair(v, bad, 7)
    with pytest.raises(
        DesignError, match=f"^point pair {x + 1},{y + 1} lies on {count} blocks, expected 7$"
    ):
        IncidenceStructure(v, bad).verify_symmetric()


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


@pytest.mark.parametrize(
    "what",
    list(CATALOG_NAMES)
    + [f"pg {n} {q}" for n, q in ((3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (3, 8), (3, 9),
                                  (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 2))]
    + ["diffset cyclic7 3 1", "diffset cyclic11 5 2", "diffset ea16 6 2",
       "diffset z2z8 6 2", "diffset q8z2 6 2"],
)
def test_verify_counts_block_pairs_with_no_transpose(monkeypatch, what):
    # every catalog design, projective_space up to PG(4,3) and the first
    # difference set of each CLI ambient group, developed, named as
    # `construct` names them: every two blocks meet in lambda points, so
    # the answer comes from the block masks.  The point rows are made only
    # to name a bad point pair, which a one-point change shows
    form, *args = what.split()
    if form == "pg":
        n, q = map(int, args)
        D, params = projective_space(n, q), pg_params(n, q)
    elif form == "diffset":
        ambient, (k, lam) = _AMBIENTS[args[0]](), map(int, args[1:])
        D = develop_difference_set(find_difference_set(ambient, k, lam))
        params = (len(ambient), k, lam)
    else:
        inst = catalog(form)
        D, params = inst.design, inst.expected_params

    def no_transpose(masks, width):
        raise AssertionError("transpose called")

    monkeypatch.setattr(design, "_transpose", no_transpose)
    assert D.verify_symmetric() == params
    blocks = D.blocks_sorted()
    bad = [set(b) for b in blocks]
    bad[-1] = (bad[-1] - {blocks[-1][0]}) | {min(set(range(D.v)) - bad[-1])}
    with pytest.raises(AssertionError, match="transpose called"):
        IncidenceStructure(D.v, bad).verify_symmetric()


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


@pytest.mark.parametrize(
    "budget, body, line",
    [(30, "10\n10\n", None), (30, "10\n10\n1\n", 4), (25, "10\n10\n", 3), (19, "10\n", 2)],
)
def test_design_file_mask_budget(monkeypatch, tmp_path, budget, body, line):
    # the point memo and the masks share MAX_MASK_BITS: point 10 takes 10
    # bits in the memo and 10 in each mask through it, and a line is refused
    # once the room left could not hold a mask as wide as the widest bit
    monkeypatch.setattr(design, "MAX_MASK_BITS", budget)
    path = tmp_path / "budget.design"
    path.write_text("v 10\n" + body)
    if line is None:
        assert read_design_file(path).masks == [1 << 9, 1 << 9]
        return
    message = f"{path}: line {line}: the blocks so far need more than {budget} bits as masks"
    with pytest.raises(ValueError) as exc:
        read_design_file(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("spread", [1, 1000], ids=["dense", "sparse"])
def test_design_file_orders_blocks_of_mixed_sizes(tmp_path, spread):
    # blocks are written in the order of their sorted point tuples, a
    # block that starts another one first, whether the points in use are
    # dense or spread out over a large v
    rng = random.Random(spread)
    path = tmp_path / "mixed.design"
    for _ in range(50):
        n = rng.randrange(1, 30)
        blocks = [
            [spread * x for x in rng.sample(range(n), rng.randrange(1, n + 1))]
            for _ in range(rng.randrange(1, 10))
        ]
        blocks += [sorted(b)[: rng.randrange(1, len(b) + 1)] for b in blocks[:3]]
        v = spread * n
        write_design_file(path, IncidenceStructure(v, blocks))
        lines = [",".join(str(x + 1) for x in b) for b in sorted(tuple(sorted(b)) for b in blocks)]
        assert path.read_text() == "\n".join([f"v {v}", *lines, ""])


def test_design_file_bad_header(tmp_path):
    path = tmp_path / "bad.design"
    path.write_text("points 7\n1,2,3\n")
    with pytest.raises(ValueError):
        read_design_file(path)


@pytest.mark.parametrize("blocks", [0, 5000], ids=["header", "after-blocks"])
def test_design_file_not_utf8_names_the_file(tmp_path, blocks):
    # 5000 blocks put the bad byte beyond the first chunk the reader decodes
    path = tmp_path / "bad.design"
    path.write_bytes(b"v 3" + b"\n1,2" * blocks + b"\xff\n")
    with pytest.raises(ValueError) as exc:
        read_design_file(path)
    assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte)"


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
