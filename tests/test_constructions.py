import gc
import hashlib
import importlib.util
import sys
import tracemalloc
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest

from oracles import brute_difference_set, brute_projective_space, brute_verify_symmetric
from symdesign import constructions
from symdesign.algebra import FieldTable, is_prime
from symdesign.constructions import (
    _AMBIENTS,
    CATALOG_NAMES,
    MAX_INCIDENCES,
    DifferenceSetSpec,
    catalog,
    cyclic,
    develop_difference_set,
    find_difference_set,
    pg_params,
    projective_space,
    quaternion8_x_z2,
)
from symdesign.design import DesignError, write_design_file
from symdesign.perm import write_group_file


# --- projective spaces -------------------------------------------------------


PG_CASES = [
    # (n, q, v, k, lam)
    (3, 2, 7, 3, 1),
    (3, 3, 13, 4, 1),
    (4, 2, 15, 7, 3),
    (4, 3, 40, 13, 4),
    (5, 2, 31, 15, 7),
]


@pytest.mark.parametrize("n,q,v,k,lam", PG_CASES)
def test_projective_space_verifies(n, q, v, k, lam):
    assert pg_params(n, q) == (v, k, lam)
    D = projective_space(n, q)
    params = D.verify_symmetric()
    assert (params.v, params.k, params.lam) == (v, k, lam)


@pytest.mark.parametrize("n,q,v,k,lam", PG_CASES)
def test_projective_space_brute_pair_count(n, q, v, k, lam):
    if v > 31:
        pytest.skip("brute pair counting kept small")
    D = projective_space(n, q)
    assert brute_verify_symmetric(v, D.blocks) == (v, k, lam)


def test_pg_lambda_primality_annotations():
    # among the standard cases only PG_3(2) and PG_4(2) have prime lambda
    assert [is_prime(pg_params(*nq)[2]) for nq in
            ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2))] == [
        False, False, True, False, True
    ]


def test_projective_space_rejects_small_n():
    with pytest.raises(ValueError):
        projective_space(2, 2)


@pytest.mark.parametrize("n,q", [(13, 2), (16, 2), (3, 256), (10**9, 2)])
def test_projective_space_refuses_above_incidence_limit(monkeypatch, n, q):
    # refused before GF(q) is tabulated or q^n is computed for a long n
    def refuse(self, prime_power):
        raise AssertionError("FieldTable built")

    monkeypatch.setattr(FieldTable, "__init__", refuse)
    with pytest.raises(ValueError, match=r"^projective_space needs v\*k <= 16777216$"):
        projective_space(n, q)


def test_incidence_limit_sits_between_pg12_2_and_pg13_2():
    v, k, _ = pg_params(12, 2)
    assert v * k <= MAX_INCIDENCES == 2**24
    v, k, _ = pg_params(13, 2)
    assert v * k > MAX_INCIDENCES


def test_projective_space_gf4():
    D = projective_space(3, 4)
    assert D.verify_symmetric().v == 21


@pytest.mark.parametrize(
    "n,q",
    [(3, q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 2), (7, 2)]
    + [(3, 16), (3, 25), (4, 5)],
)
def test_projective_space_block_order_matches_brute(n, q):
    # same blocks in the same order, so written files and flag starts agree
    assert projective_space(n, q).blocks == brute_projective_space(n, q)


def test_projective_space_pg8_2():
    params = projective_space(8, 2).verify_symmetric()
    assert (params.v, params.k, params.lam) == (255, 127, 63)


# SHA-256 of the design file written for PG(n-1, q): the 15 (n, q) that the
# designs benchmark constructs, plus PG(4,5) and PG(8,2)
PG_FILE_SHA256 = {
    (3, 2): "7ef41641239c21e15c3d5c0ca205e17a7c760d3498419a30120dd60f037b1e67",
    (3, 3): "504b4b63dc035a748b1cb6af73c8318cb7555b35fb74a5bfe873fcd6c3a219da",
    (3, 4): "eb94b00dac660f48caf323f289ee9e723e6873bbc22dbe728bcaf4495562c738",
    (3, 5): "e5b3b1dfec48d64122b8aa042ac3ce89b1b126c78c40ca8037aa1608ef79743f",
    (3, 7): "60513157cf1c6c5b4574f7544ee9026e2408ba656e3ad9a3eb920bbb9fb2e5c9",
    (3, 8): "c423c521b389bafb0cabe7d27ae3d7d65a97f436e99f794ef741f53bb0f9e493",
    (3, 9): "79e43f9cc29b8c010109a0a1ca37aa121d4c515f5fabb5091f84a7bfa6c33455",
    (4, 2): "cbc60da17f50ae56d264cf2a2f6f4547f0942a0b3a62151fe432f5664126a3c3",
    (4, 3): "93de56f9fedc22e17c04fb77c8d124818e380633936233c099f0b22619e501d2",
    (4, 4): "57b6d65c91a82dcfe3b1fa902aaefccf04cb4deb7b1e650cda28f933131db573",
    (5, 2): "6093716206d9c060782a5d1f4e501ddf8e11aaad577428d9493d5cbec86fbe5b",
    (5, 3): "37c8c5640f384d7b6a8b9b4b05c8d7da2b659668f68183a8f735aba4eda6f11d",
    (6, 2): "34b95efba0ea70a5085d03c9546e64eb6ee7a79e37d0df5eabc592b01dc636ef",
    (7, 2): "fb8e8e866844a40e2045568cf193dda916a794c07cef8245dc73be946fd86649",
    (8, 2): "1a479b9012ce6ff2b0fdc5741b2780c9dc1404bbcd80d1088364462f3ff369a9",
    (5, 5): "2c2a33d558fb9af938262d1747891b60c65ec3d9b7620524a5806b586ebb64ad",
    (9, 2): "436b9f18c189b3158c711b521a6715a4eb95169cbab61919abd4ed2d7dda43c0",
}


@pytest.mark.parametrize("n,q", sorted(PG_FILE_SHA256))
def test_projective_space_file_bytes_pinned(tmp_path, n, q):
    path = tmp_path / "pg.design"
    write_design_file(path, projective_space(n, q))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PG_FILE_SHA256[n, q]


def test_projective_space_leaves_no_cyclic_garbage():
    # the build's memo is freed on return, not left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        projective_space(8, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_projective_space_12_2_peak_memory():
    # one mask per block: 4095 ints of 4095 bits, where a frozenset per
    # block took over 500 MiB; the design is built, not verified
    tracemalloc.start()
    try:
        D = projective_space(12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(D.masks) == D.v == 4095
    assert {m.bit_count() for m in D.masks} == {2047}
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n,q", [(6, 2), (3, 9)])
def test_projective_space_builds_one_field_table(monkeypatch, n, q):
    # GF(q) is tabulated once, by one FieldTable, and only read after that
    built = []
    init = FieldTable.__init__

    def counted(self, prime_power):
        built.append(prime_power)
        init(self, prime_power)

    monkeypatch.setattr(FieldTable, "__init__", counted)
    projective_space(n, q)
    assert len(built) == 1 and built[0].q == q


# --- difference sets ---------------------------------------------------------


def test_paley_difference_set_is_qr_set():
    spec = DifferenceSetSpec(cyclic(11), (1, 3, 4, 5, 9))
    assert spec.lam() == 2
    qr = {pow(x, 2, 11) for x in range(1, 11)}
    assert set(spec.base_set) == qr


def test_non_difference_set_rejected():
    spec = DifferenceSetSpec(cyclic(11), (0, 1, 2, 3, 5))
    with pytest.raises(ValueError):
        spec.lam()


def test_difference_set_rejects_repeats():
    with pytest.raises(ValueError):
        DifferenceSetSpec(cyclic(11), (1, 1, 4, 5, 9)).lam()


def test_difference_set_failure_is_the_design_check():
    with pytest.raises(DesignError) as exc:
        DifferenceSetSpec(cyclic(11), (0, 1, 2, 3, 5)).lam()
    assert (exc.value.code, str(exc.value)) == (
        "pair_count", "point pair 1,2 lies on 3 blocks, expected 2"
    )
    with pytest.raises(ValueError, match="^repeated base-set element$"):
        DifferenceSetSpec(cyclic(11), (0, 1, 1, 3, 5)).lam()


def test_difference_set_in_trivial_group():
    assert DifferenceSetSpec(cyclic(1), (0,)).lam() == 0


def test_whole_group_is_no_difference_set():
    # every translate of the whole group is the whole group
    with pytest.raises(DesignError) as exc:
        DifferenceSetSpec(cyclic(7), tuple(range(7))).lam()
    assert exc.value.code == "repeated_block"


def test_develop_builds_without_checking():
    D = develop_difference_set(DifferenceSetSpec(cyclic(11), (0, 1, 2, 3, 5)))
    assert D.blocks == [frozenset((g + d) % 11 for d in (0, 1, 2, 3, 5)) for g in range(11)]
    with pytest.raises(DesignError, match="^point pair 1,2 "):
        D.verify_symmetric()


@pytest.mark.parametrize("n", range(2, 13))
def test_lam_matches_quotient_counts(n):
    # every k-subset of Z_n holding 0, 1 <= k < n: lam() returns lambda
    # exactly when each non-identity quotient occurs k(k-1)/(n-1) times
    ambient = cyclic(n)
    for k in range(1, n):
        lam, rem = divmod(k * (k - 1), n - 1)
        for rest in combinations(range(1, n), k - 1):
            base = (0, *rest)
            counts = _quotient_counts_by_op(ambient, base)
            spec = DifferenceSetSpec(ambient, base)
            if rem == 0 and all(counts.get(g, 0) == lam for g in ambient.elements[1:]):
                assert spec.lam() == lam, base
            else:
                with pytest.raises(ValueError):
                    spec.lam()


def test_develop_paley():
    D = develop_difference_set(DifferenceSetSpec(cyclic(11), (1, 3, 4, 5, 9)))
    assert brute_verify_symmetric(11, D.blocks) == (11, 5, 2)


def test_fano_difference_set():
    spec = find_difference_set(cyclic(7), 3, 1)
    assert spec is not None
    D = develop_difference_set(spec)
    assert D.verify_symmetric().lam == 1


@pytest.mark.parametrize("ambient_name", ["ea16", "z2z8", "q8z2"])
def test_order16_biplanes(ambient_name):
    ambient = _AMBIENTS[ambient_name]()
    assert len(ambient) == 16
    spec = find_difference_set(ambient, 6, 2)
    assert spec is not None
    assert ambient.elements[0] in spec.base_set
    D = develop_difference_set(spec)
    assert brute_verify_symmetric(16, D.blocks) == (16, 6, 2)


def _feasible(n):
    return [(k, k * (k - 1) // (n - 1)) for k in range(1, n + 1) if k * (k - 1) % (n - 1) == 0]


@pytest.mark.parametrize(
    "ambient,k,lam",
    [
        pytest.param(ambient, k, lam, id=f"{label}-{k}-{lam}")
        for label, ambient, k, lam in (
            [(f"Z{n}", cyclic(n), k, lam) for n in range(2, 17) for k, lam in _feasible(n)]
            + [
                (label, _AMBIENTS[name](), 6, 2)
                for label, name in (("Z2^4", "ea16"), ("Z2xZ8", "z2z8"), ("Q8xZ2", "q8z2"))
            ]
        )
    ],
)
def test_find_difference_set_matches_brute(ambient, k, lam):
    spec = find_difference_set(ambient, k, lam)
    assert (spec and spec.base_set) == brute_difference_set(ambient, k, lam)


def _quotient_counts_by_op(ambient, base):
    """Counts of x*y^-1 over x != y in base, with inverses found through op."""
    e = ambient.elements[0]
    inverse = {x: next(y for y in ambient.elements if ambient.op(x, y) == e) for x in base}
    counts = {}
    for x in base:
        for y in base:
            if x != y:
                d = ambient.op(x, inverse[y])
                counts[d] = counts.get(d, 0) + 1
    return counts


@pytest.mark.parametrize(
    "n,k,lam,expected",
    [
        (19, 9, 4, (0, 1, 2, 3, 5, 7, 12, 13, 16)),
        (21, 5, 1, (0, 1, 4, 14, 16)),
        (23, 11, 5, (0, 1, 2, 3, 5, 7, 8, 11, 12, 15, 17)),
        (31, 6, 1, (0, 1, 3, 8, 12, 18)),
    ],
)
def test_find_difference_set_larger_cyclic(n, k, lam, expected):
    ambient = cyclic(n)
    spec = find_difference_set(ambient, k, lam)
    assert spec.base_set == expected
    counts = _quotient_counts_by_op(ambient, expected)
    assert counts == {g: lam for g in ambient.elements[1:]}


@pytest.mark.parametrize(
    "ambient,k,lam",
    [
        pytest.param(ambient, k, lam, id=f"{label}-{k}-{lam}")
        for label, ambient, k, lam in (
            # k = n - 1 and k = n give the largest lam + 2k for each order
            # n, and every lane of the counts ends at lam
            [(f"Z{n}", cyclic(n), n - 1, n - 2) for n in range(2, 65)]
            + [(f"Z{n}", cyclic(n), n, n) for n in (1, 2, 23, 64)]
            + [("Z2^6", constructions.elementary_abelian(2, 6), 63, 62)]
            + [("Q8xZ2", quaternion8_x_z2(), 15, 14)]
            # a single element: no differences, so lam = 0
            + [(f"Z{n}", cyclic(n), 1, 0) for n in (1, 64)]
        )
    ],
)
def test_find_difference_set_lane_edges(ambient, k, lam):
    spec = find_difference_set(ambient, k, lam)
    assert spec.base_set == brute_difference_set(ambient, k, lam)


def test_find_difference_set_infeasible_parameters():
    assert find_difference_set(cyclic(11), 4, 2) is None


def test_find_difference_set_size_guard():
    with pytest.raises(ValueError):
        find_difference_set(cyclic(100), 10, 1)


@pytest.mark.parametrize("name", sorted(_AMBIENTS))
def test_ambient_group_table(name):
    G = _AMBIENTS[name]()
    e = G.elements[0]
    for x in G.elements:
        assert G.op(x, e) == x == G.op(e, x)
        assert G.op(x, G.inv(x)) == e
        for y in G.elements:
            assert G.op(x, y) in G.index


def test_quaternion_group_table():
    Q = quaternion8_x_z2()
    assert Q.elements[0] == ("1", 1, 0)
    i = ("i", 1, 0)
    j = ("j", 1, 0)
    assert Q.op(i, j) != Q.op(j, i)  # nonabelian
    assert Q.op(i, i) == ("1", -1, 0)


# --- catalog -----------------------------------------------------------------


def test_catalog_names_complete():
    assert len(CATALOG_NAMES) == 8
    for name in CATALOG_NAMES:
        inst = catalog(name)
        params = inst.design.verify_symmetric()
        assert (params.v, params.k, params.lam) == inst.expected_params


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("nonexistent")


# per catalog name: SHA-256 of write_design_file's output, and the vendored
# group file the instance carries (None: no group)
CATALOG_PINS = {
    "fano_complement": (
        "0e018653cf505d4fd774ea336ca4001493e44f4b04f0e67577947d823ea880d3", "psl2_7.grp"
    ),
    "paley_11_5_2": (
        "5dd0d25872c6dd4a8d2f35b50f36fc0070d297fd95e63c304e2ab53e9854416b", "psl2_11.grp"
    ),
    "paley_complement_11_6_3": (
        "f479c04ccbc309b5df1fd99f7ecd26a5e2216d11d7fcfdcb3d501aed6011d016", "psl2_11.grp"
    ),
    "unitary_45_12_3": (
        "f319cce8b4c279f3acc9bc6a423219b2f8365d5e11f344f50184f6b2b2da062f", "psu4_2.grp"
    ),
    "imprimitive_45_12_3": (
        "c76eeccf9a4788879dba7f8695bf0a36edbf7ffadd992f7163d7884f401797c3", "sigma45.grp"
    ),
    "biplane16_ea": ("97f68c16579543bf1977e46a8276f8e83d3801cb242efc33c918bcfc700b591d", None),
    "biplane16_z2z8": ("b1d0140c1e75623e6939908b976d98ca9ab9a45e5d37d65b9f5420a7bf15e93b", None),
    "biplane16_q8z2": ("c191283cddd1913a991912efeaa4c739e7ee94155d2bc6f0bb4c597ebdcc44a9", None),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_files_pinned(tmp_path, name):
    digest, group_file = CATALOG_PINS[name]
    inst = catalog(name)
    write_design_file(tmp_path / "d", inst.design)
    assert hashlib.sha256((tmp_path / "d").read_bytes()).hexdigest() == digest
    if group_file is None:
        assert inst.group is None
    else:
        write_group_file(tmp_path / "g", inst.group)
        vendored = resources.files("symdesign.data").joinpath(group_file).read_bytes()
        assert (tmp_path / "g").read_bytes() == vendored


def test_catalog_calls_module_entry_points(monkeypatch):
    # the tracer wraps these names in the module, so catalog must look them
    # up there on each call rather than hold the original functions
    called = set()
    for fname in ("projective_space", "orbit_design", "find_difference_set",
                  "develop_difference_set"):
        def counted(*args, _fn=getattr(constructions, fname), _fname=fname):
            called.add(_fname)
            return _fn(*args)

        monkeypatch.setattr(constructions, fname, counted)
    hits = {}
    for name in CATALOG_NAMES:
        called.clear()
        catalog(name)
        hits[name] = set(called)
    diffset = {"find_difference_set", "develop_difference_set"}
    assert hits == {
        "fano_complement": {"projective_space"},
        "paley_11_5_2": {"develop_difference_set"},
        "paley_complement_11_6_3": {"develop_difference_set"},
        "unitary_45_12_3": {"orbit_design"},
        "imprimitive_45_12_3": {"orbit_design"},
        "biplane16_ea": diffset,
        "biplane16_z2z8": diffset,
        "biplane16_q8z2": diffset,
    }


def test_catalog_primitivity_flags():
    from symdesign.design import is_flag_transitive

    for name in CATALOG_NAMES:
        inst = catalog(name)
        if inst.group is None:
            continue
        assert is_flag_transitive(inst.group, inst.design) == inst.flag_transitive
        primitive, _ = inst.group.is_primitive()
        assert primitive == inst.point_primitive, name


def test_imprimitive_instance_matches_family_b():
    # the (45,12,3) imprimitive instance realizes the lambda = 3 member of
    # the family (lambda^2(lambda+2), lambda(lambda+1), lambda) with
    # (c, d, l) = (lambda^2, lambda+2, lambda): a 9x5 class system where
    # every block meets each class in 0 or 3 points
    inst = catalog("imprimitive_45_12_3")
    assert inst.expected_params == (3 * 3 * 5, 3 * 4, 3)
    primitive, system = inst.group.is_primitive()
    assert not primitive
    assert (system.class_size, system.num_classes) == (9, 5)
    lam = 3
    for blk in inst.design.blocks:
        for cls in system.classes():
            assert len(blk & cls) in (0, lam)


def test_unitary_instance_is_primitive_rank3():
    inst = catalog("unitary_45_12_3")
    assert inst.group.order() == 25920
    assert inst.group.subdegrees(0) == [1, 12, 32]


def test_imprimitive_group_subdegrees():
    inst = catalog("imprimitive_45_12_3")
    assert inst.group.order() == 3240
    assert inst.group.subdegrees(0) == [1, 8, 36]


def test_fano_complement_group_order():
    assert catalog("fano_complement").group.order() == 168


def test_paley_group_order():
    assert catalog("paley_11_5_2").group.order() == 660


def test_vendored_data_checksums():
    data = resources.files("symdesign.data")
    sums = {}
    for line in data.joinpath("SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    assert set(sums) == {
        "psl2_11.grp", "psl2_7.grp", "psu4_2.grp", "sigma45.grp",
        "unitary_45_12_3.block",
    }
    for name, digest in sums.items():
        actual = hashlib.sha256(data.joinpath(name).read_bytes()).hexdigest()
        assert actual == digest, name


def test_vendored_data_regenerates_byte_for_byte(tmp_path, monkeypatch):
    tool_path = Path(__file__).resolve().parents[1] / "tools" / "make_vendored_groups.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/
    spec = importlib.util.spec_from_file_location("make_vendored_groups", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "DATA", tmp_path)
    makers = [getattr(tool, name) for name in dir(tool) if name.startswith("make_")]
    assert len(makers) == 4
    for make in makers:
        make()
    tool.write_checksums()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(tool.WRITTEN + ("SHA256SUMS",))
    data = resources.files("symdesign.data")
    for name in written:
        assert (tmp_path / name).read_bytes() == data.joinpath(name).read_bytes(), name
