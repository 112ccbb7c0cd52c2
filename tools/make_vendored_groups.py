"""Generate the vendored generator files under src/symdesign/data/.

Run from the repository root:  python tools/make_vendored_groups.py

Everything written here is recomputed and re-validated by the test suite
(group orders, transitivity, primitivity, and the designs developed from
the shipped base blocks), so the files are self-certifying.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from symdesign.algebra import FieldTable, PrimePower
from symdesign.constructions import (
    DifferenceSetSpec,
    cyclic,
    develop_difference_set,
    pg_points,
)
from symdesign.design import is_flag_transitive, orbit_design
from symdesign.perm import Permutation, PermutationGroup, write_group_file

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "symdesign" / "data"

SIGMA_GENERATORS = [
    "(1,2,4,5,3)(6,16,43,13,14)(7,39,33,45,26)(8,21,37,32,28)(9,11,25,35,10)"
    "(12,44,24,40,17)(15,30,38,23,19)(18,34,20,31,41)(22,36,27,42,29)",
    "(1,5,2,3,4)(6,10,16,9,43,11,13,25,14,35)(7,40,39,17,33,12,45,44,26,24)"
    "(8,23,21,19,37,15,32,30,28,38)(18,22,34,36,20,27,31,42,41,29)",
    "(2,5,3,4)(6,17,32,20,11,26,23,29)(7,30,42,43,12,21,34,35)"
    "(8,31,10,45,15,22,13,40)(9,39,19,27,14,44,28,18)(16,24,37,41,25,33,38,36)",
    "(2,3)(4,5)(6,32,11,23)(7,42,12,34)(8,10,15,13)(9,19,14,28)(16,37,25,38)"
    "(17,20,26,29)(18,39,27,44)(21,35,30,43)(22,40,31,45)(24,41,33,36)",
    "(1,6,11)(3,40,45)(4,41,36)(5,13,10)(8,35,39)(9,42,38)(14,37,34)"
    "(15,44,43)(17,32,29)(18,30,33)(20,23,26)(21,27,24)",
]


# every file the tool writes, in SHA256SUMS order
WRITTEN = ("psl2_11.grp", "psl2_7.grp", "psu4_2.grp", "sigma45.grp", "unitary_45_12_3.block")


def greedy_group(candidates, degree: int, order: int) -> PermutationGroup:
    """The group generated by a greedy pass over candidates: each one the
    group so far does not contain joins its generators (the identity never
    does), until the group has the given order."""
    G = PermutationGroup([], degree)
    for g in candidates:
        if not G.contains(g):
            G = PermutationGroup(G.generators + [g], degree)
            if G.order() == order:
                break
    return G


def induced(F: FieldTable, points, f) -> Permutation:
    """The permutation that the vector map f induces on points, projective
    points over F normalized to first nonzero coordinate 1: each image is
    scaled by the inverse of its first nonzero coordinate."""
    index = {v: i for i, v in enumerate(points)}
    images = []
    for v in points:
        w = f(v)
        lead = next(c for c in w if c != 0)
        images.append(index[tuple(F.mul[F.inv[lead]][c] for c in w)])
    return Permutation(images)


def make_sigma45() -> None:
    gens = [Permutation.from_cycles(s, 45) for s in SIGMA_GENERATORS]
    G = PermutationGroup(gens, 45)
    assert G.order() == 3240, G.order()
    write_group_file(DATA / "sigma45.grp", G)


def make_psl2_7() -> None:
    """GL(3,2) ~ PSL(2,7) acting on the 7 points of PG(2,2)."""
    F = FieldTable(PrimePower(2, 1))
    pts = pg_points(3, 2)

    def mat_perm(m):
        return induced(
            F, pts, lambda v: tuple(sum(v[i] * m[i][j] for i in range(3)) % 2 for j in range(3))
        )

    a = mat_perm([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = mat_perm([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    G = PermutationGroup([a, b], 7)
    assert G.order() == 168, G.order()
    write_group_file(DATA / "psl2_7.grp", G)


def make_psl2_11() -> None:
    """PSL(2,11) on 11 points, as the automorphism group of the biplane.

    The full automorphism group of the (11,5,2) design developed from the
    quadratic residues {1,3,4,5,9} mod 11 has order 660; a backtracking
    search enumerates it and a deterministic greedy pass picks a small
    generating set.
    """
    D = develop_difference_set(DifferenceSetSpec(cyclic(11), (1, 3, 4, 5, 9)))
    params = D.verify_symmetric()
    assert (params.v, params.k, params.lam) == (11, 5, 2)
    blocks = D.blocks
    autos: list[Permutation] = []

    def compatible(mapping):
        for blk in blocks:
            img = {mapping[p] for p in blk if mapping[p] is not None}
            if img and not any(img <= b for b in blocks):
                return False
        return True

    def search(mapping, used, level):
        if level == 11:
            autos.append(Permutation(mapping))
            return
        for img in range(11):
            if img not in used:
                mapping[level] = img
                used.add(img)
                if compatible(mapping):
                    search(mapping, used, level + 1)
                mapping[level] = None
                used.discard(img)

    search([None] * 11, set(), 0)
    assert len(autos) == 660, len(autos)
    autos.sort(key=lambda g: g.images)
    G = greedy_group(autos, 11, 660)
    assert G.order() == 660, G.order()
    assert is_flag_transitive(G, D)
    write_group_file(DATA / "psl2_11.grp", G)


def make_psu4_2() -> None:
    """PSU(4,2) ~ SU(4,2) on the 45 isotropic points of a Hermitian form.

    The form is h(x, y) = sum x_i * conj(y_i) on GF(4)^4 with conj(c) = c^2.
    SU(4,2) is generated by the unitary transvections
    x -> x + h(x, v) * v for isotropic v; scalars act trivially on
    projective points, and the center is trivial here, so the permutation
    group is PSU(4,2) of order 25920.
    """
    F = FieldTable(PrimePower(2, 2))

    def conj(c):
        return F.mul[c][c]

    def h(x, y):
        s = 0
        for xi, yi in zip(x, y):
            s = F.add[s][F.mul[xi][conj(yi)]]
        return s

    pts = pg_points(4, F.q)
    iso = [v for v in pts if h(v, v) == 0]
    assert len(iso) == 45, len(iso)
    index = {v: i for i, v in enumerate(iso)}

    def transvection(v):
        def f(x):
            coef = h(x, v)
            return tuple(F.add[xi][F.mul[coef][vi]] for xi, vi in zip(x, v))

        return induced(F, iso, f)

    G = greedy_group(map(transvection, iso), 45, 25920)
    assert G.order() == 25920, G.order()
    assert G.is_transitive()
    primitive, _ = G.is_primitive()
    assert primitive

    base_block = frozenset(
        index[b] for b in iso if b != iso[0] and h(iso[0], b) == 0
    )
    assert len(base_block) == 12, len(base_block)
    D = orbit_design(G, base_block)
    params = D.verify_symmetric()
    assert (params.v, params.k, params.lam) == (45, 12, 3)
    assert is_flag_transitive(G, D)
    write_group_file(DATA / "psu4_2.grp", G)
    (DATA / "unitary_45_12_3.block").write_text(
        ",".join(str(p + 1) for p in sorted(base_block)) + "\n"
    )
    print("unitary base block (1-based):", sorted(p + 1 for p in base_block))


def write_checksums() -> None:
    lines = []
    for name in WRITTEN:
        digest = hashlib.sha256((DATA / name).read_bytes()).hexdigest()
        lines.append(f"{digest}  {name}\n")
    (DATA / "SHA256SUMS").write_text("".join(lines))
    print("wrote SHA256SUMS")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    make_sigma45()
    make_psl2_7()
    make_psl2_11()
    make_psu4_2()
    write_checksums()
