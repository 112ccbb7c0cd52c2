"""Named design constructions: projective spaces, difference-set
developments, and a small catalog of designs with known automorphism groups.

The catalog groups (PSL2(7) on 7 points, PSL2(11) on 11 points, PSU4(2) on
45 points, and a degree-45 group of order 3240) are shipped as generator
files under data/ and validated by the test suite: group order,
transitivity/primitivity, and the designs they act on are all recomputed
from the generators.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import product
from math import prod

from .algebra import FieldTable, PrimePower
from .design import IncidenceStructure, orbit_design
from .perm import PermutationGroup, parse_group_text


# --- projective spaces -----------------------------------------------------

# The most incidences v*k projective_space builds.  n, q = 12, 2 (8.4 million)
# is built; 13, 2 (33.5 million) and 3, 256 (16.9 million) are refused.
MAX_INCIDENCES = 1 << 24


def pg_points(n: int, q: int) -> list[tuple[int, ...]]:
    """Normalized representatives of the 1-spaces of GF(q)^n.

    Each point is the vector in its line whose first nonzero coordinate is
    1, listed in lexicographic order of the coordinate tuples: those with
    more leading zeros first, then by the coordinates after the 1.
    """
    return [
        (0,) * i + (1,) + rest
        for i in range(n - 1, -1, -1)
        for rest in product(range(q), repeat=n - 1 - i)
    ]


def projective_space(n: int, q: int) -> IncidenceStructure:
    """Points vs hyperplanes of projective (n-1)-space over GF(q), q <= 256,
    with at most MAX_INCIDENCES incidences.

    Parameters come out as ((q^n-1)/(q-1), (q^{n-1}-1)/(q-1),
    (q^{n-2}-1)/(q-1)).  Hyperplane a-perp is listed for each normalized a,
    in point order.  Its points are read off one byte string of the dot
    products a.x over all points x, in point order, so field elements must
    fit in a byte.

    In point order the points with x_0 = 0 are (0, p) for p in PG(n-2, q),
    and the rest are (1, z) for z in GF(q)^{n-1} in lexicographic order.
    Let dots(a) be the string of a.x over the points x of PG(len(a)-1, q),
    and every(t) that of t.z over all z in GF(q)^len(t), both in
    lexicographic order.  Then dots(a) is dots(a[1:]) followed by
    every(a[1:]) with a_0 added to each byte, and every(t) is every(t[1:])
    with t_0 c added, for c = 0..q-1 in turn.  Adding a constant to each
    byte is one bytes.translate, so every field addition runs inside it.
    dots and every are memoized for the tails of length <= n-2, built
    bottom-up; the two leading coordinates of a are expanded per hyperplane.
    A second translate maps each dot product to the ASCII digit "1" when it
    is 0 and "0" otherwise, so the reversed string, read by int(..., 2), is
    the hyperplane's mask.
    """
    if n < 3:
        raise ValueError("projective_space needs n >= 3")
    prime_power = PrimePower.of(q)
    if q > 256:
        raise ValueError("projective_space needs q <= 256")
    # v*k >= q^(2n-3) >= 2^n, so a long n is refused before q^n is computed
    if n > MAX_INCIDENCES.bit_length() or prod(pg_params(n, q)[:2]) > MAX_INCIDENCES:
        raise ValueError(f"projective_space needs v*k <= {MAX_INCIDENCES}")
    F = FieldTable(prime_power)
    add, mul = F.add, F.mul
    plus = [bytes(row) + bytes(256 - q) for row in add]  # translate tables: + s
    every, dots = {(): b"\0"}, {(): b""}  # by tail t, bottom-up by length
    for m in range(1, n - 1):
        for t in product(range(q), repeat=m):
            rest = every[t[1:]]
            every[t] = b"".join([rest.translate(plus[s]) for s in mul[t[0]]])
            dots[t] = dots[t[1:]] + rest.translate(plus[t[0]])
    pts = pg_points(n, q)
    to_digit = b"1" + b"0" * 255  # translate table: 0 -> "1", else "0"

    def masks():
        for a in pts:
            a0, a1, u = a[0], a[1], a[2:]
            rest = every[u]
            # dots(a[1:]) is dots(u), every(u) + a1; every(a[1:]) + a0 is
            # every(u) + a1 c + a0 for c = 0..q-1
            parts = [dots[u], rest.translate(plus[a1])]
            parts += [rest.translate(plus[add[a0][s]]) for s in mul[a1]]
            yield int(b"".join(parts).translate(to_digit)[::-1], 2)

    return IncidenceStructure.from_masks(len(pts), masks())


def pg_params(n: int, q: int) -> tuple[int, int, int]:
    return (
        (q**n - 1) // (q - 1),
        (q ** (n - 1) - 1) // (q - 1),
        (q ** (n - 2) - 1) // (q - 1),
    )


# --- finite groups for difference sets -------------------------------------


class AmbientGroup:
    """A small group given by an element list and a multiplication rule.

    Elements are hashable labels; elements[0] is the identity.  The element
    order is fixed so developments get reproducible point labels.  Products
    x*y, inverses and quotients x*y^-1 are tabulated once, by element
    position: developments read the products, the search the quotients.
    """

    def __init__(self, elements, op):
        self.elements = list(elements)
        self.op = op
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._product = [[self.index[op(x, y)] for y in self.elements] for x in self.elements]
        self._inverse = [row.index(0) for row in self._product]
        self._quotient = [[row[j] for j in self._inverse] for row in self._product]

    def __len__(self) -> int:
        return len(self.elements)

    def inv(self, x):
        return self.elements[self._inverse[self.index[x]]]


def cyclic(n: int) -> AmbientGroup:
    return AmbientGroup(range(n), lambda a, b: (a + b) % n)


def elementary_abelian(p: int, a: int) -> AmbientGroup:
    return cyclic_product(*[p] * a)


def cyclic_product(*orders: int) -> AmbientGroup:
    elems = product(*map(range, orders))
    return AmbientGroup(elems, lambda x, y: tuple((u + w) % n for u, w, n in zip(x, y, orders)))


# Quaternion group of order 8: 1, -1, i, -i, j, -j, k, -k encoded as
# (unit, sign) with unit in "1ijk" and sign +-1.
_Q8_UNITS = "1ijk"
_Q8_MUL = {
    ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
    ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1), ("i", "k"): ("j", -1),
    ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1), ("j", "k"): ("i", 1),
    ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1), ("k", "k"): ("1", -1),
}


def quaternion8_x_z2() -> AmbientGroup:
    elems = [(u, s, t) for u in _Q8_UNITS for s in (1, -1) for t in (0, 1)]  # ("1", 1, 0) first

    def op(x, y):
        unit, sign = _Q8_MUL[(x[0], y[0])]
        return (unit, sign * x[1] * y[1], (x[2] + y[2]) % 2)

    return AmbientGroup(elems, op)


_AMBIENTS = {
    "cyclic11": lambda: cyclic(11),
    "cyclic7": lambda: cyclic(7),
    "ea16": lambda: elementary_abelian(2, 4),
    "z2z8": lambda: cyclic_product(2, 8),
    "q8z2": quaternion8_x_z2,
}


class DifferenceSetSpec(namedtuple("DifferenceSetSpec", "ambient base_set")):
    __slots__ = ()  # an AmbientGroup and a tuple of its elements

    def lam(self) -> int:
        """Lambda of the development's design check, which raises DesignError
        on a base set that fails: a k-subset of a group of order v is a
        (v, k, lambda) difference set exactly when its development is a
        symmetric (v, k, lambda) design (Beth, Jungnickel and Lenz, *Design
        Theory*, 1999, ch. VI), as x, y lie on one translate for each pair
        d, d' in base_set with d d'^-1 = x y^-1."""
        if len(set(self.base_set)) != len(self.base_set):
            raise ValueError("repeated base-set element")
        return develop_difference_set(self).verify_symmetric().lam


def develop_difference_set(spec: DifferenceSetSpec) -> IncidenceStructure:
    """The translates base_set * g, g in element order, read from the
    ambient group's product table.  Nothing is checked: lam() and
    verify_symmetric() do that."""
    amb = spec.ambient
    rows = [amb._product[amb.index[d]] for d in spec.base_set]
    return IncidenceStructure(len(amb), ([row[g] for row in rows] for g in range(len(amb))))


def find_difference_set(ambient: AmbientGroup, k: int, lam: int):
    """Lexicographically first (k, lam) difference set containing identity.

    Depth-first over ascending element positions, starting at {identity}.
    Each new element z adds its quotients z*y^-1 and y*z^-1 with the chosen
    ones y to the counts; a partial set is dropped as soon as some count
    exceeds lam, or when too few positions remain.  Subtrees are visited in
    itertools.combinations order and pruning removes only subtrees that hold
    no solution, so the first hit is that of the exhaustive search over
    k-subsets.  Intended for |ambient| <= 64.  Returns None when no
    difference set exists.

    The counts are w-bit lanes of one int, lane d for position d, with
    w = (lam + 2k).bit_length() + 2.  For y < z, tail[y][z - y - 1] holds
    the lanes of z*y^-1 and y*z^-1, and their sum over the chosen y is what
    taking z adds to the counts, in one int addition.  A partial set keeps
    these sums only in a window, the positions from its start on, the only
    ones it and its extensions can choose: adds[i] is the sum for position
    start + i, and pushing z builds the child's window, the positions after
    z, from the rest of the parent's and tail[z].  The counts start at
    bias, 2^(w-1) - 1 - lam in every lane, so a lane reaches its top bit,
    in the mask high, exactly when its count exceeds lam: (counts + adds[i])
    & high tests every lane at once.  A lane never carries into the next: a
    count stays <= lam, and a candidate adds at most 2 to a lane, since
    z*y^-1 differs for different y and so does y*z^-1.
    """
    n = len(ambient)
    if n > 64:
        raise ValueError("ambient group too large for exhaustive search")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    if k * (k - 1) != lam * (n - 1):
        return None
    quotient = ambient._quotient
    w = (lam + 2 * k).bit_length() + 2
    lane = [1 << (w * d) for d in range(n)]
    tail = [[lane[quotient[z][y]] + lane[quotient[y][z]] for z in range(y + 1, n)] for y in range(n)]
    ones = sum(lane)
    bias, high = ((1 << (w - 1)) - 1 - lam) * ones, (1 << (w - 1)) * ones
    chosen = [0]

    def extend(start: int, counts: int, adds: list[int]) -> bool:
        if len(chosen) == k:
            return True
        for i, added in enumerate(adds[: n - k + len(chosen) + 1 - start]):
            total = counts + added
            if total & high:
                continue
            z = start + i
            chosen.append(z)
            if extend(z + 1, total, list(map(operator.add, adds[i + 1 :], tail[z]))):
                return True
            chosen.pop()
        return False

    if not extend(1, bias, tail[0]):
        return None
    return DifferenceSetSpec(ambient, tuple(ambient.elements[i] for i in chosen))


# --- vendored catalog -------------------------------------------------------


# expected_params is (v, k, lambda); group and the two flags are None for a
# design shipped without a group
NamedInstance = namedtuple(
    "NamedInstance",
    "name design group expected_params flag_transitive point_primitive",
)


def _data_text(filename: str) -> str:
    from importlib import resources  # imported on first read: it is slow to load

    return resources.files("symdesign.data").joinpath(filename).read_text(encoding="utf-8")


def load_group(filename: str) -> PermutationGroup:
    """Load a generator file shipped under symdesign/data."""
    return parse_group_text(_data_text(filename), filename)


def _block_from_file(filename: str) -> list[int]:
    return [int(s) - 1 for s in _data_text(filename).split(",")]


def _paley() -> IncidenceStructure:
    # quadratic residues mod 11 form the Paley difference set
    return develop_difference_set(DifferenceSetSpec(cyclic(11), (1, 3, 4, 5, 9)))


def _biplane16(ambient: str) -> IncidenceStructure:
    return develop_difference_set(find_difference_set(_AMBIENTS[ambient](), 6, 2))


# name -> (design from the loaded group, group file under data/ or None,
# (v, k, lambda), (flag-transitive, point-primitive)).  Builders call the
# module's functions by name, so a patched projective_space or orbit_design
# is the one they reach.
_CATALOG = {
    "fano_complement": (
        lambda G: projective_space(3, 2).complement(), "psl2_7.grp", (7, 4, 2), (True, True)
    ),
    "paley_11_5_2": (lambda G: _paley(), "psl2_11.grp", (11, 5, 2), (True, True)),
    "paley_complement_11_6_3": (
        lambda G: _paley().complement(), "psl2_11.grp", (11, 6, 3), (True, True)
    ),
    "unitary_45_12_3": (
        lambda G: orbit_design(G, _block_from_file("unitary_45_12_3.block")),
        "psu4_2.grp", (45, 12, 3), (True, True),
    ),
    "imprimitive_45_12_3": (
        lambda G: orbit_design(
            G, [x - 1 for x in (1, 2, 3, 4, 6, 11, 19, 28, 36, 40, 41, 45)]
        ),
        "sigma45.grp", (45, 12, 3), (True, False),
    ),
    "biplane16_ea": (lambda G: _biplane16("ea16"), None, (16, 6, 2), (None, None)),
    "biplane16_z2z8": (lambda G: _biplane16("z2z8"), None, (16, 6, 2), (None, None)),
    "biplane16_q8z2": (lambda G: _biplane16("q8z2"), None, (16, 6, 2), (None, None)),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> NamedInstance:
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog name {name!r}; choose from {CATALOG_NAMES}")
    build, group_file, params, (flag_transitive, point_primitive) = _CATALOG[name]
    group = None if group_file is None else load_group(group_file)
    return NamedInstance(name, build(group), group, params, flag_transitive, point_primitive)
