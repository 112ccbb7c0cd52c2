"""Permutations and permutation groups.

Points are 0-based everywhere inside the library; the cycle-notation text
format and the group file format use 1-based labels.  Groups carry a lazily
built stabilizer chain (deterministic Schreier-Sims) that provides order,
membership testing and point stabilizers.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import reduce


class Permutation:
    """A bijection of {0, ..., degree-1} stored as an image array."""

    __slots__ = ("degree", "images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a bijection")
        self.degree = len(images)
        self.images = images
        self._hash = None

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse disjoint-cycle notation with 1-based points.

        Omitted points are fixed.  Whitespace between and inside cycles is
        ignored.  The empty string and '()' (as cycle_string writes it) are
        the identity.
        """
        images = list(range(degree))
        seen: set[int] = set()
        stripped = re.sub(r"\s+", "", text)
        if stripped not in ("", "()"):
            if not re.fullmatch(r"(\(\d+(,\d+)*\))+", stripped):
                raise ValueError(f"malformed cycle notation: {text!r}")
            for cycle_text in re.findall(r"\(([^()]*)\)", stripped):
                cycle = [int(s) - 1 for s in cycle_text.split(",")]
                for pt in cycle:
                    if not 0 <= pt < degree:
                        raise ValueError(f"point {pt + 1} out of range 1..{degree}")
                    if pt in seen:
                        raise ValueError(f"point {pt + 1} repeated")
                    seen.add(pt)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a] = b
        return cls(images)

    def cycle_string(self) -> str:
        """Disjoint-cycle notation with 1-based points; '()' for identity."""
        out = []
        seen = set()
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                seen.add(start)
                continue
            cycle = [start]
            seen.add(start)
            pt = self.images[start]
            while pt != start:
                cycle.append(pt)
                seen.add(pt)
                pt = self.images[pt]
            out.append("(" + ",".join(str(p + 1) for p in cycle) + ")")
        return "".join(out) or "()"

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(x) = self(other(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self.images[i] for i in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r})"


class _StabilizerChain:
    """Base, strong generators and transversals for a group.

    Built by the deterministic (incremental) Schreier-Sims algorithm.
    gens[i] generates the stabilizer of base[0..i-1]; transversals[i] maps
    each point of the orbit of base[i] under that stabilizer to a coset
    representative carrying base[i] to it.
    """

    def __init__(self, generators, degree, base_prefix=()):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[Permutation]] = []
        self.transversals: list[dict[int, Permutation]] = []
        self._prefix = list(base_prefix)
        top = [g for g in generators if not g.is_identity()]
        if top:
            self._insert_level(self._new_base_point(top))
            self.gens[0] = list(top)
            self._build(0)

    def _new_base_point(self, gens_here) -> int:
        """A base point moved by some generator; prefix points first."""
        for b in self._prefix:
            if b not in self.base and any(g(b) != b for g in gens_here):
                return b
        for pt in range(self.degree):
            if pt not in self.base and any(g(pt) != pt for g in gens_here):
                return pt
        raise AssertionError("all generators trivial")  # pragma: no cover

    def _insert_level(self, base_point: int) -> None:
        self.base.append(base_point)
        self.gens.append([])
        self.transversals.append({})

    def _gens_at(self, level: int) -> list[Permutation]:
        """Generators of the level-th stabilizer: everything stored at this
        level or deeper (deeper generators fix a longer base prefix)."""
        return [g for lv in range(level, len(self.gens)) for g in self.gens[lv]]

    def _orbit_transversal(self, level: int) -> None:
        b = self.base[level]
        gens_here = self._gens_at(level)
        tr = {b: Permutation.identity(self.degree)}
        frontier = [b]
        while frontier:
            nxt = []
            for pt in frontier:
                rep = tr[pt]
                for g in gens_here:
                    img = g(pt)
                    if img not in tr:
                        tr[img] = g * rep
                        nxt.append(img)
            frontier = nxt
        self.transversals[level] = tr

    def strip(self, g: Permutation, level: int = 0) -> tuple[Permutation, int]:
        """Sift g through levels >= level; returns (residue, stop level)."""
        for lv in range(level, len(self.base)):
            img = g(self.base[lv])
            tr = self.transversals[lv]
            if img not in tr:
                return g, lv
            g = tr[img].inverse() * g
        return g, len(self.base)

    def _build(self, level: int) -> None:
        """Establish the chain condition at this level and all deeper ones.

        Restarts whenever a new strong generator is found, because adding a
        generator at a deeper level can enlarge this level's orbit.
        """
        while True:
            self._orbit_transversal(level)
            tr = self.transversals[level]
            gens_here = self._gens_at(level)
            clean = True
            for pt in list(tr):
                rep = tr[pt]
                for g in gens_here:
                    schreier = tr[g(pt)].inverse() * (g * rep)
                    residue, rlevel = self.strip(schreier, level + 1)
                    if residue.is_identity():
                        continue
                    if rlevel == len(self.base):
                        self._insert_level(self._new_base_point([residue]))
                    self.gens[rlevel].append(residue)
                    for lv in range(rlevel, level, -1):
                        self._build(lv)
                    clean = False
                    break
                if not clean:
                    break
            if clean:
                return

    def order(self) -> int:
        return reduce(lambda n, tr: n * len(tr), self.transversals, 1)

    def contains(self, g: Permutation) -> bool:
        residue, _ = self.strip(g)
        return residue.is_identity()

    def strong_generators(self) -> list[Permutation]:
        return [g for level in self.gens for g in level]


@dataclass(frozen=True)
class BlockSystem:
    """A G-invariant partition into d classes of equal size c."""

    degree: int
    class_of: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1

    @property
    def class_size(self) -> int:
        return self.degree // self.num_classes

    def classes(self) -> list[frozenset[int]]:
        out: list[set[int]] = [set() for _ in range(self.num_classes)]
        for pt, c in enumerate(self.class_of):
            out[c].add(pt)
        return [frozenset(s) for s in out]


class PermutationGroup:
    """Group generated by permutations of common degree.

    Immutable after construction except for the memoized stabilizer chain,
    which is built on first use under a lock so concurrent first calls are
    safe.
    """

    def __init__(self, generators, degree=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for an empty generator list")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self._chains: dict[tuple[int, ...], _StabilizerChain] = {}
        self._lock = threading.Lock()

    def _chain(self, base_prefix=()) -> _StabilizerChain:
        key = tuple(base_prefix)
        with self._lock:
            if key not in self._chains:
                self._chains[key] = _StabilizerChain(self.generators, self.degree, key)
            return self._chains[key]

    def orbit(self, point: int) -> frozenset[int]:
        if not 0 <= point < self.degree:
            raise ValueError("point out of range")
        seen = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for pt in frontier:
                for g in self.generators:
                    img = g(pt)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return frozenset(seen)

    def orbits(self) -> list[frozenset[int]]:
        out = []
        remaining = set(range(self.degree))
        while remaining:
            orb = self.orbit(min(remaining))
            out.append(orb)
            remaining -= orb
        return out

    def order(self) -> int:
        return self._chain().order()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        return self._chain().contains(p)

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, point: int) -> "PermutationGroup":
        if not 0 <= point < self.degree:
            raise ValueError("point out of range")
        chain = self._chain(base_prefix=(point,))
        if not chain.base or chain.base[0] != point:
            # point is fixed by the whole group
            return PermutationGroup(self.generators, self.degree)
        gens = [g for g in chain.strong_generators() if g(point) == point]
        return PermutationGroup(gens, self.degree)

    def subdegrees(self, point: int = 0) -> list[int]:
        """Sorted orbit lengths of the stabilizer of point (G transitive)."""
        if not self.is_transitive():
            raise ValueError("subdegrees require a transitive group")
        stab = self.point_stabilizer(point)
        return sorted(len(orb) for orb in stab.orbits())

    def minimal_block(self, alpha: int, beta: int) -> frozenset[int]:
        """Smallest block of imprimitivity containing {alpha, beta}.

        Union-find refinement: start from the partition merging alpha with
        beta and repeatedly merge classes that some generator maps across.
        """
        if not self.is_transitive():
            raise ValueError("blocks require a transitive group")
        if alpha == beta:
            raise ValueError("alpha and beta must differ")
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx == ry:
                return None
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            return rx, ry

        queue = [(alpha, beta)]
        union(alpha, beta)
        while queue:
            x, y = queue.pop()
            for g in self.generators:
                merged = union(g(x), g(y))
                if merged:
                    queue.append(merged)
        root = find(alpha)
        return frozenset(pt for pt in range(self.degree) if find(pt) == root)

    def is_primitive(self) -> tuple[bool, BlockSystem | None]:
        """Primitivity test; on failure also returns a witness system.

        Scans minimal_block(0, beta) over all beta (valid by transitivity)
        and develops the smallest proper block found into its partition.
        """
        if not self.is_transitive():
            raise ValueError("primitivity requires a transitive group")
        if self.degree == 1:
            return True, None
        best: frozenset[int] | None = None
        for beta in range(1, self.degree):
            blk = self.minimal_block(0, beta)
            if len(blk) < self.degree and (best is None or len(blk) < len(best)):
                best = blk
        if best is None:
            return True, None
        return False, self.block_system(best)

    def block_system(self, block) -> BlockSystem:
        """The G-invariant partition generated by one block."""
        block = frozenset(block)
        class_of = [-1] * self.degree
        seen = {block}
        frontier = [block]
        idx = 0
        for pt in sorted(block):
            class_of[pt] = 0
        while frontier:
            nxt = []
            for blk in frontier:
                for g in self.generators:
                    img = frozenset(g(pt) for pt in blk)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
                        idx += 1
                        for pt in img:
                            if class_of[pt] != -1:
                                raise ValueError("set is not a block")
                            class_of[pt] = idx
            frontier = nxt
        if -1 in class_of:
            raise ValueError("block orbit does not cover all points")
        # renumber classes by smallest member for a canonical labeling
        reps = sorted(set(class_of), key=lambda c: class_of.index(c))
        renum = {c: i for i, c in enumerate(reps)}
        return BlockSystem(self.degree, tuple(renum[c] for c in class_of))


def parse_generators(text: str, degree: int) -> PermutationGroup:
    """Build a group from whitespace/newline-separated cycle-notation words.

    Each nonempty line is one generator.  An empty text gives the trivial
    group.
    """
    gens = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            gens.append(Permutation.from_cycles(line, degree))
    return PermutationGroup(gens, degree)


def parse_group_text(text: str, source) -> PermutationGroup:
    """Parse group-file text: a `degree N` header (N >= 1), then one
    generator per line.  `source` names the file in error messages."""
    header_line, _, body = text.partition("\n")
    header = header_line.split()
    if len(header) != 2 or header[0] != "degree":
        raise ValueError(f"{source}: expected 'degree N' header")
    if not header[1].isdecimal() or int(header[1]) < 1:
        raise ValueError(
            f"{source}: bad header {header_line.strip()!r}: degree must be an integer >= 1"
        )
    return parse_generators(body, int(header[1]))


def read_group_file(path) -> PermutationGroup:
    """Read a group file: `degree N` header, then one generator per line."""
    with open(path) as fh:
        return parse_group_text(fh.read(), path)


def write_group_file(path, group: PermutationGroup) -> None:
    with open(path, "w") as fh:
        fh.write(f"degree {group.degree}\n")
        for g in group.generators:
            fh.write(g.cycle_string() + "\n")
