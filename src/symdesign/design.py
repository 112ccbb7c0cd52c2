"""Incidence structures and symmetric 2-design checks.

A symmetric (v, k, lambda) design has v points and v blocks of size k such
that every point pair lies on exactly lambda blocks and, dually, every
block pair meets in exactly lambda points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .perm import Permutation, PermutationGroup, orbit_of, parse_header


class DesignError(ValueError):
    """A structure failed a design check; `code` names the violation."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class DesignParams:
    v: int
    k: int
    lam: int

    def __post_init__(self) -> None:
        if self.k * (self.k - 1) != self.lam * (self.v - 1):
            raise ValueError("k(k-1) != lambda(v-1)")

    @property
    def nontrivial(self) -> bool:
        return 2 < self.k < self.v - 1


class IncidenceStructure:
    """Points 0..v-1 and a list of blocks, repeats included."""

    def __init__(self, v: int, blocks):
        if v < 1:
            raise ValueError("v must be positive")
        norm = []
        position: dict[frozenset[int], int] = {}  # block -> its first position
        for blk in blocks:
            fb = frozenset(blk)
            if not fb:
                raise ValueError("empty block")
            if min(fb) < 0 or max(fb) >= v:
                raise ValueError("block point out of range")
            position.setdefault(fb, len(norm))
            norm.append(fb)
        self.v = v
        self.blocks = norm
        self._position = position

    def blocks_sorted(self) -> list[tuple[int, ...]]:
        """Blocks as sorted tuples, ordered lexicographically."""
        return sorted(tuple(sorted(b)) for b in self.blocks)

    def verify_symmetric(self) -> DesignParams:
        """Check the symmetric 2-design conditions, returning (v, k, λ).

        Raises DesignError with a code identifying the first violation:
        repeated_block, block_count, block_size, or pair_count.  The dual
        condition needs no check: v distinct blocks of size k covering every
        point pair exactly lambda times form a symmetric design, so by
        Ryser's theorem any two blocks meet in exactly lambda points.
        """
        v = self.v
        if len(self._position) != len(self.blocks):
            repeat = next(b for i, b in enumerate(self.blocks) if self._position[b] != i)
            raise DesignError(
                "repeated_block",
                f"block {','.join(str(pt + 1) for pt in sorted(repeat))} is repeated",
            )
        if len(self.blocks) != v:
            raise DesignError(
                "block_count", f"{len(self.blocks)} blocks for {v} points"
            )
        sizes = {len(b) for b in self.blocks}
        if len(sizes) != 1:
            raise DesignError("block_size", f"block sizes are not uniform: {sorted(sizes)}")
        k = sizes.pop()
        if v == 1:
            return DesignParams(1, k, 0)
        rows = [0] * v  # bit j of rows[x] is set when block j holds x
        for j, blk in enumerate(self.blocks):
            for pt in blk:
                rows[pt] |= 1 << j
        lam = k * (k - 1) // (v - 1) if k * (k - 1) % (v - 1) == 0 else None
        for x, y in combinations(range(v), 2):
            count = (rows[x] & rows[y]).bit_count()
            if count != lam:
                raise DesignError(
                    "pair_count",
                    f"point pair {x + 1},{y + 1} lies on {count} blocks"
                    + (f", expected {lam}" if lam is not None else ""),
                )
        return DesignParams(v, k, lam)

    def complement(self) -> "IncidenceStructure":
        """Complement each block within the point set."""
        self.verify_symmetric()
        full = frozenset(range(self.v))
        return IncidenceStructure(self.v, [full - b for b in self.blocks])

    def is_automorphism(self, g: Permutation) -> bool:
        if g.degree != self.v:
            raise ValueError("degree mismatch")
        return all(g.image(blk) in self._position for blk in self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IncidenceStructure)
            and self.v == other.v
            and self.blocks_sorted() == other.blocks_sorted()
        )


def is_flag_transitive(G: PermutationGroup, D: IncidenceStructure) -> bool:
    """True iff G acts transitively on the flags of D.

    Computed as the orbit of one (point, block position) flag; every
    generator must be an automorphism of D.  Images of blocks are taken at
    their first position, so a repeated block leaves flags outside the orbit.
    """
    if G.degree != D.v:
        raise ValueError("degree mismatch")
    moves = []
    for g in G.generators:
        try:
            moves.append((g.images, [D._position[g.image(b)] for b in D.blocks]))
        except KeyError:
            raise ValueError(f"generator {g.cycle_string()} is not an automorphism") from None
    if not D.blocks:
        raise ValueError("no blocks")
    flag_total = sum(len(b) for b in D.blocks)
    start = (min(D.blocks[0]), 0)
    flags = orbit_of(start, moves, lambda move, flag: (move[0][flag[0]], move[1][flag[1]]))
    return len(flags) == flag_total


def orbit_design(G: PermutationGroup, base_block) -> IncidenceStructure:
    """Design whose blocks are the G-orbit of the base block."""
    base = frozenset(base_block)
    if not base:
        raise ValueError("base block is empty")
    if any(not 0 <= pt < G.degree for pt in base):
        raise ValueError("base block point out of range")
    return IncidenceStructure(G.degree, orbit_of(base, G.generators, Permutation.image))


def read_design_file(path) -> IncidenceStructure:
    """Read a design file: `v N` header (N >= 1), then one block per line,
    its points 1-based and comma-separated."""
    with open(path) as fh:
        v = parse_header(fh.readline(), "v", path)
        blocks = []
        point: dict[str, int] = {}  # field text -> its 0-based point, once a line held it
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                block = frozenset(map(point.__getitem__, fields))
            except KeyError:
                try:
                    pts = [int(f) - 1 for f in fields]
                    if min(pts) < 0 or max(pts) >= v:
                        raise ValueError
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: bad block {line!r}:"
                        f" points must be integers in 1..{v}"
                    ) from None
                point.update(zip(fields, pts))
                block = frozenset(pts)
            if len(block) != len(fields):
                pts = [int(f) for f in fields]
                repeat = next(pt for i, pt in enumerate(pts) if pt in pts[:i])
                raise ValueError(
                    f"{path}: line {lineno}: bad block {line!r}: repeated point {repeat}"
                )
            blocks.append(block)
        return IncidenceStructure(v, blocks)


def write_design_file(path, D: IncidenceStructure) -> None:
    # labels only for the points in use, so a sparse structure on a huge v stays cheap
    label = {pt: str(pt + 1) for pt in frozenset().union(*D.blocks)}
    lines = [",".join(map(label.__getitem__, blk)) for blk in D.blocks_sorted()]
    with open(path, "w") as fh:
        fh.write("\n".join([f"v {D.v}", *lines, ""]))
