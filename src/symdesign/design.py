"""Incidence structures and symmetric 2-design checks.

A symmetric (v, k, lambda) design has v points and v blocks of size k such
that every point pair lies on exactly lambda blocks and, dually, every
block pair meets in exactly lambda points.

A block is stored as its mask: one int with bit x set when point x is on
it.  Point sets are made only for callers that ask for them.  The checks
read masks through C-level int and string primitives.  A transpose turns
the block masks into point rows, bit j of row x set when block j holds x:
each mask is formatted as a v-digit binary string, the strings of a run of
masks are joined, and every v-th digit is read back with int(..., 2); the
runs keep each joined string near 2**22 digits.  Permuting the rows and
transposing back gives the images of all blocks under a point permutation
at once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import combinations, compress, repeat
from operator import itemgetter, or_

from .perm import Permutation, PermutationGroup, open_text, parse_header


# The most bits read_design_file lets a file's masks and its point memo take
# (1 GiB).  A symmetric design with v*k <= MAX_INCIDENCES = 2**24 has
# v <= 2**16 points, since k*(k-1) = lambda*(v-1) >= v-1, so its masks take
# at most 2**32 bits and the memo at most half that.
MAX_MASK_BITS = 1 << 33


class DesignError(ValueError):
    """A structure failed a design check; `code` names the violation."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class DesignParams(namedtuple("DesignParams", "v k lam")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k * (self.k - 1) != self.lam * (self.v - 1):
            raise ValueError("k(k-1) != lambda(v-1)")
        return self

    @property
    def nontrivial(self) -> bool:
        return 2 < self.k < self.v - 1


class IncidenceStructure:
    """Points 0..v-1 and a list of blocks, repeats included.

    `masks` holds one int per block, bit x set when point x is on it; it is
    the only representation kept.  `blocks` and `blocks_sorted()` are point
    views made on demand for callers outside the checks.  The constructor
    takes blocks as iterables of points; `from_masks` takes masks.
    """

    def __init__(self, v: int, blocks):
        self._adopt(v, map(_mask, blocks, repeat(v)))

    @classmethod
    def from_masks(cls, v: int, masks) -> "IncidenceStructure":
        """The structure with these block masks, checked as the constructor
        checks blocks of points."""
        D = cls.__new__(cls)
        D._adopt(v, masks)
        return D

    def _adopt(self, v: int, masks) -> None:
        if v < 1:
            raise ValueError("v must be positive")
        masks = list(masks)
        if masks and (min(masks) <= 0 or max(masks) >> v):
            bad = next(m for m in masks if m <= 0 or m >> v)
            raise ValueError("empty block" if bad == 0 else "block point out of range")
        self.v = v
        self.masks = masks

    @property
    def blocks(self) -> list[frozenset[int]]:
        """The blocks as point sets, in order."""
        return [frozenset(_points(m)) for m in self.masks]

    def blocks_sorted(self) -> list[tuple[int, ...]]:
        """Blocks as sorted tuples, ordered lexicographically."""
        return sorted(tuple(_points(m)) for m in self.masks)

    def verify_symmetric(self) -> DesignParams:
        """Check the symmetric 2-design conditions, returning (v, k, λ).

        Raises DesignError with a code identifying the first violation:
        repeated_block, block_count, block_size, or pair_count.  The dual
        condition needs no check: v distinct blocks of size k covering every
        point pair exactly lambda times form a symmetric design, so by
        Ryser's theorem any two blocks meet in exactly lambda points.
        Pairs are counted on the point rows, bit j of row x set when block j
        holds x, which one transpose of the block masks gives; the first
        bad pair in lexicographic order is named.
        """
        v, masks = self.v, self.masks
        if len(set(masks)) != len(masks):
            position = _first_positions(masks)
            repeated = next(m for j, m in enumerate(masks) if position[m] != j)
            raise DesignError(
                "repeated_block",
                f"block {','.join(str(pt + 1) for pt in _points(repeated))} is repeated",
            )
        if len(masks) != v:
            raise DesignError("block_count", f"{len(masks)} blocks for {v} points")
        sizes = set(map(int.bit_count, masks))
        if len(sizes) != 1:
            raise DesignError("block_size", f"block sizes are not uniform: {sorted(sizes)}")
        k = sizes.pop()
        if v == 1:
            return DesignParams(1, k, 0)
        rows = _transpose(masks, v)
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
        """Each block complemented within the point set; nothing is checked."""
        full = (1 << self.v) - 1
        return IncidenceStructure.from_masks(self.v, [full ^ m for m in self.masks])

    def is_automorphism(self, g: Permutation) -> bool:
        if g.degree != self.v:
            raise ValueError("degree mismatch")
        rows = _transpose(self.masks, self.v)
        return set(_block_images(rows, g.images, len(self.masks))) <= set(self.masks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IncidenceStructure)
            and self.v == other.v
            and sorted(self.masks) == sorted(other.masks)
        )


def _mask(points, v: int) -> int:
    """The mask of an iterable of points; -1, before any bit is made, when
    a point is outside 0..v-1."""
    points = list(points)
    if points and not (0 <= min(points) and max(points) < v):
        return -1
    return reduce(or_, map((1).__lshift__, points), 0)


# translate table for a mask's binary digits: "0" -> 0, "1" -> 1
_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _points(mask: int) -> list[int]:
    """The points of a mask, ascending.  A sparse mask, with fewer points
    than one in 64 of its bits, is taken apart one low bit at a time, so a
    sparse block on a huge v costs no string as long as v."""
    if mask.bit_count() << 6 < mask.bit_length():
        points = []
        while mask:
            low = mask & -mask
            points.append(low.bit_length() - 1)
            mask ^= low
        return points
    flags = format(mask, "b").encode().translate(_DIGIT)[::-1]  # byte x is 1 when x is on it
    return list(compress(range(len(flags)), flags))


def _first_positions(masks, start: int = 0) -> dict[int, int]:
    """Each distinct mask -> start plus the position of its first copy."""
    position: dict[int, int] = {}
    for j, m in enumerate(masks, start):
        position.setdefault(m, j)
    return position


# the most binary digits _transpose formats at once
_TRANSPOSE_DIGITS = 1 << 22


def _transpose(masks: list[int], width: int) -> list[int]:
    """The transpose of a 0/1 matrix: for masks of at most `width` bits,
    entry x of the result has bit j set when masks[j] has bit x.

    The masks are taken in runs of about _TRANSPOSE_DIGITS / width.  Each
    mask of a run is formatted as `width` binary digits, most significant
    first, and the strings are joined from the last mask to the first.
    Every width-th digit from offset width-1-x then reads bit x of each
    mask of the run, its last mask's first, which int(..., 2) takes as the
    top bit; the run's bits are shifted to its first mask's position."""
    if not masks:
        return [0] * width
    spec, run = f"0{width}b", max(1, _TRANSPOSE_DIGITS // max(width, 1))
    for start in range(0, len(masks), run):
        digits = "".join(map(format, reversed(masks[start : start + run]), repeat(spec)))
        part = [int(digits[offset::width], 2) for offset in range(width - 1, -1, -1)]
        if not start:
            rows = part
            continue
        for x, bits in enumerate(part):
            rows[x] |= bits << start
    return rows


def _block_images(rows: list[int], images, width: int) -> list[int]:
    """The masks of `width` blocks, given by their point rows, after each
    point x moves to images[x]: point images[x] takes row x, and a
    transpose turns the rows back into block masks, in block order."""
    preimage = sorted(range(len(images)), key=images.__getitem__)
    return _transpose([rows[x] for x in preimage], width)


def is_flag_transitive(G: PermutationGroup, D: IncidenceStructure) -> bool:
    """True iff G acts transitively on the flags of D.

    Flags are (point, block position) pairs, and every generator must be an
    automorphism of D.  The image of a block is taken at its first
    position, so a repeated block leaves the flags on its later copies
    outside every orbit, and the answer is False.  Otherwise G acts on the
    points and the block positions together, as a group of degree v + b.
    With x = min(blocks[0]), G is flag-transitive iff the orbit of x is
    every point on some block and the stabilizer of x is transitive on the
    blocks through x: one orbit of the stabilizer, from `_suborbits` and so
    from Schreier generators (Seress, *Permutation Group Algorithms*, 2003,
    4.1), holds every block through x.  A generator's block images come
    from the point rows of D by a permutation and a transpose.
    """
    if G.degree != D.v:
        raise ValueError("degree mismatch")
    v, masks = D.v, D.masks
    if not masks:
        raise ValueError("no blocks")
    position = _first_positions(masks, v)
    rows = _transpose(masks, v)
    combined = []
    for g in G.generators:
        try:
            moved = tuple(map(position.__getitem__, _block_images(rows, g.images, len(masks))))
        except KeyError:
            raise ValueError(f"generator {g.cycle_string()} is not an automorphism") from None
        combined.append(g.images + moved)
    if len(position) != len(masks):
        return False
    x = (masks[0] & -masks[0]).bit_length() - 1
    if len(G.orbit(x)) != reduce(or_, masks).bit_count():
        return False
    roots = PermutationGroup(map(Permutation, combined), v + len(masks))._suborbits(x)
    return len({roots[v + j] for j in _points(rows[x])}) == 1


def orbit_design(G: PermutationGroup, base_block) -> IncidenceStructure:
    """Design whose blocks are the G-orbit of the base block, in the order
    a breadth-first search over the generators meets them.

    A block's image is read off its v-digit binary string: the digit of
    point images[x] is the digit of point x, one itemgetter per generator
    picks them all."""
    v = G.degree
    base = _mask(base_block, v)
    if not base:
        raise ValueError("base block is empty")
    if base < 0:
        raise ValueError("base block point out of range")
    spec = f"0{v}b"  # point x is digit v-1-x
    movers = []
    for g in G.generators:
        preimage = sorted(range(v), key=g.images.__getitem__)
        movers.append(itemgetter(*[v - 1 - x for x in reversed(preimage)]))
    masks, seen = [base], {base}
    for m in masks:
        digits = format(m, spec)
        for move in movers:
            image = int("".join(move(digits)), 2)
            if image not in seen:
                seen.add(image)
                masks.append(image)
    return IncidenceStructure.from_masks(v, masks)


def read_design_file(path) -> IncidenceStructure:
    """Read a design file: `v N` header (N >= 1), then one block per line,
    its points 1-based and comma-separated.

    The body is read in one go.  Each field text maps to its point's bit
    through a memo, so a block's mask is the sum of its fields' bits, and a
    repeated point shows as fewer set bits than fields.  The memo's bits
    and the masks together may take at most MAX_MASK_BITS bits; a file
    that needs more is refused before the int that would pass it is made,
    with room kept for one mask as wide as the widest bit in the memo."""
    with open_text(path) as fh:
        v = parse_header(fh.readline(), "v", path)
        body = fh.read()
    masks = []
    bit: dict[str, int] = {}  # field text -> its point's bit, once a line held it
    room, widest = MAX_MASK_BITS, 0  # bits the memo and masks may still take; widest memo bit
    for lineno, line in enumerate(body.split("\n"), start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if room < widest:
            raise ValueError(_over_budget(path, lineno))
        try:
            mask = sum(map(bit.__getitem__, fields))
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
            fresh = {f: pt for f, pt in zip(fields, pts) if f not in bit}
            room -= sum(fresh.values()) + len(fresh)
            widest = max(widest, max(pts) + 1)
            if room < widest:
                raise ValueError(_over_budget(path, lineno))
            bit.update(zip(fresh, map((1).__lshift__, fresh.values())))
            mask = sum(map(bit.__getitem__, fields))
        room -= mask.bit_length()
        if mask.bit_count() != len(fields):
            pts = [int(f) for f in fields]
            repeated = next(pt for i, pt in enumerate(pts) if pt in pts[:i])
            raise ValueError(
                f"{path}: line {lineno}: bad block {line!r}: repeated point {repeated}"
            )
        masks.append(mask)
    return IncidenceStructure.from_masks(v, masks)


def _over_budget(path, lineno: int) -> str:
    return f"{path}: line {lineno}: the blocks so far need more than {MAX_MASK_BITS} bits as masks"


def write_design_file(path, D: IncidenceStructure) -> None:
    """Write D as a design file, its blocks in lexicographic order of their
    sorted points."""
    # labels only for the points in use, so a sparse structure on a huge v stays cheap
    label = {pt: str(pt + 1) for pt in _points(reduce(or_, D.masks, 0))}
    lines = [",".join(map(label.__getitem__, blk)) for blk in D.blocks_sorted()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([f"v {D.v}", *lines, ""]))
