"""Permutations and permutation groups.

Points are 0-based everywhere inside the library; the cycle-notation text
format and the group file format use 1-based labels.  A group carries one
lazily built stabilizer chain that provides order and membership testing:
Knuth's deterministic form of Schreier-Sims over a base grown on demand,
one base point for each level with a nontrivial transversal.  Each level
keeps a point-indexed table, the stored inverse for each orbit point and
None elsewhere, so one sift loop serves chain builds and membership: look
up the image of the base point, stop at None, else compose.  A base point
the permutation fixes reads the identity table there, so no level compares
an image with its base point.  Order is the product of the orbit sizes.
A table costs degree pointers per level besides the stored inverses.  Point
stabilizers, subdegrees and primitivity come from Schreier generators, with
no chain: one pass, `_suborbits`, answers transitivity, rank and
subdegrees, and stops at rank 2, where the group is 2-transitive and so
primitive with no block sought, or once the points a caller names share
one orbit of the stabilizer.  `subdegrees` and `is_primitive` refuse an
intransitive group with `IntransitiveError`, a ValueError.

The chain and the Schreier generators multiply and invert permutations
through the kernels `_kernels(degree)` picks from the degree alone.  Up to
degree 256 a permutation is a degree-length byte string, composed by
`bytes.translate` and inverted by `bytes.maketrans`, each one C call;
`translate` needs its outer operand as a 256-byte table, so only the
values used that way (generators, inverses) are padded to one.  Above 256
every form is an image tuple, composed by itemgetter, except that the
identity table returns its inner operand as it is.  `Permutation.images`
is always a tuple; `Permutation` has no product.
"""

from __future__ import annotations

import re
import threading
from collections import Counter, namedtuple
from contextlib import contextmanager
from itertools import chain as concat
from math import prod
from operator import itemgetter


# The largest degree a group file may declare
MAX_DEGREE = 1 << 16


class IntransitiveError(ValueError):
    """A query that needs a transitive group met an intransitive one."""


class Permutation:
    """A bijection of {0, ..., degree-1} stored as an image array.

    The constructor checks that its images form a bijection.
    """

    __slots__ = ("degree", "images")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a bijection")
        self.degree = len(images)
        self.images = images

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r})"


def _invert(images: tuple) -> tuple:
    """The image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


_BYTE_IDENTITY = bytes(range(256))


def _kernels(degree: int) -> tuple:
    """(encode, table, then, invert, identity) for permutations of degree,
    where then(inner, outer) is x -> outer[inner[x]], inner then outer, and
    invert acts as _invert.

    Up to degree 256, encode takes an image sequence to degree-length
    bytes, the form of every inner operand, and table pads such bytes to
    the 256-byte table, fixing every point from degree on, that
    `bytes.translate` (then itself) takes as its outer operand; invert
    takes degree-length bytes to a table, and identity is degree-length.
    Above 256 every form is the image tuple, table returns it as it is,
    and then with the identity itself as outer returns inner with no
    O(degree) copy."""
    if degree > 256:
        identity = tuple(range(degree))

        def then(inner, outer):
            # a sift meets the identity table at each base point inner fixes
            return inner if outer is identity else itemgetter(*inner)(outer)

        return tuple, tuple, then, _invert, identity
    identity, tail = _BYTE_IDENTITY[:degree], _BYTE_IDENTITY[degree:]
    return (
        bytes,
        lambda p: p + tail,
        bytes.translate,
        lambda p: bytes.maketrans(p, identity),
        identity,
    )


class _StabilizerChain:
    """Stabilizer chain over a base grown on demand, built by Knuth's
    Schreier-Sims.

    levels and gens have one entry per level.  levels[i] is (b, tr): the
    base point b and a point-indexed table tr of length degree, in which
    entry x is the inverse of a representative carrying b to x when x is in
    the orbit of b under gens[i], and None off the orbit, and entry b is
    the identity table.  gens[i] alone generates the stabilizer of the base
    points of levels[:i].  `strip` sifts through levels in one loop.  A
    level opens only for a generator that fixes every base point so far,
    at the least point it moves, so every orbit has at least two points and
    the base depends on the order of the generators.  Everything is in the
    forms of `_kernels(degree)`: up to degree 256, representatives,
    products and sift residues are degree-length bytes, and generators and
    stored inverses are 256-byte tables; above 256 all are image tuples.

    A table costs degree pointers per level on top of the stored inverses.
    Above degree 256 that is one more inverse's worth, as an inverse is an
    image tuple of degree pointers; up to 256 it is at most 2 KiB a level,
    against 256 bytes for each stored inverse.
    """

    def __init__(self, generators, degree):
        self.encode, self.table, self.then, self.invert, self.identity = _kernels(degree)
        self.gens: list[list[bytes | tuple]] = []
        self.levels: list[tuple[int, list]] = []
        self._absorb([self.encode(g.images) for g in generators])

    def _absorb(self, generators) -> None:
        """Knuth's procedures A and B as one worklist, so nothing recurses.

        An item (level, g, True) is a candidate generator fixing the base
        points of levels[:level]: unless it is the identity or sifts to it
        from that level on, it joins gens[level], opening that level if it
        is one past the last, and meets every representative there.  An
        item (level, p, False) is such a product: a new image of the base
        point of levels[level] takes p as its representative and meets
        every generator there; a known image gives a Schreier generator, a
        candidate for level + 1, taken at once, as the LIFO worklist would
        pop it next.  Each generator meets each representative once, when
        the later of the two appears, and nothing restarts.
        """
        table, then, invert, identity = self.table, self.then, self.invert, self.identity
        gens, levels = self.gens, self.levels
        reps = []  # forward representatives, per level
        work = [(0, g, True) for g in reversed(generators)]
        while work:
            level, p, is_gen = work.pop()
            if not is_gen:
                b, tr = levels[level]
                img = p[b]
                inv = tr[img]
                if inv is None:
                    reps[level].append(p)
                    tr[img] = invert(p)
                    work.extend((level, then(p, g), False) for g in gens[level])
                    continue
                p = then(p, inv)
                level += 1
            if p != identity and self.strip(p, level) != identity:
                if level == len(levels):
                    b = next(x for x, y in enumerate(p) if x != y)
                    tr = [None] * len(identity)
                    tr[b] = table(identity)
                    gens.append([])
                    levels.append((b, tr))
                    reps.append([identity])
                p = table(p)
                gens[level].append(p)
                work.extend((level, then(u, p), False) for u in reps[level])

    def strip(self, p, level=0):
        """Sift an encoded permutation, in the inner form of the kernels,
        through the levels from `level` on; the residue is the identity iff
        it is in the group (p fixing the base points of levels[:level]).

        Each level is one lookup, tr[p[b]], and one product: a point off
        the orbit reads None and ends the sift, and a base point that p
        fixes reads the identity table, which leaves p unchanged, so no
        level compares p[b] with b."""
        then = self.then
        # no slice copy for the sift from level 0, which contains makes
        for b, tr in self.levels[level:] if level else self.levels:
            inv = tr[p[b]]
            if inv is None:
                return p
            p = then(p, inv)
        return p


class BlockSystem(namedtuple("BlockSystem", "degree class_of")):
    """A G-invariant partition into d classes of equal size c; class_of[x] is
    the class of point x."""

    __slots__ = ()

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
        self._stabilizer_chain: _StabilizerChain | None = None
        self._lock = threading.Lock()

    def _chain(self) -> _StabilizerChain:
        """The stabilizer chain, built once.  A built chain is read without
        the lock: it is assigned only once complete."""
        chain = self._stabilizer_chain
        if chain is None:
            with self._lock:
                if self._stabilizer_chain is None:
                    self._stabilizer_chain = _StabilizerChain(self.generators, self.degree)
                chain = self._stabilizer_chain
        return chain

    def _check_points(self, points) -> None:
        for pt in points:
            if not 0 <= pt < self.degree:
                raise ValueError("point out of range")

    def orbit(self, point: int) -> frozenset[int]:
        """The orbit of point, found breadth first over the generators."""
        self._check_points((point,))
        images = [g.images for g in self.generators]
        seen = {point}
        queue = [point]
        for x in queue:
            for im in images:
                y = im[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    def orbits(self) -> list[frozenset[int]]:
        """The orbits, in the order of their least points."""
        out = []
        seen: set[int] = set()
        for pt in range(self.degree):
            if pt not in seen:
                orb = self.orbit(pt)
                out.append(orb)
                seen |= orb
        return out

    def order(self) -> int:
        """The product of the chain's orbit sizes."""
        return prod(len(tr) - tr.count(None) for _, tr in self._chain().levels)

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        chain = self._chain()
        return chain.strip(chain.encode(p.images)) == chain.identity

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, point: int) -> "PermutationGroup":
        """The stabilizer of point, generated by its Schreier generators
        (Schreier's lemma); no stabilizer chain is built."""
        return PermutationGroup(map(Permutation, self._schreier_generators(point)[1]), self.degree)

    def subdegrees(self, point: int = 0) -> list[int]:
        """Sorted orbit lengths of the stabilizer of point (G transitive).
        An intransitive group is reported before a point out of range."""
        if 0 <= point < self.degree:
            roots, transitive = self._suborbits(point)
        else:
            roots, transitive = None, self.is_transitive()
        if not transitive:
            raise IntransitiveError("subdegrees require a transitive group")
        self._check_points((point,))
        return sorted(Counter(roots).values())

    def _suborbits(self, point: int, stop=None) -> tuple[tuple[int, ...], bool]:
        """The orbits of the stabilizer of point, as the least point of
        each point's orbit, and whether G is transitive: one pass answers
        transitivity, rank, subdegrees and primitivity.

        The breadth-first search of `_schreier_generators` finds the orbit
        of point, and G is transitive iff it is every point.  The Schreier
        generators of G_point generate it, so the classes of a union-find
        over them are its orbits; no stabilizer chain is built.  `roots`
        maps each point to its class minimum, so then(h, table(roots)) maps
        x to the minimum of h(x)'s class.  A generator that maps every point
        into its own class merges nothing and is skipped; otherwise the
        distinct pairs of minima it gives, one set built in C, join their
        classes in `parent`, a forest whose roots are the class minima, and
        `parent` as one translate table re-maps the merged minima.  Every
        generator fixes point, so once the classes are {point} and the rest
        (rank 2), no later one can change them and the pass stops.

        `stop`, when given, is a set of points whose classes the caller
        asks about: the pass also stops once they all lie in one class,
        which is final, as classes only merge; with fewer than two points
        it takes no generator.  After such a stop `roots` is partial: it
        puts the points of `stop` in one class, but other classes may be
        parts of one orbit still.
        """
        encode, table, then, _, identity = _kernels(self.degree)
        orbit, generators = self._schreier_generators(point)
        roots = identity
        stop_roots = None  # the roots of the points of stop, as a tuple
        if stop is not None:
            stop = list(stop)
            if len(stop) < 2:
                generators = ()
            else:
                stop_roots = itemgetter(*stop)
        parent = list(range(self.degree))
        classes = self.degree
        for h in generators:
            moved = then(h, table(roots))
            if moved == roots:
                continue
            merged = []
            for r, s in set(zip(roots, moved)):
                if r != s:
                    while parent[r] != r:
                        r = parent[r]
                    while parent[s] != s:
                        s = parent[s]
                    if r != s:
                        if r > s:
                            r, s = s, r
                        parent[s] = r
                        merged.append(s)
            classes -= len(merged)
            # each merged minimum links to a smaller one, so in ascending
            # order each finds its new minimum one step up; parent fixes every
            # other minimum, so as a table it re-maps roots
            for m in sorted(merged):
                parent[m] = parent[parent[m]]
            roots = then(roots, table(encode(parent)))
            if classes == 2 or (stop_roots and len(set(stop_roots(roots))) == 1):
                break
        return tuple(roots), len(orbit) == self.degree

    def _congruence(self, points) -> list[int]:
        """The finest G-invariant partition that has `points` in one class,
        as the smallest point of each point's class (Atkinson, 1975).

        The union-find of `_suborbits`: a pair walks both points up to their
        roots, halving the path, and links the larger root under the
        smaller.  The pairs are points[0] with each other point, then each
        join's two roots under every generator, read off the growing list
        of joins, which alone is kept (at most n - 1 pairs).  Every link
        points to a smaller point, so one ascending pass turns each parent
        into its class minimum.  At most (n - 1) * |generators| image pairs
        are examined, whatever the set.
        """
        parent = list(range(self.degree))
        points = list(points)
        images = [g.images for g in self.generators]
        joined = []
        for x, y in concat(
            ((points[0], pt) for pt in points[1:]),
            ((im[a], im[b]) for a, b in joined for im in images),
        ):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                if x > y:
                    x, y = y, x
                parent[y] = x
                joined.append((x, y))
        for x in range(self.degree):
            parent[x] = parent[parent[x]]
        return parent

    def minimal_block(self, alpha: int, beta: int) -> frozenset[int]:
        """Smallest block of imprimitivity containing {alpha, beta}.

        The classes of a G-invariant partition are blocks, so this holds for
        transitive and intransitive groups alike.
        """
        self._check_points((alpha, beta))
        if alpha == beta:
            raise ValueError("alpha and beta must differ")
        least = self._congruence((alpha, beta))
        return frozenset(pt for pt, m in enumerate(least) if m == least[alpha])

    def is_primitive(self) -> tuple[bool, BlockSystem | None]:
        """Primitivity test; on failure also returns a witness system.

        A group of rank 2, where G_0 is transitive on the other points, is
        2-transitive and so primitive (Dixon and Mortimer, *Permutation
        Groups*, 1996): no block is sought.  Otherwise scans
        minimal_block(0, beta) in ascending beta (valid by transitivity)
        and develops the first smallest proper block found into its
        partition.  An element h of the stabilizer G_0 carries the minimal
        block of {0, beta} onto that of {0, h(beta)}, so the least point of
        each orbit of G_0 gives the same first smallest block.
        """
        roots, transitive = self._suborbits(0)
        if not transitive:
            raise IntransitiveError("primitivity requires a transitive group")
        betas = sorted(set(roots) - {0})
        if len(betas) < 2:
            return True, None
        best: frozenset[int] | None = None
        for beta in betas:
            blk = self.minimal_block(0, beta)
            if len(blk) < self.degree and (best is None or len(blk) < len(best)):
                best = blk
        if best is None:
            return True, None
        return False, self.block_system(best)

    def _schreier_generators(self, point: int):
        """The orbit of `point`, in breadth-first order, and an iterator
        over the nontrivial Schreier generators of its stabilizer, encoded
        as `_kernels(degree)` encodes (degree-length bytes up to degree
        256) and made one at a time (Seress, *Permutation Group
        Algorithms*, 2003, 4.1).

        A breadth-first search over the generators gives u[x], carrying
        point to x, for every x in the orbit.  Each generator s and orbit
        point x give t[s(x)] s u[x], which fixes point; t[y], the inverse of
        u[y] as a table, is made by `invert` the first time a generator
        needs it, so a caller that stops early inverts only a few.  The
        deepest points come first: their representatives are the longest
        words.
        """
        self._check_points((point,))
        encode, table, then, invert, identity = _kernels(self.degree)
        gens = [table(encode(g.images)) for g in self.generators]
        u = {point: identity}
        queue = [point]
        for x in queue:
            for s in gens:
                y = s[x]
                if y not in u:
                    u[y] = then(u[x], s)
                    queue.append(y)

        def products():
            t = {}
            for x in reversed(queue):
                ux = u[x]
                for s in gens:
                    y = s[x]
                    ty = t.get(y)
                    if ty is None:
                        ty = t[y] = invert(u[y])
                    h = then(then(ux, s), ty)
                    if h != identity:
                        yield h

        return queue, products()

    def block_system(self, block) -> BlockSystem:
        """The G-invariant partition generated by one block.

        Raises ValueError when the set is not a block, or when its images do
        not cover every point.
        """
        block = frozenset(block)
        self._check_points(block)
        least = self._congruence(block)
        sizes = Counter(least)
        if block and sizes[least[min(block)]] > len(block):
            raise ValueError("set is not a block")
        if any(size != len(block) for size in sizes.values()):
            raise ValueError("block orbit does not cover all points")
        number = {m: i for i, m in enumerate(sorted(sizes))}
        return BlockSystem(self.degree, tuple(number[m] for m in least))


@contextmanager
def open_text(path):
    """path opened as UTF-8 text, whatever the locale, for a group or design
    file reader; a leading byte-order mark is dropped, and bytes that do not
    decode raise a ValueError naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def parse_header(line: str, keyword: str, source) -> int:
    """N from a `keyword N` header line of a group or design file, where N
    must be a decimal integer >= 1.  `source` names the file in errors."""
    fields = line.split()
    if len(fields) != 2 or fields[0] != keyword:
        raise ValueError(f"{source}: expected '{keyword} N' header")
    try:
        n = int(fields[1]) if fields[1].isdecimal() else 0
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ValueError(f"{source}: bad header: {keyword} has too many digits") from None
    if n < 1:
        raise ValueError(
            f"{source}: bad header {line.strip()!r}: {keyword} must be an integer >= 1"
        )
    return n


def parse_group_text(text: str, source) -> PermutationGroup:
    """Parse group-file text: a `degree N` header (1 <= N <= MAX_DEGREE),
    then one generator per nonblank line.  Only a line feed ends a line, as
    in text read with universal newlines, so line numbers are those an
    editor shows (str.splitlines would also break at form feeds, U+2028
    and others).  Errors name `source` and, for a bad generator, its line;
    a degree over the limit is quoted up to 20 digits, and above that only
    its number of digits."""
    header_line, _, body = text.partition("\n")
    degree = parse_header(header_line, "degree", source)
    if degree > MAX_DEGREE:
        # every generator is a dense image list of length degree
        digits = len(str(degree))
        shown = f"degree {degree}" if digits <= 20 else f"a degree of {digits} digits"
        raise ValueError(f"{source}: {shown} exceeds the limit {MAX_DEGREE}")
    gens = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        line = line.strip()
        if line:
            try:
                gens.append(Permutation.from_cycles(line, degree))
            except ValueError as exc:
                raise ValueError(f"{source}: line {lineno}: {exc}") from None
    return PermutationGroup(gens, degree)


def read_group_file(path) -> PermutationGroup:
    """Read a group file: `degree N` header, then one generator per line."""
    with open_text(path) as fh:
        return parse_group_text(fh.read(), path)


def write_group_file(path, group: PermutationGroup) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"degree {group.degree}\n")
        for g in group.generators:
            fh.write(g.cycle_string() + "\n")
