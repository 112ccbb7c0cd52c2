"""Independent brute-force oracles the library is checked against.

These deliberately avoid the library's own algorithms: primality by sieve,
design verification and the first bad point pair by direct pair counting,
group order by closure enumeration, minimal blocks by subset search,
admissibility by a full range scan, flag-transitivity in two steps (point
orbit, then blocks through a point) and as the orbit of one flag,
factorizations by trial division with every integer, primality below
2**64 by the strong test to all twelve witnesses 2..37, difference sets by
subset search on element labels, GF(p^a) tables by
schoolbook products of digit tuples, projective spaces by a dot product
per pair of points found by filtering all of GF(q)^n, subdegrees by the
orbits of the elements that fix the point, and minimal blocks of large
degree as components of an orbital graph.  Two exceptions call the
library:
scan_is_primitive calls its minimal_block for every point, to pin which
witness is_primitive returns when it tests only some of them, and
chain_stabilizer takes a point stabilizer from the level-1 generators of a
stabilizer chain, not from the Schreier generators that subdegrees and
point_stabilizer use, so that chain_subdegrees and flag_transitive_two_step
check those against the chain and not against themselves.
group_from_text, pgl2_generators and relabelled are no oracles: they build
test groups, the first through the library's group-file parser.  compose
and conjugate multiply permutations for tests, through the checking
constructor, since the library composes only inside its kernels, and
image maps a set of points through a permutation.
brent_rho_reference is no independent oracle either: it is the Brent rho
loop with one product per step, kept to pin that the library's batched loop
returns the same factor.  Nor is eager_schreier_generators: it stores a
representative and its inverse for every orbit point, as the library once
did, to pin that the library's lazy inverses yield the same generators in
the same order and forms.  Nor is knuth_chain_reference: it builds the
stabilizer chain with one dict per level and sifts each candidate from
level 0, as the library once did, to pin that its point-indexed tables
give the same base, generators and stored inverses in the same order.
"""

from __future__ import annotations

import itertools
import math
from itertools import combinations, product

from symdesign.algebra import FieldTable, PrimePower
from symdesign.perm import Permutation, PermutationGroup, _kernels, parse_group_text


def group_from_text(text, degree):
    """The group of a group file's body: one cycle-notation generator per line."""
    return parse_group_text(f"degree {degree}\n{text}", "<test>")


def pgl2_generators(n):
    """A transvection and the cyclic permutation matrix, which generate
    GL(n, 2), acting on PG(n-1, 2): point v - 1 is the nonzero vector of
    GF(2)^n with bitmask v."""

    def act(rows):
        images = []
        for v in range(1, 2**n):
            w = 0
            for i in range(n):
                if v >> i & 1:
                    w ^= rows[i]
            images.append(w - 1)
        return Permutation(images)

    transvection = [0b11] + [1 << i for i in range(1, n)]
    cycle = [1 << ((i + 1) % n) for i in range(n)]
    return [act(transvection), act(cycle)]


def compose(outer, inner):
    """The permutation x -> outer(inner(x)), built through the checking
    constructor."""
    return Permutation([outer.images[y] for y in inner.images])


def conjugate(g, t):
    """t g t^-1, which carries t(x) to t(g(x)), built through the checking
    constructor."""
    images = [0] * g.degree
    for x, y in enumerate(g.images):
        images[t.images[x]] = t.images[y]
    return Permutation(images)


def image(g, points) -> frozenset[int]:
    """The image of a set of points under the permutation g."""
    return frozenset(g.images[x] for x in points)


def relabelled(gens, rng):
    """The generators conjugated by one random relabelling of the points."""
    relabel = Permutation(rng.sample(range(gens[0].degree), gens[0].degree))
    return [conjugate(g, relabel) for g in gens]


def sieve_primes(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return flags


def brute_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(p, e) pairs of n >= 2, by dividing out every d >= 2 while d*d <= n."""
    counts = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        counts[n] = counts.get(n, 0) + 1
    return tuple(sorted(counts.items()))


_TWELVE_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_test_12(n: int) -> bool:
    """Primality of n < 2**64: n is a strong probable prime to all twelve
    witnesses 2..37, which no composite below 2**64 is (Sorenson & Webster)."""
    assert n < 2**64
    if n < 2:
        return False
    if n in _TWELVE_WITNESSES:
        return True
    if any(n % a == 0 for a in _TWELVE_WITNESSES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _TWELVE_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def brent_rho_reference(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant).

    The additive constant runs through a fixed schedule, so results are
    reproducible run to run.
    """
    for c in itertools.count(1):
        y, m = 2, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle collapsed; retry with the next constant


def brute_verify_symmetric(v, blocks):
    """(v, k, lam) by direct counting, or None when not a symmetric design."""
    blocks = [frozenset(b) for b in blocks]
    if len(set(blocks)) != len(blocks) or len(blocks) != v:
        return None
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        return None
    k = sizes.pop()
    lam = None
    for p1, p2 in combinations(range(v), 2):
        count = sum(1 for b in blocks if p1 in b and p2 in b)
        if lam is None:
            lam = count
        elif count != lam:
            return None
    for b1, b2 in combinations(blocks, 2):
        if len(b1 & b2) != lam:
            return None
    return (v, k, lam)


def brute_first_bad_pair(v, blocks, lam):
    """The first point pair, in combinations(range(v), 2) order, that does not
    lie on exactly lam blocks, with its count; None when every pair does."""
    for p1, p2 in combinations(range(v), 2):
        count = sum(1 for b in blocks if p1 in b and p2 in b)
        if count != lam:
            return p1, p2, count
    return None


def brute_difference_set(ambient, k, lam):
    """First k-subset of ambient.elements, in element order, that holds the
    identity and has every non-identity element as x*y^-1 exactly lam times;
    None when there is none.  Uses only ambient.elements and ambient.op."""
    elements = ambient.elements
    e = elements[0]
    inverse = {x: next(y for y in elements if ambient.op(x, y) == e) for x in elements}
    for rest in combinations(elements[1:], k - 1):
        cand = (e,) + rest
        diffs = [ambient.op(x, inverse[y]) for x in cand for y in cand if x != y]
        if all(diffs.count(g) == lam for g in elements[1:]):
            return cand
    return None


def brute_gf(p, modulus):
    """(add, mul, neg, inv) tables of GF(p)[t]/(modulus), built from scratch.

    Element x is the polynomial whose coefficient of t^i is the i-th base-p
    digit of x.  A product is the schoolbook convolution of digit tuples,
    each t^k in it replaced by t^k reduced modulo the monic modulus, those
    reductions found by multiplying by t one step at a time.  Negatives and
    inverses are found by search; inv[0] is None."""
    a = len(modulus) - 1
    q = p**a
    digits = [tuple(x // p**i % p for i in range(a)) for x in range(q)]
    number = {d: x for x, d in enumerate(digits)}
    powers = [tuple(int(i == k) for i in range(a)) for k in range(a)]
    while len(powers) < 2 * a - 1:  # t^k = t * t^(k-1), t^a = -(m_0 + ... + m_(a-1) t^(a-1))
        prev = powers[-1]
        powers.append(tuple((s - prev[-1] * m) % p for s, m in zip((0,) + prev[:-1], modulus)))

    def times(x, y):
        out = [0] * a
        for i, u in enumerate(digits[x]):
            for j, w in enumerate(digits[y]):
                for k, c in enumerate(powers[i + j]):
                    out[k] = (out[k] + u * w * c) % p
        return number[tuple(out)]

    add = [[number[tuple((u + w) % p for u, w in zip(digits[x], digits[y]))] for y in range(q)]
           for x in range(q)]
    mul = [[times(x, y) for y in range(q)] for x in range(q)]
    neg = [next(y for y in range(q) if add[x][y] == 0) for x in range(q)]
    inv = [None] + [next(y for y in range(q) if mul[x][y] == 1) for x in range(1, q)]
    return add, mul, neg, inv


def brute_pg_points(n, q):
    """The vectors of GF(q)^n whose first nonzero coordinate is 1, by
    filtering all q^n of them in lexicographic order."""
    return [x for x in product(range(q), repeat=n) if next((c for c in x if c), 0) == 1]


def brute_projective_space(n, q):
    """Blocks of the point-hyperplane design of PG(n-1, q), by dot product.

    Each normalized point a gives the block of every normalized point x with
    a.x = 0, the points listed in order, the dot product summed one
    coordinate at a time in the FieldTable add and mul tables: O(v^2 n)
    lookups."""
    F = FieldTable(PrimePower.of(q))
    pts = brute_pg_points(n, q)

    def dot(a, b):
        s = 0
        for x, y in zip(a, b):
            s = F.add[s][F.mul[x][y]]
        return s

    return [frozenset(i for i, x in enumerate(pts) if dot(a, x) == 0) for a in pts]


def brute_group_order(generators, degree) -> int:
    """Order by breadth-first closure over image tuples."""
    return len(brute_elements(generators, degree))


def brute_elements(generators, degree):
    identity = tuple(range(degree))
    gens = [tuple(g) for g in generators]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def brute_minimal_block(generators, degree, alpha, beta, elements=None):
    """Smallest block containing {alpha, beta} by subset search (degree <= 12).

    `elements`, if given, is brute_elements(generators, degree), so callers
    asking about several pairs close the group once.
    """
    if elements is None:
        elements = brute_elements(generators, degree)
    rest = [p for p in range(degree) if p not in (alpha, beta)]
    # the whole set, the last candidate, is always a block
    for size in range(0, len(rest)):
        for extra in combinations(rest, size):
            cand = frozenset((alpha, beta) + extra)
            ok = True
            for g in elements:
                img = frozenset(g[p] for p in cand)
                if img != cand and img & cand:
                    ok = False
                    break
            if ok:
                return cand
    return frozenset(range(degree))


def brute_orbital_block(elements, alpha, beta):
    """Smallest block containing {alpha, beta}, where `elements` is the
    whole group as image tuples: the connected component of alpha in the
    graph with an edge {g(alpha), g(beta)} for every element g (Higman,
    1967).  Its cost is linear in |G|, so it serves at any degree."""
    adjacent: dict[int, set[int]] = {}
    for g in elements:
        a, b = g[alpha], g[beta]
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    component = {alpha}
    queue = [alpha]
    for x in queue:
        for y in adjacent[x] - component:
            component.add(y)
            queue.append(y)
    return frozenset(component)


def scan_is_primitive(G):
    """is_primitive by minimal_block(0, beta) for every beta in ascending
    order, developing the first smallest proper block found."""
    if not G.is_transitive():
        raise ValueError("primitivity requires a transitive group")
    if G.degree == 1:
        return True, None
    best = None
    for beta in range(1, G.degree):
        blk = G.minimal_block(0, beta)
        if len(blk) < G.degree and (best is None or len(blk) < len(best)):
            best = blk
    if best is None:
        return True, None
    return False, G.block_system(best)


def chain_stabilizer(G, point):
    """The stabilizer of point, read from a stabilizer chain: conjugate G by
    the transposition t of 0 and point, put a generator that moves 0 first,
    so that 0 becomes the chain's first base point, take the generators of
    the chain's level 1 (the stabilizer of 0; none when the chain has no
    level 1), cut from the chain's tables to image tuples, and conjugate
    them back by t.  When no generator moves 0, the stabilizer is G itself."""
    swap = list(range(G.degree))
    swap[0], swap[point] = point, 0
    t = Permutation(swap)
    moved = sorted((conjugate(g, t) for g in G.generators), key=lambda g: g.images[0] == 0)
    if not moved or moved[0].images[0] == 0:
        return PermutationGroup(G.generators, G.degree)
    chain = PermutationGroup(moved, G.degree)._chain()
    assert chain.base[0] == 0
    level1 = chain.gens[1] if len(chain.gens) > 1 else []
    stabilizer = [conjugate(Permutation(h[: G.degree]), t) for h in level1]
    return PermutationGroup(stabilizer, G.degree)


def chain_subdegrees(G, point):
    """Sorted orbit lengths of the chain's stabilizer of point (G transitive)."""
    if not G.is_transitive():
        raise ValueError("subdegrees require a transitive group")
    stab = chain_stabilizer(G, point)
    return sorted(len(orb) for orb in stab.orbits())


def eager_schreier_generators(G, point):
    """The orbit of point in breadth-first order and the list of nontrivial
    Schreier generators of its stabilizer, in the forms of _kernels: the
    search stores u[x], carrying point to x, and its inverse t[x], a table,
    for every orbit point x, each t[y] made from its parent's as
    s^-1 then t[x]; then for the orbit points deepest first and each
    generator s, t[s(x)] s u[x] is kept unless it is the identity."""
    encode, table, then, invert, identity = _kernels(G.degree)
    pairs = [(table(s), invert(s)) for s in (encode(g.images) for g in G.generators)]
    u = {point: identity}
    t = {point: table(identity)}
    queue = [point]
    for x in queue:
        for s, s_inv in pairs:
            y = s[x]
            if y not in u:
                u[y] = then(u[x], s)
                t[y] = then(s_inv, t[x])
                queue.append(y)
    out = []
    for x in reversed(queue):
        for s, _ in pairs:
            h = then(then(u[x], s), t[s[x]])
            if h != identity:
                out.append(h)
    return queue, out


def knuth_chain_reference(G):
    """The base, the generator lists and the transversals of G's stabilizer
    chain as the library built them with one dict per level: Knuth's
    procedures A and B as one LIFO worklist, each candidate generator
    pushed and sifted from level 0 when popped, skipping the levels whose
    base point it fixes, and each transversal a dict from orbit point to
    stored inverse, in the forms of _kernels."""
    encode, table, then, invert, identity = _kernels(G.degree)
    base, gens, transversals, reps = [], [], [], []

    def strip(p):
        for b, tr in zip(base, transversals):
            img = p[b]
            if img != b:
                inv = tr.get(img)
                if inv is None:
                    return p
                p = then(p, inv)
        return p

    work = [(0, encode(g.images), True) for g in reversed(G.generators)]
    while work:
        level, p, is_gen = work.pop()
        if is_gen:
            if strip(p) != identity:
                if level == len(base):
                    b = next(x for x, y in enumerate(p) if x != y)
                    base.append(b)
                    gens.append([])
                    transversals.append({b: table(identity)})
                    reps.append({b: identity})
                p = table(p)
                gens[level].append(p)
                work.extend((level, then(u, p), False) for u in reps[level].values())
            continue
        img = p[base[level]]
        tr = transversals[level]
        inv = tr.get(img)
        if inv is None:
            reps[level][img] = p
            tr[img] = invert(p)
            work.extend((level, then(p, g), False) for g in gens[level])
        else:
            work.append((level + 1, then(p, inv), True))
    return base, gens, transversals


def brute_subdegrees(elements, point):
    """Sorted orbit lengths of the stabilizer of point, where `elements` is
    the whole group as image tuples (brute_elements): the orbit of x is
    {g(x)} over the elements g that fix point."""
    stabilizer = [g for g in elements if g[point] == point]
    degree = len(stabilizer[0])
    orbits = {frozenset(g[x] for g in stabilizer) for x in range(degree)}
    return sorted(len(orb) for orb in orbits)


def flag_transitive_two_step(G, D) -> bool:
    """Cross-check: point-transitive and G_alpha transitive on blocks on alpha."""
    if len(G.orbit(0)) != D.v:
        return False
    stab = chain_stabilizer(G, 0)
    through = [b for b in D.blocks if 0 in b]
    if not through:
        return False
    seen = {through[0]}
    frontier = [through[0]]
    while frontier:
        nxt = []
        for blk in frontier:
            for g in stab.generators:
                img = frozenset(g.images[x] for x in blk)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen) == len(through)


def brute_is_automorphism(images, blocks) -> bool:
    """True iff the point map x -> images[x] carries every block, given as
    a list of points, onto a block of the list."""
    block_set = {frozenset(b) for b in blocks}
    return all(frozenset(images[x] for x in b) in block_set for b in blocks)


def brute_flag_transitive(G, D) -> bool:
    """True iff G acts transitively on the flags of D, raising ValueError
    as is_flag_transitive does, with the same messages in the same order.

    The orbit of the flag (min(blocks[0]), 0) under the generators, by a
    breadth-first search over (point, block position) pairs; a block's image
    is taken at its first position, so a repeated block leaves flags on its
    later copies out of the orbit.  Its size is compared with the number of
    flags."""
    if G.degree != D.v:
        raise ValueError("degree mismatch")
    first = {}
    for j, blk in enumerate(D.blocks):
        first.setdefault(blk, j)
    moves = []
    for g in G.generators:
        images = g.images
        try:
            moves.append((images, [first[frozenset(images[x] for x in b)] for b in D.blocks]))
        except KeyError:
            raise ValueError(f"generator {g.cycle_string()} is not an automorphism") from None
    if not D.blocks:
        raise ValueError("no blocks")
    seen = {(min(D.blocks[0]), 0)}
    queue = list(seen)
    for x, j in queue:
        for points, blocks in moves:
            flag = (points[x], blocks[j])
            if flag not in seen:
                seen.add(flag)
                queue.append(flag)
    return len(seen) == sum(len(b) for b in D.blocks)


def brute_admissible(v, k_bound, required_lambda=None):
    """Full-range scan over k in [3, min(k_bound, v-2)]."""
    assert min(k_bound, v - 2) <= 10**7
    primes = None
    pairs = []
    for k in range(3, min(k_bound, v - 2) + 1):
        if k_bound % k:
            continue
        if k * (k - 1) % (v - 1):
            continue
        lam = k * (k - 1) // (v - 1)
        if required_lambda is not None and lam != required_lambda:
            continue
        if lam * v >= k * k:
            continue
        if primes is None or lam >= len(primes):
            primes = sieve_primes(max(lam + 1, 10**6))
        if primes[lam]:
            pairs.append((k, lam))
    return pairs
