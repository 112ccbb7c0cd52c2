"""Seeded inputs, jobs and answer checks for the four benchmark workloads.

A workload is built from a seed and a freshly imported ``symdesign``
namespace.  It is a fixed list of jobs, a *round*, whose composition never
depends on the seed: every run measures the same mix of work and only the
instances differ.  A job is one call into a public library function, or one
``symdesign.cli.main(argv)`` verb run in-process.

Every job carries an answer check that does not trust the library: known
group orders and subdegrees, certificates for membership queries, planted
admissible pairs, an independent primality test and expected CLI output.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SRC_DATA = Path(__file__).resolve().parent.parent / "src" / "symdesign" / "data"


@dataclass
class Job:
    """One timed call.  `run` returns a canonical value (no object reprs, no
    temporary paths) so the value can feed the output digest directly."""

    label: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    budget_s: float


@dataclass
class Workload:
    name: str
    jobs: list[Job]  # one round, in the order it runs
    trace_rounds: int = 1  # fixed, so traced counts repeat exactly for a seed
    probe: list[Job] = field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None


# --- independent arithmetic ---------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def oracle_is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 primes: a proof below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if oracle_is_prime(n):
            return n


# --- permutations as image lists ------------------------------------------------


def compose(a: list[int], b: list[int]) -> list[int]:
    """(a * b)(x) = a(b(x)), the library's convention."""
    return [a[i] for i in b]


def parse_group_text(text: str) -> list[list[int]]:
    """`degree N` header, then 1-based disjoint cycles, one generator a line."""
    lines = text.split("\n")
    degree = int(lines[0].split()[1])
    gens = []
    for line in lines[1:]:
        line = line.replace(" ", "")
        if not line:
            continue
        images = list(range(degree))
        for cyc in line.strip("()").split(")("):
            pts = [int(s) - 1 for s in cyc.split(",")]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        gens.append(images)
    return gens


def cycles_text(images: list[int]) -> str:
    out, seen = [], set()
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, pt = [], start
        while pt not in seen:
            seen.add(pt)
            cyc.append(pt + 1)
            pt = images[pt]
        out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def sym_gens(n: int) -> list[list[int]]:
    return [[1, 0, *range(2, n)], [*range(1, n), 0]]


def alt_gens(n: int) -> list[list[int]]:
    cyc = [*range(1, n), 0] if n % 2 else [0, *range(2, n), 1]
    return [[1, 2, 0, *range(3, n)], cyc]


def pg2_points(n: int) -> list[int]:
    """Points of PG(n-1, 2): the nonzero vectors of GF(2)^n as bitmasks."""
    return list(range(1, 2**n))


def _gl2_perm(rows: list[int], n: int) -> list[int]:
    images = []
    for v in pg2_points(n):
        w = 0
        for i in range(n):
            if v >> i & 1:
                w ^= rows[i]
        images.append(w - 1)
    return images


def pgl2_gens(n: int) -> list[list[int]]:
    """A transvection and the cyclic permutation matrix generate GL(n, 2)."""
    transvection = [0b11] + [1 << i for i in range(1, n)]
    cycle = [1 << ((i + 1) % n) for i in range(n)]
    return [_gl2_perm(transvection, n), _gl2_perm(cycle, n)]


def pg2_blocks(n: int) -> list[list[int]]:
    """Hyperplanes of PG(n-1, 2), 0-based point indices."""
    pts = pg2_points(n)
    return [[x - 1 for x in pts if bin(a & x).count("1") % 2 == 0] for a in pts]


def wreath_gens(a: int, b: int) -> list[list[int]]:
    """S_a wr S_b on a*b points, imprimitive with b blocks of size a."""
    deg = a * b
    t = list(range(deg))
    t[0], t[1] = 1, 0
    c = list(range(deg))
    for i in range(a):
        c[i] = (i + 1) % a
    swap = [(x + a) % (2 * a) if x < 2 * a else x for x in range(deg)]
    shift = [(x + a) % deg for x in range(deg)]
    return [t, c, swap, shift]


def relabel(rng: random.Random, gens: list[list[int]], extra: int):
    """Conjugate by a random point relabelling and append `extra` redundant
    generators, each a random word in the relabelled originals.  Returns the
    new generators and the relabelling sigma (new label of old point x)."""
    degree = len(gens[0])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    inv = [0] * degree
    for x, s in enumerate(sigma):
        inv[s] = x
    new = [compose(sigma, compose(g, inv)) for g in gens]
    out = list(new)
    while len(out) < len(new) + extra:
        w = list(range(degree))
        for _ in range(rng.randint(6, 14)):
            w = compose(w, rng.choice(new))
        if w != sorted(w):  # an identity generator adds nothing
            out.append(w)
    rng.shuffle(out)
    return out, sigma


def block_orbit(gens: list[list[int]], base) -> set[frozenset[int]]:
    base = frozenset(base)
    seen, frontier = {base}, [base]
    while frontier:
        nxt = []
        for blk in frontier:
            for g in gens:
                img = frozenset(g[x] for x in blk)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def is_automorphism(images: list[int], blocks: set[frozenset[int]]) -> bool:
    return all(frozenset(images[x] for x in b) in blocks for b in blocks)


def parity(images: list[int]) -> int:
    seen, transpositions = set(), 0
    for start in range(len(images)):
        if start in seen:
            continue
        length, pt = 0, start
        while pt not in seen:
            seen.add(pt)
            pt = images[pt]
            length += 1
        transpositions += length - 1
    return transpositions % 2


def gl2_order(n: int) -> int:
    return math.prod(2**n - 2**i for i in range(n))


def _vendored(filename: str) -> list[list[int]]:
    return parse_group_text((SRC_DATA / filename).read_text())



# --- groups ---------------------------------------------------------------------


def _group_specs():
    """(name, generators, order, subdegrees, block system, chain jobs,
    is_primitive jobs) for one round; each job gets its own instance.

    The block system is (class size, number of classes), None if primitive.
    Chain builds of S_n and A_n cost up to four times more on one random
    relabelling than on another, more so as n grows, and PGL(6,2) varies by
    half; PGL(5,2) varies least.  So PGL(5,2) carries most chain jobs, and
    S_20, A_20, PGL(6,2) and PGL(7,2) (3-8 s a chain) get is_primitive jobs
    only.  The counts put the median inside the PGL(5,2) is_primitive cluster
    and the tail percentile inside the PGL(5,2) chain cluster, not in a gap
    between two clusters of unlike jobs.
    """
    a, b = 5, 3
    specs = [(f"S{n}", sym_gens(n), math.factorial(n), [1, n - 1], None, c, p)
             for n, c, p in ((14, 1, 7), (16, 1, 7), (20, 0, 1))]
    specs += [(f"A{n}", alt_gens(n), math.factorial(n) // 2, [1, n - 1], None, c, p)
              for n, c, p in ((15, 1, 7), (16, 1, 7), (20, 0, 1))]
    specs += [(f"PGL({n},2)", pgl2_gens(n), gl2_order(n), [1, 2**n - 2], None, c, p)
              for n, c, p in ((4, 2, 2), (5, 24, 16), (6, 0, 2), (7, 0, 1))]
    specs += [
        ("PSL(2,7)", _vendored("psl2_7.grp"), 168, [1, 6], None, 1, 1),
        ("PSL(2,11)", _vendored("psl2_11.grp"), 660, [1, 10], None, 1, 1),
        ("PSU(4,2)", _vendored("psu4_2.grp"), 25920, [1, 12, 32], None, 1, 1),
        ("sigma45", _vendored("sigma45.grp"), 3240, [1, 8, 36], (9, 5), 1, 1),
        (f"S{a}wrS{b}", wreath_gens(a, b), math.factorial(a) ** b * math.factorial(b),
         [1, a - 1, a * (b - 1)], (a, b), 1, 1),
    ]
    return specs


def build_groups(sd, rng: random.Random) -> Workload:
    jobs = []
    for name, gens, order, subdegrees, system, chains, prims in _group_specs():
        for i in range(chains + prims):
            mine, _ = relabel(rng, gens, extra=1)
            key = f"{name} " + ";".join(cycles_text(g) for g in mine)
            if i >= chains:
                jobs.append(_group_job(sd, "is_primitive", name, key, mine, (system is None, system)))
            elif i % 2 == 0:
                jobs.append(_group_job(sd, "order", name, key, mine, order))
            else:
                jobs.append(_group_job(sd, "subdegrees", name, key, mine, subdegrees))
    rng.shuffle(jobs)
    return Workload("groups", jobs)


def _group_job(sd, op, name, key, gens, expected) -> Job:
    perm = sd.perm

    def run():
        G = perm.PermutationGroup([perm.Permutation(g) for g in gens])
        if op == "order":
            return G.order()
        if op == "subdegrees":
            return G.subdegrees(0)
        primitive, system = G.is_primitive()
        return primitive, None if system is None else (system.class_size, system.num_classes)

    return Job(f"{op} {name}", f"{op} {key}", run, lambda r: r == expected, 60.0)


# --- membership -------------------------------------------------------------------

_SIGMA45_BASE_BLOCK = (1, 2, 3, 4, 6, 11, 19, 28, 36, 40, 41, 45)
_MEMBERSHIP_ALT = 16
_QUERIES_EACH = 100  # of each kind, member and non-member, per group


def _membership_groups():
    """(name, generators, order, certificate that a permutation is outside)."""
    psu = _vendored("psu4_2.grp")
    psu_block = [int(s) - 1 for s in (SRC_DATA / "unitary_45_12_3.block").read_text().split(",")]
    psu_design = block_orbit(psu, psu_block)
    sigma = _vendored("sigma45.grp")
    sigma_design = block_orbit(sigma, [x - 1 for x in _SIGMA45_BASE_BLOCK])
    pg = {frozenset(b) for b in pg2_blocks(6)}
    n = _MEMBERSHIP_ALT
    return [
        ("PSU(4,2)", psu, 25920, lambda p: not is_automorphism(p, psu_design)),
        ("sigma45", sigma, 3240, lambda p: not is_automorphism(p, sigma_design)),
        ("PGL(6,2)", pgl2_gens(6), gl2_order(6), lambda p: not is_automorphism(p, pg)),
        (f"A{n}", alt_gens(n), math.factorial(n) // 2, lambda p: parity(p) == 1),
    ]


def build_membership(sd, rng: random.Random) -> Workload:
    """Chains are built here, in set-up; the jobs are `contains` queries.

    Members are random words in the generators.  Non-members are random
    permutations or members with two points swapped, each certified outside
    the group: odd for A_n, otherwise not an automorphism of the group's
    design."""
    perm = sd.perm
    jobs = []
    for name, gens, order, certified_outside in _membership_groups():
        G = perm.PermutationGroup([perm.Permutation(g) for g in gens])
        if G.order() != order:
            raise RuntimeError(f"{name}: chain order {G.order()} != {order}")
        degree = len(gens[0])
        for _ in range(_QUERIES_EACH):
            w = list(range(degree))
            for _ in range(rng.randint(10, 30)):
                w = compose(w, rng.choice(gens))
            jobs.append(_contains_job(perm, name, G, w, True))
            while True:
                if rng.random() < 0.5:
                    x = rng.sample(range(degree), degree)
                else:
                    i, j = rng.sample(range(degree), 2)
                    x = list(w)
                    x[i], x[j] = x[j], x[i]
                if certified_outside(x):
                    break
            jobs.append(_contains_job(perm, name, G, x, False))
    rng.shuffle(jobs)
    return Workload("membership", jobs, trace_rounds=20)


def _contains_job(perm, name, G, images, expected) -> Job:
    p = perm.Permutation(images)
    kind = "member" if expected else "non-member"
    return Job(f"contains {name} {kind}", f"{name} {images}", lambda: G.contains(p),
               lambda r: r is expected, 1.0)


# --- designs ---------------------------------------------------------------------

_PG_CONSTRUCTIONS = ((3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (3, 8), (3, 9), (4, 2), (4, 3),
                     (4, 4), (5, 2), (5, 3), (6, 2), (7, 2), (8, 2))
_CATALOG_FLAGTEST = {
    "fano_complement": ((7, 4, 2), "yes"),
    "paley_11_5_2": ((11, 5, 2), "yes"),
    "paley_complement_11_6_3": ((11, 6, 3), "yes"),
    "unitary_45_12_3": ((45, 12, 3), "yes"),
    "imprimitive_45_12_3": ((45, 12, 3), "no (9x5 system)"),
}
_RELABELLED_PG = (5, 6, 6, 6, 6, 7)
# Most corrupted files are PG(5,2) ones, so that the median lands in a
# cluster of like jobs; the relabelled PG(5,2) files do the same at the tail.
_CORRUPTED_PG = (4, 4, 5, 5) + (6,) * 14


def _diffset_problems(sd):
    """(label, ambient group, k, lambda, whether a solution exists)."""
    c = sd.constructions
    return [
        ("Z23 (23,11,5)", c.cyclic(23), 11, 5, True),
        ("Z16 (16,6,2)", c.cyclic(16), 6, 2, False),
        ("Z19 (19,9,4)", c.cyclic(19), 9, 4, True),
        ("Z15 (15,7,3)", c.cyclic(15), 7, 3, True),
        ("Z21 (21,5,1)", c.cyclic(21), 5, 1, True),
        ("Z13 (13,4,1)", c.cyclic(13), 4, 1, True),
        ("Z2^4 (16,6,2)", c.elementary_abelian(2, 4), 6, 2, True),
        ("Z2xZ8 (16,6,2)", c.cyclic_product(2, 8), 6, 2, True),
        ("Q8xZ2 (16,6,2)", c.quaternion8_x_z2(), 6, 2, True),
    ]


def pg_params(n: int, q: int) -> tuple[int, int, int]:
    return tuple((q**m - 1) // (q - 1) for m in (n, n - 1, n - 2))


def verify_line(v: int, k: int, lam: int) -> str:
    trivial = "" if 2 < k < v - 1 else " (trivial)"
    prime = " (lambda prime)" if oracle_is_prime(lam) else ""
    return f"symmetric ({v},{k},{lam}){trivial}{prime}"


def _write_design(path: Path, v: int, blocks) -> None:
    lines = [f"v {v}"] + [",".join(str(x + 1) for x in sorted(b)) for b in blocks]
    path.write_text("\n".join(lines) + "\n")


def _write_group(path: Path, gens) -> None:
    path.write_text(f"degree {len(gens[0])}\n" + "".join(cycles_text(g) + "\n" for g in gens))


def build_designs(sd, rng: random.Random, workdir: Path) -> Workload:
    tmp = Path(tempfile.mkdtemp(prefix="designs-", dir=workdir))
    steps: list[list[Job]] = []  # jobs within a step run in order
    for n, q in _PG_CONSTRUCTIONS:
        v, k, lam = pg_params(n, q)
        f = tmp / f"pg{n}_{q}.design"
        steps.append([
            _cli_job(sd, tmp, f"construct pg {n} {q}", ["construct", "pg", str(n), str(q), "-o", str(f)],
                     0, f"pg({n},{q}): ({v},{k},{lam})\nwrote {f}\n"),
            _cli_job(sd, tmp, f"verify pg {n} {q}", ["verify", str(f)], 0, verify_line(v, k, lam) + "\n"),
        ])
    for name, ((v, k, lam), prim) in _CATALOG_FLAGTEST.items():
        df, gf = tmp / f"{name}.design", tmp / f"{name}.grp"
        steps.append([
            _cli_job(sd, tmp, f"construct {name}", ["construct", name, "-o", str(df), "--group-out", str(gf)],
                     0, f"{name}: ({v},{k},{lam})\nwrote {df}\nwrote {gf}\n"),
            _cli_job(sd, tmp, f"flagtest {name}", ["flagtest", str(gf), str(df)],
                     0, f"flag-transitive: yes; primitive: {prim}\n"),
        ])
    for i, n in enumerate(_RELABELLED_PG):
        gens, sigma = relabel(rng, pgl2_gens(n), extra=1)
        blocks = [[sigma[x] for x in b] for b in pg2_blocks(n)]
        rng.shuffle(blocks)
        df, gf = tmp / f"relabelled{i}_pg{n}.design", tmp / f"relabelled{i}_pgl{n}.grp"
        _write_design(df, len(sigma), blocks)
        _write_group(gf, gens)
        v, k, lam = pg_params(n, 2)
        steps.append([_cli_job(sd, tmp, f"verify relabelled PG({n - 1},2)", ["verify", str(df)],
                               0, verify_line(v, k, lam) + "\n")])
        steps.append([_cli_job(sd, tmp, f"flagtest relabelled PG({n - 1},2)", ["flagtest", str(gf), str(df)],
                               0, "flag-transitive: yes; primitive: yes\n")])
    for i, n in enumerate(_CORRUPTED_PG):
        blocks = [list(b) for b in pg2_blocks(n)]
        blk = rng.choice(blocks)
        blk[rng.randrange(len(blk))] = rng.choice([x for x in range(len(blocks)) if x not in blk])
        df = tmp / f"corrupted{i}_pg{n}.design"
        _write_design(df, len(blocks), blocks)
        steps.append([_cli_job(sd, tmp, f"verify corrupted PG({n - 1},2)", ["verify", str(df)],
                               1, "not a symmetric design [pair_count]:")])
    for label, ambient, k, lam, solvable in _diffset_problems(sd):
        steps.append([_diffset_job(sd, label, ambient, k, lam, solvable)])
    rng.shuffle(steps)
    return Workload("designs", [job for step in steps for job in step],
                    cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))


def _cli_job(sd, tmp: Path, label: str, argv: list[str], code: int, expected: str) -> Job:
    """`expected` is the whole stdout for exit 0, a prefix of it otherwise."""
    prefix = str(tmp)
    want = expected.replace(prefix, "<tmp>")

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = sd.cli.main(argv)
        return rc, buf.getvalue().replace(prefix, "<tmp>")

    def check(r):
        rc, out = r
        return rc == code and (out == want if code == 0 else out.startswith(want))

    return Job(label, " ".join(argv).replace(prefix, "<tmp>"), run, check, 30.0)


def _diffset_job(sd, label, ambient, k, lam, solvable) -> Job:
    def run():
        spec = sd.constructions.find_difference_set(ambient, k, lam)
        return None if spec is None else tuple(ambient.index[e] for e in spec.base_set)

    def check(r):
        if r is None:
            return not solvable
        if len(set(r)) != k or r[0] != 0:
            return False
        els = [ambient.elements[i] for i in r]
        counts: dict = {}
        for x in els:
            for y in els:
                if x != y:
                    e = ambient.op(x, ambient.inv(y))
                    counts[e] = counts.get(e, 0) + 1
        return all(counts.get(e, 0) == lam for e in ambient.elements[1:])

    return Job(f"find_difference_set {label}", label, run, check, 30.0)


# --- scan ------------------------------------------------------------------------

# Products of simple-group orders times |Out| bounds, each with 8*10^4 to
# 1.2*10^5 divisors: (family, n, q) factors.  A planted k = lam(lam+1)
# divides the product itself, so k_bound is exactly the product.
_DIVISOR_HEAVY = (
    (("PSU", 5, 2), ("PSU", 4, 4), ("PSL", 4, 4)),
    (("PSL", 3, 4), ("PSL", 6, 2), ("PSL", 7, 2)),
    (("PSU", 6, 2), ("PSp", 4, 5), ("PSp", 6, 3)),
    (("PSU", 4, 3), ("PSL", 7, 2), ("PSL", 3, 9)),
    (("PSU", 6, 2), ("PSp", 8, 2), ("PSL", 4, 4)),
    (("PSL", 6, 2), ("PSL", 3, 9), ("PSL", 4, 4)),
)
_DIVISOR_ROWS_EACH = 2
_TRIAL_ROWS = 24
_RHO_ROWS = 8
# At the seed commit factorize never finishes on a product of two primes
# above 2^60 (an unbounded Pollard rho); such rows run over budget.
HARD_BOUND = (2**61 - 1) * (2**89 - 1)


def planted(lam: int) -> tuple[int, int]:
    """v = lam^2 (lam + 2), k = lam (lam + 1): (k, lam) is admissible for v."""
    return lam * lam * (lam + 2), lam * (lam + 1)


def build_scan(sd, rng: random.Random) -> Workload:
    el, alg = sd.elimination, sd.algebra
    alg.PrimePower.of(2)  # warms the sieve of primes below 10^6
    jobs = [_run_row_job(sd, row) for row in el.load_catalog()]
    for combo in _DIVISOR_HEAVY:
        bound = 1
        for fam, n, q in combo:
            spec = el.GroupFamilySpec(fam, n, alg.PrimePower.of(q))
            bound *= el.simple_order(spec) * el.out_order_bound(spec)
        lams = [p for p in range(3, 200) if oracle_is_prime(p) and bound % (p * (p + 1)) == 0]
        for lam in rng.sample(lams, _DIVISOR_ROWS_EACH):
            jobs.append(_admissible_job(sd, "divisor-heavy", planted(lam)[0], bound, lam))
    for _ in range(_TRIAL_ROWS):
        lam = random_prime(rng, 50, 3000)
        v, k = planted(lam)
        jobs.append(_admissible_job(sd, "trial-division-heavy", v, k * random_prime(rng, 10**12, 10**13), lam))
    for _ in range(_RHO_ROWS):
        lam = random_prime(rng, 50, 3000)
        v, k = planted(lam)
        semi = random_prime(rng, 2**30, 2**32) * random_prime(rng, 2**30, 2**32)
        jobs.append(_admissible_job(sd, "rho-heavy", v, k * semi, lam))
    rng.shuffle(jobs)
    probe = [_admissible_job(sd, "hard", 1000003, HARD_BOUND, None), hard_row(sd, rng)]
    return Workload("scan", jobs, probe=probe)


def hard_row(sd, rng: random.Random) -> Job:
    lam = random_prime(rng, 50, 3000)
    v, k = planted(lam)
    semi = random_prime(rng, 2**60, 2**62) * random_prime(rng, 2**60, 2**62)
    return _admissible_job(sd, "hard", v, k * semi, lam)


def _run_row_job(sd, row) -> Job:
    def run():
        rep = sd.elimination.run_row(row)
        return rep.status, tuple((p.k, p.lam) for p in rep.pairs)

    return Job(f"run_row {row.id}", f"{row.id} {row.v} {row.k_bound}", run,
               lambda r: r[0] == "PASS", 1.0)


def _admissible_job(sd, kind, v, bound, lam) -> Job:
    """One generated row: factorize k_bound, then scan its divisors.

    The factorization is handed to `admissible`, which would otherwise compute
    the same one itself, so the check can see it."""

    def run():
        f = sd.algebra.factorize(bound)
        found = sd.elimination.admissible(v, f)
        # admissible returns (pairs, tits_ok) at the seed commit
        pairs = found[0] if isinstance(found, tuple) else found
        return f.factors, tuple((p.k, p.lam) for p in pairs)

    def check(r):
        factors, pairs = r
        if math.prod(p**e for p, e in factors) != bound:
            return False
        if not all(oracle_is_prime(p) for p, _ in factors):
            return False
        if lam is not None and (lam * (lam + 1), lam) not in pairs:
            return False
        for k, lm in pairs:
            if not (2 < k < v - 1 and bound % k == 0 and k * (k - 1) == lm * (v - 1)):
                return False
            if lm * v >= k * k or not oracle_is_prime(lm):
                return False
        return True

    return Job(f"admissible {kind}", f"{v} {bound}", run, check, 1.0)


# --- registry --------------------------------------------------------------------

WORKLOADS = ("groups", "membership", "designs", "scan")


def build(name: str, seed: int, sd, workdir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "groups":
        return build_groups(sd, rng)
    if name == "membership":
        return build_membership(sd, rng)
    if name == "designs":
        return build_designs(sd, rng, workdir)
    if name == "scan":
        return build_scan(sd, rng)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
