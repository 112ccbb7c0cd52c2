"""symdesign benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 bench/run.py --workload {groups,membership,designs,scan} \
        --seed N --seconds S --trace {0,1}

Set-up (a fresh import of ``symdesign``, input generation, warm-up of lazy
caches, the membership chain builds) runs nine times; `setup_s` is its
median.  A first round of jobs warms what set-up left cold and gives the
output digest.  Timed rounds then run, one job at a time on one thread,
until `--seconds` have passed since the first round began.  `jobs_per_s` is
the jobs the timed rounds completed over the time they took; the latency
percentiles are taken over each job's median over the timed rounds.  Every
answer is checked, and each job has a wall-clock budget enforced with
``signal.setitimer``.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` a fixed number of rounds runs, each once untraced and once
traced, the last line carries the per-layer metrics, and the spans are
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 9
# Latencies of at most this many timed rounds are kept for the percentiles,
# so the memory they take does not grow with the library's speed.
KEPT_ROUNDS = 50
# Jobs are single-threaded and CPU-bound, so the thread's CPU time is their
# wall time on a dedicated core; on a shared virtual machine it also leaves
# out the time the hypervisor gives other guests.
clock = thread_time
# On a shared host the same code also runs up to twice as slow for seconds
# or minutes at a time while neighbours load the machine.  Times are
# therefore scaled by REFERENCE_S / (the current time of `reference_work`),
# measured between the jobs: a run reports times at the speed of a host
# running `reference_work` in REFERENCE_S, about that of a quiet core of the
# 2-core x86-64 machine the bounds were set on.
REFERENCE_S = 0.0008


class BudgetExceeded(BaseException):
    """Not an Exception, so the library's `except Exception` clauses (as in
    `elimination.run_row`) cannot swallow the alarm."""


def _alarm(signum, frame):
    raise BudgetExceeded


def fresh_import():
    """Import symdesign from this checkout's src/, dropping any earlier copy so
    each set-up pays for its own import and its own lazy caches."""
    for name in [m for m in sys.modules if m == "symdesign" or m.startswith("symdesign.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"symdesign.{m}") for m in tracing.LAYERS}
    return type("Symdesign", (), mods)


def reference_work() -> int:
    """A fixed mix of what the library and its set-up spend time on: small
    tuples, dict updates, sorting and integer arithmetic in the interpreter,
    and bulk writes to a byte array, as a sieve makes.  Neighbours on the
    host slow the two kinds by different amounts, so the mix tracks the
    library better than either alone.  It does not use the library, so no
    change to the library can change its speed."""
    seen: dict = {}
    acc = 0
    for i in range(200):
        t = tuple((i * j + 7) % 101 for j in range(8))
        seen[t] = seen.get(t, 0) + 1
        acc += sum(sorted(t))
    n = 50_000
    sieve = bytearray([1]) * n
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return acc + len(seen) + sum(sieve)


def reference_s(times: int) -> float:
    """The least of `times` timings of `reference_work`."""
    best = float("inf")
    for _ in range(times):
        t0 = clock()
        reference_work()
        best = min(best, clock() - t0)
    return best


class Speed:
    """REFERENCE_S over the least of three timings of `reference_work`,
    re-measured before a job once 50 ms of CPU time have passed."""

    def __init__(self) -> None:
        self.factor = 1.0
        self.factors: list[float] = []
        self._at = float("-inf")

    def now(self) -> float:
        if clock() - self._at >= 0.05:
            self.factor = REFERENCE_S / reference_s(3)
            self.factors.append(self.factor)
            self._at = clock()
        return self.factor


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.over_budget = 0
        self.outputs: list[str] | None = []  # canonical outputs, while recorded

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.over_budget

    def note(self, line: str) -> None:
        if self.outputs is not None:
            self.outputs.append(line)


def run_job(job, tally: Tally, tracer=None) -> float:
    """Runs one job under its budget and checks it; returns its latency."""
    tally.attempted += 1
    elapsed = job.budget_s
    signal.setitimer(signal.ITIMER_REAL, job.budget_s)
    try:
        t0 = clock()
        try:
            if tracer is None:
                result = job.run()
            else:
                tracer.job_id = tally.attempted
                tracer.stack[:] = [-1]
                result = tracer.wrap(tracing.JOB_SPAN, job.run)()
        finally:
            elapsed = clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        tally.over_budget += 1
        tally.note(f"{job.label}\tover budget")
        return elapsed
    except Exception as exc:  # a raising job is a failed job, not a dead benchmark
        tally.errors += 1
        tally.note(f"{job.label}\terror {type(exc).__name__}: {exc}")
        print(f"job raised: {job.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed
    if not job.check(result):
        tally.wrong += 1
        print(f"wrong answer: {job.label}: {result!r}"[:500], file=sys.stderr)
    tally.note(f"{job.label}\t{result!r}")
    return elapsed


def run_round(jobs, tally: Tally, tracer=None, speed: Speed | None = None) -> list[float]:
    """Latencies of one round, scaled to the reference speed if `speed` is
    given."""
    signal.signal(signal.SIGALRM, _alarm)
    out = []
    for job in jobs:
        factor = 1.0 if speed is None else speed.now()
        out.append(run_job(job, tally, tracer) * factor)
    return out


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond its
    rank (method='inclusive'); 50 when there are fewer than twenty."""
    for pct in range(99, 50, -1):
        if n - 1 - (n - 1) * pct // 100 >= 10:
            return pct
    return 50


def digest(outputs) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


def measure(wl, seconds: float, speed: Speed):
    """A warm-up round, then timed rounds until `seconds` have passed since
    it began; at least one timed round.

    Returns the tally, the number of timed jobs and their total scaled
    latency, the scaled latencies of the first KEPT_ROUNDS timed rounds (one
    list a round), and the digest of the warm-up round's outputs."""
    tally = Tally()
    t0 = perf_counter()
    run_round(wl.jobs, tally, speed=speed)
    first = digest(tally.outputs)
    tally.outputs = None  # later rounds would make memory grow with speed
    jobs, total, kept = 0, 0.0, []
    while not kept or perf_counter() - t0 < seconds:
        latencies = run_round(wl.jobs, tally, speed=speed)
        jobs += len(latencies)
        total += sum(latencies)
        if len(kept) < KEPT_ROUNDS:
            kept.append(latencies)
    return tally, jobs, total, kept, first


def run_probe(wl) -> Tally:
    probe = Tally()
    run_round(wl.probe, probe)
    return probe


def end_to_end(jobs: int, total: float, kept: list[list[float]], setup_s: float) -> dict:
    """`jobs_per_s` is every timed job over their total latency; the
    percentiles are over each job's median latency in the kept rounds.  The
    expected value of neither depends on how many rounds ran."""
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = [statistics.median(per_job) * 1000 for per_job in zip(*kept)]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs / total, "1/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_tail": (percentile(ms, tail_percentile(len(ms))), "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def per_layer(wl, sd, seed: int, speed: Speed) -> tuple[Tally, dict, Tally]:
    """Each round untraced, then traced; per-layer metrics of the traced ones.

    A first untraced round warms what the timed loop also has warm.  The
    overhead ratio compares scaled times of alternating rounds, so a change
    in the host's speed between them does not show as tracing overhead."""
    tally = Tally()
    tally.outputs = None
    run_round(wl.jobs, tally)
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for _ in range(wl.trace_rounds):
        untraced += sum(run_round(wl.jobs, tally, speed=speed))
        saved = tracing.install(tracer, sd)
        try:
            traced += sum(run_round(wl.jobs, tally, tracer, speed))
        finally:
            tracing.uninstall(saved)
    probe = run_probe(wl)
    agg = tracing.layer_metrics(tracer)
    c = tracer.counts

    def s(name):
        return agg.get(f"{name}.s", 0.0)

    def calls(name):
        return agg.get(f"{name}.calls", 0)

    lam_calls = c["constructions.diffset_candidates"]
    yielded = c["algebra.divisors.yielded"]
    layer_sum = sum(agg.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (agg.get(f"{layer}.self_s", 0.0), "s")
    m.update({
        "algebra.factorize.calls": (calls("algebra.factorize"), "count"),
        "algebra.factorize.s": (s("algebra.factorize"), "s"),
        "algebra.divisors.yielded": (yielded, "count"),
        "algebra.divisors.s": (s("algebra.divisors"), "s"),
        "algebra.is_prime.calls": (calls("algebra.is_prime"), "count"),
        "algebra.is_prime.s": (s("algebra.is_prime"), "s"),
        "algebra.field_table.calls": (calls("algebra.field_table"), "count"),
        "algebra.field_table.s": (s("algebra.field_table"), "s"),
        "perm.permutations_built": (c["perm.permutations_built"], "count"),
        "perm.order.calls": (calls("perm.order"), "count"),
        "perm.order.s": (s("perm.order"), "s"),
        "perm.point_stabilizer.s": (s("perm.point_stabilizer"), "s"),
        "perm.contains.calls": (calls("perm.contains"), "count"),
        "perm.contains.s": (s("perm.contains"), "s"),
        "perm.is_primitive.s": (s("perm.is_primitive"), "s"),
        "perm.minimal_block.calls": (calls("perm.minimal_block"), "count"),
        "perm.read_group_file.s": (s("perm.read_group_file"), "s"),
        "design.verify_symmetric.calls": (calls("design.verify_symmetric"), "count"),
        "design.verify_symmetric.s": (s("design.verify_symmetric"), "s"),
        "design.is_flag_transitive.s": (s("design.is_flag_transitive"), "s"),
        "design.orbit_design.s": (s("design.orbit_design"), "s"),
        "design.io.s": (s("design.read_design_file") + s("design.write_design_file"), "s"),
        "constructions.projective_space.s": (s("constructions.projective_space"), "s"),
        "constructions.find_difference_set.s": (s("constructions.find_difference_set"), "s"),
        "constructions.diffset_candidates": (lam_calls, "count"),
        "constructions.diffset_hit_ratio": (
            c["constructions.diffset_hits"] / lam_calls if lam_calls else 0.0, "ratio"),
        "elimination.admissible.calls": (calls("elimination.admissible"), "count"),
        "elimination.admissible.s": (s("elimination.admissible"), "s"),
        "elimination.pairs_found": (c["elimination.pairs_found"], "count"),
        "elimination.pair_yield": (
            c["elimination.pairs_found"] / yielded if yielded else 0.0, "ratio"),
        "elimination.over_budget": (tally.over_budget + probe.over_budget, "count"),
        "cli.calls": (calls("cli.main"), "count"),
        "cli.nonzero_exits": (c["cli.nonzero_exits"], "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
        "trace.wall_s": (agg[f"{tracing.JOB_SPAN}.s"], "s"),
        "trace.self_sum_s": (layer_sum, "s"),
    })
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(tracer, OUT / f"spans-{wl.name}-seed{seed}.tsv")
    return tally, m, probe


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "symdesign" / "__init__.py").is_file():
        print(f"error: no symdesign package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    speed = Speed()
    setup_times = []
    wl = None
    try:
        for _ in range(SETUP_REPS):
            if wl is not None:
                wl.cleanup()
                wl = sd = None
            gc.collect()  # so the peak RSS holds one set-up, and no set-up collects the last
            # the host's speed can change within a set-up; take it on both sides
            before = reference_s(5)
            t0 = clock()
            sd = fresh_import()
            wl = workloads.build(args.workload, args.seed, sd, OUT)
            elapsed = clock() - t0
            setup_times.append(elapsed * 2 * REFERENCE_S / (before + reference_s(5)))
        if args.trace:
            tally, metrics, probe = per_layer(wl, sd, args.seed, speed)
        else:
            tally, jobs, total, kept, dig = measure(wl, args.seconds, speed)
            metrics = end_to_end(jobs, total, kept, statistics.median(setup_times))
            probe = run_probe(wl)
    finally:
        if wl is not None:
            wl.cleanup()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        n = len(wl.jobs)
        f = speed.factors
        print(f"{args.workload} {n} jobs a round, {jobs // n} timed rounds; latencies are"
              f" thread CPU time scaled to the reference speed (factor median"
              f" {statistics.median(f):.3g}, {min(f):.3g}-{max(f):.3g}); percentiles are over"
              f" each job's median over {len(kept)} rounds; job_ms_tail is"
              f" p{tail_percentile(n)} of {n}")
        print(f"{args.workload} fail_ratio = {tally.failed / tally.attempted:.6g}"
              f" ({tally.failed}/{tally.attempted}: {tally.wrong} wrong,"
              f" {tally.errors} raised, {tally.over_budget} over budget)")
        print(f"{args.workload} digest sha256 {dig}")
    if wl.probe:
        print(f"{args.workload} hard-row probe: {probe.over_budget}/{probe.attempted}"
              f" over budget, {probe.wrong + probe.errors} wrong or raised")
    result = {
        "correct": tally.failed == 0 and probe.wrong + probe.errors == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
