"""Spans around the library's public entry points, from outside the library.

`install` wraps module functions and class methods of a freshly imported
``symdesign`` namespace; nothing under ``src/`` changes.  Each span records
its name, start, end, parent span and job id in flat arrays kept in memory,
and `write_spans` writes them out when the run ends.  Hot paths that would
produce millions of spans (`Permutation.__init__`, `DifferenceSetSpec.lam`)
are counted instead.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import thread_time as clock

LAYERS = ("algebra", "perm", "design", "constructions", "elimination", "cli")
JOB_SPAN = "bench.job"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = clock()
        # an exception raised by the budget alarm may unwind several spans
        while self.stack[-1] != idx and len(self.stack) > 1:
            self.stack.pop()
        if len(self.stack) > 1:
            self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, count: str):
        """Each `next()` on the returned generator is a span of its own."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.finish(idx)
                self.counts[count] += 1
                yield item

        return traced

    def spans(self):
        for i in range(len(self.start)):
            yield (self.job[i], i, self.parent[i], self.names[self.name_of[i]],
                   self.start[i], self.end[i])


def self_times(start, end, parent) -> list[float]:
    """A span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, nested calls), so the
    covered time is the sum of their durations."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self time, and per-name call counts and inclusive time.

    Inclusive time counts only the outermost span of a name, so a recursive
    call (catalog -> catalog) is not counted twice."""
    names = [tracer.names[n] for n in tracer.name_of]
    own = self_times(tracer.start, tracer.end, tracer.parent)
    out: Counter = Counter()
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own[i]
        out[f"{name}.calls"] += 1
        p = tracer.parent[i]
        while p >= 0 and names[p] != name:
            p = tracer.parent[p]
        if p < 0:
            out[f"{name}.s"] += tracer.end[i] - tracer.start[i]
    return out


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("job\tspan\tparent\tname\tstart_s\tend_s\n")
        for job, i, parent, name, s, e in tracer.spans():
            fh.write(f"{job}\t{i}\t{parent}\t{name}\t{s:.9f}\t{e:.9f}\n")


def install(tracer: Tracer, sd) -> list[tuple[object, str, object]]:
    """Patch the entry points; returns what `uninstall` needs to undo it.

    A name another module bound with `from .x import y` is patched there too.
    """
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    alg, perm, des, con, eli, cli = (sd.algebra, sd.perm, sd.design, sd.constructions,
                                      sd.elimination, sd.cli)
    t = tracer

    def module_fn(mod, fname, span, importers=(), on_result=None):
        new = t.wrap(span, getattr(mod, fname), on_result)
        patch(mod, fname, new)
        for other in importers:
            patch(other, fname, new)

    module_fn(alg, "factorize", "algebra.factorize", (eli,))
    module_fn(alg, "is_prime", "algebra.is_prime", (eli,))
    divisors = t.wrap_generator("algebra.divisors", alg.divisors, "algebra.divisors.yielded")
    patch(alg, "divisors", divisors)
    patch(eli, "divisors", divisors)
    patch(alg.FieldTable, "__init__", t.wrap("algebra.field_table", alg.FieldTable.__init__))

    perm_init = perm.Permutation.__init__

    def counted_init(self, images):
        t.counts["perm.permutations_built"] += 1
        perm_init(self, images)

    patch(perm.Permutation, "__init__", counted_init)
    for meth in ("order", "contains", "point_stabilizer", "subdegrees", "is_primitive",
                 "minimal_block", "block_system"):
        patch(perm.PermutationGroup, meth,
              t.wrap(f"perm.{meth}", getattr(perm.PermutationGroup, meth)))
    module_fn(perm, "read_group_file", "perm.read_group_file")
    module_fn(perm, "write_group_file", "perm.write_group_file")

    patch(des.IncidenceStructure, "verify_symmetric",
          t.wrap("design.verify_symmetric", des.IncidenceStructure.verify_symmetric))
    module_fn(des, "is_flag_transitive", "design.is_flag_transitive")
    module_fn(des, "orbit_design", "design.orbit_design", (con,))
    module_fn(des, "read_design_file", "design.read_design_file", (cli,))
    module_fn(des, "write_design_file", "design.write_design_file")

    for fname in ("projective_space", "find_difference_set", "develop_difference_set", "catalog"):
        module_fn(con, fname, f"constructions.{fname}")
    lam = con.DifferenceSetSpec.lam

    def counted_lam(self):
        t.counts["constructions.diffset_candidates"] += 1
        result = lam(self)
        t.counts["constructions.diffset_hits"] += 1
        return result

    patch(con.DifferenceSetSpec, "lam", counted_lam)

    def count_pairs(result):
        pairs = result[0] if isinstance(result, tuple) else result
        t.counts["elimination.pairs_found"] += len(pairs)

    module_fn(eli, "admissible", "elimination.admissible", on_result=count_pairs)
    module_fn(eli, "run_row", "elimination.run_row")

    def count_exit(code):
        t.counts["cli.nonzero_exits"] += code != 0

    module_fn(cli, "main", "cli.main", on_result=count_exit)
    return saved


def uninstall(saved) -> None:
    for owner, attr, old in reversed(saved):
        setattr(owner, attr, old)
