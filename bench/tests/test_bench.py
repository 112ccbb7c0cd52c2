"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def sd():
    return run.fresh_import()


def build(name, seed, sd, tmp_path):
    return workloads.build(name, seed, sd, tmp_path)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_inputs(name, sd, tmp_path):
    a = build(name, 7, sd, tmp_path)
    b = build(name, 7, sd, tmp_path)
    c = build(name, 8, sd, tmp_path)
    try:
        keys = [j.key for j in a.jobs]
        assert keys == [j.key for j in b.jobs]
        assert keys != [j.key for j in c.jobs]
        assert sorted(j.label for j in a.jobs) == sorted(j.label for j in c.jobs)
    finally:
        for w in (a, b, c):
            w.cleanup()


@pytest.mark.parametrize("name", ["membership", "scan"])
def test_same_seed_same_digest(name, sd, tmp_path):
    digests = []
    for _ in range(2):
        wl = build(name, 3, sd, tmp_path)
        tally, jobs, total, kept, dig = run.measure(wl, 0, run.Speed())
        assert tally.failed == 0 and jobs == len(wl.jobs) and len(kept) == 1
        digests.append(dig)
    assert digests[0] == digests[1]


def test_self_times_on_synthetic_tree():
    # job 0..10 covers a 0..4 (with child b 1..3) and c 5..9 (child d 6..7)
    names = ["bench.job", "perm.order", "algebra.is_prime", "design.verify_symmetric",
             "algebra.factorize"]
    start = [0.0, 0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    parent = [-1, 0, 1, 0, 3]
    assert tracing.self_times(start, end, parent) == [2.0, 2.0, 2.0, 3.0, 1.0]

    t = tracing.Tracer()
    for i, name in enumerate(names):
        t.names.append(name)
        t.name_of.append(i)
        t.start.append(start[i])
        t.end.append(end[i])
        t.parent.append(parent[i])
        t.job.append(0)
    m = tracing.layer_metrics(t)
    assert m["perm.self_s"] == 2.0
    assert m["algebra.self_s"] == 3.0
    assert m["design.self_s"] == 3.0
    assert m["bench.self_s"] == 2.0
    assert m["perm.order.s"] == 4.0 and m["perm.order.calls"] == 1
    assert sum(m[f"{x}.self_s"] for x in ("bench", *tracing.LAYERS) if f"{x}.self_s" in m) == 10.0


def test_recursive_span_counted_once():
    t = tracing.Tracer()
    outer = t.begin("constructions.catalog")
    inner = t.begin("constructions.catalog")
    t.finish(inner)
    t.finish(outer)
    m = tracing.layer_metrics(t)
    assert m["constructions.catalog.calls"] == 2
    assert m["constructions.catalog.s"] == pytest.approx(t.end[outer] - t.start[outer])


def cheap_jobs(wl, n):
    return sorted(wl.jobs, key=lambda j: j.label.startswith(("order", "subdegrees")))[:n]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_fail_ratio_is_share_of_hard_rows(name, sd, tmp_path):
    wl = build(name, 1, sd, tmp_path)
    hard = wl.probe  # empty except on scan
    jobs = hard + (wl.jobs if name == "designs" else cheap_jobs(wl, 8))
    try:
        tally = run.Tally()
        run.run_round(jobs, tally)
    finally:
        wl.cleanup()
    assert tally.wrong == 0 and tally.errors == 0
    assert tally.failed / tally.attempted == len(hard) / len(jobs)


def test_over_budget_run_row_is_not_swallowed(sd):
    # run_row turns any Exception into INCONCLUSIVE; the alarm must get through
    row = dataclasses.replace(sd.elimination.load_catalog()[0], k_bound=workloads.HARD_BOUND)
    tally = run.Tally()
    run.run_round([workloads._run_row_job(sd, row)], tally)
    assert (tally.attempted, tally.over_budget, tally.wrong) == (1, 1, 0)


def test_wrong_answer_counts_as_failed():
    job = workloads.Job("x", "x", lambda: 1, lambda r: r == 2, 1.0)
    tally = run.Tally()
    run.run_round([job], tally)
    assert (tally.attempted, tally.wrong, tally.failed) == (1, 1, 1)


def test_tail_percentile_leaves_ten_beyond():
    for n in (20, 58, 72, 800):
        p = run.tail_percentile(n)
        beyond = lambda q: n - 1 - (n - 1) * q // 100  # noqa: E731
        assert beyond(p) >= 10 and (p == 99 or beyond(p + 1) < 10)
    assert run.tail_percentile(11) == 50


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_result_line():
    out = run_cli(ROOT, "--workload", "membership", "--seed", "2", "--seconds", "0.2",
                  "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "jobs_per_s", "job_ms_p50", "job_ms_tail",
                                      "peak_rss_mib"}


def test_traced_run_self_times_add_up():
    out = run_cli(ROOT, "--workload", "membership", "--seed", "2", "--seconds", "1",
                  "--trace", "1")
    assert out.returncode == 0, out.stderr
    m = {k: v["value"] for k, v in json.loads(out.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert m["perm.contains.calls"] == 20 * 800
    untraced = m["trace.wall_s"] / m["trace.overhead_ratio"]
    assert m["trace.self_sum_s"] <= m["trace.wall_s"]
    assert m["trace.wall_s"] - m["trace.self_sum_s"] <= m["trace.wall_s"] - untraced + 0.05 * untraced


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_cli(tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
