"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from tracing import Tracer  # noqa: E402


def tiny(name: str) -> bench.Workload:
    w = bench.WORKLOADS[name]
    job = w.job
    if isinstance(job, bench.Grid):
        job = replace(job, samples=dict.fromkeys(job.samples, 2))
    return replace(w, dims=w.warmup_dims, inputs=2, job=job)


# Event counts, which are 0 on any run where no fit stalls or loses rank.
EVENT_COUNTS = {"decomp.cp_als_unconverged", "corcondia.rank_deficient"}


def unused_layers(job) -> tuple[str, ...]:
    """Prefixes of the per-layer metrics whose layer the job never calls."""
    if isinstance(job, bench.Grid):
        return ("corcondia.sweep",)
    return ("decomp.tucker3", "compress.", "harness.")


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_outputs_are_byte_identical(name, tmp_path):
    workload = tiny(name)
    outdir = tmp_path / "out"
    outdir.mkdir()
    for seed, path in bench.write_inputs(workload, 0, tmp_path):
        plain = bench.run_call(workload.job, path, seed, outdir)
        tracer = Tracer()
        bench.install_tracer(tracer)
        try:
            traced = bench.run_call(workload.job, path, seed, outdir)
        finally:
            tracer.remove()
        assert bench.check_call(workload, plain)[0] == []
        assert traced.outputs == plain.outputs

        names = {s.name for s in tracer.spans}
        assert "decomp.cp_als" in names and "corcondia.diag" in names
        if isinstance(workload.job, bench.Grid):
            samples = {s.sample for s in tracer.spans if s.sample is not None}
            assert len(samples) == workload.job.fits - 1
            run = next(i for i, s in enumerate(tracer.spans) if s.name == "harness.run_experiment")
            for span in tracer.spans:
                if span.sample is not None:
                    parent = span.parent
                    while parent is not None and parent != run:
                        parent = tracer.spans[parent].parent
                    assert parent == run, f"{span.name} is not nested in run_experiment"


def test_tracer_keeps_every_span_and_count_across_threads():
    tracer = Tracer()
    threads_n, per_thread = 8, 300
    root = tracer.open("root")

    def work():
        for _ in range(per_thread):
            outer = tracer.open("outer")
            inner = tracer.open("inner")
            tracer.count("inner")
            tracer.close(inner)
            tracer.close(outer)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    tracer.close(root)
    assert not any(t.is_alive() for t in threads)
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == threads_n * per_thread == tracer.counts["inner"]
    for span in inner:
        outer = tracer.spans[span.parent]
        assert outer.name == "outer" and outer.thread == span.thread
        assert outer.parent == 0 and span.root == 0
    assert tracer.self_time(0) < root.duration


def test_tracer_restores_the_program():
    cli = sys.modules["corcomp.cli"]
    before = cli.read_tensor, bench.corcomp.DenseTensor3.__init__
    tracer = Tracer()
    bench.install_tracer(tracer)
    tracer.remove()
    assert (cli.read_tensor, bench.corcomp.DenseTensor3.__init__) == before


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_run_reports_every_declared_metric(name, tmp_path):
    workload = tiny(name)
    result, report = bench.run(workload, 3, 60.0, True, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 5
    assert set(result["metrics"]) == declared("per_layer")
    assert set(report["end_to_end"]) == declared("end_to_end")
    assert all(v > 0 for v in report["end_to_end"].values())
    # End-to-end metrics are never 0.  A per-layer metric is 0 exactly when
    # the workload never calls its layer, apart from the event counts.
    layers = result["metrics"]
    unused = unused_layers(workload.job)
    for metric, value in layers.items():
        assert math.isfinite(value) and value >= 0, metric
        if metric.startswith(unused):
            assert value == 0, metric
        elif metric not in EVENT_COUNTS:
            assert value > 0, metric
    assert 0 <= layers["trace.unaccounted_s"] < 0.05 * layers["trace.wall_s"]
    assert (tmp_path / report["trace_file"]).is_file()


def test_exits_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-ref", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
