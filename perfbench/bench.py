"""Workloads, measurement, output checks and metrics of the corcomp benchmark.

Every workload drives the real CLI in-process through
``corcomp.cli.cli_main``.  A run synthesizes ``inputs`` tensors whose
synth seed and ``--seed`` are both ``seed * inputs + i``, calls the CLI
once per tensor, checks each call's outputs, and then keeps calling the
CLI on the same tensors, round robin, until ``--seconds`` have passed.
Per tensor the median call time counts, and ``wall_s`` is the mean of
those medians over the tensors.  Convergence, and so the work of a call,
differs a lot from tensor to tensor, so a run averages over many tensors
rather than repeating one.

With tracing on, a run makes one untraced and then one traced call per
tensor, tensor by tensor, until ``--seconds`` have passed or every tensor
has had its pair (at least one pair).  It derives the per-layer metrics
from the traced calls' spans and runs two microbenchmarks on fixed
inputs.  See ``METRICS.md`` for what each metric means and which
end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import corcomp
from corcomp import (
    FitConfig,
    RatioSpec,
    SynthSpec,
    cp_als,
    compress,
    n_mode_product,
    orthonormal_operator,
    ratio_to_dims,
    synth_tensor,
    write_tensor,
)
from corcomp.cli import cli_main

from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import numpy, corcomp; "
    "print(time.perf_counter() - start)"
)
MICRO_SECONDS = 0.5
BASELINE_MIN = 90.0
TUCKER_SLACK = 5.0


@dataclass(frozen=True)
class Grid:
    """``corcomp experiment`` on one tensor; writes a JSON and a CSV."""

    rank: int
    ratios: tuple[float, ...]
    samples: dict[str, int]
    workers: int
    fit: tuple[str, ...] = ("--max-iter", "200", "--tol", "1e-7", "--restarts", "2")
    check_tucker_vs_orthonormal: bool = False

    @property
    def fits(self) -> int:
        """CP fits per call: every Monte Carlo sample plus the baseline."""
        return 1 + len(self.ratios) * sum(self.samples.values())

    def argv(self, tensor: Path, seed: int, outdir: Path) -> list[str]:
        argv = ["experiment", "--input", str(tensor), "--rank", str(self.rank)]
        argv += ["--schemes", *self.samples]
        argv += ["--ratios", *(repr(r) for r in self.ratios)]
        for scheme, n in self.samples.items():
            argv += [f"--samples-{scheme}", str(n)]
        argv += [*self.fit, "--workers", str(self.workers), "--seed", str(seed)]
        argv += ["--out-json", str(outdir / "result.json"), "--out-csv", str(outdir / "cells.csv")]
        return argv

    def outputs(self, outdir: Path, stdout: str) -> dict[str, bytes]:
        return {
            name: (outdir / name).read_bytes()
            for name in ("result.json", "cells.csv")
            if (outdir / name).exists()
        }

    def check(self, outputs: dict[str, bytes]) -> tuple[list[str], dict[str, float]]:
        """Structural problems of one call, and the scores the run-level
        acceptance pools: baseline CORCONDIA and each cell's smoothed mean."""
        if set(outputs) != {"result.json", "cells.csv"}:
            return [f"missing outputs: {sorted({'result.json', 'cells.csv'} - set(outputs))}"], {}
        doc = json.loads(outputs["result.json"])
        problems = []
        cells = {(c["scheme"], c["ratio"]): c for c in doc["cells"]}
        expected = {(s, r) for s in self.samples for r in self.ratios}
        if len(doc["cells"]) != len(expected) or set(cells) != expected:
            problems.append(f"cells {sorted(cells)} != configured {sorted(expected)}")
        for (scheme, ratio), cell in cells.items():
            n = self.samples.get(scheme)
            raw = cell["raw_samples"]
            if cell["stats"]["n"] != n or len(raw) != n:
                problems.append(f"{scheme}@{ratio}: {len(raw)} samples, configured {n}")
            if not all(math.isfinite(v) for v in raw):
                problems.append(f"{scheme}@{ratio}: non-finite sample")
        baseline = doc["baseline"]["value"]
        if not math.isfinite(baseline):
            problems.append(f"baseline corcondia {baseline} is not finite")
        rows = outputs["cells.csv"].decode().splitlines()
        if len(rows) != 1 + len(expected):
            problems.append(f"cells.csv has {len(rows) - 1} rows, expected {len(expected)}")
        scores = {"baseline": baseline}
        scores.update({f"{s}@{r}": c["stats"]["smoothed_mean"] for (s, r), c in cells.items()})
        return problems, scores

    def accept(self, medians: dict[str, float], true_rank: int) -> list[str]:
        problems = []
        if not medians["baseline"] >= BASELINE_MIN:
            problems.append(f"median baseline corcondia {medians['baseline']} < {BASELINE_MIN}")
        if self.check_tucker_vs_orthonormal:
            for ratio in self.ratios:
                t, o = medians[f"tucker@{ratio}"], medians[f"orthonormal@{ratio}"]
                if not t >= o - TUCKER_SLACK:
                    problems.append(f"criterion 5a at {ratio}: tucker {t} < orthonormal {o} - 5")
        return problems


@dataclass(frozen=True)
class Sweep:
    """``corcomp corcondia`` on one tensor; prints one row per rank."""

    ranks: tuple[int, ...]
    fit: tuple[str, ...] = ()

    @property
    def fits(self) -> int:
        return len(self.ranks)

    def argv(self, tensor: Path, seed: int, outdir: Path) -> list[str]:
        ranks = [str(r) for r in self.ranks]
        return ["corcondia", "--input", str(tensor), "--ranks", *ranks, *self.fit, "--seed", str(seed)]

    def outputs(self, outdir: Path, stdout: str) -> dict[str, bytes]:
        return {"stdout": stdout.encode()}

    def check(self, outputs: dict[str, bytes]) -> tuple[list[str], dict[str, float]]:
        rows = [line.split("\t") for line in outputs["stdout"].decode().splitlines()]
        if [r[0] for r in rows] != [str(r) for r in self.ranks] or any(len(r) != 2 for r in rows):
            return [f"expected one 'rank<TAB>value' row per rank {self.ranks}, got {rows}"], {}
        scores = {f"rank {r}": float(v) for r, v in rows}
        problems = [f"{k}: corcondia {v} is not finite" for k, v in scores.items() if not math.isfinite(v)]
        return problems, scores

    def accept(self, medians: dict[str, float], true_rank: int) -> list[str]:
        return [
            f"median corcondia at rank {r} is {medians[f'rank {r}']} < {BASELINE_MIN}"
            for r in self.ranks
            if r <= true_rank and not medians[f"rank {r}"] >= BASELINE_MIN
        ]


@dataclass(frozen=True)
class Workload:
    """Synthetic input recipe plus the CLI job run on each input.

    ``micro`` is the (compression ratio, CP rank) of the fixed tensor the
    per-sweep microbenchmark fits; ratio 1.0 fits the uncompressed tensor.
    """

    name: str
    dims: tuple[int, int, int]
    rank: int
    inputs: int
    job: Grid | Sweep
    micro: tuple[float, int]
    noise: float = 0.05
    warmup_dims: tuple[int, int, int] = (50, 25, 7)

    def tensor(self, seed: int):
        return synth_tensor(SynthSpec(self.dims, self.rank, self.noise, seed=seed))


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-5 / paper-protocol shape: many tiny fits on
        # compressed tensors, where ALS cost is per-call overhead.
        Workload(
            name="grid-ref",
            dims=(268, 44, 7),
            rank=3,
            inputs=11,
            job=Grid(
                rank=3,
                ratios=(0.5, 0.2, 0.08),
                samples={"gaussian": 5, "orthonormal": 5, "tucker": 1},
                workers=1,
                check_tucker_vs_orthonormal=True,
            ),
            micro=(0.5, 3),
        ),
        # Tucker/HOOI dominates, Tucker is refit for every sample of a
        # ratio, and it is the one workload that runs the thread pool.
        Workload(
            name="grid-wide",
            dims=(240, 64, 12),
            rank=4,
            inputs=12,
            job=Grid(
                rank=4,
                ratios=(0.5,),
                samples={"orthonormal": 2, "tucker": 2},
                workers=2,
            ),
            micro=(0.5, 4),
            warmup_dims=(50, 25, 12),
        ),
        # Bypasses operators, compress and the harness: ALS on the full
        # tensor, with overfactored ranks 4-6 degenerate.  A tolerance no
        # fit reaches runs every fit of ranks 2-6 to the iteration cap
        # (rank 1 stops on an exactly repeated error), so a call's work is
        # the same on every tensor and the run's calls are comparable.
        Workload(
            name="sweep-overfactor",
            dims=(268, 44, 7),
            rank=3,
            inputs=4,
            job=Sweep(
                ranks=(1, 2, 3, 4, 5, 6),
                fit=("--max-iter", "100", "--tol", "1e-300", "--restarts", "2"),
            ),
            micro=(1.0, 6),
        ),
    )
}


@dataclass
class Call:
    wall: float
    rc: int
    outputs: dict[str, bytes]
    stderr: str

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            h.update(name.encode() + b"\0" + self.outputs[name] + b"\0")
        return h.hexdigest()


def run_call(job: Grid | Sweep, tensor: Path, seed: int, outdir: Path) -> Call:
    """One timed CLI call; outputs are read back after the clock stops."""
    for stale in outdir.glob("*"):
        stale.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = job.argv(tensor, seed, outdir)
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli_main(argv)
    wall = time.perf_counter() - start
    return Call(wall, rc, job.outputs(outdir, stdout.getvalue()), stderr.getvalue())


def check_call(workload: Workload, call: Call) -> tuple[list[str], dict[str, float]]:
    if call.rc != 0:
        return [f"exit code {call.rc}: {call.stderr.strip()}"], {}
    return workload.job.check(call.outputs)


def accept_run(workload: Workload, scores: list[dict[str, float]]) -> list[str]:
    """Acceptance criteria on the medians over the run's input tensors.

    Baseline CORCONDIA >= 90, criterion 5a and the sweep's ranks up to the
    true rank are statistical: ALS with the workload's iteration budget
    stalls on about 1 synthetic tensor in 300, so they are judged over the
    run's tensors, not per call.
    """
    keys = set().union(*scores) if scores else set()
    if not scores or any(set(s) != keys for s in scores):
        return ["some calls produced no scores"]
    medians = {k: statistics.median(s[k] for s in scores) for k in keys}
    return workload.job.accept(medians, workload.rank)


def write_inputs(workload: Workload, seed: int, workdir: Path) -> list[tuple[int, Path]]:
    inputs = []
    for i in range(workload.inputs):
        input_seed = seed * workload.inputs + i
        path = workdir / f"input-{i}.tns"
        write_tensor(workload.tensor(input_seed), path)
        inputs.append((input_seed, path))
    return inputs


def fresh_import_s() -> float:
    """Seconds a new interpreter takes to import numpy and corcomp from the
    ``src/`` next to this directory, with this process's environment."""
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def warm_up(workload: Workload, workdir: Path) -> None:
    """Run the workload's job once on a small tensor, one sample per cell."""
    job = workload.job
    if isinstance(job, Grid):
        job = replace(job, samples=dict.fromkeys(job.samples, 1))
    path = workdir / "warmup.tns"
    write_tensor(replace(workload, dims=workload.warmup_dims).tensor(0), path)
    call = run_call(job, path, 0, workdir / "out")
    if call.rc != 0:
        raise RuntimeError(f"warm-up call failed with exit code {call.rc}: {call.stderr}")


# ---------------------------------------------------------------------------
# tracing


def install_tracer(tracer: Tracer) -> None:
    """Wrap the module attributes through which each layer is called."""
    cli = sys.modules["corcomp.cli"]
    harness = sys.modules["corcomp.harness"]
    corcondia_mod = sys.modules["corcomp.corcondia"]
    compress_mod = sys.modules["corcomp.compress"]

    def model_info(args, model):
        return {"iterations": model.iterations, "converged": model.converged}

    def compress_info(args, result):
        return {"bytes": compress_bytes(args["X"].dims, args["op"].target_dims)}

    tracer.wrap(sys.modules[__name__], "cli_main", "cli")
    tracer.wrap(cli, "read_tensor", "io.read_tensor")
    tracer.wrap(cli, "run_experiment", "harness.run_experiment")
    tracer.wrap(cli, "stats_csv_lines", "io.stats_csv_lines")
    tracer.wrap(cli, "experiment_to_json", "io.experiment_to_json")
    tracer.wrap(cli, "corcondia_sweep", "corcondia.sweep")
    for name in ("gaussian_operator", "orthonormal_operator"):
        tracer.wrap(harness, name, "compress.random_operator", sample_of=lambda a: a["seed"])
    tracer.wrap(harness, "tucker_operator", "compress.tucker_operator",
                sample_of=lambda a: a["cfg"].seed)
    tracer.wrap(harness, "compress", "compress.compress", info_of=compress_info)
    tracer.wrap(compress_mod, "tucker3", "decomp.tucker3",
                info_of=lambda a, m: {"iterations": m.iterations})
    for module in (harness, corcondia_mod):
        tracer.wrap(module, "cp_als", "decomp.cp_als", info_of=model_info)
        tracer.wrap(module, "corcondia", "corcondia.diag",
                    info_of=lambda a, r: {"rank_deficient": r.factor_rank_deficient})
    tracer.count_calls(corcomp.DenseTensor3, "__init__", "tensor.constructions")


def compress_bytes(dims: tuple[int, ...], target: tuple[int, ...]) -> int:
    """Bytes read and written by the three n-mode products of ``compress``,
    computed from array sizes (operands plus result, 8 bytes per entry)."""
    total = 0
    shape = list(dims)
    for mode in range(3):
        before = math.prod(shape)
        matrix = target[mode] * dims[mode]
        shape[mode] = target[mode]
        total += 8 * (before + matrix + math.prod(shape))
    return total


def layer_metrics(tracer: Tracer, calls: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``calls`` traced CLI calls, as
    means per call (sample percentiles pool the samples of all calls)."""
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(name):
        return sum(s.duration for s in named(name)) / calls

    def per_call(value):
        return value / calls

    fits = named("decomp.cp_als")
    roots = [i for i, s in enumerate(spans) if s.name == "cli"]
    main_names = {"harness.run_experiment", "corcondia.sweep"}
    write_s = read_s = main_s = 0.0
    for index in roots:
        root = spans[index]
        children = tracer.children(index)
        main = [c for c in children if c.name in main_names]
        read_s += sum(c.duration for c in children if c.name == "io.read_tensor")
        if main:
            main_s += sum(c.duration for c in main)
            write_s += root.end - max(c.end for c in main)
    runs = [i for i, s in enumerate(spans) if s.name == "harness.run_experiment"]
    samples: dict[tuple[int, int], list[float]] = {}
    for s in spans:
        if s.sample is not None:
            lo_hi = samples.setdefault((s.root, s.sample), [s.start, s.end])
            lo_hi[0] = min(lo_hi[0], s.start)
            lo_hi[1] = max(lo_hi[1], s.end)
    sample_ms = sorted((hi - lo) * 1e3 for lo, hi in samples.values())
    traced_wall = sum(spans[i].duration for i in roots)
    return {
        "decomp.cp_als_s": seconds("decomp.cp_als"),
        "decomp.cp_als_calls": per_call(len(fits)),
        "decomp.cp_als_best_sweeps": per_call(sum(s.info["iterations"] for s in fits)),
        "decomp.cp_als_unconverged": per_call(sum(not s.info["converged"] for s in fits)),
        "decomp.tucker3_s": seconds("decomp.tucker3"),
        "decomp.tucker3_calls": per_call(len(named("decomp.tucker3"))),
        "decomp.tucker3_iterations": per_call(
            sum(s.info["iterations"] for s in named("decomp.tucker3"))
        ),
        "compress.random_operator_s": seconds("compress.random_operator"),
        "compress.random_operator_calls": per_call(len(named("compress.random_operator"))),
        "compress.tucker_operator_s": seconds("compress.tucker_operator"),
        "compress.tucker_operator_calls": per_call(len(named("compress.tucker_operator"))),
        "compress.compress_s": seconds("compress.compress"),
        "compress.compress_calls": per_call(len(named("compress.compress"))),
        "compress.compress_mb_computed": per_call(
            sum(s.info["bytes"] for s in named("compress.compress")) / 1e6
        ),
        "corcondia.diag_s": seconds("corcondia.diag"),
        "corcondia.calls": per_call(len(named("corcondia.diag"))),
        "corcondia.rank_deficient": per_call(
            sum(s.info["rank_deficient"] for s in named("corcondia.diag"))
        ),
        "corcondia.sweep_s": seconds("corcondia.sweep"),
        "harness.run_experiment_s": seconds("harness.run_experiment"),
        "harness.self_s": per_call(sum(tracer.self_time(i) for i in runs)),
        "harness.sample_ms.p50": percentile(sample_ms, 50),
        "harness.sample_ms.p90": percentile(sample_ms, 90),
        "tensor.constructions": per_call(tracer.counts.get("tensor.constructions", 0)),
        "io.read_tensor_s": per_call(read_s),
        "io.write_results_s": per_call(write_s),
        "trace.wall_s": per_call(traced_wall),
        "trace.unaccounted_s": per_call(traced_wall - read_s - main_s - write_s),
        "trace.overhead_s": per_call(tracer.overhead_s),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    return float(np.percentile(sorted_values, q))


# ---------------------------------------------------------------------------
# microbenchmarks (fixed inputs, independent of --seed)


def _timed(fn, min_reps: int = 5) -> list[tuple[float, object]]:
    """Call ``fn`` for at least MICRO_SECONDS and ``min_reps`` times."""
    runs = []
    deadline = time.perf_counter() + MICRO_SECONDS
    while len(runs) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        result = fn()
        runs.append((time.perf_counter() - start, result))
    return runs


def micro_metrics(workload: Workload) -> dict[str, float]:
    X = workload.tensor(0)
    ratio, rank = workload.micro
    target = ratio_to_dims(X.dims, RatioSpec(ratio))
    fit_input = X if ratio == 1.0 else compress(X, orthonormal_operator(X.dims, target, seed=0))
    fit_seeds = itertools.count()

    def one_fit():
        # A tolerance no fit reaches, so every fit runs the full 50 sweeps.
        cfg = FitConfig(max_iterations=50, rel_tolerance=1e-300, restarts=1, seed=next(fit_seeds))
        return cp_als(fit_input, rank, cfg).iterations

    sweep_us = statistics.median(t / sweeps * 1e6 for t, sweeps in _timed(one_fit))

    op = orthonormal_operator(X.dims, ratio_to_dims(X.dims, RatioSpec(0.5)), seed=0)

    def products():
        out = n_mode_product(X, op.U, 1)
        out = n_mode_product(out, op.V, 2)
        return n_mode_product(out, op.W, 3)

    product_time = statistics.median(t for t, _ in _timed(products))
    return {
        "decomp.cp_als_sweep_us": sweep_us,
        "tensor.n_mode_product_gbps_computed": compress_bytes(X.dims, op.target_dims)
        / product_time
        / 1e9,
    }


# ---------------------------------------------------------------------------
# environment


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = root / "src" / "corcomp"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CORCOMP_WORKERS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "src_corcomp_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def byte_identical(workload: Workload, digests: dict[int, str]) -> bool | None:
    """Whether the outputs match the digests recorded in ``reference.json``
    for these inputs; None when some input has no recorded digest."""
    recorded = json.loads((HERE / "reference.json").read_text()).get(workload.name, {})
    known = [recorded.get(str(seed)) for seed in digests]
    if any(k is not None and k != d for k, d in zip(known, digests.values())):
        return False
    return None if None in known else True


# ---------------------------------------------------------------------------
# a run


def run(
    workload: Workload, seed: int, seconds: float, trace: bool, root: Path
) -> tuple[dict, dict]:
    """Set up, measure and check one run; returns (result, report)."""
    workdir = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, root, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, root, workdir, outdir):
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(fresh_import_s())
        start = time.perf_counter()
        inputs = write_inputs(workload, seed, workdir)
        warm_up(workload, workdir)
        setups.append(imports[-1] + time.perf_counter() - start)

    walls: dict[int, list[float]] = {}
    digests: dict[int, str] = {}
    outputs: dict[int, dict[str, bytes]] = {}
    problems: list[str] = []
    attempted = failed = 0

    scores: list[dict[str, float]] = []

    def record(input_seed: int, call: Call, traced: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        found, call_scores = check_call(workload, call)
        if input_seed not in digests:
            digests[input_seed] = call.digest
            outputs[input_seed] = call.outputs
            scores.append(call_scores)
        elif call.outputs != outputs[input_seed]:
            what = "traced" if traced else "repeated"
            found.append(f"{what} call changed the outputs")
        if found:
            failed += 1
            problems.extend(f"input {input_seed}: {p}" for p in found)

    def more() -> bool:
        elapsed = time.perf_counter() - start
        if trace:
            return i == 0 or (i < len(inputs) and elapsed < seconds)
        return i < len(inputs) or elapsed < seconds

    # A traced call follows the untraced call on the same tensor, so that
    # traced_minus_untraced_s compares calls made close together in time.
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    i = 0
    while more():
        input_seed, path = inputs[i % len(inputs)]
        call = run_call(workload.job, path, input_seed, outdir)
        walls.setdefault(input_seed, []).append(call.wall)
        record(input_seed, call, traced=False)
        if tracer is not None:
            install_tracer(tracer)
            try:
                call = run_call(workload.job, path, input_seed, outdir)
            finally:
                tracer.remove()
            record(input_seed, call, traced=True)
        i += 1
    attempted += 1
    found = accept_run(workload, scores)
    if found:
        failed += 1
        problems.extend(f"run: {p}" for p in found)

    wall_s = statistics.fmean(statistics.median(w) for w in walls.values())
    end_to_end = {
        "wall_s": wall_s,
        "fits_per_s": workload.job.fits / wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    env = environment(root)
    report = {
        "workload": workload.name,
        "seed": seed,
        "environment": env,
        "fits_per_call": workload.job.fits,
        "import_s": imports,
        "setup_repeats_s": setups,
        "inputs": [{"seed": s, "wall_s": w, "digest": digests[s]} for s, w in walls.items()],
        "byte_identical": byte_identical(workload, digests),
        "problems": problems,
        "end_to_end": end_to_end,
    }
    metrics = end_to_end
    if tracer is not None:
        metrics = layer_metrics(tracer, i)
        metrics.update(micro_metrics(workload))
        report["traced_minus_untraced_s"] = metrics["trace.wall_s"] - wall_s
        trace_path = root / ".perfbench_work" / f"trace-{workload.name}-seed{seed}.jsonl"
        tracer.write(trace_path, {"workload": workload.name, "seed": seed, "environment": env})
        report["per_layer"] = metrics
        report["trace_file"] = str(trace_path.relative_to(root))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report
