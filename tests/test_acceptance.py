"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance,
printing one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see the lines for passing criteria too).
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from corcomp import (
    DenseTensor3,
    ExperimentConfig,
    FitConfig,
    RatioSpec,
    Scheme,
    SynthSpec,
    clamp_negatives,
    compress,
    corcondia,
    corcondia_from_factors,
    cp_als,
    orthonormal_operator,
    pseudoinverse,
    ratio_to_dims,
    reconstruct_cp,
    run_experiment,
    summarize,
    synth_tensor,
    tucker_operator,
)
from corcomp.cli import cli_main

from oracles import core_lstsq_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_ratio_arithmetic():
    dims = ratio_to_dims((268, 44, 7), RatioSpec(0.5, frozenset({1, 2})))
    _report(1, dims == (134, 22, 7), f"(268,44,7) at 50% over modes 1,2 -> {dims}")


def test_criterion_2_exact_model_corcondia():
    X = synth_tensor(SynthSpec(dims=(268, 44, 7), rank=3, noise_level=0.0, seed=11))
    cfg = FitConfig(max_iterations=8000, rel_tolerance=1e-13, restarts=2, seed=2)
    worst = 0.0
    for rank in (1, 2, 3):
        model = cp_als(X, rank, cfg)
        worst = max(worst, abs(corcondia(X, model).value - 100.0))
    _report(2, worst <= 1e-6, f"corcondia at R=1..3 within {worst:.2e} of 100 (tol 1e-6)")


def test_criterion_3_rowspace_compression_preserves_core():
    worst_core, worst_val = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        op = orthonormal_operator((30, 20, 10), (15, 10, 5), seed=1000 + seed)
        P, Q, S = (rng.standard_normal((t, 3)) for t in (15, 10, 5))
        A, B, C = op.U.T @ P, op.V.T @ Q, op.W.T @ S
        X = reconstruct_cp(A, B, C)
        base = corcondia_from_factors(X, A, B, C)
        compressed = compress(X, op)
        comp = corcondia_from_factors(compressed, op.U @ A, op.V @ B, op.W @ C)
        worst_core = max(worst_core, float(np.max(np.abs(base.core.data - comp.core.data))))
        worst_val = max(worst_val, abs(base.value - comp.value))
    ok = worst_core <= 1e-8 and worst_val <= 1e-6
    _report(3, ok, f"20 seeds: max core diff {worst_core:.2e} (tol 1e-8), "
                   f"max value diff {worst_val:.2e} (tol 1e-6)")


def test_criterion_4_tucker_compression_preserves_corcondia():
    cfg = FitConfig(max_iterations=2000, rel_tolerance=1e-12, restarts=4)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        A, B, C = (rng.standard_normal((d, 3)) for d in (30, 20, 10))
        X = reconstruct_cp(A, B, C)
        for target in ((3, 3, 3), (8, 6, 5), (15, 10, 5)):
            op = tucker_operator(X, target, cfg)
            compressed = compress(X, op)
            model = cp_als(compressed, 3, replace(cfg, seed=seed))
            worst = max(worst, abs(corcondia(compressed, model).value - 100.0))
    _report(4, worst <= 1e-6,
            f"10 seeds x targets (3,3,3)..50%: max |corcondia-100| {worst:.2e} (tol 1e-6)")


def test_criterion_5_qualitative_figure_reproduction():
    X = synth_tensor(SynthSpec(dims=(268, 44, 7), rank=3, noise_level=0.05, seed=0))
    fit = FitConfig(max_iterations=200, rel_tolerance=1e-7, restarts=2)
    samples = {Scheme.GAUSSIAN: 100, Scheme.ORTHONORMAL: 100, Scheme.TUCKER: 5}

    full = run_experiment(
        X,
        ExperimentConfig(
            rank=3, ratios=(0.5, 0.2, 0.08), samples_per_cell=samples,
            master_seed=0, fit=fit,
        ),
    )
    gaps = []
    for ratio in (0.5, 0.2, 0.08):
        tucker_mean = full.cells[(Scheme.TUCKER, ratio)].stats.smoothed_mean
        orth_mean = full.cells[(Scheme.ORTHONORMAL, ratio)].stats.smoothed_mean
        gaps.append(tucker_mean - (orth_mean - 5.0))
    part_a = all(g >= 0 for g in gaps)

    wins = 0
    variances = []
    for master_seed in range(5):
        if master_seed == 0:
            res = full
        else:
            res = run_experiment(
                X,
                ExperimentConfig(
                    rank=3, ratios=(0.5,), samples_per_cell=samples,
                    master_seed=master_seed, fit=fit,
                ),
            )
        var_g = np.var(res.cells[(Scheme.GAUSSIAN, 0.5)].clamped_samples)
        var_o = np.var(res.cells[(Scheme.ORTHONORMAL, 0.5)].clamped_samples)
        variances.append((var_o, var_g))
        wins += var_o <= var_g
    part_b = wins >= 4

    _report(5, part_a and part_b,
            f"(a) tucker-vs-orthonormal mean margins {['%.2f' % g for g in gaps]} all >= 0; "
            f"(b) orthonormal variance <= gaussian in {wins}/5 master seeds at ratio 0.5")


def test_criterion_6_core_matches_least_squares_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(50):
        rank = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(rank + 1, 8)) for _ in range(3))
        X = DenseTensor3(rng.standard_normal(dims))
        A, B, C = (rng.standard_normal((d, rank)) for d in dims)
        if trial % 5 == 0 and rank > 1:
            A = A.copy()
            A[:, -1] = A[:, 0]  # rank-deficient factor
        core = corcondia_from_factors(X, A, B, C).core
        oracle = core_lstsq_oracle(X.data, A, B, C)
        worst = max(worst, float(np.max(np.abs(core.data - oracle))))
    _report(6, worst <= 1e-8, f"50 instances, core size <= 3x3x3: max |core - oracle| "
                              f"{worst:.2e} (tol 1e-8)")


def test_criterion_7_penrose_conditions():
    rng = np.random.default_rng(88)
    worst = 0.0
    for trial in range(100):
        rows, cols = (int(rng.integers(1, 13)) for _ in range(2))
        M = rng.standard_normal((rows, cols))
        if trial % 3 == 0 and min(rows, cols) > 1:
            r = int(rng.integers(1, min(rows, cols)))
            M = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        P = pseudoinverse(M)
        scale = max(1.0, float(np.linalg.norm(M)))
        pscale = max(1.0, float(np.linalg.norm(P)))
        worst = max(
            worst,
            float(np.max(np.abs(M @ P @ M - M))) / scale,
            float(np.max(np.abs(P @ M @ P - P))) / pscale,
            float(np.max(np.abs((M @ P).T - M @ P))),
            float(np.max(np.abs((P @ M).T - P @ M))),
        )
    _report(7, worst <= 1e-10,
            f"100 matrices incl. rank-deficient: worst Penrose residual {worst:.2e} (tol 1e-10)")


def test_criterion_8_experiment_determinism(tmp_path, capsys):
    src = tmp_path / "x.tns"
    assert cli_main(
        ["synth", "--dims", "40", "30", "7", "--rank", "3", "--noise", "0.05",
         "--seed", "3", "--out", str(src)]
    ) == 0
    base = ["experiment", "--input", str(src), "--rank", "3",
            "--ratios", "0.5", "0.2", "--samples-gaussian", "6",
            "--samples-orthonormal", "6", "--samples-tucker", "2",
            "--seed", "5", "--restarts", "2", "--max-iter", "150", "--tol", "1e-7"]
    payloads = []
    for name, workers in (("a.json", "1"), ("b.json", "1"), ("c.json", "4")):
        out = tmp_path / name
        assert cli_main(base + ["--workers", workers, "--out-json", str(out)]) == 0
        payloads.append(out.read_bytes())
    capsys.readouterr()
    ok = payloads[0] == payloads[1] == payloads[2]
    _report(8, ok, "identical flags give byte-identical JSON across reruns and worker counts")


def test_criterion_9_negative_clamping():
    clamped = clamp_negatives([-5.0, 50.0, 100.0])
    stats = summarize(clamped)
    ok = (
        clamped == [0.0, 50.0, 100.0]
        and stats.min == 0.0
        and stats.median == 50.0
        and stats.max == 100.0
        and stats.smoothed_mean == 50.0
        and stats.outliers == ()
    )
    _report(9, ok, f"[-5, 50, 100] summarizes over {clamped}")
