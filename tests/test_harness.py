import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from corcomp import (
    ConfigError,
    ExperimentConfig,
    FitConfig,
    RatioSpec,
    Scheme,
    StepError,
    SynthSpec,
    clamp_negatives,
    compress,
    corcondia,
    cp_als,
    experiment_to_json,
    gaussian_operator,
    make_operator,
    orthonormal_operator,
    ratio_to_dims,
    read_tensor,
    run_experiment,
    run_sample,
    summarize,
    synth_tensor,
    tucker3,
)
import corcomp.cli as cli
import corcomp.harness as harness
from corcomp.harness import FIT_TAG, sample_seed
from corcomp.seeding import mix_seed

FAST_FIT = FitConfig(max_iterations=200, rel_tolerance=1e-9, restarts=2)


class TestClampNegatives:
    def test_mixed(self):
        assert clamp_negatives([-5.0, 50.0, 100.0]) == [0.0, 50.0, 100.0]

    def test_nonnegative_unchanged(self):
        assert clamp_negatives([0.0, 1.0, 99.5]) == [0.0, 1.0, 99.5]

    def test_huge_negative(self):
        assert clamp_negatives([-1e6]) == [0.0]


class TestSummarize:
    def test_constant_samples(self):
        stats = summarize([100.0] * 10)
        assert (stats.min, stats.q1, stats.median, stats.q3, stats.max) == (100,) * 5
        assert (stats.lower_whisker, stats.upper_whisker) == (100.0, 100.0)
        assert stats.n_outliers == 0
        assert stats.smoothed_mean == 100.0
        assert stats.n == 10

    def test_symmetric_five_points(self):
        stats = summarize([0.0, 25.0, 50.0, 75.0, 100.0])
        assert stats.q1 == 25.0
        assert stats.median == 50.0
        assert stats.q3 == 75.0
        assert stats.lower_whisker == 0.0
        assert stats.upper_whisker == 100.0
        assert stats.n_outliers == 0
        assert stats.smoothed_mean == 50.0

    def test_single_low_outlier_is_winsorized(self):
        # 99 samples at 100 plus one at 0: quartiles and whiskers all sit
        # at 100, the 0 is an outlier, and winsorizing maps it to 100.
        stats = summarize([100.0] * 99 + [0.0])
        assert stats.q1 == 100.0 and stats.q3 == 100.0
        assert stats.lower_whisker == 100.0
        assert stats.n_outliers == 1
        assert stats.smoothed_mean == 100.0
        assert stats.min == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ordering_chain_and_outlier_placement(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            samples = rng.standard_normal(int(rng.integers(1, 60))) * 10
            stats = summarize(samples)
            assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max
            assert stats.lower_whisker <= stats.q1
            assert stats.q3 <= stats.upper_whisker
            beyond = (samples < stats.lower_whisker) | (samples > stats.upper_whisker)
            assert stats.n_outliers == np.count_nonzero(beyond)
            assert stats.lower_whisker <= stats.smoothed_mean <= stats.upper_whisker

    def test_winsorized_mean_ignores_outlier_magnitude(self):
        base = [90.0, 95.0, 96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 100.0, -10.0]
        worse = base[:-1] + [-1e6]
        assert summarize(base).smoothed_mean == summarize(worse).smoothed_mean


@pytest.fixture(scope="module")
def small_noisy_tensor():
    return synth_tensor(SynthSpec(dims=(30, 20, 8), rank=3, noise_level=0.05, seed=0))


@pytest.fixture(scope="module")
def small_exact_tensor():
    return synth_tensor(
        SynthSpec(dims=(30, 20, 8), rank=3, noise_level=0.0, seed=1,
                  factor_distribution="gaussian")
    )


def small_config(**overrides):
    base = dict(
        rank=3,
        ratios=(0.5,),
        samples_per_cell={Scheme.GAUSSIAN: 4, Scheme.ORTHONORMAL: 4, Scheme.TUCKER: 2},
        compressed_modes=frozenset({1, 2}),
        master_seed=7,
        fit=FAST_FIT,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_deterministic_rerun(self, small_noisy_tensor):
        cfg = small_config()
        r1 = run_experiment(small_noisy_tensor, cfg)
        r2 = run_experiment(small_noisy_tensor, cfg)
        for key in r1.cells:
            assert r1.cells[key].raw_samples == r2.cells[key].raw_samples

    def test_cells_are_recomputable_in_isolation(self, small_noisy_tensor):
        cfg = small_config()
        result = run_experiment(small_noisy_tensor, cfg)
        cell = result.cells[(Scheme.ORTHONORMAL, 0.5)]
        s = 2
        seed = sample_seed(cfg.master_seed, Scheme.ORTHONORMAL, 0.5, s)
        op = orthonormal_operator(small_noisy_tensor.dims, (15, 10, 8), seed)
        compressed = compress(small_noisy_tensor, op)
        model = cp_als(compressed, 3, replace(cfg.fit, seed=mix_seed(seed, FIT_TAG)))
        assert corcondia(compressed, model).value == cell.raw_samples[s]

        tucker_cell = result.cells[(Scheme.TUCKER, 0.5)]
        s = 1
        seed = sample_seed(cfg.master_seed, Scheme.TUCKER, 0.5, s)
        op = make_operator(small_noisy_tensor, Scheme.TUCKER, (15, 10, 8), seed)
        compressed = compress(small_noisy_tensor, op)
        model = cp_als(compressed, 3, replace(cfg.fit, seed=mix_seed(seed, FIT_TAG)))
        assert corcondia(compressed, model).value == tucker_cell.raw_samples[s]

        for scheme, s in ((Scheme.GAUSSIAN, 3), (Scheme.ORTHONORMAL, 2), (Scheme.TUCKER, 1)):
            alone, model, report = harness.run_sample(small_noisy_tensor, cfg, scheme, 0.5, s)
            assert alone.dims == (15, 10, 8)
            assert report.value == result.cells[(scheme, 0.5)].raw_samples[s]
        with pytest.raises(ConfigError, match="-1"):
            harness.run_sample(small_noisy_tensor, cfg, Scheme.GAUSSIAN, 0.5, -1)

    def test_clamping_invariant(self, small_noisy_tensor):
        result = run_experiment(small_noisy_tensor, small_config())
        for cell in result.cells.values():
            assert cell.stats == summarize(clamp_negatives(cell.raw_samples))
            assert all(v <= 100.0 + 1e-9 for v in cell.raw_samples)
            s = cell.stats
            assert 0.0 <= s.min <= s.q1 <= s.median <= s.q3 <= s.max

    def test_lossless_orthonormal_at_ratio_one(self, small_exact_tensor):
        cfg = small_config(
            ratios=(1.0,),
            samples_per_cell={Scheme.ORTHONORMAL: 1},
            fit=FitConfig(max_iterations=1000, rel_tolerance=1e-12, restarts=2),
        )
        result = run_experiment(small_exact_tensor, cfg)
        sample = result.cells[(Scheme.ORTHONORMAL, 1.0)].raw_samples[0]
        assert sample == pytest.approx(result.baseline.value, abs=1e-6)

    def test_exact_tucker_cells_stay_at_100_down_to_8_percent(self):
        X = synth_tensor(
            SynthSpec(dims=(100, 50, 8), rank=3, noise_level=0.0, seed=2,
                      factor_distribution="gaussian")
        )
        cfg = small_config(
            ratios=(0.5, 0.2, 0.08),
            samples_per_cell={Scheme.TUCKER: 2},
            master_seed=3,
            fit=FitConfig(max_iterations=1000, rel_tolerance=1e-12, restarts=2),
        )
        result = run_experiment(X, cfg)
        for cell in result.cells.values():
            for v in cell.raw_samples:
                assert v == pytest.approx(100.0, abs=1e-6)

    def test_tucker_cell_fits_its_operator_once(self, small_noisy_tensor, monkeypatch):
        compress_module = sys.modules["corcomp.compress"]  # corcomp.compress is the function
        real_tucker3 = compress_module.tucker3
        calls = []

        def counting_tucker3(*args, **kwargs):
            calls.append(args[1])
            return real_tucker3(*args, **kwargs)

        monkeypatch.setattr(compress_module, "tucker3", counting_tucker3)
        cfg = small_config(ratios=(0.5, 0.2), samples_per_cell={Scheme.TUCKER: 3})
        result = run_experiment(small_noisy_tensor, cfg)
        assert calls == [(15, 10, 8), (6, 4, 8)]
        assert all(cell.stats.n == 3 for cell in result.cells.values())

    def test_tucker_operator_ignores_the_cp_tolerance(self, small_noisy_tensor):
        # The grid's HOOI stops at TUCKER_TOLERANCE under FitConfig's sweep
        # cap whatever the CP fits' settings, while tucker3 itself keeps
        # honouring its config.
        fits = (FitConfig(max_iterations=1, rel_tolerance=1e-3, restarts=1), FAST_FIT)
        cores, grid = [], []
        for fit in fits:
            cores.append(tucker3(small_noisy_tensor, (15, 10, 8), fit).core.data.tobytes())
            compressed, _, _ = run_sample(
                small_noisy_tensor, small_config(fit=fit), Scheme.TUCKER, 0.5, 1
            )
            grid.append(compressed.data.tobytes())
        assert grid[0] == grid[1]
        assert cores[0] != cores[1]

    def test_chunked_fits_change_no_result(self, small_noisy_tensor, monkeypatch):
        cfg = small_config()
        whole = run_experiment(small_noisy_tensor, cfg)
        batch_sizes = []
        real_batch = harness.cp_als_batch

        def recording_batch(tensors, *args):
            batch_sizes.append(len(tensors))
            return real_batch(tensors, *args)

        monkeypatch.setattr(harness, "BATCH_BYTES", 3 * 15 * 10 * 8 * 8)  # 3 samples
        monkeypatch.setattr(harness, "cp_als_batch", recording_batch)
        chunked = run_experiment(small_noisy_tensor, cfg)
        # gaussian 4, orthonormal 4, tucker 2: chunks fill across cell boundaries
        assert batch_sizes == [3, 3, 3, 1]
        for key, cell in whole.cells.items():
            assert chunked.cells[key].raw_samples == cell.raw_samples

    def test_one_batch_per_ratio_at_the_default_batch_size(self, small_noisy_tensor, monkeypatch):
        batch_sizes = []
        real_batch = harness.cp_als_batch

        def recording_batch(tensors, *args):
            batch_sizes.append(len(tensors))
            return real_batch(tensors, *args)

        monkeypatch.setattr(harness, "cp_als_batch", recording_batch)
        run_experiment(small_noisy_tensor, small_config(ratios=(0.5, 0.2)))
        assert batch_sizes == [10, 10]  # every scheme's samples of a ratio in one loop

    @pytest.mark.parametrize("batch_bytes", [harness.BATCH_BYTES, 3 * 15 * 10 * 8 * 8])
    def test_shared_batches_equal_single_scheme_grids(
        self, small_noisy_tensor, monkeypatch, batch_bytes
    ):
        # At 3 samples per chunk, ratio 0.5's second chunk holds gaussian
        # sample 3 and orthonormal samples 0 and 1.
        monkeypatch.setattr(harness, "BATCH_BYTES", batch_bytes)
        cfg = small_config(ratios=(0.5, 0.2))
        merged = run_experiment(small_noisy_tensor, cfg)
        assert list(merged.cells) == [(scheme, ratio) for scheme in cfg.samples_per_cell
                                      for ratio in cfg.ratios]
        for scheme, n in cfg.samples_per_cell.items():
            alone = run_experiment(small_noisy_tensor, replace(cfg, samples_per_cell={scheme: n}))
            for key, cell in alone.cells.items():
                assert merged.cells[key] == cell
                assert (np.array(merged.cells[key].raw_samples).tobytes()
                        == np.array(cell.raw_samples).tobytes())

    def test_rerun_across_a_chunk_boundary(self, small_noisy_tensor, monkeypatch):
        monkeypatch.setattr(harness, "BATCH_BYTES", 3 * 15 * 10 * 8 * 8)  # 3 samples
        cfg = small_config()
        result = run_experiment(small_noisy_tensor, cfg)
        # Orthonormal sample 1 shares its chunk with gaussian sample 3.
        for scheme, s in ((Scheme.GAUSSIAN, 3), (Scheme.ORTHONORMAL, 1), (Scheme.TUCKER, 1)):
            alone, _, report = harness.run_sample(small_noisy_tensor, cfg, scheme, 0.5, s)
            assert report.value == result.cells[(scheme, 0.5)].raw_samples[s]
            seed = sample_seed(cfg.master_seed, scheme, 0.5, s)
            op = make_operator(small_noisy_tensor, scheme, (15, 10, 8), seed)
            assert alone.data.tobytes() == compress(small_noisy_tensor, op).data.tobytes()

    def test_failing_sample_names_its_coordinates(self, small_noisy_tensor, monkeypatch):
        # A ValueError while building the operator, or while computing the
        # diagnostic, fails the sample that raised it.
        cfg = small_config()
        seed = sample_seed(cfg.master_seed, Scheme.ORTHONORMAL, 0.5, 2)
        poisoned = compress(
            small_noisy_tensor, orthonormal_operator(small_noisy_tensor.dims, (15, 10, 8), seed)
        )
        real_operator, real_corcondia = harness.orthonormal_operator, harness.corcondia

        def failing_operator(dims, target, op_seed):
            if op_seed == seed:
                raise ValueError("operator exploded")
            return real_operator(dims, target, op_seed)

        def failing_corcondia(X, model):
            if np.array_equal(X.data, poisoned.data):
                raise ValueError("diagnostic exploded")
            return real_corcondia(X, model)

        rerun = (
            "corcomp sample --scheme orthonormal --ratio 0.5 --index 2 --seed 7 --rank 3 "
            "--modes 1 2 --max-iter 200 --tol 1e-09 --restarts 2"
        )
        for step, failing in (("orthonormal_operator", failing_operator),
                              ("corcondia", failing_corcondia)):
            with monkeypatch.context() as patch:
                patch.setattr(harness, step, failing)
                with pytest.raises(StepError) as info:
                    run_experiment(small_noisy_tensor, cfg)
            message = str(info.value)
            for part in ("sample 2", "orthonormal", "0.5", f"operator seed {seed}", "exploded"):
                assert part in message, step
            assert message.endswith(rerun), step
            assert isinstance(info.value.__cause__, ValueError)

    def test_failing_batch_fit_names_the_sample_at_fault(self, small_noisy_tensor, monkeypatch):
        cfg = small_config(samples_per_cell={Scheme.GAUSSIAN: 5})
        seed = sample_seed(cfg.master_seed, Scheme.GAUSSIAN, 0.5, 3)
        poisoned = compress(
            small_noisy_tensor, gaussian_operator(small_noisy_tensor.dims, (15, 10, 8), seed)
        )
        real_batch, batch_sizes = harness.cp_als_batch, []

        def failing_batch(tensors, *args):
            batch_sizes.append(len(tensors))
            if any(np.array_equal(X.data, poisoned.data) for X in tensors):
                raise ValueError("fit exploded")
            return real_batch(tensors, *args)

        monkeypatch.setattr(harness, "cp_als_batch", failing_batch)
        with pytest.raises(StepError) as info:
            run_experiment(small_noisy_tensor, cfg)
        message = str(info.value)
        assert batch_sizes == [5, 1, 1, 1, 1]
        assert f"sample 3 of cell (gaussian, 0.5) failed (operator seed {seed}): fit exploded" \
            in message
        assert message.endswith(
            "corcomp sample --scheme gaussian --ratio 0.5 --index 3 --seed 7 --rank 3 "
            "--modes 1 2 --max-iter 200 --tol 1e-09 --restarts 2"
        )
        assert isinstance(info.value.__cause__, ValueError)

        # A batch that fails while every sample fits alone is a bug in the
        # batch, so its own error passes through with its traceback.
        def batch_only_failure(tensors, *args):
            if len(tensors) > 1:
                raise ValueError("batch exploded")
            return real_batch(tensors, *args)

        monkeypatch.setattr(harness, "cp_als_batch", batch_only_failure)
        with pytest.raises(ValueError, match="batch exploded") as info:
            run_experiment(small_noisy_tensor, cfg)
        assert type(info.value) is ValueError

    def test_rerun_command_round_trips_through_the_cli_parser(
        self, small_noisy_tensor, monkeypatch
    ):
        real_corcondia = harness.corcondia

        def failing_corcondia(X, model):
            if X.dims != small_noisy_tensor.dims:  # the baseline still passes
                raise ValueError("diagnostic exploded")
            return real_corcondia(X, model)

        monkeypatch.setattr(harness, "corcondia", failing_corcondia)
        fit = FitConfig(max_iterations=37, rel_tolerance=3e-7, restarts=3)
        cfg = small_config(samples_per_cell={Scheme.ORTHONORMAL: 4}, ratios=(0.3,), fit=fit,
                           compressed_modes=frozenset({1, 3}), rank=2, master_seed=11)
        with pytest.raises(StepError) as info:
            run_experiment(small_noisy_tensor, cfg)
        command = str(info.value).split("corcomp sample ")[1].split()
        args = cli.build_parser().parse_args(["sample", "--input", "x.tns", *command])
        rerun = cli._grid_config(args, ratios=(args.ratio,),
                                 samples_per_cell={Scheme(args.scheme): 1})
        assert (rerun.rank, rerun.compressed_modes, rerun.master_seed, rerun.fit) == (
            cfg.rank, cfg.compressed_modes, cfg.master_seed, cfg.fit
        )
        assert (args.scheme, args.ratio, args.index) == ("orthonormal", 0.3, 0)

    def test_infeasible_cell_rejected_before_compute(self, small_noisy_tensor):
        # at ratio 0.04 modes 1 and 2 collapse to (1, 1, 8): max rank 1
        message = (r"ratio 0.04 compresses \(30, 20, 8\) to \(1, 1, 8\): "
                   r"rank 3 is infeasible for dims \(1, 1, 8\)")
        with pytest.raises(ConfigError, match=message):
            run_experiment(small_noisy_tensor, small_config(ratios=(0.5, 0.04)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(rank=0)
        with pytest.raises(ConfigError, match="samples_per_cell must name at least one scheme"):
            ExperimentConfig(samples_per_cell={})
        with pytest.raises(ConfigError):
            ExperimentConfig(ratios=())
        with pytest.raises(ConfigError):
            ExperimentConfig(samples_per_cell={Scheme.GAUSSIAN: 0})
        with pytest.raises(ConfigError, match="compressed modes must be nonempty"):
            ExperimentConfig(compressed_modes=frozenset())
        with pytest.raises(ConfigError, match="master_seed"):
            ExperimentConfig(fit=replace(FitConfig(), seed=12345))

    def test_fractional_counts_rejected_not_truncated(self, small_noisy_tensor, tmp_path):
        with pytest.raises(ConfigError, match="rank must be an integer >= 1, got 2.5"):
            ExperimentConfig(rank=2.5)
        with pytest.raises(ConfigError, match=r"samples_per_cell\[gaussian\] .* 2.9"):
            small_config(samples_per_cell={Scheme.GAUSSIAN: 2.9, Scheme.ORTHONORMAL: 4,
                                           Scheme.TUCKER: 2})
        cfg = small_config(rank=np.int64(2), samples_per_cell={
            Scheme.GAUSSIAN: np.int64(4), Scheme.ORTHONORMAL: 4, Scheme.TUCKER: 2})
        assert type(cfg.rank) is int and type(cfg.samples_per_cell[Scheme.GAUSSIAN]) is int

        # Every integer setting of a grid, a sample and an input tensor:
        # (name, fractional value, numpy value, build, the stored value or None).
        csv = tmp_path / "one.csv"
        csv.write_text("1,1,1,1.0\n")
        counts = {Scheme.ORTHONORMAL: 4, Scheme.TUCKER: 2}
        rows = [
            ("rank", 2.5, 2, lambda v: small_config(rank=v), lambda c: c.rank),
            ("master_seed", 2.5, 3, lambda v: small_config(master_seed=v),
             lambda c: c.master_seed),
            ("samples_per_cell[gaussian]", 2.9, 4,
             lambda v: small_config(samples_per_cell={Scheme.GAUSSIAN: v, **counts}),
             lambda c: c.samples_per_cell[Scheme.GAUSSIAN]),
            ("compressed mode", 1.9, 1, lambda v: small_config(compressed_modes={v, 2}),
             lambda c: min(c.compressed_modes)),
            ("compressed mode", 1.5, 1, lambda v: RatioSpec(0.5, {v}),
             lambda spec: min(spec.compressed_modes)),
            ("dim", 6.5, 6, lambda v: ratio_to_dims((12, 10, v), RatioSpec(0.5)),
             lambda dims: dims[2]),
            ("sample index", 2.5, 2,
             lambda v: run_sample(small_noisy_tensor, small_config(), Scheme.GAUSSIAN, 0.5, v),
             None),
            ("seed", 1.5, 1, lambda v: SynthSpec((4, 4, 4), 2, seed=v), lambda spec: spec.seed),
            ("dim", 12.7, 12, lambda v: SynthSpec((v, 10, 6), 2), lambda spec: spec.dims[0]),
            ("rank", 2.5, 2, lambda v: SynthSpec((4, 4, 4), v), lambda spec: spec.rank),
            ("dim", 2.5, 2, lambda v: read_tensor(csv, dims=(v, 1, 1)), lambda X: X.dims[0]),
        ]
        for name, fractional, whole, build, stored in rows:
            for bad in (fractional, True):  # a bool is not a count
                with pytest.raises(ConfigError, match=f"{re.escape(name)} .*{bad}"):
                    build(bad)
            out = build(np.int64(whole))
            if stored is not None:
                assert type(stored(out)) is int and stored(out) == whole, name

    def test_numpy_integer_settings_round_trip_to_json(self):
        X = synth_tensor(SynthSpec(dims=(12, 10, 6), rank=2, noise_level=0.05, seed=0))

        def grid(n):
            return run_experiment(X, ExperimentConfig(
                rank=n(2), ratios=(0.5,), master_seed=n(5),
                samples_per_cell={Scheme.GAUSSIAN: n(2), Scheme.ORTHONORMAL: n(2),
                                  Scheme.TUCKER: n(1)},
                fit=FitConfig(max_iterations=n(30), rel_tolerance=1e-7, restarts=n(2),
                              seed=n(0)),
            ))

        assert experiment_to_json(grid(np.int64)) == experiment_to_json(grid(int))

    def test_samples_map_orders_the_cells_and_the_json(self, small_noisy_tensor):
        cfg = small_config(samples_per_cell={Scheme.TUCKER: 1, Scheme.GAUSSIAN: 2})
        doc = json.loads(experiment_to_json(run_experiment(small_noisy_tensor, cfg)))
        assert "schemes" not in doc["config"]
        assert doc["config"]["samples_per_cell"] == {"tucker": 1, "gaussian": 2}
        assert list(doc["config"]["samples_per_cell"]) == [c["scheme"] for c in doc["cells"]]
        assert list(doc["cells"][0]) == ["scheme", "ratio", "raw_samples", "stats"]
        assert "n_outliers" in doc["cells"][0]["stats"]

    def test_duplicate_ratio_rejected(self):
        with pytest.raises(ConfigError, match="ratios 0.5 and 0.5 both round to basis point 5000"):
            small_config(ratios=(0.5, 0.2, 0.5))

    def test_ratios_sharing_a_basis_point_rejected(self):
        # sample_seed rounds ratios to basis points: both would draw the
        # same operators.
        with pytest.raises(ConfigError, match="0.12341 and 0.12344"):
            small_config(ratios=(0.12341, 0.12344))
        assert small_config(ratios=(0.1234, 0.1235)).ratios == (0.1234, 0.1235)
