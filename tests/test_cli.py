import json
import os
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from corcomp import (
    DenseTensor3,
    FitConfig,
    RatioSpec,
    Scheme,
    compress,
    corcondia_sweep,
    make_operator,
    ratio_to_dims,
    read_tensor,
    summarize,
    tucker3,
    write_tensor,
)
from corcomp.cli import cli_main
from corcomp.harness import sample_seed


def run(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def exact_tensor_file(tmp_path, capsys):
    path = tmp_path / "x.tns"
    code = cli_main(
        ["synth", "--dims", "20", "15", "8", "--rank", "3", "--noise", "0",
         "--dist", "gaussian", "--seed", "1", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return path


class TestSynthAndCorcondia:
    def test_pipeline_prints_100(self, exact_tensor_file, capsys):
        code, out, _ = run(
            ["corcondia", "--input", str(exact_tensor_file), "--ranks", "3",
             "--tol", "1e-12", "--max-iter", "2000", "--restarts", "2"],
            capsys,
        )
        assert code == 0
        rank, value = out.strip().split("\t")
        assert rank == "3"
        assert abs(float(value) - 100.0) <= 1e-6
        fit = FitConfig(max_iterations=2000, rel_tolerance=1e-12, restarts=2)
        [report] = corcondia_sweep(read_tensor(exact_tensor_file), [3], fit)
        assert value == repr(report.value)

    def test_synth_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.tns", tmp_path / "b.tns"
        for path in (a, b):
            code, _, _ = run(
                ["synth", "--dims", "6", "5", "4", "--rank", "2", "--noise", "0.1",
                 "--seed", "9", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ranks_table(self, exact_tensor_file, capsys):
        code, out, _ = run(
            ["corcondia", "--input", str(exact_tensor_file), "--ranks", "1", "2", "3",
             "--tol", "1e-10", "--restarts", "2"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split("\t")[0] for ln in lines] == ["1", "2", "3"]


    def test_rank_deficient_fits_flagged_on_stderr(self, tmp_path, capsys):
        # A 2-row factor has rank at most 2, so the rank-3 fit is deficient.
        path = tmp_path / "thin.tns"
        run(["synth", "--dims", "8", "6", "2", "--rank", "2", "--noise", "0.05",
             "--seed", "4", "--out", str(path)], capsys)
        code, out, err = run(["corcondia", "--input", str(path), "--ranks", "1", "2", "3"],
                             capsys)
        assert code == 0
        assert [ln.split("\t")[0] for ln in out.splitlines()] == ["1", "2", "3"]
        assert err.splitlines() == [
            "corcomp: warning: rank 3 is factor rank deficient "
            "(a fitted factor has numerical rank below 3)"
        ]


def sample_line(out):
    """The fields of ``sample``'s one stdout line, as strings."""
    (line,) = out.splitlines()
    return dict(field.split("=") for field in line.split())


class TestSampleCommand:
    def test_half_ratio_dims(self, tmp_path, capsys):
        src = tmp_path / "x.tns"
        run(["synth", "--dims", "268", "44", "7", "--rank", "3", "--noise", "0",
             "--seed", "1", "--out", str(src)], capsys)
        code, _, _ = run(
            ["sample", "--input", str(src), "--scheme", "orthonormal", "--ratio", "0.5",
             "--index", "0", "--seed", "2", "--restarts", "1", "--max-iter", "20",
             "--out-prefix", str(tmp_path / "s")],
            capsys,
        )
        assert code == 0
        assert read_tensor(tmp_path / "s_compressed.tns").dims == (134, 22, 7)

    def test_tucker_scheme(self, exact_tensor_file, tmp_path, capsys):
        code, out, _ = run(
            ["sample", "--input", str(exact_tensor_file), "--scheme", "tucker",
             "--ratio", "0.5", "--index", "1", "--out-prefix", str(tmp_path / "t")],
            capsys,
        )
        assert code == 0
        assert read_tensor(tmp_path / "t_compressed.tns").dims == (10, 7, 8)
        fields = sample_line(out)
        assert sorted(fields) == sorted(
            ["value", "fit", "iterations", "converged", "factor_rank_deficient"]
        )
        assert float(fields["value"]) == pytest.approx(100.0, abs=1e-6)

    def test_tucker_writes_core(self, exact_tensor_file, tmp_path, capsys):
        code, _, _ = run(
            ["sample", "--input", str(exact_tensor_file), "--scheme", "tucker",
             "--ratio", "0.5", "--index", "1", "--out-prefix", str(tmp_path / "tk")],
            capsys,
        )
        assert code == 0
        # A Tucker sample's compressed tensor is the Tucker core of X.
        core = tucker3(read_tensor(exact_tensor_file), (10, 7, 8), FitConfig()).core
        assert read_tensor(tmp_path / "tk_compressed.tns").data.tobytes() == core.data.tobytes()

    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_output_equals_library_compression(self, exact_tensor_file, tmp_path, scheme, capsys):
        prefix = tmp_path / "s"
        code, _, _ = run(
            ["sample", "--input", str(exact_tensor_file), "--scheme", scheme,
             "--ratio", "0.4", "--index", "3", "--modes", "1", "3", "--seed", "7",
             "--max-iter", "80", "--tol", "1e-9", "--restarts", "2",
             "--out-prefix", str(prefix)],
            capsys,
        )
        assert code == 0
        X = read_tensor(exact_tensor_file)
        target = ratio_to_dims(X.dims, RatioSpec(0.4, frozenset({1, 3})))
        seed = sample_seed(7, Scheme(scheme), 0.4, 3)
        expected = compress(X, make_operator(X, Scheme(scheme), target, seed))
        got = read_tensor(tmp_path / "s_compressed.tns")
        assert got.dims == target == (8, 15, 3)
        assert got.data.tobytes() == expected.data.tobytes()

    def test_cp_factors_written(self, exact_tensor_file, tmp_path, capsys):
        code, out, _ = run(
            ["sample", "--input", str(exact_tensor_file), "--scheme", "gaussian",
             "--ratio", "0.5", "--index", "0", "--restarts", "2",
             "--out-prefix", str(tmp_path / "fit")],
            capsys,
        )
        assert code == 0
        assert "fit=" in out
        for name, rows in (("A", 10), ("B", 7), ("C", 8)):
            assert np.loadtxt(tmp_path / f"fit_{name}.csv", delimiter=",").shape == (rows, 3)

    def test_failed_factor_write_keeps_the_old_file(
        self, exact_tensor_file, tmp_path, monkeypatch, capsys
    ):
        old = tmp_path / "fit_A.csv"
        old.write_text("old\n")
        real_replace, targets = os.replace, []

        def no_replace(src, dst):
            # Only the overwrite of the existing factor file fails.
            targets.append(Path(dst).name)
            if Path(dst) == old:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", no_replace)
        code, out, err = run(
            ["sample", "--input", str(exact_tensor_file), "--scheme", "gaussian",
             "--ratio", "0.5", "--index", "0", "--restarts", "2",
             "--out-prefix", str(tmp_path / "fit")],
            capsys,
        )
        assert code == 1
        assert "disk full" in err
        assert out == ""
        assert targets == ["fit_compressed.tns", "fit_A.csv"]
        assert old.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fit_A.csv", "fit_compressed.tns", "x.tns"
        ]

    def test_dims_that_contradict_the_file_exit_1(self, exact_tensor_file, capsys):
        code, out, err = run(
            ["sample", "--input", str(exact_tensor_file), "--dims", "3", "3", "3",
             "--scheme", "gaussian", "--ratio", "0.5", "--index", "0", "--rank", "2"],
            capsys,
        )
        assert code == 1
        assert "(3, 3, 3) differs from the file's dims (20, 15, 8)" in err
        assert out == ""

    def test_reproduces_the_grid_samples_bit_for_bit(self, tmp_path, capsys):
        src, out_json = tmp_path / "x.tns", tmp_path / "r.json"
        run(["synth", "--dims", "24", "18", "7", "--rank", "3", "--noise", "0.05",
             "--seed", "3", "--out", str(src)], capsys)
        shared = ["--input", str(src), "--rank", "3", "--modes", "1", "3", "--seed", "5",
                  "--restarts", "2", "--max-iter", "150", "--tol", "1e-7"]
        code, _, _ = run(
            ["experiment", *shared, "--ratios", "0.5", "--samples-gaussian", "3",
             "--samples-orthonormal", "3", "--samples-tucker", "2",
             "--out-json", str(out_json)],
            capsys,
        )
        assert code == 0
        raw = {cell["scheme"]: cell["raw_samples"]
               for cell in json.loads(out_json.read_text())["cells"]}
        for scheme, index in (("gaussian", 2), ("orthonormal", 1), ("tucker", 1)):
            code, out, _ = run(
                ["sample", *shared, "--scheme", scheme, "--ratio", "0.5",
                 "--index", str(index)],
                capsys,
            )
            assert code == 0
            assert float(sample_line(out)["value"]) == raw[scheme][index]

    def test_all_zero_tensor_exits_1(self, tmp_path, capsys):
        src = tmp_path / "zero.tns"
        write_tensor(DenseTensor3(np.zeros((12, 10, 6))), src)
        code, out, err = run(
            ["sample", "--input", str(src), "--scheme", "gaussian", "--ratio", "0.5",
             "--index", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "all-zero tensor" in err
        assert "sample 0 of cell (gaussian, 0.5)" in err

    def test_all_zero_grid_names_its_baseline(self, tmp_path, capsys):
        src = tmp_path / "zero.tns"
        write_tensor(DenseTensor3(np.zeros((12, 10, 6))), src)
        code, out, err = run(
            ["experiment", "--input", str(src), "--ratios", "0.5", "--rank", "2",
             "--samples-gaussian", "1", "--samples-orthonormal", "1", "--samples-tucker", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "baseline of the uncompressed tensor at rank 2 failed (fit seed " in err
        assert "all-zero tensor" in err
        assert "tensor 0" not in err

    @pytest.mark.parametrize("command", ["compress", "decompose"])
    def test_removed_commands_exit_2(self, exact_tensor_file, command, capsys):
        code, out, _ = run([command, "--input", str(exact_tensor_file)], capsys)
        assert code == 2
        assert out == ""


class TestExperimentCommand:
    BASE = ["experiment", "--rank", "3", "--schemes", "gaussian", "orthonormal", "tucker",
            "--ratios", "0.5", "--samples-gaussian", "3", "--samples-orthonormal", "3",
            "--samples-tucker", "2", "--seed", "5", "--restarts", "2",
            "--max-iter", "150", "--tol", "1e-7"]

    @pytest.fixture
    def noisy_file(self, tmp_path, capsys):
        path = tmp_path / "noisy.tns"
        run(["synth", "--dims", "24", "18", "7", "--rank", "3", "--noise", "0.05",
             "--seed", "3", "--out", str(path)], capsys)
        return path

    def test_rerun_byte_identical_json(self, noisy_file, tmp_path, capsys):
        outs = []
        for name in ("r1.json", "r2.json"):
            out_json = tmp_path / name
            code, _, _ = run(
                self.BASE + ["--input", str(noisy_file), "--out-json", str(out_json)],
                capsys,
            )
            assert code == 0
            outs.append(out_json.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_agrees_with_json_raw_samples(self, noisy_file, tmp_path, capsys):
        out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
        code, _, _ = run(
            self.BASE + ["--input", str(noisy_file), "--out-json", str(out_json),
                         "--out-csv", str(out_csv)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        rows = out_csv.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[:3] == ["scheme", "ratio", "n"]
        for cell, row in zip(doc["cells"], rows[1:]):
            fields = dict(zip(header, row.split(",")))
            stats = summarize([max(v, 0.0) for v in cell["raw_samples"]])
            assert fields["scheme"] == cell["scheme"]
            assert float(fields["ratio"]) == cell["ratio"]
            for name, got in (
                ("min", stats.min), ("q1", stats.q1), ("median", stats.median),
                ("q3", stats.q3), ("max", stats.max),
                ("lower_whisker", stats.lower_whisker),
                ("upper_whisker", stats.upper_whisker),
                ("smoothed_mean", stats.smoothed_mean),
            ):
                assert abs(float(fields[name]) - got) <= 1e-12
            assert int(fields["n_outliers"]) == stats.n_outliers

    def test_config_file_with_flag_override(self, noisy_file, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "\n".join(
                [
                    f"input = {noisy_file}",
                    "rank = 3",
                    "schemes = orthonormal",
                    "ratios = 0.5, 0.2",
                    "samples-orthonormal = 2",
                    "seed = 11",
                    "restarts = 2",
                    "max-iter = 120",
                    "tol = 1e-7",
                    "# a comment",
                ]
            )
        )
        out_json = tmp_path / "r.json"
        code, _, _ = run(
            ["experiment", "--config", str(cfg_file), "--ratios", "0.5",
             "--out-json", str(out_json)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["config"]["ratios"] == [0.5]  # flag overrode the file
        assert doc["config"]["samples_per_cell"] == {"orthonormal": 2}
        assert doc["config"]["master_seed"] == 11

    @pytest.mark.parametrize(
        "line, code, message",
        [
            ("frobnicate = 1", 2, "frobnicate"),
            ("rank = abc", 2, "--rank"),
            ("schemes = foo", 2, "--schemes"),
            ("dims = 1 2", 2, "--dims"),
            ("config = other.cfg", 2, "key 'config'"),
            ("rank 3", 2, "expected key=value"),
            ("input = {space_dir}/noisy.tns", 0, ""),
        ],
    )
    def test_config_file_values(self, noisy_file, tmp_path, line, code, message, capsys):
        space_dir = tmp_path / "a dir"
        space_dir.mkdir()
        space_dir.joinpath("noisy.tns").write_bytes(noisy_file.read_bytes())
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(line.format(space_dir=space_dir) + "\n")
        argv = ["experiment", "--config", str(cfg_file)] + self.BASE[1:] + ["--ratios", "0.5"]
        if "input" not in line:
            argv += ["--input", str(noisy_file)]
        got, _, err = run(argv, capsys)
        assert got == code
        assert message in err

    def test_config_key_spellings_agree(self, noisy_file, tmp_path, capsys):
        outs = []
        for key in ("max_iter", "max-iter", "MAX-Iter"):
            cfg_file = tmp_path / "exp.cfg"
            cfg_file.write_text(f"{key} = 40\n")
            out_json = tmp_path / "r.json"
            argv = ["experiment", "--config", str(cfg_file)] + self.BASE[1:]
            del argv[argv.index("--max-iter") : argv.index("--max-iter") + 2]
            code, _, _ = run(
                argv + ["--input", str(noisy_file), "--out-json", str(out_json)], capsys
            )
            assert code == 0
            outs.append(out_json.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert json.loads(outs[0])["config"]["fit"]["max_iterations"] == 40

    def test_undecodable_config_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"rank = 3\nseed = \xff\n")
        code, out, err = run(["experiment", "--config", str(cfg_file)], capsys)
        assert (code, out) == (2, "")
        assert f"configuration error: {cfg_file}: 'utf-8' codec can't decode" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(["experiment", "--frobnicate"], capsys)
        assert code == 2

    def test_infeasible_grid_exits_2(self, noisy_file, capsys):
        code, _, err = run(
            self.BASE + ["--input", str(noisy_file), "--ratios", "0.04"], capsys
        )
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "grid",
        [
            ["--ratios", "0.5", "0.5"],
            ["--schemes", "gaussian", "gaussian"],
            ["--ratios", "0.12341", "0.12344"],
            ["--ratios", "1.5"],
            ["--modes", "4"],
            ["--restarts", "0"],
            ["--tol", "0"],
            ["--tol", "inf"],
            ["--tol", "nan"],
            ["--seed", "-1"],
            ["--seed", str(2**64)],
        ],
    )
    def test_duplicate_grid_entries_exit_2(self, noisy_file, grid, capsys):
        code, _, err = run(self.BASE + ["--input", str(noisy_file)] + grid, capsys)
        assert code == 2
        assert "configuration error" in err

    def test_repeated_scheme_exits_2_naming_it(self, noisy_file, capsys):
        grid = ["--schemes", "tucker", "gaussian", "gaussian"]
        code, _, err = run(self.BASE + ["--input", str(noisy_file)] + grid, capsys)
        assert code == 2
        assert "scheme gaussian is listed twice" in err

    def test_count_for_an_unlisted_scheme_exits_2_naming_the_flag(
        self, noisy_file, tmp_path, capsys
    ):
        argv = ["experiment", "--input", str(noisy_file), "--ratios", "0.5",
                "--schemes", "gaussian", "--samples-gaussian", "2"]
        code, out, err = run(argv + ["--samples-tucker", "7"], capsys)
        assert (code, out) == (2, "")
        assert "--samples-tucker is given, but --schemes leaves tucker out" in err

        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("schemes = gaussian\nsamples-orthonormal = 3\n")
        code, out, err = run(["experiment", "--config", str(cfg_file)] + argv[1:5], capsys)
        assert (code, out) == (2, "")
        assert "--samples-orthonormal is given" in err

    def test_listed_scheme_without_a_count_takes_the_default(self, noisy_file, monkeypatch):
        import corcomp.cli as cli

        class Captured(Exception):
            pass

        def capture(X, cfg):
            raise Captured(cfg)

        monkeypatch.setattr(cli, "run_experiment", capture)
        argv = ["experiment", "--input", str(noisy_file), "--ratios", "0.5"]
        for extra, samples in (
            ([], {Scheme.GAUSSIAN: 1000, Scheme.ORTHONORMAL: 1000, Scheme.TUCKER: 10}),
            (["--schemes", "tucker", "gaussian", "--samples-gaussian", "3"],
             {Scheme.TUCKER: 10, Scheme.GAUSSIAN: 3}),
        ):
            with pytest.raises(Captured) as info:
                cli_main(argv + extra)
            got = info.value.args[0].samples_per_cell
            assert got == samples and list(got) == list(samples)

    def test_failing_sample_exits_1_with_its_coordinates(self, noisy_file, monkeypatch, capsys):
        import corcomp.harness as harness

        real_corcondia = harness.corcondia

        def failing_on_compressed(X, model):
            if X.dims != (24, 18, 7):
                raise ValueError("diagnostic exploded")
            return real_corcondia(X, model)

        monkeypatch.setattr(harness, "corcondia", failing_on_compressed)
        code, _, err = run(self.BASE + ["--input", str(noisy_file)], capsys)
        assert code == 1
        assert "sample 0 of cell (gaussian, 0.5)" in err

    def test_failed_result_write_keeps_the_old_file(
        self, noisy_file, tmp_path, monkeypatch, capsys
    ):
        out_json = tmp_path / "r.json"
        out_json.write_text("old\n")

        def no_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", no_replace)
        code, _, err = run(
            self.BASE + ["--input", str(noisy_file), "--out-json", str(out_json)], capsys
        )
        assert code == 1
        assert "disk full" in err
        assert out_json.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.tns", "r.json"]

    def test_internal_error_is_not_mapped_to_an_exit_code(self, noisy_file, monkeypatch, capsys):
        import corcomp.cli as cli

        def broken(*args, **kwargs):
            raise NotImplementedError("internal bug")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(NotImplementedError):
            cli.cli_main(self.BASE + ["--input", str(noisy_file)])

    @pytest.mark.parametrize("command", ["experiment", "sample", "corcondia"])
    def test_bug_in_a_sample_or_rank_keeps_its_traceback(
        self, noisy_file, command, monkeypatch
    ):
        import corcomp.harness as harness

        real_corcondia = harness.corcondia

        def broken(X, model):
            if command == "experiment" and X.dims == (24, 18, 7):
                return real_corcondia(X, model)  # the baseline, outside any sample
            raise NotImplementedError("internal bug")

        monkeypatch.setattr(harness, "corcondia", broken)
        monkeypatch.setattr(sys.modules["corcomp.corcondia"], "corcondia", broken)
        argv = {
            "experiment": self.BASE,
            "sample": ["sample", "--scheme", "gaussian", "--ratio", "0.5", "--index", "0",
                       "--max-iter", "20"],
            "corcondia": ["corcondia", "--ranks", "2", "--max-iter", "20"],
        }[command]
        with pytest.raises(NotImplementedError, match="internal bug"):
            cli_main(argv + ["--input", str(noisy_file)])

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(["experiment", "--rank", "3"], capsys)
        assert code == 2


class TestOutputFiles:
    def test_files_take_their_mode_from_the_umask(self, tmp_path, capsys):
        for umask in (0o022, 0o077):
            out = tmp_path / f"umask{umask:03o}"
            out.mkdir()
            x = str(out / "x.tns")
            commands = [
                ["synth", "--dims", "12", "10", "6", "--rank", "2", "--seed", "1", "--out", x],
                ["synth", "--dims", "4", "4", "4", "--rank", "2", "--out", str(out / "y.txt")],
                ["synth", "--dims", "4", "4", "4", "--rank", "2", "--out", str(out / "y.csv")],
                ["synth", "--dims", "4", "4", "4", "--rank", "2", "--out", str(out / "y.bin")],
                ["sample", "--input", x, "--scheme", "tucker", "--ratio", "0.5", "--index", "0",
                 "--rank", "2", "--restarts", "1", "--max-iter", "20",
                 "--out-prefix", str(out / "t")],
                ["experiment", "--input", x, "--rank", "2", "--schemes", "gaussian",
                 "--ratios", "0.5", "--samples-gaussian", "1", "--restarts", "1",
                 "--max-iter", "20", "--out-json", str(out / "r.json"),
                 "--out-csv", str(out / "r.csv")],
            ]
            old = os.umask(umask)
            try:
                for argv in commands:
                    assert run(argv, capsys)[0] == 0
            finally:
                os.umask(old)
            modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
            assert len(modes) == 10
            assert modes == dict.fromkeys(modes, 0o666 & ~umask)


SAMPLE = ["sample", "--scheme", "orthonormal", "--ratio", "0.5", "--index", "0"]


class TestErrorPaths:
    def test_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tns"
        bad.write_bytes(b"TNS3" + b"\x01" + b"\x00" * 12)
        code, _, err = run(["corcondia", "--input", str(bad), "--ranks", "1"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--rank", "2", "--noise", "-1"],
            ["synth", "--rank", "99"],
            ["corcondia", "--ranks", "0"],
            ["corcondia", "--ranks", "2", "99"],
            ["synth", "--rank", "2", "--noise", "nan"],
            ["synth", "--rank", "2", "--noise", "inf"],
            ["synth", "--rank", "2", "--seed", "-1"],
            ["synth", "--rank", "2", "--seed", str(2**64)],
            ["corcondia", "--ranks", "1", "--seed", "-1"],
            ["corcondia", "--ranks", "1", "--seed", str(2**64 + 5)],
            [*SAMPLE, "--seed", "-1"],
            [*SAMPLE, "--seed", str(2**64)],
            [*SAMPLE, "--rank", "0"],
            [*SAMPLE, "--rank", "5"],
            [*SAMPLE, "--ratio", "0.25"],
            ["sample", "--scheme", "gaussian", "--ratio", "0", "--index", "0"],
            ["sample", "--scheme", "gaussian", "--ratio", "1.5", "--index", "0"],
            ["sample", "--scheme", "gaussian", "--ratio", "0.5", "--index", "-1"],
            ["sample", "--scheme", "gaussian", "--ratio", "0.5", "--index", str(2**64)],
            [*SAMPLE, "--modes", "4"],
            ["corcondia", "--ranks", "2", "3", "2"],
        ],
    )
    def test_out_of_range_settings_exit_2(self, tmp_path, argv, capsys):
        small = tmp_path / "small.tns"
        assert cli_main(["synth", "--dims", "4", "4", "4", "--rank", "2", "--out", str(small)]) == 0
        capsys.readouterr()
        if argv[0] == "synth":
            argv = argv + ["--dims", "4", "4", "4", "--out", str(tmp_path / "x.tns")]
        else:
            argv = argv + ["--input", str(small)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "configuration error" in err
        assert out == ""

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 2

    def test_version_flag(self, capsys):
        code, out, _ = run(["--version"], capsys)
        assert code == 0
