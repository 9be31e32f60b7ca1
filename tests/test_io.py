import struct

import numpy as np
import pytest

from corcomp import (
    DenseTensor3,
    FitConfig,
    FormatError,
    SynthSpec,
    corcondia,
    corcondia_sweep,
    cp_als,
    frobenius_norm,
    read_tensor,
    synth_tensor,
    write_tensor,
)


@pytest.fixture
def random_tensor():
    rng = np.random.default_rng(0)
    return DenseTensor3(rng.standard_normal((3, 4, 5)))


class TestBinaryFormat:
    def test_roundtrip_bitwise(self, tmp_path, random_tensor):
        path = tmp_path / "x.tns"
        write_tensor(random_tensor, path)
        back = read_tensor(path)
        assert back.dims == random_tensor.dims
        assert np.array_equal(back.data, random_tensor.data)

    def test_truncated_payload_reports_byte_counts(self, tmp_path, random_tensor):
        path = tmp_path / "x.tns"
        write_tensor(random_tensor, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError, match=r"expected 480 bytes, found 464"):
            read_tensor(path)
        path.write_bytes(raw[:10])
        with pytest.raises(FormatError, match=r"header truncated \(10 bytes\)"):
            read_tensor(path)

    def test_overlong_payload_rejected(self, tmp_path, random_tensor):
        path = tmp_path / "x.tns"
        write_tensor(random_tensor, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError, match="payload length mismatch"):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.tns"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_tensor(path)

    def test_unsupported_version(self, tmp_path, random_tensor):
        path = tmp_path / "x.tns"
        write_tensor(random_tensor, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_tensor(path)

    def test_non_finite_payload(self, tmp_path, random_tensor):
        path = tmp_path / "x.tns"
        write_tensor(random_tensor, path)
        raw = bytearray(path.read_bytes())
        raw[17:25] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            read_tensor(path)

    def test_zero_dim_header_names_the_path(self, tmp_path):
        path = tmp_path / "x.tns"
        path.write_bytes(b"TNS3\x01" + struct.pack("<III", 2, 0, 2))
        with pytest.raises(FormatError, match=r"x\.tns: dim must be an integer >= 1, got 0"):
            read_tensor(path)


class TestTextFormat:
    def test_roundtrip_exact(self, tmp_path, random_tensor):
        path = tmp_path / "x.txt"
        write_tensor(random_tensor, path)
        back = read_tensor(path)
        assert np.array_equal(back.data, random_tensor.data)

    def test_value_count_mismatch(self, tmp_path):
        path = tmp_path / "x.txt"
        for text, message in (
            ("2 2 2\n1.0\n2.0\n", "expected 8 values"),
            ("1 1 2\n1.0\nabc\n", "unparsable value"),
            ("1 1 2\n1.0\nnan\n", "non-finite values"),
        ):
            path.write_text(text)
            with pytest.raises(FormatError, match=message):
                read_tensor(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.txt"
        for raw, message in (
            (b"2 2\n", "header"),
            (b"", "empty tensor file"),
            (b"# a comment only\n\n", "empty tensor file"),
            (b"2 x 2\n", "non-integer dims"),
            (b"2 0 2\n", r"x\.txt: dim must be an integer >= 1, got 0"),
            (b"1 1 1\n\xff\n", r"x\.txt: 'utf-8' codec can't decode byte 0xff"),
        ):
            path.write_bytes(raw)
            with pytest.raises(FormatError, match=message):
                read_tensor(path)


class TestCsvFormat:
    def test_single_triplet_with_dims_argument(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,1,1,5.0\n")
        X = read_tensor(path, dims=(2, 2, 2))
        assert X[0, 0, 0] == 5.0
        assert np.sum(X.data != 0) == 1

    def test_dims_header_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# dims: 2 3 4\n\n2,3,4,-1.5\n")  # blank lines are skipped
        X = read_tensor(path)
        assert X.dims == (2, 3, 4)
        assert X[1, 2, 3] == -1.5

    def test_dims_argument_must_match_dims_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# dims: 2 2 2\n1,1,1,5.0\n")
        with pytest.raises(FormatError, match=r"\(3, 3, 3\) differs .* \(2, 2, 2\)"):
            read_tensor(path, dims=(3, 3, 3))
        assert read_tensor(path, dims=(2, 2, 2)).dims == (2, 2, 2)

    def test_roundtrip(self, tmp_path, random_tensor):
        path = tmp_path / "x.csv"
        write_tensor(random_tensor, path)
        back = read_tensor(path)
        assert np.array_equal(back.data, random_tensor.data)

    def test_writes_nonzeros_with_the_first_index_fastest(self, tmp_path):
        arr = np.zeros((2, 2, 2))
        arr[1, 0, 0], arr[0, 1, 0], arr[1, 1, 1] = 0.1, 5e-324, -2.5
        arr[0, 0, 1] = -0.0  # equal to zero, so skipped
        path = tmp_path / "x.csv"
        write_tensor(DenseTensor3(arr), path)
        assert path.read_text() == "# dims: 2 2 2\n2,1,1,0.1\n1,2,1,5e-324\n2,2,2,-2.5\n"

    def test_missing_dims(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,1,1,5.0\n")
        with pytest.raises(FormatError, match="dims"):
            read_tensor(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# dims: 2 2 2\n3,1,1,5.0\n")
        with pytest.raises(FormatError, match=r"\(3,1,1\) out of range"):
            read_tensor(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "x.csv"
        for raw, message in (
            (b"# dims: 2 2 2\n1,1,5.0\n", "i,j,k,value"),
            (b"# dims: 2 2 2\n1,1,x,5.0\n", r"x\.csv:2: unparsable triplet"),
            (b"# dims: 2 2 2\n1,1,1,inf\n", r"x\.csv:2: non-finite value 'inf'"),
            (b"# dims: 2 2\n", r"x\.csv:1: malformed dims comment"),
            (b"# dims: 2 0 2\n", r"x\.csv: all dims must be positive, got \(2, 0, 2\)"),
            (b"# dims: 1 1 1\n1,1,1,\xff\n", r"x\.csv: 'utf-8' codec can't decode byte 0xff"),
        ):
            path.write_bytes(raw)
            with pytest.raises(FormatError, match=message):
                read_tensor(path)

    def test_repeated_index_names_both_lines(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# dims: 2 2 2\n1,1,1,5.0\n2,1,1,1.0\n1,1,1,7.0\n")
        with pytest.raises(FormatError, match=r"x\.csv:4: index \(1,1,1\) repeats line 2"):
            read_tensor(path)

    @pytest.mark.parametrize("first, second", [("2 2 2", "3 3 3"), ("3 3 3", "2 2 2")])
    def test_repeated_dims_line_names_both_lines(self, tmp_path, first, second):
        # As two CSV files concatenated give.
        path = tmp_path / "x.csv"
        path.write_text(f"# dims: {first}\n1,1,1,5.0\n# dims: {second}\n2,2,2,1.0\n")
        with pytest.raises(FormatError, match=r"x\.csv:3: dims line repeats line 1"):
            read_tensor(path)


@pytest.mark.parametrize("name", ["x.tns", "x.txt", "x.csv"])
def test_dims_argument_must_match_the_file(tmp_path, random_tensor, name):
    path = tmp_path / name
    write_tensor(random_tensor, path)
    with pytest.raises(FormatError, match=r"\(4, 4, 5\) differs .* \(3, 4, 5\)"):
        read_tensor(path, dims=(4, 4, 5))
    assert np.array_equal(read_tensor(path, dims=(3, 4, 5)).data, random_tensor.data)


@pytest.mark.parametrize("name", ["x.txt", "x.csv"])
def test_a_leading_bom_is_ignored(tmp_path, random_tensor, name):
    # Excel's "CSV UTF-8" starts the file with one.
    path = tmp_path / name
    write_tensor(random_tensor, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert np.array_equal(read_tensor(path).data, random_tensor.data)


class TestSynth:
    def test_noiseless_rank3_scores_100(self):
        X = synth_tensor(SynthSpec(dims=(20, 15, 8), rank=3, noise_level=0.0, seed=3))
        model = cp_als(X, 3, FitConfig(max_iterations=2000, rel_tolerance=1e-12, restarts=3))
        assert corcondia(X, model).value == pytest.approx(100.0, abs=1e-6)

    def test_seed_reproducibility(self):
        spec = SynthSpec(dims=(10, 9, 8), rank=2, noise_level=0.1, seed=4)
        assert np.array_equal(synth_tensor(spec).data, synth_tensor(spec).data)

    def test_noise_level_is_exact(self):
        clean = synth_tensor(SynthSpec(dims=(10, 9, 8), rank=2, noise_level=0.0, seed=5))
        noisy = synth_tensor(SynthSpec(dims=(10, 9, 8), rank=2, noise_level=0.07, seed=5))
        rel = frobenius_norm(DenseTensor3(noisy.data - clean.data)) / frobenius_norm(clean)
        assert rel == pytest.approx(0.07, abs=1e-12)

    def test_distributions_differ(self):
        u = synth_tensor(SynthSpec(dims=(6, 5, 4), rank=2, seed=6))
        g = synth_tensor(
            SynthSpec(dims=(6, 5, 4), rank=2, seed=6, factor_distribution="gaussian")
        )
        assert not np.allclose(u.data, g.data)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthSpec(dims=(4, 4, 4), rank=0)
        with pytest.raises(ValueError):
            SynthSpec(dims=(4, 4, 4), rank=2, noise_level=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(dims=(4, 4, 4), rank=2, factor_distribution="cauchy")
        with pytest.raises(ValueError):
            SynthSpec(dims=(4, 4), rank=1)  # type: ignore[arg-type]

    def test_sweep_separates_true_rank_under_noise(self):
        # seed-averaged behavior at full scale: high through the true
        # rank, collapsed when overfactored
        from dataclasses import replace

        values = {r: [] for r in (1, 2, 3, 4, 5)}
        cfgbase = FitConfig(max_iterations=300, rel_tolerance=1e-8, restarts=2)
        for seed in range(5):
            X = synth_tensor(
                SynthSpec(dims=(268, 44, 7), rank=3, noise_level=0.05, seed=seed)
            )
            reports = corcondia_sweep(X, [1, 2, 3, 4, 5], replace(cfgbase, seed=seed))
            for report in reports:
                values[report.rank].append(report.value)
        for rank in (1, 2, 3):
            assert np.mean(values[rank]) > 90.0
        assert np.mean(values[5]) < 30.0
