"""Command-line interface.

Subcommands: ``synth`` (generate a synthetic tensor file), ``decompose``
(fit a CP or Tucker model and emit its factors), ``corcondia`` (core
consistency table over a list of component counts), ``compress`` (apply
one compression operator), and ``experiment`` (the full Monte Carlo
grid, emitting a JSON result and a per-cell statistics CSV).

All randomness flows from ``--seed``.  Exit codes: 0 on success, 2 for
usage or infeasible-configuration errors, 1 for bad input and for a
failed sample or rank (:class:`StepError`).  Any other exception is a bug
and keeps its traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .compress import (
    RatioSpec,
    Scheme,
    compress,
    gaussian_operator,
    orthonormal_operator,
    ratio_to_dims,
    tucker_operator,
)
from .corcondia import corcondia_sweep
from .decomp import FitConfig, cp_als, tucker3
from .errors import ConfigError, FormatError, ShapeError, StepError
from .harness import ExperimentConfig, run_experiment
from .io import (
    SynthSpec,
    experiment_to_json,
    read_tensor,
    stats_csv_lines,
    synth_tensor,
    write_tensor,
)


_EXPERIMENT_DEFAULTS = {
    "rank": 3,
    "schemes": ["gaussian", "orthonormal", "tucker"],
    "ratios": [0.5, 0.4, 0.3, 0.2, 0.1, 0.08, 0.04],
    "samples_gaussian": 1000,
    "samples_orthonormal": 1000,
    "samples_tucker": 10,
    "modes": [1, 2],
    "seed": 0,
    "restarts": 5,
    "max_iter": 500,
    "tol": 1e-8,
    "workers": None,
    "input": None,
    "dims": None,
    "out_json": None,
    "out_csv": None,
}


def _add_fit_flags(p: argparse.ArgumentParser, for_experiment: bool = False) -> None:
    p.add_argument("--restarts", type=int, default=None if for_experiment else 5,
                   help="random initializations per fit (default 5)")
    p.add_argument("--max-iter", type=int, default=None if for_experiment else 500,
                   dest="max_iter", help="iteration cap per fit (default 500)")
    p.add_argument("--tol", type=float, default=None if for_experiment else 1e-8,
                   help="relative fit-change stopping tolerance (default 1e-8)")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="tensor file to read")
    p.add_argument("--dims", type=int, nargs=3, metavar=("I", "J", "K"), default=None,
                   help="dims for CSV inputs without a dims header")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corcomp",
        description="Core consistency diagnostics for dense 3-mode tensors "
                    "under randomized compression.",
    )
    parser.add_argument("--version", action="version", version=f"corcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic low-rank tensor file")
    p.add_argument("--dims", type=int, nargs=3, metavar=("I", "J", "K"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0,
                   help="relative Frobenius noise level (default 0)")
    p.add_argument("--dist", choices=["uniform", "gaussian"], default="uniform",
                   help="factor entry distribution (default uniform)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output tensor file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", help="fit a CP or Tucker model and emit factors")
    _add_input_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rank", type=int, help="CP component count")
    group.add_argument("--tucker-dims", type=int, nargs=3, metavar=("P", "Q", "R"),
                       dest="tucker_dims", help="Tucker core dims")
    _add_fit_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", dest="out_prefix", default=None,
                   help="write factors to PREFIX_A.csv, PREFIX_B.csv, PREFIX_C.csv "
                        "(and PREFIX_core.tns for Tucker)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("corcondia", help="core consistency table over component counts")
    _add_input_flags(p)
    p.add_argument("--ranks", type=int, nargs="+", required=True)
    _add_fit_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_corcondia)

    p = sub.add_parser("compress", help="compress a tensor with one operator draw")
    _add_input_flags(p)
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--modes", type=int, nargs="+", default=[1, 2],
                   help="modes the ratio applies to (default 1 2)")
    p.add_argument("--seed", type=int, default=0)
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="output tensor file")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("experiment", help="Monte Carlo grid over schemes and ratios")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults for any flag below")
    p.add_argument("--input", default=None)
    p.add_argument("--dims", type=int, nargs=3, metavar=("I", "J", "K"), default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--schemes", nargs="+", choices=[s.value for s in Scheme], default=None)
    p.add_argument("--ratios", type=float, nargs="+", default=None)
    p.add_argument("--samples-gaussian", type=int, default=None, dest="samples_gaussian")
    p.add_argument("--samples-orthonormal", type=int, default=None, dest="samples_orthonormal")
    p.add_argument("--samples-tucker", type=int, default=None, dest="samples_tucker")
    p.add_argument("--modes", type=int, nargs="+", default=None)
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    _add_fit_flags(p, for_experiment=True)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _fit_config(args: argparse.Namespace, seed: int = 0) -> FitConfig:
    return FitConfig(
        max_iterations=args.max_iter,
        rel_tolerance=args.tol,
        restarts=args.restarts,
        seed=seed,
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        dims=tuple(args.dims),
        rank=args.rank,
        noise_level=args.noise,
        factor_distribution=args.dist,
        seed=args.seed,
    )
    write_tensor(synth_tensor(spec), args.out)
    print(f"wrote {args.out} dims={spec.dims} rank={spec.rank} noise={spec.noise_level}")
    return 0


def _save_matrix(path: Path, M: np.ndarray) -> None:
    np.savetxt(path, M, delimiter=",")


def _cmd_decompose(args: argparse.Namespace) -> int:
    X = read_tensor(args.input, dims=_dims_arg(args))
    cfg = _fit_config(args, seed=args.seed)
    if args.rank is not None:
        model = cp_als(X, args.rank, cfg)
        factors = {"A": model.A, "B": model.B, "C": model.C}
        core = None
        print(f"cp rank={args.rank} fit={model.fit:.10f} "
              f"iterations={model.iterations} converged={model.converged}")
    else:
        tm = tucker3(X, tuple(args.tucker_dims), cfg)
        factors = {"A": tm.A, "B": tm.B, "C": tm.C}
        core = tm.core
        print(f"tucker dims={tuple(args.tucker_dims)} fit={tm.fit:.10f} "
              f"iterations={tm.iterations} converged={tm.converged}")
    if args.out_prefix:
        prefix = Path(args.out_prefix)
        for name, M in factors.items():
            _save_matrix(prefix.parent / f"{prefix.name}_{name}.csv", M)
        if core is not None:
            write_tensor(core, prefix.parent / f"{prefix.name}_core.tns")
    return 0


def _cmd_corcondia(args: argparse.Namespace) -> int:
    X = read_tensor(args.input, dims=_dims_arg(args))
    reports = corcondia_sweep(X, args.ranks, _fit_config(args, seed=args.seed))
    for rank, report in zip(args.ranks, reports):
        print(f"{rank}\t{report.value:.6f}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    X = read_tensor(args.input, dims=_dims_arg(args))
    spec = RatioSpec(args.ratio, frozenset(args.modes))
    target = ratio_to_dims(X.dims, spec)
    scheme = Scheme(args.scheme)
    if scheme is Scheme.GAUSSIAN:
        op = gaussian_operator(X.dims, target, args.seed)
    elif scheme is Scheme.ORTHONORMAL:
        op = orthonormal_operator(X.dims, target, args.seed)
    else:
        op = tucker_operator(X, target, _fit_config(args, seed=args.seed))
    write_tensor(compress(X, op), args.out)
    print(f"wrote {args.out} dims={target} scheme={scheme.value} ratio={args.ratio}")
    return 0


def _dims_arg(args: argparse.Namespace) -> tuple[int, int, int] | None:
    return tuple(args.dims) if getattr(args, "dims", None) else None


# ---------------------------------------------------------------------------
# experiment flag/config merging


def _parse_config_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip().lower().replace("-", "_")] = value.strip()
    return mapping


def _split_list(value: str) -> list[str]:
    return value.replace(",", " ").split()


_CONFIG_PARSERS = {
    "rank": int,
    "schemes": _split_list,
    "ratios": lambda v: [float(x) for x in _split_list(v)],
    "samples_gaussian": int,
    "samples_orthonormal": int,
    "samples_tucker": int,
    "modes": lambda v: [int(x) for x in _split_list(v)],
    "seed": int,
    "restarts": int,
    "max_iter": int,
    "tol": float,
    "workers": int,
    "input": str,
    "dims": lambda v: [int(x) for x in _split_list(v)],
    "out_json": str,
    "out_csv": str,
}


def _merged_experiment_settings(args: argparse.Namespace) -> dict:
    from_file: dict[str, object] = {}
    if args.config:
        raw = _parse_config_file(args.config)
        unknown = set(raw) - set(_CONFIG_PARSERS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        from_file = {k: _CONFIG_PARSERS[k](v) for k, v in raw.items()}
    settings = {}
    for key, default in _EXPERIMENT_DEFAULTS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
        elif key in from_file:
            settings[key] = from_file[key]
        else:
            settings[key] = default
    return settings


def _cmd_experiment(args: argparse.Namespace) -> int:
    s = _merged_experiment_settings(args)
    if not s["input"]:
        raise ConfigError("experiment needs an input tensor (--input or input= in config)")
    X = read_tensor(s["input"], dims=tuple(s["dims"]) if s["dims"] else None)
    schemes = tuple(Scheme(name) for name in s["schemes"])
    samples = {
        Scheme.GAUSSIAN: s["samples_gaussian"],
        Scheme.ORTHONORMAL: s["samples_orthonormal"],
        Scheme.TUCKER: s["samples_tucker"],
    }
    cfg = ExperimentConfig(
        rank=s["rank"],
        schemes=schemes,
        ratios=tuple(s["ratios"]),
        samples_per_cell={sc: samples[sc] for sc in schemes},
        compressed_modes=frozenset(s["modes"]),
        master_seed=s["seed"],
        fit=FitConfig(
            max_iterations=s["max_iter"], rel_tolerance=s["tol"], restarts=s["restarts"]
        ),
    )
    result = run_experiment(X, cfg)
    csv_lines = stats_csv_lines(result)
    if s["out_json"]:
        Path(s["out_json"]).write_text(experiment_to_json(result))
    if s["out_csv"]:
        Path(s["out_csv"]).write_text("\n".join(csv_lines) + "\n")
    print(f"baseline corcondia at rank {cfg.rank}: {result.baseline.value:.6f}")
    for line in csv_lines:
        print(line)
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI on an argument vector and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"corcomp: configuration error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ShapeError, ValueError, OSError, StepError) as exc:
        print(f"corcomp: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
