"""Command-line interface.

Subcommands: ``synth`` (generate a synthetic tensor file), ``corcondia``
(core consistency table over a list of component counts), ``experiment``
(the full Monte Carlo grid, emitting a JSON result and a per-cell
statistics CSV), and ``sample`` (rerun one sample of that grid bit for
bit, optionally writing its compressed tensor and CP factors).

All randomness flows from ``--seed``.  Exit codes: 0 on success, 2 for
usage or infeasible-configuration errors, 1 for bad input and for a
failed sample or rank (:class:`StepError`).  Any other exception is a bug
and keeps its traceback.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compress import DEFAULT_MODES, Scheme
from .corcondia import corcondia_sweep
from .decomp import FitConfig
from .errors import ConfigError, StepError
from .harness import DEFAULT_SAMPLES, TUCKER_TOLERANCE, ExperimentConfig, run_experiment, run_sample
from .io import (
    SynthSpec,
    _atomic_write,
    experiment_to_json,
    read_tensor,
    stats_csv_lines,
    synth_tensor,
    write_tensor,
)


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=FitConfig.restarts,
                   help="random initializations per fit (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=FitConfig.max_iterations,
                   dest="max_iter", help="iteration cap per CP fit (default %(default)s)")
    p.add_argument("--tol", type=float, default=FitConfig.rel_tolerance,
                   help="relative fit-change stopping tolerance of the CP fits; the "
                        f"Tucker scheme's HOOI stops at {TUCKER_TOLERANCE:.0e} "
                        "(default %(default)s)")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="tensor file to read")
    p.add_argument("--dims", type=int, nargs=3, metavar=("I", "J", "K"), default=None,
                   help="dims the input must have (needed by CSV files without a dims line)")


def _add_grid_flags(p: argparse.ArgumentParser, grid: ExperimentConfig) -> None:
    p.add_argument("--rank", type=int, default=grid.rank,
                   help="CP components fitted per sample (default %(default)s)")
    p.add_argument("--modes", type=int, nargs="+", default=DEFAULT_MODES,
                   help="modes the ratios apply to (default %(default)s)")
    p.add_argument("--seed", type=int, default=grid.master_seed,
                   help="master seed (default %(default)s)")
    _add_fit_flags(p)


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
    p.add_argument("--noise", type=float, default=SynthSpec.noise_level,
                   help="relative Frobenius noise level (default %(default)s)")
    p.add_argument("--dist", choices=["uniform", "gaussian"],
                   default=SynthSpec.factor_distribution,
                   help="factor entry distribution (default %(default)s)")
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--out", required=True, help="output tensor file")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("corcondia", help="core consistency table over component counts")
    _add_input_flags(p)
    p.add_argument("--ranks", type=int, nargs="+", required=True)
    _add_fit_flags(p)
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.set_defaults(func=_cmd_corcondia)

    grid = ExperimentConfig()
    p = sub.add_parser("experiment", help="Monte Carlo grid over schemes and ratios")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults for any flag below")
    p.add_argument("--input", default=None)
    p.add_argument("--dims", type=int, nargs=3, metavar=("I", "J", "K"), default=None)
    p.add_argument("--schemes", nargs="+", choices=[s.value for s in Scheme],
                   default=[s.value for s in grid.samples_per_cell],
                   help="compression schemes (default %(default)s)")
    p.add_argument("--ratios", type=float, nargs="+", default=grid.ratios,
                   help="compression ratios (default %(default)s)")
    for scheme in Scheme:
        p.add_argument(f"--samples-{scheme.value}", type=int, default=None,
                       help=f"samples per cell (default {DEFAULT_SAMPLES[scheme]}); "
                            "only for a scheme in --schemes")
    _add_grid_flags(p, grid)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--out-json", dest="out_json", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)
    p.set_defaults(func=_cmd_experiment, parser=p)

    p = sub.add_parser("sample", help="rerun one sample of an experiment grid")
    _add_input_flags(p)
    p.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--index", type=int, required=True, help="sample index within its cell")
    _add_grid_flags(p, grid)
    p.add_argument("--out-prefix", dest="out_prefix", default=None,
                   help="write PREFIX_compressed.tns and the factors to PREFIX_A.csv, "
                        "PREFIX_B.csv, PREFIX_C.csv")
    p.set_defaults(func=_cmd_sample)

    return parser


def _fit_config(args: argparse.Namespace, seed: int = FitConfig.seed) -> FitConfig:
    return FitConfig(
        max_iterations=args.max_iter,
        rel_tolerance=args.tol,
        restarts=args.restarts,
        seed=seed,
    )


def _grid_config(args: argparse.Namespace, **cells) -> ExperimentConfig:
    """The grid of ``cells`` (ratios, samples_per_cell) under the shared grid flags."""
    return ExperimentConfig(rank=args.rank, compressed_modes=frozenset(args.modes),
                            master_seed=args.seed, fit=_fit_config(args), **cells)


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


def _cmd_corcondia(args: argparse.Namespace) -> int:
    X = read_tensor(args.input, dims=args.dims)
    reports = corcondia_sweep(X, args.ranks, _fit_config(args, seed=args.seed))
    for rank, report in zip(args.ranks, reports):
        print(f"{rank}\t{report.value!r}")
        if report.factor_rank_deficient:
            print(f"corcomp: warning: rank {rank} is factor rank deficient "
                  f"(a fitted factor has numerical rank below {rank})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# experiment config file


def _config_argv(p: argparse.ArgumentParser, path: str) -> list[str]:
    """The flag tokens of a ``key = value`` config file for ``p``.

    A key is a flag's name without its leading dashes, in any case and
    with ``_`` and ``-`` alike.  A list-valued flag's value is split on
    commas and whitespace; any other value is passed whole, so a path may
    contain spaces.  Types and choices are left to ``p``.
    """
    actions = {a.dest: a for a in p._actions if a.dest not in ("help", "config")}
    argv: list[str] = []
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.lower().replace("-", "_"))
        if action is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs is None:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, *value.replace(",", " ").split()]
    return argv


def _cmd_experiment(args: argparse.Namespace) -> int:
    if not args.input:
        raise ConfigError("experiment needs an input tensor (--input or input= in config)")
    X = read_tensor(args.input, dims=args.dims)
    for name in args.schemes:
        if args.schemes.count(name) > 1:
            raise ConfigError(f"scheme {name} is listed twice")
    counts = {}
    for scheme in Scheme:
        n = getattr(args, f"samples_{scheme.value}")
        if n is not None and scheme.value not in args.schemes:
            raise ConfigError(f"--samples-{scheme.value} is given, but --schemes leaves "
                              f"{scheme.value} out")
        counts[scheme] = DEFAULT_SAMPLES[scheme] if n is None else n
    samples = {Scheme(name): counts[Scheme(name)] for name in args.schemes}
    cfg = _grid_config(args, ratios=tuple(args.ratios), samples_per_cell=samples)
    result = run_experiment(X, cfg)
    csv_lines = stats_csv_lines(result)
    if args.out_json:
        _atomic_write(Path(args.out_json), experiment_to_json(result).encode())
    if args.out_csv:
        _atomic_write(Path(args.out_csv), ("\n".join(csv_lines) + "\n").encode())
    print(f"baseline corcondia at rank {cfg.rank}: {result.baseline.value!r}")
    for line in csv_lines:
        print(line)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    scheme = Scheme(args.scheme)
    cfg = _grid_config(args, ratios=(args.ratio,), samples_per_cell={scheme: 1})
    X = read_tensor(args.input, dims=args.dims)
    compressed, model, report = run_sample(X, cfg, scheme, args.ratio, args.index)
    if args.out_prefix:
        prefix = Path(args.out_prefix)
        write_tensor(compressed, prefix.parent / f"{prefix.name}_compressed.tns")
        for name, M in zip("ABC", (model.A, model.B, model.C)):
            buf = io.BytesIO()
            np.savetxt(buf, M, delimiter=",")
            _atomic_write(prefix.parent / f"{prefix.name}_{name}.csv", buf.getvalue())
    print(f"value={report.value!r} fit={model.fit!r} iterations={model.iterations} "
          f"converged={model.converged} factor_rank_deficient={report.factor_rank_deficient}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI on an argument vector and return the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None):
            # The file's flags go first, so the command line's override them.
            rest = argv[argv.index(args.command) + 1 :]
            args = args.parser.parse_args(_config_argv(args.parser, args.config) + rest)
        return args.func(args)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"corcomp: configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, StepError) as exc:
        print(f"corcomp: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
