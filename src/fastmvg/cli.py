"""Command-line front end.

Subcommands: ``sample`` (structured-Gaussian draws), ``fit`` (horseshoe
regression), ``simulate`` (replicated coverage study), ``bench``
(fast vs baseline timing).  Matrix and vector inputs are headerless
CSV, one row per observation; vector files carry one value per row,
except a diagonal scale matrix which is a single row of p variances.
Outputs are CSV with 17-significant-digit (round-trip exact) numbers
and a trailing newline.

Exit codes: 0 success, 2 malformed input or invalid options,
3 numerical failure (factorization), 4 chain failure, 5 ``bench``
could not verify its BLAS thread pin.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable

import numpy as np

from .errors import BlasPinError, ConfigError, NotPositiveDefinite
from .experiments import (
    SIGNAL_SETS,
    SimDesign,
    render_bench_csv,
    render_replicates_csv,
    run_bench,
    run_replicates,
)
from .horseshoe import ChainConfig, RegressionData, run_chain
from .rng import RngStream
from .structured import (
    DenseSpdScale,
    DiagonalScale,
    StructuredGaussian,
    baseline_sample,
    fast_sample,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHAIN = 4
EXIT_BLAS_PIN = 5

_COV_ALIASES = {"ind": "independent", "cs": "compound", "toep": "toeplitz"}


class CliInputError(Exception):
    """Malformed input file or inconsistent options; exits with code 2."""


def _read_rows(path: str) -> np.ndarray:
    """Parse a headerless CSV into a 2-D float array.

    Every row must have the same number of fields; violations are
    reported with the file name and 1-based row number.
    """
    rows: list[list[float]] = []
    line_nos: list[int] = []
    width = None
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliInputError(f"{path}: cannot open: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise CliInputError(f"{path}: not ASCII text") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise CliInputError(
                f"{path}: row {lineno}: expected {width} fields, found {len(fields)}"
            )
        try:
            rows.append([float(tok) for tok in fields])
        except ValueError:
            raise CliInputError(f"{path}: row {lineno}: invalid number") from None
        line_nos.append(lineno)
    if not rows:
        raise CliInputError(f"{path}: empty input")
    out = np.array(rows, dtype=float)
    if not np.all(np.isfinite(out)):
        bad = line_nos[int(np.where(~np.isfinite(out).all(axis=1))[0][0])]
        raise CliInputError(f"{path}: row {bad}: non-finite value")
    return out


def _read_vector(path: str) -> np.ndarray:
    arr = _read_rows(path)
    if arr.shape[1] != 1:
        raise CliInputError(f"{path}: row 1: expected a single value per row")
    return arr[:, 0]


def _format_row(values) -> str:
    return ",".join(format(float(v), ".17g") for v in values)


def _check_writable(path: str) -> None:
    """Fail before the work, not after it, when ``path`` cannot be created."""
    if not path:
        raise CliInputError("--out: cannot write: empty path")
    if os.path.isdir(path):
        raise CliInputError(f"{path}: cannot write: is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise CliInputError(f"{path}: cannot write: no such directory")
    if not os.access(folder, os.W_OK):
        raise CliInputError(f"{path}: cannot write: permission denied")


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one at a time through one handle, so a file of
    many rows is never held as one string."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            for chunk in chunks:
                handle.write(chunk)
    except OSError as exc:
        raise CliInputError(f"{path}: cannot write: {exc.strerror}") from exc


def cmd_sample(args) -> int:
    if args.draws < 1:
        raise CliInputError("--draws must be >= 1")
    phi = _read_rows(args.phi_csv)
    d = _read_rows(args.d_csv)
    alpha = _read_vector(args.alpha_csv)
    n, p = phi.shape
    if d.shape not in ((1, p), (p, p)):
        raise CliInputError(
            f"{args.d_csv}: row 1: expected 1 row (diagonal) or {p} rows (dense), "
            f"found shape {d.shape[0]}x{d.shape[1]}"
        )
    try:
        scale = DiagonalScale(d[0]) if d.shape == (1, p) else DenseSpdScale(d)
    except ValueError as exc:  # non-positive variances, or an asymmetric matrix
        raise CliInputError(f"{args.d_csv}: {exc}") from exc
    if alpha.shape[0] != n:
        raise CliInputError(
            f"{args.alpha_csv}: row 1: expected {n} rows to match phi, found {alpha.shape[0]}"
        )
    _check_writable(args.out)
    g = StructuredGaussian(phi, scale, alpha)
    rng = RngStream(args.seed, stream_id=0)
    draw = (lambda: fast_sample(g, rng).theta) if args.method == "fast" \
        else (lambda: baseline_sample(g, rng))
    # Every draw is made before the file is opened, so a failed draw
    # leaves no partial output.
    try:
        draws = np.empty((args.draws, p))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
        raise CliInputError(f"--draws {args.draws}: the draws do not fit in memory") from exc
    for i in range(args.draws):
        draws[i] = draw()
    _write_text(args.out, (_format_row(row) + "\n" for row in draws))
    return EXIT_OK


def cmd_fit(args) -> int:
    x = _read_rows(args.x_csv)
    y = _read_vector(args.y_csv)
    if y.shape[0] != x.shape[0]:
        raise CliInputError(
            f"{args.y_csv}: row 1: expected {x.shape[0]} rows to match X, found {y.shape[0]}"
        )
    try:
        data = RegressionData(x, y)
        cfg = ChainConfig(
            n_iter=args.iters,
            burn_in=args.burnin,
            thin=args.thin,
            seed=args.seed,
            fixed_sigma=args.fixed_sigma,
        )
    except (ConfigError, ValueError) as exc:
        raise CliInputError(str(exc)) from exc
    _check_writable(f"{args.out}_summary.csv")
    if args.save_draws:
        _check_writable(f"{args.out}_draws.csv")
    result = run_chain(data, cfg)
    s = result.summaries
    columns = zip(s.mean, s.median, s.lower, s.upper)
    _write_text(f"{args.out}_summary.csv", itertools.chain(
        ["index,mean,median,lower95,upper95\n"],
        (f"{j},{_format_row(row)}\n" for j, row in enumerate(columns))))
    if args.save_draws:
        _write_text(f"{args.out}_draws.csv",
                    (_format_row(row) + "\n" for row in result.draws))
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        design = SimDesign(
            n=args.n,
            p=args.p,
            sigma=args.sigma,
            cov_kind=_COV_ALIASES[args.cov],
            signal_set=args.signal,
            sparsity=args.sparsity,
            n_replicates=args.reps,
        )
        cfg = ChainConfig(
            n_iter=args.iters,
            burn_in=args.burnin,
            thin=args.thin,
            seed=args.seed,
            fixed_sigma=None if args.sample_sigma else args.sigma**2,
        )
    except ConfigError as exc:
        raise CliInputError(str(exc)) from exc
    _check_writable(args.out)
    run = run_replicates(design, cfg)
    for i, msg in run.failures:
        print(f"warning: replicate {i} failed: {msg}", file=sys.stderr)
    _write_text(args.out, [render_replicates_csv(run)])
    return EXIT_OK


def _parse_grid(text: str, name: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliInputError(f"{name}: invalid integer grid {text!r}") from None


def cmd_bench(args) -> int:
    n_grid = _parse_grid(args.n_grid, "--n-grid")
    p_grid = _parse_grid(args.p_grid, "--p-grid")
    _check_writable(args.out)
    try:
        result = run_bench(n_grid, p_grid, repetitions=args.reps, seed=args.seed)
    except ConfigError as exc:
        raise CliInputError(str(exc)) from exc
    except BlasPinError as exc:
        print(f"error: refusing to time: {exc}", file=sys.stderr)
        return EXIT_BLAS_PIN
    _write_text(args.out, [render_bench_csv(result)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastmvg",
        description="Structured Gaussian sampling and horseshoe regression tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw from N(mu, Sigma) defined by (phi, D, alpha)")
    p_sample.add_argument("phi_csv", help="n x p coupling matrix, headerless CSV")
    p_sample.add_argument("d_csv", help="1 row of p variances (diagonal) or p x p SPD matrix")
    p_sample.add_argument("alpha_csv", help="n-vector, one value per row")
    p_sample.add_argument("--draws", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--method", choices=("fast", "baseline"), default="fast")
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_fit = sub.add_parser("fit", help="horseshoe regression via Gibbs sampling")
    p_fit.add_argument("x_csv", help="n x p design matrix, headerless CSV")
    p_fit.add_argument("y_csv", help="n-vector response, one value per row")
    p_fit.add_argument("--iters", type=int, default=6000)
    p_fit.add_argument("--burnin", type=int, default=1000)
    p_fit.add_argument("--thin", type=int, default=1)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--fixed-sigma", type=float, default=None,
                       help="hold sigma^2 fixed at this value instead of sampling it")
    p_fit.add_argument("--save-draws", action="store_true",
                       help="also write <prefix>_draws.csv with kept beta draws")
    p_fit.add_argument("--out", required=True, metavar="PREFIX")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="replicated coverage/error study")
    p_sim.add_argument("--n", type=int, default=100)
    p_sim.add_argument("--p", type=int, default=500)
    p_sim.add_argument("--cov", choices=tuple(_COV_ALIASES), default="ind")
    p_sim.add_argument("--signal", choices=tuple(SIGNAL_SETS), default="strong")
    p_sim.add_argument("--sigma", type=float, default=1.5)
    p_sim.add_argument("--sparsity", type=int, default=5)
    p_sim.add_argument("--reps", type=int, default=10)
    p_sim.add_argument("--iters", type=int, default=3000)
    p_sim.add_argument("--burnin", type=int, default=1000)
    p_sim.add_argument("--thin", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sample-sigma", action="store_true",
                       help="sample sigma^2 in the chains instead of fixing it "
                            "at the design value")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="time fast vs baseline samplers")
    p_bench.add_argument("--n-grid", default="50")
    p_bench.add_argument("--p-grid", default="250,500,1000,2000")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad options, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - chain-level failures
        if args.command == "fit":
            print(f"error: chain failed: {exc}", file=sys.stderr)
            return EXIT_CHAIN
        if isinstance(exc, NotPositiveDefinite):
            print(f"error: factorization failed: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        raise


def entry() -> None:
    raise SystemExit(main())
