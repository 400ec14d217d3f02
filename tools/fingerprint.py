"""Print one ``name sha256`` line per program output.

Run from any directory, with no options:

    python tools/fingerprint.py

It imports ``fastmvg`` from this checkout's ``src`` and the benchmark's
workloads from ``perfbench/workloads.py`` (read, never changed), and runs
everything with numpy's and scipy's OpenBLAS pinned to one thread
(``fastmvg.blas.pinned_blas``).  Two checkouts whose outputs have the
same bits therefore print the same lines on one machine; ``diff`` the
two listings to see which outputs a change moved.  The outputs are:

- the reference fit of each perfbench chain workload (``setup(1)`` then
  ``reference_pass()``): kept draws, scale draws, interval summaries and
  the tau acceptance rate;
- one ``sample_request`` operation at seed 1: posterior mean, draws and
  log densities;
- the files written by ``fastmvg fit --save-draws``, ``fastmvg sample``
  and ``fastmvg simulate`` on small fixed inputs, in a temporary
  directory.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from fastmvg.blas import pinned_blas  # noqa: E402
from fastmvg.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(*arrays) -> str:
    """sha256 over each array's shape and float64 bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def chain_outputs(name: str):
    w = WORKLOADS[name]()
    w.setup(1)
    err = w.reference_pass()
    if err is not None:
        raise SystemExit(f"{name}: reference fit failed its check: {err}")
    r = w.ess_result
    s = r.summaries
    yield f"{name}.draws", digest(r.draws)
    yield f"{name}.scale_draws", digest(r.scale_draws)
    yield f"{name}.summaries", digest(s.mean, s.median, s.lower, s.upper)
    yield f"{name}.tau_acceptance", digest(r.tau_acceptance)


def request_outputs():
    w = WORKLOADS["sample_request"]()
    w.setup(1)
    _, mu, thetas, logs = w.op(w.next_input())
    yield "sample_request.posterior_mean", digest(mu)
    yield "sample_request.draws", digest(*thetas)
    yield "sample_request.log_density", digest(logs)


def _write_csv(path: Path, rows) -> str:
    np.savetxt(path, np.atleast_2d(rows), fmt="%.17g", delimiter=",")
    return str(path)


def cli_outputs():
    gen = np.random.default_rng(2015)
    x = gen.standard_normal((30, 12))
    y = x[:, :3] @ np.array([2.0, -1.5, 1.0]) + gen.standard_normal(30)
    phi = gen.standard_normal((6, 15))
    d = np.exp(gen.standard_normal(15))
    alpha = gen.standard_normal(6)
    with tempfile.TemporaryDirectory() as tmp:
        t = Path(tmp)
        commands = {
            "fit": ["fit", _write_csv(t / "x.csv", x), _write_csv(t / "y.csv", y[:, None]),
                    "--iters", "400", "--burnin", "100", "--seed", "3", "--save-draws",
                    "--out", str(t / "fit")],
            "sample": ["sample", _write_csv(t / "phi.csv", phi), _write_csv(t / "d.csv", d),
                       _write_csv(t / "alpha.csv", alpha[:, None]), "--draws", "8",
                       "--seed", "5", "--out", str(t / "sample.csv")],
            "simulate": ["simulate", "--n", "30", "--p", "20", "--reps", "2", "--iters", "200",
                         "--burnin", "50", "--seed", "6", "--out", str(t / "simulate.csv")],
        }
        for command, argv in commands.items():
            code = cli_main(argv)
            if code != 0:
                raise SystemExit(f"fastmvg {command} exited {code}")
        for name in ("fit_summary.csv", "fit_draws.csv", "sample.csv", "simulate.csv"):
            yield f"cli.{name}", hashlib.sha256((t / name).read_bytes()).hexdigest()


def main() -> None:
    with pinned_blas():
        for source in (chain_outputs("chain_wide"), chain_outputs("chain_narrow"),
                       request_outputs(), cli_outputs()):
            for name, sha in source:
                print(name, sha, flush=True)


if __name__ == "__main__":
    main()
