"""Run one workload of the fastmvg benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain_wide --seed 1 --seconds 30 --trace 0

It pins both bundled OpenBLAS builds to one thread and verifies the pin,
sets the workload up, runs its operations in a closed loop for
``--seconds`` seconds, checks every output, and prints three JSON lines:
the environment, the workload's own report, and last the result, whose
metrics are the end-to-end metrics of BENCHMARK.json (``--trace 0``) or
its per-layer metrics (``--trace 1``).  The metric names and units come
from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

_T_START = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_REPS = 3
HARD_CAP_S = 120.0  # no operation starts after this, so a run ends well within 180 s
TRACE_SPAN_LIMIT = 20000
TRACE_DIR = ROOT / ".perfbench"


def _import_program():
    """Import fastmvg from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fastmvg
    if Path(fastmvg.__file__).resolve().parent.parent != src:
        raise ImportError(f"fastmvg imported from {fastmvg.__file__}, not from {src}")


def _fail(msg: str, code: int) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _reference_pass(wl) -> tuple[int, int]:
    """The workload's untimed reference pass, if it has one: (attempted, failed)."""
    if not hasattr(wl, "reference_pass"):
        return 0, 0
    try:
        err = wl.reference_pass()
    except Exception:  # noqa: BLE001 - counted like any failed operation
        traceback.print_exc(file=sys.stderr)
        return 1, 1
    if err is not None:
        print(f"perfbench: {wl.name} reference pass: {err}", file=sys.stderr)
        return 1, 1
    return 1, 0


def _loop(wl, seconds: float, min_ops: int, max_ops: int | None, tracer=None):
    """Closed loop: wall times of the passing operations, attempted, failed."""
    op = wl.op if tracer is None else tracer.wrap("benchmark.op", wl.op)
    walls = []
    attempted = failed = 0
    t0 = perf_counter()
    while max_ops is None or attempted < max_ops:
        elapsed = perf_counter() - t0
        if max_ops is None and elapsed >= seconds and attempted >= min_ops:
            break
        if elapsed >= HARD_CAP_S:
            break
        attempted += 1
        inp = wl.next_input()
        try:
            if tracer is not None:
                tracer.active = True
            start = perf_counter()
            out = op(inp)
            wall = perf_counter() - start
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        err = wl.check(inp, out)
        if err is not None:
            failed += 1
            print(f"perfbench: {wl.name} operation {attempted}: {err}", file=sys.stderr)
            continue
        walls.append(wall)
    return walls, attempted, failed


def _per_layer(wl, tracer, stats, untraced_s: float, traced_s: float, ops: int) -> dict:
    """Per-layer metrics per unit of work: a Gibbs iteration or a request."""
    from workloads import fast_sample_flops

    units = ops * wl.units_per_op

    def self_ms(name):
        return 1e3 * stats[name]["self_s"] / units if name in stats else 0.0

    def calls(name):
        return stats[name]["calls"] / units if name in stats else 0.0

    iterations = units if wl.unit == "iteration" else 0
    requests = units if wl.unit == "request" else 0
    fs = stats.get("structured.fast_sample")
    gflops = (fast_sample_flops(wl.n, wl.p) * fs["calls"] / fs["total_s"] / 1e9) if fs else 0.0
    m = {
        "horseshoe.update_beta.self_ms": self_ms("horseshoe.update_beta"),
        "horseshoe.update_lambda.ms": self_ms("horseshoe.update_lambda"),
        "horseshoe.update_tau.ms": self_ms("horseshoe.update_tau"),
        "horseshoe.update_sigma2.ms": self_ms("horseshoe.update_sigma2"),
        "horseshoe.glue.ms": self_ms("horseshoe.run_chain"),
        "horseshoe.ess_tau_per_kiter": 0.0,
        "horseshoe.ess_sigma2_per_kiter": 0.0,
        "horseshoe.ess_beta_min_per_kiter": 0.0,
        "structured.StructuredGaussian.ms": self_ms("structured.StructuredGaussian"),
        "structured.DiagonalScale.ms": self_ms("structured.DiagonalScale"),
        "structured.fast_sample.self_ms": self_ms("structured.fast_sample"),
        "structured.fast_sample.calls": calls("structured.fast_sample"),
        "structured.posterior_mean.ms": self_ms("structured.posterior_mean"),
        "structured.log_density.ms": self_ms("structured.log_density"),
        "structured.DiagonalScale.phi_times_scale.ms":
            self_ms("structured.DiagonalScale.phi_times_scale"),
        "structured.DiagonalScale.sample_zero_mean.ms":
            self_ms("structured.DiagonalScale.sample_zero_mean"),
        "structured.fast_sample.gflop_per_s_computed": gflops,
        "linalg.cholesky.ms": self_ms("linalg.cholesky"),
        "linalg.cholesky.calls": calls("linalg.cholesky"),
        "linalg.solve_spd.ms": self_ms("linalg.solve_spd"),
        "linalg.factorizations_per_request":
            stats["linalg.cholesky"]["calls"] / requests if requests else 0.0,
        "rng.standard_normal.ms": self_ms("rng.standard_normal"),
        "rng.uniform.ms": self_ms("rng.uniform"),
        "rng.gamma.ms": self_ms("rng.gamma"),
        "rng.normals_per_iter":
            tracer.counts["rng.standard_normal"] / iterations if iterations else 0.0,
        "experiments.compute_metrics.ms": self_ms("experiments.compute_metrics"),
        "trace.overhead_ms": 1e3 * (traced_s - untraced_s) / units,
    }
    m.update(wl.per_layer_extra())
    return m


def _check_self_times(stats, traced_s: float, untraced_s: float) -> str | None:
    """Self times are non-negative and sum to the traced wall time."""
    total_self = sum(s["self_s"] for s in stats.values())
    worst = min(s["self_s"] for s in stats.values())
    overhead = abs(traced_s - untraced_s)
    if worst < -1e-6:
        return f"negative self time {worst:.3e} s"
    if abs(total_self - traced_s) > max(overhead, 1e-3 * traced_s):
        return (f"self times sum to {total_self:.4f} s, traced wall is {traced_s:.4f} s, "
                f"overhead {overhead:.4f} s")
    return None


def _result_metrics(section: str, values: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"no value for {section} metrics {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        _fail(f"cannot import fastmvg from this checkout: {exc}", 2)
    import_s = perf_counter() - _T_START

    from pinning import BlasPinError, bundled_openblas, environment, pin_threads
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", 2)
    try:
        blas = pin_threads(bundled_openblas(), BLAS_THREADS)
    except (BlasPinError, OSError, AttributeError) as exc:
        _fail(f"refusing to report: BLAS pin not verified: {exc}", 3)
    print(json.dumps({"environment": environment(ROOT, blas)}))

    wl = WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl.setup(args.seed)
        setups.append(perf_counter() - t0)
    setup_s = import_s + sorted(setups)[len(setups) // 2]

    correct = True
    if args.trace == 0:
        walls, attempted, failed = _loop(wl, args.seconds, wl.min_ops, None)
        ref_attempted, ref_failed = _reference_pass(wl)
        attempted += ref_attempted
        failed += ref_failed
        if not walls or ref_failed:
            _fail(f"{failed} of {attempted} operations failed; no metrics to report", 1)
        metrics, report = wl.end_to_end(walls)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["failed_frac"] = [failed / attempted, "1"]
        result = _result_metrics("end_to_end", metrics)
    else:
        from tracing import Tracer, instrumented

        walls, attempted, failed = _loop(wl, args.seconds / 2, 1, None)
        ops = len(walls)
        untraced_s = sum(walls)
        tracer = Tracer()
        with instrumented(tracer):
            twalls, tattempted, tfailed = _loop(wl, 0.0, 0, ops, tracer)
        attempted += tattempted
        failed += tfailed
        if not twalls or len(twalls) != ops:
            _fail(f"traced pass completed {len(twalls)} of {ops} operations", 1)
        traced_s = sum(twalls)
        ref_attempted, ref_failed = _reference_pass(wl)
        attempted += ref_attempted
        failed += ref_failed
        if ref_failed:
            _fail("the reference pass failed; no metrics to report", 1)
        stats = tracer.summary()
        err = _check_self_times(stats, traced_s, untraced_s)
        if err is not None:
            correct = False
            print(f"perfbench: trace accounting: {err}", file=sys.stderr)
        tracer.write(TRACE_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl", TRACE_SPAN_LIMIT)
        layers = _per_layer(wl, tracer, stats, untraced_s, traced_s, ops)
        report = {"traced_s": [traced_s, "s"], "untraced_s": [untraced_s, "s"],
                  "spans": [len(tracer.spans), "count"], "failed_frac": [failed / attempted, "1"]}
        result = _result_metrics("per_layer", layers)
    print(json.dumps({"workload": wl.name, "report": report}))
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
