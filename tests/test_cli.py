import errno

import numpy as np
import pytest

import fastmvg.cli as cli
import fastmvg.experiments as experiments
import fastmvg.horseshoe as horseshoe
from fastmvg import (
    ChainConfig,
    DiagonalScale,
    NotPositiveDefinite,
    RegressionData,
    RngStream,
    StructuredGaussian,
    fast_sample,
    run_chain,
)
from fastmvg.blas import OpenBlas, bundled_openblas
from fastmvg.cli import main


def write(path, text):
    path.write_text(text)
    return str(path)


def rows_of(path):
    return [
        [float(tok) for tok in line.split(",")]
        for line in path.read_text().splitlines()
    ]


@pytest.fixture()
def unit_instance(tmp_path):
    """1x1 instance phi=1, D=1, alpha=1; posterior is N(1/2, 1/2)."""
    phi = write(tmp_path / "phi.csv", "1\n")
    d = write(tmp_path / "d.csv", "1\n")
    alpha = write(tmp_path / "alpha.csv", "1\n")
    return phi, d, alpha


class TestSample:
    def test_deterministic_bytes(self, tmp_path, unit_instance):
        phi, d, alpha = unit_instance
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [phi, d, alpha, "--draws", "50", "--seed", "3"]
        assert main(["sample", *args, "--out", str(out1)]) == 0
        assert main(["sample", *args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().endswith(b"\n")

    def test_unit_instance_mean(self, tmp_path, unit_instance):
        phi, d, alpha = unit_instance
        out = tmp_path / "draws.csv"
        assert main([
            "sample", phi, d, alpha,
            "--draws", "200000", "--seed", "1", "--out", str(out),
        ]) == 0
        col = np.loadtxt(out)
        se = np.sqrt(0.5 / 200_000)
        assert abs(col.mean() - 0.5) < 4 * se
        assert abs(col.var() - 0.5) < 0.02

    def test_round_trip_exact_serialization(self, tmp_path, unit_instance):
        # The .17g tokens parse back to the exact float64 draws.
        phi, d, alpha = unit_instance
        out = tmp_path / "o.csv"
        assert main(["sample", phi, d, alpha, "--draws", "5", "--seed", "8",
                     "--out", str(out)]) == 0
        g = StructuredGaussian(np.ones((1, 1)), DiagonalScale(np.ones(1)), np.ones(1))
        rng = RngStream(8, 0)
        expected = [fast_sample(g, rng).theta[0] for _ in range(5)]
        got = [float(line) for line in out.read_text().splitlines()]
        assert got == expected

    def test_fast_and_baseline_agree_in_distribution(self, tmp_path):
        phi = write(tmp_path / "phi.csv", "1,0\n0,1\n")
        d = write(tmp_path / "d.csv", "1,1\n")
        alpha = write(tmp_path / "alpha.csv", "2\n0\n")
        means = {}
        for method in ("fast", "baseline"):
            out = tmp_path / f"{method}.csv"
            assert main([
                "sample", phi, d, alpha,
                "--draws", "40000", "--seed", "5", "--method", method,
                "--out", str(out),
            ]) == 0
            means[method] = np.loadtxt(out, delimiter=",").mean(axis=0)
        se = np.sqrt(2 * 0.5 / 40000)
        assert np.all(np.abs(means["fast"] - means["baseline"]) < 4 * se)

    def test_dense_d_matrix_accepted(self, tmp_path):
        phi = write(tmp_path / "phi.csv", "1,0\n0,1\n")
        d = write(tmp_path / "d.csv", "2,0.5\n0.5,1\n")
        alpha = write(tmp_path / "alpha.csv", "1\n1\n")
        out = tmp_path / "out.csv"
        assert main(["sample", phi, d, alpha, "--draws", "3",
                     "--seed", "0", "--out", str(out)]) == 0
        assert len(rows_of(out)) == 3

    def test_unwritable_out_fails_before_draws(self, tmp_path, unit_instance,
                                               monkeypatch, capsys):
        def no_draws(g, rng):
            raise AssertionError("fast_sample called before the output was checked")

        monkeypatch.setattr(cli, "fast_sample", no_draws)
        out = tmp_path / "missing" / "draws.csv"
        assert main(["sample", *unit_instance, "--draws", "5", "--out", str(out)]) == 2
        assert f"{out}: cannot write" in capsys.readouterr().err

    def test_streamed_rows_equal_joined_text(self, tmp_path):
        gen = np.random.default_rng(21)
        phi, alpha = gen.standard_normal((2, 3)), gen.standard_normal(2)
        d = np.array([0.5, 1.0, 2.0])
        paths = [write(tmp_path / f"{name}.csv",
                       "\n".join(cli._format_row(r) for r in rows) + "\n")
                 for name, rows in (("phi", phi), ("d", [d]), ("alpha", alpha[:, None]))]
        out = tmp_path / "draws.csv"
        assert main(["sample", *paths, "--draws", "5", "--seed", "8", "--out", str(out)]) == 0
        g = StructuredGaussian(phi, DiagonalScale(d), alpha)
        rng = RngStream(8, stream_id=0)
        rows = [fast_sample(g, rng).theta for _ in range(5)]
        assert out.read_text() == "\n".join(cli._format_row(r) for r in rows) + "\n"

    def test_write_error_mid_file_exit_2(self, tmp_path, unit_instance, monkeypatch, capsys):
        class FailingHandle:
            """A file whose second write fails, as on a full disk; reads pass through."""

            def __init__(self, handle):
                self.handle, self.writes = handle, 0

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.handle.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

        monkeypatch.setattr(cli, "open", lambda *a, **k: FailingHandle(open(*a, **k)),
                            raising=False)
        out = tmp_path / "draws.csv"
        assert main(["sample", *unit_instance, "--draws", "5", "--out", str(out)]) == 2
        assert f"{out}: cannot write: No space left on device" in capsys.readouterr().err

    def test_ragged_rows_exit_2(self, tmp_path, capsys):
        phi = write(tmp_path / "phi.csv", "1,2\n3\n")
        d = write(tmp_path / "d.csv", "1,1\n")
        alpha = write(tmp_path / "alpha.csv", "1\n1\n")
        code = main(["sample", phi, d, alpha, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "phi.csv" in err and "row 2" in err

    def test_invalid_number_exit_2(self, tmp_path, capsys):
        phi = write(tmp_path / "phi.csv", "1,x\n")
        d = write(tmp_path / "d.csv", "1,1\n")
        alpha = write(tmp_path / "alpha.csv", "1\n")
        code = main(["sample", phi, d, alpha, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("phi.csv", "1,2\n3,nan\n", "row 2: non-finite value"),
        ("phi.csv", "1,2\ninf,3\n", "row 2: non-finite value"),
        ("phi.csv", "", "empty input"),
        ("phi.csv", " \n\n  \n", "empty input"),
        ("alpha.csv", "1,2\n", "row 1: expected a single value per row"),
        ("d.csv", "1,0,0\n0,1,0\n0,0,1\n",
         "row 1: expected 1 row (diagonal) or 2 rows (dense), found shape 3x3"),
        ("alpha.csv", "1\n2\n", "row 1: expected 1 rows to match phi, found 2"),
    ])
    def test_unusable_input_exit_2(self, tmp_path, capsys, name, text, message):
        files = {"phi.csv": "1,2\n", "d.csv": "1,1\n", "alpha.csv": "1\n", name: text}
        paths = [write(tmp_path / f, files[f]) for f in ("phi.csv", "d.csv", "alpha.csv")]
        code = main(["sample", *paths, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"{tmp_path / name}: {message}" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        d = write(tmp_path / "d.csv", "1\n")
        alpha = write(tmp_path / "alpha.csv", "1\n")
        code = main(["sample", str(tmp_path / "nope.csv"), d, alpha,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_not_positive_definite_exit_3(self, tmp_path):
        phi = write(tmp_path / "phi.csv", "1,0\n0,1\n")
        d = write(tmp_path / "d.csv", "1,2\n2,1\n")  # indefinite dense D
        alpha = write(tmp_path / "alpha.csv", "1\n1\n")
        code = main(["sample", phi, d, alpha, "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_asymmetric_dense_d_exit_2(self, tmp_path, capsys):
        phi = write(tmp_path / "phi.csv", "1,0\n0,1\n")
        d = write(tmp_path / "d.csv", "1,0.5\n0,1\n")
        alpha = write(tmp_path / "alpha.csv", "1\n1\n")
        code = main(["sample", phi, d, alpha, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "d.csv" in capsys.readouterr().err

    def test_zero_diagonal_d_exit_2(self, tmp_path, capsys):
        phi = write(tmp_path / "phi.csv", "1,0\n0,1\n")
        d = write(tmp_path / "d.csv", "1,0\n")  # one row: diagonal D with a zero
        alpha = write(tmp_path / "alpha.csv", "1\n1\n")
        code = main(["sample", phi, d, alpha, "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "d.csv" in capsys.readouterr().err

    def test_non_ascii_input_exit_2(self, tmp_path, unit_instance, capsys):
        _, d, alpha = unit_instance
        (tmp_path / "phi.csv").write_bytes(b"1\xe9\n")
        code = main(["sample", str(tmp_path / "phi.csv"), d, alpha,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "phi.csv" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, unit_instance, capsys):
        phi, d, alpha = unit_instance
        out = tmp_path / "missing" / "o.csv"
        assert main(["sample", phi, d, alpha, "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_overflowing_phi_exit_3(self, tmp_path, capsys):
        # Finite entries whose Phi D Phi' overflows: the factorization fails.
        phi = write(tmp_path / "phi.csv", "1e200,1e200\n")
        d = write(tmp_path / "d.csv", "1,1\n")
        alpha = write(tmp_path / "alpha.csv", "1\n")
        code = main(["sample", phi, d, alpha, "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "factorization failed" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["100000000000000", "100000000000000000000"])
    def test_draws_beyond_memory_exit_2(self, tmp_path, unit_instance, capsys, draws):
        # The draws buffer cannot be allocated, or exceeds numpy's largest
        # array: an input error that names the option, before any draw.
        out = tmp_path / "o.csv"
        assert main(["sample", *unit_instance, "--draws", draws, "--out", str(out)]) == 2
        assert f"--draws {draws}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_draws_exit_2(self, tmp_path, unit_instance):
        phi, d, alpha = unit_instance
        code = main(["sample", phi, d, alpha, "--draws", "0",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestFit:
    def test_null_response_shrinks(self, tmp_path):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((40, 60))
        xp = write(tmp_path / "x.csv",
                   "\n".join(",".join(f"{v:.17g}" for v in row) for row in x) + "\n")
        yp = write(tmp_path / "y.csv", "\n".join(["0"] * 40) + "\n")
        prefix = tmp_path / "fit"
        assert main(["fit", xp, yp, "--iters", "1200", "--burnin", "400",
                     "--seed", "2", "--out", str(prefix)]) == 0
        table = np.loadtxt(f"{prefix}_summary.csv", delimiter=",", skiprows=1)
        mean, lower, upper = table[:, 1], table[:, 3], table[:, 4]
        assert np.all(np.abs(mean) < 0.1)
        assert np.all(lower <= 0.0) and np.all(upper >= 0.0)

    def test_summary_bytes_reproducible(self, tmp_path):
        xp = write(tmp_path / "x.csv", "1\n0.5\n-0.5\n")
        yp = write(tmp_path / "y.csv", "1\n0.4\n-0.6\n")
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["fit", xp, yp, "--iters", "300", "--burnin", "100", "--seed", "4"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert (tmp_path / "a_summary.csv").read_bytes() == \
               (tmp_path / "b_summary.csv").read_bytes()

    def test_scalar_dataset_posterior_mean(self, tmp_path):
        xp = write(tmp_path / "x.csv", "1\n1\n1\n")
        yp = write(tmp_path / "y.csv", "1\n1\n1\n")
        prefix = tmp_path / "fit"
        assert main(["fit", xp, yp, "--iters", "6000", "--burnin", "1000",
                     "--seed", "11", "--out", str(prefix)]) == 0
        with open(f"{prefix}_summary.csv") as handle:
            header = handle.readline().strip()
        assert header == "index,mean,median,lower95,upper95"
        row = np.loadtxt(f"{prefix}_summary.csv", delimiter=",", skiprows=1)
        assert 0.5 < row[1] < 1.2

    def test_fixed_sigma_flag(self, tmp_path):
        xp = write(tmp_path / "x.csv", "1\n0.5\n-0.5\n")
        yp = write(tmp_path / "y.csv", "1\n0.4\n-0.6\n")
        prefix = tmp_path / "fit"
        assert main(["fit", xp, yp, "--iters", "200", "--burnin", "50",
                     "--seed", "4", "--fixed-sigma", "2.25",
                     "--out", str(prefix)]) == 0
        assert (tmp_path / "fit_summary.csv").exists()

    def test_save_draws_row_count(self, tmp_path):
        xp = write(tmp_path / "x.csv", "1\n0.5\n-0.5\n")
        yp = write(tmp_path / "y.csv", "1\n0.4\n-0.6\n")
        prefix = tmp_path / "fit"
        assert main(["fit", xp, yp, "--iters", "120", "--burnin", "20",
                     "--thin", "2", "--seed", "4", "--save-draws",
                     "--out", str(prefix)]) == 0
        draws = (tmp_path / "fit_draws.csv").read_text().splitlines()
        assert len(draws) == (120 - 20) // 2

    def test_streamed_files_equal_joined_text(self, tmp_path):
        gen = np.random.default_rng(22)
        x, y = gen.standard_normal((6, 4)), gen.standard_normal(6)
        xp = write(tmp_path / "x.csv", "\n".join(cli._format_row(r) for r in x) + "\n")
        yp = write(tmp_path / "y.csv", "\n".join(cli._format_row([v]) for v in y) + "\n")
        prefix = tmp_path / "fit"
        assert main(["fit", xp, yp, "--iters", "130", "--burnin", "30", "--thin", "3",
                     "--seed", "5", "--save-draws", "--out", str(prefix)]) == 0
        draws = run_chain(RegressionData(x, y),
                          ChainConfig(n_iter=130, burn_in=30, thin=3, seed=5)).draws
        assert (tmp_path / "fit_draws.csv").read_text() == \
            "\n".join(cli._format_row(r) for r in draws) + "\n"
        table = [f"{j},{cli._format_row(r)}" for j, r in enumerate(zip(
            draws.mean(axis=0), np.median(draws, axis=0),
            np.quantile(draws, 0.025, axis=0), np.quantile(draws, 0.975, axis=0)))]
        assert (tmp_path / "fit_summary.csv").read_text() == \
            "\n".join(["index,mean,median,lower95,upper95", *table]) + "\n"

    def test_mismatched_y_exit_2(self, tmp_path, capsys):
        xp = write(tmp_path / "x.csv", "1\n1\n1\n")
        yp = write(tmp_path / "y.csv", "1\n1\n")
        assert main(["fit", xp, yp, "--out", str(tmp_path / "f")]) == 2
        assert "y.csv" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path):
        xp = write(tmp_path / "x.csv", "1\n1\n1\n")
        yp = write(tmp_path / "y.csv", "1\n1\n1\n")
        assert main(["fit", xp, yp, "--iters", "100", "--burnin", "100",
                     "--out", str(tmp_path / "f")]) == 2
        assert main(["fit", xp, yp, "--fixed-sigma", "inf",
                     "--out", str(tmp_path / "f")]) == 2

    def test_non_ascii_input_exit_2(self, tmp_path, capsys):
        xp = write(tmp_path / "x.csv", "1\n1\n1\n")
        (tmp_path / "y.csv").write_bytes(b"1\n1\n\xff\n")
        assert main(["fit", xp, str(tmp_path / "y.csv"),
                     "--out", str(tmp_path / "f")]) == 2
        assert "y.csv" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        xp = write(tmp_path / "x.csv", "1\n0.5\n-0.5\n")
        yp = write(tmp_path / "y.csv", "1\n0.4\n-0.6\n")
        prefix = tmp_path / "missing" / "fit"
        assert main(["fit", xp, yp, "--iters", "20", "--burnin", "5",
                     "--out", str(prefix)]) == 2
        assert f"{prefix}_summary.csv" in capsys.readouterr().err


    def test_unwritable_out_fails_before_chain(self, tmp_path, monkeypatch, capsys):
        def no_chain(data, cfg):
            raise AssertionError("run_chain called before the output was checked")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        xp = write(tmp_path / "x.csv", "1\n0.5\n-0.5\n")
        yp = write(tmp_path / "y.csv", "1\n0.4\n-0.6\n")
        prefix = tmp_path / "missing" / "fit"
        assert main(["fit", xp, yp, "--out", str(prefix)]) == 2
        assert f"{prefix}_summary.csv: cannot write" in capsys.readouterr().err

    def test_chain_error_names_iteration_and_block_exit_4(self, tmp_path, monkeypatch, capsys):
        def failing(*args):
            raise NotPositiveDefinite("forced")

        monkeypatch.setattr(horseshoe, "update_tau", failing)
        xp = write(tmp_path / "x.csv", "1\n0.5\n-0.5\n")
        yp = write(tmp_path / "y.csv", "1\n0.4\n-0.6\n")
        assert main(["fit", xp, yp, "--iters", "20", "--burnin", "5",
                     "--out", str(tmp_path / "fit")]) == 4
        assert "chain failed: iteration 1, block tau: forced" in capsys.readouterr().err


class TestSimulate:
    ARGS = ["simulate", "--n", "30", "--p", "20", "--reps", "2",
            "--iters", "200", "--burnin", "50", "--seed", "6"]

    def test_deterministic_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*self.ARGS, "--out", str(a)]) == 0
        assert main([*self.ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_well_formed(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main([*self.ARGS, "--signal", "weak", "--cov", "cs",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("row,replicate,")
        assert len({len(line.split(",")) for line in lines}) == 1
        assert sum(1 for line in lines if line.startswith("replicate,")) == 2
        assert any(line.startswith("aggregate_mean,") for line in lines)

    def test_strong_signal_coverage(self, tmp_path):
        # End-to-end statistical check: strong signals at a reduced desk
        # scale must still reach the pooled coverage floor.
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "60", "--p", "150", "--reps", "3",
                     "--iters", "800", "--burnin", "200", "--seed", "31",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        agg = next(line for line in lines if line.startswith("aggregate_mean,"))
        value = float(agg.split(",")[header.index("signal_coverage")])
        assert value >= 0.80

    def test_invalid_options_exit_2(self, tmp_path):
        assert main(["simulate", "--n", "30", "--p", "20", "--sparsity", "30",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["simulate", "--cov", "weird",
                     "--out", str(tmp_path / "x.csv")]) == 2
        for sigma in ("inf", "1e200"):  # 1e200 has no finite sigma^2
            assert main([*self.ARGS, "--sigma", sigma, "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_out_fails_before_replicates(self, tmp_path, monkeypatch, capsys):
        def no_replicates(design, cfg):
            raise AssertionError("run_replicates called before the output was checked")

        monkeypatch.setattr(cli, "run_replicates", no_replicates)
        out = tmp_path / "missing" / "sim.csv"
        assert main([*self.ARGS, "--out", str(out)]) == 2
        assert f"{out}: cannot write" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_failed_replicate_is_reported(self, tmp_path, monkeypatch, capsys):
        fit = experiments._fit_replicate

        def failing(design, cfg, index):
            if index == 1:
                raise RuntimeError("forced")
            return fit(design, cfg, index)

        monkeypatch.setattr(experiments, "_fit_replicate", failing)
        out = tmp_path / "sim.csv"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == "warning: replicate 1 failed: RuntimeError: forced\n"
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert ["replicate", "0"] in rows and ["failure", "1"] in rows


class TestBench:
    def test_single_point_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-grid", "10", "--p-grid", "60",
                     "--reps", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,n,p,median_seconds"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"fast", "baseline"}
        assert len(lines) == 3

    def test_slope_footer_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-grid", "10", "--p-grid", "40,80",
                     "--reps", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert any(line.startswith("fast-slope,10,,") for line in lines)
        assert any(line.startswith("baseline-slope,10,,") for line in lines)

    def test_unverified_blas_pin_exit_5(self, tmp_path, monkeypatch, capsys):
        libs = bundled_openblas()
        before = [lib.get_threads() for lib in libs]
        # A getter that never reads back 1: bench must refuse and write nothing.
        monkeypatch.setattr(OpenBlas, "get_threads", lambda self: 2)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n-grid", "10", "--p-grid", "40",
                     "--reps", "5", "--out", str(out)])
        monkeypatch.undo()
        for lib, n in zip(libs, before):
            lib.set_threads(n)
        assert code == 5
        assert not out.exists()
        assert "refusing to time" in capsys.readouterr().err

    def test_unwritable_out_fails_before_timing(self, tmp_path, monkeypatch, capsys):
        def no_bench(*args, **kwargs):
            raise AssertionError("run_bench called before the output was checked")

        monkeypatch.setattr(cli, "run_bench", no_bench)
        out = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--n-grid", "10", "--p-grid", "40",
                     "--out", str(out)]) == 2
        assert f"{out}: cannot write" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_invalid_grid_exit_2(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        for n_grid, p_grid in (("abc", "50"), ("10", "0"), ("10,10", "20,40"),
                               ("10", "40,40"), (",", "40")):
            assert main(["bench", "--n-grid", n_grid, "--p-grid", p_grid,
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()


# Per subcommand: the function that does its work, a command line whose
# --out comes last, and the path that --out names.
WORK_BEFORE_OUT = {
    "sample": ("fast_sample", ["sample", "phi.csv", "d.csv", "alpha.csv", "--out", "out.csv"],
               "out.csv"),
    "fit": ("run_chain", ["fit", "x.csv", "y.csv", "--save-draws", "--out", "fit"],
            "fit_draws.csv"),
    "simulate": ("run_replicates", ["simulate", "--n", "30", "--p", "20", "--out", "out.csv"],
                 "out.csv"),
    "bench": ("run_bench", ["bench", "--n-grid", "10", "--p-grid", "40", "--out", "out.csv"],
              "out.csv"),
}


def forbid_work(monkeypatch, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} called before the output was checked")

    monkeypatch.setattr(cli, work, no_work)


@pytest.mark.parametrize("work, argv, directory", WORK_BEFORE_OUT.values(),
                         ids=WORK_BEFORE_OUT.keys())
def test_directory_out_fails_before_work(work, argv, directory, tmp_path, unit_instance,
                                         monkeypatch, capsys):
    # An output path that is an existing directory exits 2 before any
    # work; for fit --save-draws it is the draws file that is a directory.
    write(tmp_path / "x.csv", "1\n0.5\n-0.5\n")
    write(tmp_path / "y.csv", "1\n0.4\n-0.6\n")
    (tmp_path / directory).mkdir()
    monkeypatch.chdir(tmp_path)
    forbid_work(monkeypatch, work)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {directory}: cannot write: is a directory\n"


@pytest.mark.parametrize("command", ["sample", "simulate", "bench"])
def test_empty_out_fails_before_work(command, tmp_path, unit_instance, monkeypatch, capsys):
    # An empty --out names no file, so it exits 2 before any work.  (For
    # fit it is a valid prefix: the summary goes to "_summary.csv".)
    work, argv, _ = WORK_BEFORE_OUT[command]
    monkeypatch.chdir(tmp_path)
    forbid_work(monkeypatch, work)
    assert main([*argv[:-1], ""]) == 2
    assert capsys.readouterr().err == "error: --out: cannot write: empty path\n"
