import argparse
import dataclasses
import glob
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from wglab.arith import ProblemContext
from wglab import cli, csvtext
from wglab.cli import build_parser, main, per_n_table
from wglab.config import RunConfig, format_float
from wglab.csvtext import csv_lines
from wglab.experiment import exceptional_scan

GOLDEN = Path(__file__).parent / "golden"
W = ["--x", "10", "--y", "4", "--k", "2", "--s", "2"]

CASES = [
    ("sieve.txt", ["sieve", "--lo", "10", "--hi", "30"]),
    ("admissible.json", ["admissible", "--n", "218", *W]),
    ("gauss_sum.json", ["gauss-sum", "--q", "4", "--a", "1", *W]),
    ("sigma.json", ["sigma", "--n", "218", "--q0", "50", *W]),
    ("jay.json", ["jay", "--n", "218", *W]),
    ("rho.json", ["rho", "--n", "218", *W]),
    ("rho.csv", ["rho", "--n", "218", *W, "--output", "csv"]),
    ("moment.json", ["moment", "--t", "2", *W]),
    ("arcs.json", ["arcs", *W]),
    ("arcs.csv", ["arcs", *W, "--output", "csv"]),
    ("scan_sup.json", ["scan-sup", "--region", "full", "--grid-size", "200", *W]),
    (
        "dichotomy.json",
        ["dichotomy", "--rho", "0.25", "--alpha", "0.5",
         "--x", "1000", "--y", "900", "--k", "2", "--s", "2"],
    ),
    ("exceptional.json", ["exceptional", "--q0", "50", *W]),
    ("exceptional.csv", ["exceptional", "--q0", "50", *W, "--output", "csv"]),
    ("minor_moment.json", ["minor-moment", "--t", "2", "--grid-size", "1000", *W]),
    ("report.json", ["report", "--q0", "50", *W]),
]


@pytest.mark.parametrize("golden,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(golden, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()


class TestOutputRouting:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "primes.txt"
        assert main(["sieve", "--lo", "10", "--hi", "30", "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text() == (GOLDEN / "sieve.txt").read_text()

    def test_rerun_is_byte_identical(self, capsys):
        argv = ["exceptional", "--q0", "50", *W]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestConfigMerge:
    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 10\ntheta = 0.602059991327962\nk = 2\ns = 2\n")
        assert main(["rho", "--n", "218", "--config", str(cfg)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["rho"] == pytest.approx(9.98232197299, rel=1e-11)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nx = 50\n")
        assert main(["admissible", "--n", "218", "--config", str(cfg), *W]) == 0
        assert capsys.readouterr().out == (GOLDEN / "admissible.json").read_text()

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelength = 7\n")
        assert main(["sieve", "--lo", "2", "--hi", "9", "--config", str(cfg)]) == 1
        assert "error[parameter-domain]" in capsys.readouterr().err

    def test_env_cache_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WGLAB_CACHE_DIR", str(tmp_path))
        assert main(["exceptional", "--q0", "20", *W]) == 0
        capsys.readouterr()
        assert glob.glob(str(tmp_path / "scan-*"))

    def test_cache_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        flag_dir.mkdir()
        monkeypatch.setenv("WGLAB_CACHE_DIR", str(env_dir))
        assert main(
            ["exceptional", "--q0", "20", *W, "--cache-dir", str(flag_dir)]
        ) == 0
        capsys.readouterr()
        assert glob.glob(str(flag_dir / "scan-*"))
        assert not glob.glob(str(env_dir / "scan-*"))

    def test_report_over_truncated_cache(self, tmp_path, capsys):
        argv = ["report", "--q0", "50", *W]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        (path,) = tmp_path.glob("scan-*.wgc")
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == cold
        assert path.read_bytes() == raw


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        assert main(["sieve", "--lo", "30", "--hi", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[empty-range]:")

    def test_scale_conflict_is_one(self, capsys):
        assert main(["rho", "--n", "5", "--N", "200", "--x", "10"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_y_without_x_is_one(self, capsys):
        assert main(["rho", "--n", "5", "--N", "800000", "--y", "5"]) == 1
        assert capsys.readouterr().err == "error[parameter-domain]: --y needs --x\n"

    def test_lone_cutoff_flag_is_one(self, capsys):
        assert main(["arcs", *W, "--P", "5"]) == 1
        assert "--P and --Q" in capsys.readouterr().err

    def test_usage_error_is_two(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_bad_plot_choice_is_two(self, capsys):
        assert main(["report", *W, "--plot", "sparkline"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--config", "{tmp}/missing.cfg"],
            ["--out", "{tmp}/no-dir/report.json"],
            ["--plot", "ratio_histogram", "--plot-out", "{tmp}/no-dir/hist.csv"],
            ["--cache-dir", "{tmp}/a-file/cache"],
        ],
        ids=["config", "out", "plot-out", "cache-dir"],
    )
    def test_file_error_is_one(self, flags, tmp_path, capsys):
        (tmp_path / "a-file").write_text("")
        argv = ["report", "--q0", "50", *W, *(f.format(tmp=tmp_path) for f in flags)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[io]: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "flags",
        [
            ["--plot", "ratio_histogram"],
            ["--plot-n", "218"],
            ["--plot-out", "{tmp}/plot.csv"],
            ["--plot", "ratio_histogram", "--plot-n", "218", "--plot-out", "{tmp}/plot.csv"],
        ],
        ids=["plot-without-out", "plot-n-without-plot", "plot-out-without-plot",
             "plot-n-with-other-kind"],
    )
    def test_plot_flags_refused_before_the_scan(self, flags, tmp_path, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("exceptional_scan ran")

        monkeypatch.setattr("wglab.cli.exceptional_scan", no_scan)
        argv = ["report", "--q0", "50", *W, "--out", str(tmp_path / "rep.json"),
                *(f.format(tmp=tmp_path) for f in flags)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error[parameter-domain]: --plot")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["exceptional", "report"])
    def test_unit_scale_is_a_domain_error(self, command, tmp_path, capsys):
        # N = 5, s = 5, k = 2 gives x = 1, where the threshold's log x is 0
        argv = [command, "--N", "5", "--k", "2", "--s", "5", "--theta", "0.8",
                "--out", str(tmp_path / "rep.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parameter-domain]: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["scan-sup", "--P", "2", "--Q", "inf", "--grid-size", "200", *W], "parameter-domain"),
            (["minor-moment", "--t", "2", "--P", "2", "--Q", "inf", "--grid-size", "1000", *W],
             "parameter-domain"),
            (["arcs", "--P", "2", "--Q", "inf"], "parameter-domain"),
            (["jay", "--n", "218", "--x", "nan", "--y", "4", "--k", "2", "--s", "2"],
             "parameter-domain"),
            (["jay", "--n", "218", "--x", "inf", "--y", "4", "--k", "2", "--s", "2"],
             "parameter-domain"),
            (["arcs", "--x", "1e200", "--theta", "0.5"], "range-too-large"),
            (["sigma", "--n", "218", "--N", "inf", "--k", "2", "--s", "2"], "parameter-domain"),
            (["sigma", "--n", "218", "--N", "nan", "--k", "2", "--s", "2"], "parameter-domain"),
            (["exceptional", "--N", "inf", "--k", "2", "--s", "5"], "parameter-domain"),
            (["jay", "--n", "5", "--N", "1e300", "--k", "2", "--s", "5"], "range-too-large"),
            (["exceptional", "--N", "1e30", "--k", "2", "--s", "5"], "range-too-large"),
            (["exceptional", "--N", "1e18", "--k", "2", "--s", "5"], "memory-budget"),
            (["report", "--N", "1e18", "--k", "2", "--s", "5"], "memory-budget"),
            (["minor-moment", "--t", "400", "--grid-size", "1000", *W], "range-too-large"),
            # refused after the scan: the per-n stream must not be written
            (["report", "--q0", "20", "--x", "10", "--y", "0.2", "--k", "2", "--s", "2",
              "--plot", "partial_sums", "--plot-out", "p.csv"], "parameter-domain"),
            (["report", "--q0", "20", "--x", "2.5", "--y", "1", "--k", "2", "--s", "2",
              "--plot", "arc_profile", "--plot-out", "p.csv"], "parameter-domain"),
        ],
        ids=["scan-sup-Q-inf", "minor-moment-Q-inf", "arcs-Q-inf", "jay-x-nan", "jay-x-inf",
             "arcs-x-overflow", "sigma-N-inf", "sigma-N-nan", "exceptional-N-inf",
             "jay-scale-overflow", "exceptional-past-int64", "exceptional-over-budget",
             "report-over-budget", "minor-moment-overflow", "report-no-plot-n",
             "report-arc-profile-small-x"],
    )
    # a numpy overflow warning printed before the error fails the case
    @pytest.mark.filterwarnings("error")
    def test_non_finite_or_overflowing_input_is_refused(
        self, argv, code, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # relative output paths land in tmp_path
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["arcs", "--P", "1e15", "--Q", "1e16", "--x", "400"],
            # 4.9e6 arcs fit the library's 280 bytes each, not the listing's 800
            ["arcs", "--P", "4000", "--Q", "1e5", "--x", "400"],
            ["scan-sup", "--P", "200000", "--Q", "1e12", "--x", "400", "--grid-size", "1000"],
            ["rho", "--n", "5", "--x", "1e11", "--k", "2", "--s", "2"],
            ["dichotomy", "--x", "1e12", "--k", "2", "--s", "2", "--rho", "0.05",
             "--alpha", "0.3"],
            ["sigma", "--n", "1000", "--q0", "50000"],
        ],
        ids=["arcs", "arcs-listing", "scan-sup", "rho", "dichotomy", "sigma"],
    )
    def test_oversized_request_is_refused_at_once(self, argv, tmp_path, capsys):
        start = time.perf_counter()
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error[memory-budget]: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_jay_just_above_the_bottom_of_the_support(self, capsys):
        # n = s lo + 1 with lo = 560719, where the interpolant reads grid
        # nodes below the support; the values are pinned in
        # test_singular_integral
        assert main(["jay", "--n", "2803596", "--x", "1000", "--k", "2", "--s", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] >= 0


class TestCommandRegistry:
    def _subcommands(self) -> dict:
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_each_handler_runs_exactly_one_subcommand(self):
        runs = [p.get_default("run") for p in self._subcommands().values()]
        assert None not in runs
        handlers = [name for name in vars(cli) if name.startswith("_cmd_")]
        assert sorted(f.__name__ for f in runs) == sorted(handlers)

    def test_every_subcommand_takes_the_common_flags(self):
        for name, p in self._subcommands().items():
            assert {"--config", "--out", "--cache-dir"} <= set(p._option_string_actions), name

    def test_every_run_setting_is_the_dest_of_a_flag(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        for name, p in self._subcommands().items():
            assert fields <= {a.dest for a in p._actions if a.option_strings}, name


class TestReportArtifacts:
    def test_per_n_stream_sibling(self, tmp_path, capsys):
        dest = tmp_path / "rep.json"
        assert main(["report", "--q0", "50", *W, "--out", str(dest)]) == 0
        capsys.readouterr()
        body = json.loads(dest.read_text())
        assert body["per_n_stream"] == "rep.per-n.csv"
        stream = tmp_path / "rep.per-n.csv"
        lines = stream.read_text().splitlines()
        assert lines[0] == "n,rho,tuple_count,sigma,jay,ratio,flagged"
        assert lines[1].startswith("218,")

    def test_jay_prints_the_per_n_cell(self, tmp_path, capsys):
        # j(n) is one number: `wglab jay` and the report's per-n stream
        # print the same cell for a k = 3 target
        ctx = ["--k", "3", "--s", "7", "--theta", "0.8", "--x", "60"]
        assert main(["jay", "--n", "1514443", *ctx]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert main(["report", *ctx, "--out", str(tmp_path / "rep.json")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "rep.per-n.csv").read_text().splitlines()
        col = lines[0].split(",").index("jay")
        (row,) = [line.split(",") for line in lines if line.startswith("1514443,")]
        assert row[col] == format_float(value)

    def test_stdout_report_has_no_stream(self, capsys):
        assert main(["report", "--q0", "50", *W]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["per_n_stream"] is None
        assert body["schema_version"] == 1

    def test_ratio_histogram_plot(self, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        assert main(
            ["report", "--q0", "50", *W, "--plot", "ratio_histogram",
             "--plot-out", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 21  # 20 bins
        counts = [int(l.rsplit(",", 1)[1]) for l in lines[1:]]
        assert sum(counts) == 1

    def test_ratio_histogram_empty_scan(self, tmp_path, capsys):
        # window (200, 202] holds no admissible target: header-only file
        out = tmp_path / "hist.csv"
        assert main(
            ["report", "--q0", "20", "--x", "10", "--y", "0.2", "--k", "2",
             "--s", "2", "--plot", "ratio_histogram", "--plot-out", str(out)]
        ) == 0
        capsys.readouterr()
        assert out.read_text() == "bin_lo,bin_hi,count\n"

    def test_partial_sums_plot(self, tmp_path, capsys):
        out = tmp_path / "partials.csv"
        assert main(
            ["report", "--q0", "50", *W, "--plot", "partial_sums",
             "--plot-out", str(out), "--plot-n", "218"]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "q,a_q,partial_sum"
        assert lines[1].split(",")[0] == "1"
        # running sums end at the truncated sigma value
        from wglab.arith import ProblemContext
        from wglab.singular_series import truncated_sigma

        ctx = ProblemContext.from_parts(2, 2, 10.0, 4.0)
        want = truncated_sigma(218, ctx, 50).value
        assert float(lines[-1].rsplit(",", 1)[1]) == pytest.approx(want, rel=1e-11)

    def test_partial_sums_plot_defaults_to_the_first_target(self, tmp_path, capsys):
        ctx = ["--k", "3", "--s", "4", "--x", "20", "--y", "8", "--q0", "40"]
        out = tmp_path / "partials.csv"
        argv = ["report", *ctx, "--out", str(tmp_path / "rep.json"), "--plot", "partial_sums"]
        assert main([*argv, "--plot-out", str(out)]) == 0
        capsys.readouterr()
        targets = [line.split(",", 1)[0] for line in
                   (tmp_path / "rep.per-n.csv").read_text().splitlines()[1:]]
        assert len(targets) > 1
        for n, same in ((targets[0], True), (targets[-1], False)):
            at_n = tmp_path / f"partials-{n}.csv"
            assert main([*argv, "--plot-out", str(at_n), "--plot-n", n]) == 0
            capsys.readouterr()
            assert (at_n.read_bytes() == out.read_bytes()) == same

    def test_arc_profile_plot(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        assert main(
            ["report", "--q0", "50", *W, "--grid-size", "1000",
             "--plot", "arc_profile", "--plot-out", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,abs_f,label"
        assert len(lines) == 1001
        labels = {l.rsplit(",", 1)[1] for l in lines[1:]}
        assert labels == {"major", "minor"}


def _csv_lines_by_row(header, rows):
    """The per-row renderer the column renderer replaced, kept as its oracle."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    out = [",".join(header)]
    out.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(out) + "\n"


class TestColumnRenderer:
    def test_nested_payload_flattens_to_dotted_columns(self, capsys):
        argv = ["scan-sup", "--region", "full", "--grid-size", "200", *W, "--output", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "argmax_alpha,grid_size,points_in_region,region,sup_abs,"
            "witness.a,witness.beta,witness.q\n"
            "0.625,200,200,full,6.90875477932,5,0,8\n"
        )

    def test_per_n_matches_row_oracle(self):
        rep = exceptional_scan(ProblemContext.from_parts(3, 4, 20.0, 8.0), 40)
        d = rep.per_n
        # signed zeros and an infinity beside the scan's own values
        d.rho[0] = -0.0
        d.sigma[1] = -0.0
        d.jay[2] = -1.5e-300
        d.ratio[3] = np.inf
        d.ratio[4] = -np.inf
        assert (d.rho == 0).any() and np.isnan(d.ratio).any() and (d.sigma < 0).any()
        assert d.flagged.any() and not d.flagged.all()
        header, columns = per_n_table(rep)
        rows = [
            [int(d.n[i]), float(d.rho[i]), int(d.tuple_count[i]), float(d.sigma[i]),
             float(d.jay[i]), float(d.ratio[i]), bool(d.flagged[i])]
            for i in range(len(d.n))
        ]
        want = _csv_lines_by_row(header, rows)
        assert csv_lines(header, columns) == want
        assert ",-0," in want and ",nan," in want and ",-inf," in want

    def test_flat_payload_bools_are_lowercase(self, capsys):
        assert main(["admissible", "--n", "5", "--output", "csv"]) == 0
        assert capsys.readouterr().out == "admissible,k,modulus,n,s\ntrue,2,24,5,5\n"

    def test_empty_scan_prints_the_header_alone(self, capsys):
        # (1, 5] holds no target admissible at k = 2, s = 5
        argv = ["exceptional", "--k", "2", "--s", "5", "--x", "3", "--y", "2", "--output", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "n,rho,tuple_count,sigma,jay,ratio,flagged\n"

    def test_mixed_columns_match_row_oracle(self):
        # numpy columns beside plain lists, as the plot and flat views pass them
        columns = [
            np.array([-0.0, np.nan, 1 / 3]),
            np.array([3, -4, 0], dtype=np.int64),
            np.array([True, False, True]),
            ["minor", None, "major"],
            [1.0, float("-inf"), 7],
        ]
        rows = [list(r) for r in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                         for c in columns))]
        header = ["a", "b", "c", "d", "e"]
        assert csv_lines(header, columns) == _csv_lines_by_row(header, rows)
        assert csv_lines(header, [[] for _ in header]) == "a,b,c,d,e\n"

    @pytest.mark.parametrize(
        "col",
        [
            np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.0, -5e-324]),
            np.array([-0.0, -0.0, 0.0]),
            np.zeros(4),
            np.array([1 / 3, -0.0, np.nan, 2.5e-7, -1e300]),
            np.array([0.0, 1.0], dtype=np.float32),
        ],
        ids=["specials", "signed-zeros", "all-zero", "no-plus-zero", "float32"],
    )
    def test_float_zero_cells_match_the_formatter(self, col):
        # +0.0 cells skip the formatter; every cell must still read as
        # the per-value rendering does, -0.0 as "-0"
        want = [f"{v:.12g}" for v in col.tolist()]
        assert _column_cells(col) == want

    @pytest.mark.parametrize(
        "col",
        [
            np.array([0, -3, 0, 2 ** 63 - 1, -2 ** 63, 0], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            np.array([0, 7, 255], dtype=np.uint8),
            np.array([2 ** 64 - 1, 0], dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
        ],
        ids=["int64", "all-zero", "uint8", "uint64", "empty"],
    )
    def test_int_zero_cells_match_str(self, col):
        # int zeros take the byte route's digit path and still read as str
        assert _column_cells(col) == [str(v) for v in col.tolist()]


def _column_cells(col) -> list[str]:
    """The cells the block renderer writes for one column."""
    return csv_lines(["c"], [col]).split("\n")[1:-1]


class TestBlockRendererOracle:
    """The byte-column renderer against `format_float`, `str` and the
    row oracle, on inputs chosen to reach every branch of its routes."""

    def test_floats_over_every_decimal_exponent(self):
        rng = np.random.default_rng(26)
        exps = np.repeat(np.arange(-324, 309), 12)
        with np.errstate(over="ignore", under="ignore"):
            col = rng.uniform(1, 10, exps.size) * 10.0 ** exps * rng.choice([-1, 1], exps.size)
        col = col[np.isfinite(col) & (col != 0)]
        # short decimals keep trailing zeros for %g to strip; powers of
        # ten sit where log10 can miss the decade
        scale = 10.0 ** rng.integers(0, 7, 4000)
        short = np.round(rng.uniform(-1e4, 1e4, 4000) * scale) / scale
        tens = np.array([s * 10.0 ** k for k in range(-15, 36) for s in (1, -1)])
        near = np.concatenate([np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
        for c in (col, short, tens, near):
            assert _column_cells(c) == [format_float(v) for v in c.tolist()]

    def test_rounding_ties(self):
        rng = np.random.default_rng(27)
        m = rng.integers(10 ** 11, 10 ** 12, 3000).astype(float) + 0.5
        col = m * 10.0 ** rng.integers(-25, 25, m.size)
        col = np.concatenate([col, [0.5, 2.5, 999999999999.5, 99999999999.5, 0.125, 1.5e-7]])
        assert _column_cells(col) == [format_float(v) for v in col.tolist()]

    def test_special_floats(self):
        neg_nan = -np.float64("nan")
        assert np.signbit(neg_nan)
        col = np.array([0.0, -0.0, np.nan, neg_nan, np.inf, -np.inf, 5e-324, -2.2e-308,
                        np.finfo(float).max, -np.finfo(float).tiny, 1e-11, 1e33, 9.9999999999995e32])
        assert _column_cells(col) == [format_float(v) for v in col.tolist()]
        f32 = np.array([0.1, -3.4e38, 1e-45, 16777217, 0.0, -0.0, np.nan], dtype=np.float32)
        assert _column_cells(f32) == [format_float(v) for v in f32.tolist()]

    def test_integer_extremes_and_bools(self):
        i64 = np.iinfo(np.int64)
        cols = [
            np.array([i64.min, i64.min + 1, i64.max, -1, 0, 1, -10 ** 12, 10 ** 18], dtype=np.int64),
            np.array([2 ** 63, 2 ** 63 - 1, 2 ** 64 - 1, 0, 10 ** 19], dtype=np.uint64),
            np.array([-128, 127, 0, -1], dtype=np.int8),
            np.array([True, False, False, True]),
        ]
        for col in cols:
            assert _column_cells(col) == [_csv_lines_by_row(["c"], [[v]]).split("\n")[1]
                                          for v in col.tolist()]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_row_counts_around_the_block_size(self, offset, tmp_path):
        rows = csvtext._BLOCK_ROWS + offset
        rng = np.random.default_rng(28 + offset)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 14, rows)
        x[rng.random(rows) < 0.5] = 0.0  # sparse, as rho and ratio are
        x[-1] = np.nan
        columns = [np.arange(rows, dtype=np.int64) - 7, x,
                   rng.integers(-5, 5, rows) == 0, rng.uniform(0, 1e9, rows)]
        header = ["i", "x", "b", "y"]
        text = csv_lines(header, columns)
        assert text == _csv_lines_by_row(header, zip(*(c.tolist() for c in columns)))
        # the header, then one block per _BLOCK_ROWS rows
        lines = [b.count(b"\n") for b in csvtext._csv_blocks(header, columns)]
        assert lines == [1, min(rows, csvtext._BLOCK_ROWS)] + ([1] if offset == 1 else [])
        csvtext.write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == text.encode()


@pytest.mark.parametrize(
    "ctx",
    [ProblemContext.from_scale(2, 5, 0.8, 800_000), RunConfig(k=3, s=7, theta=0.8, x=60).context()],
    ids=["N800000", "k3-x60"],
)
def test_per_n_cells_stay_on_the_byte_slots(ctx, monkeypatch):
    # the oracle tests pass whichever route a cell takes; this one fails
    # when per-n cells move onto the per-cell fallback (measured: 19 of
    # 14,077 cells and 2,389 of 296,303, nearly all of them nan ratios)
    header, columns = per_n_table(exceptional_scan(ctx, 400))
    fallback = []
    cell = csvtext._cell
    monkeypatch.setattr(csvtext, "_cell", lambda v: fallback.append(v) or cell(v))
    csv_lines(header, columns)
    assert 0 < len(fallback) < 0.01 * len(header) * len(columns[0])


def test_rho_output_is_unchanged(capsys):
    argv = ["rho", "--n", "800021", "--k", "2", "--s", "5", "--theta", "0.8", "--N", "800000"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        '{\n  "n": 800021,\n  "rho": 80164498.6373,\n  "tuple_count": 10630\n}\n'
    )
