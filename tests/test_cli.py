import argparse
import dataclasses
import glob
import json
import os
from pathlib import Path

import numpy as np
import pytest

from wglab.arith import ProblemContext
from wglab import cli
from wglab.cli import build_parser, csv_lines, main, per_n_table
from wglab.config import RunConfig, format_float
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
        ],
        ids=["scan-sup-Q-inf", "minor-moment-Q-inf", "arcs-Q-inf", "jay-x-nan", "jay-x-inf",
             "arcs-x-overflow", "sigma-N-inf", "sigma-N-nan", "exceptional-N-inf",
             "jay-scale-overflow", "exceptional-past-int64", "exceptional-over-budget",
             "report-over-budget", "minor-moment-overflow"],
    )
    # a numpy overflow warning printed before the error fails the case
    @pytest.mark.filterwarnings("error")
    def test_non_finite_or_overflowing_input_is_refused(self, argv, code, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


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
