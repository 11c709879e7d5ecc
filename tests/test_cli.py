"""Command-line contract tests: exit codes, report shapes, round-trips."""

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import answer_shift
import soplab
import soplab.oracle
from soplab import BatteryParams, BatteryState, Window, error_lab, predict_cc
from soplab.cli import _parse_grid, build_parser, main
from soplab.fileio import format_float, parse_float, render_csv, render_keyvalue

PARAMS_TEXT = """\
r0_ohm=0.05
r1_ohm=0.03
tau_s=10
capacity_ah=2
coulombic_eff=1
"""

OCV_TEXT = """\
soc,ocv_volts
0,3.0
1,4.2
"""

SOA_TEXT = """\
vt_min=2.8
vt_max=4.3
i_max_dis=10
i_max_chg=-4
soc_min=0.1
soc_max=0.9
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("params", PARAMS_TEXT), ("ocv", OCV_TEXT), ("soa", SOA_TEXT)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def _base_args(files, *extra):
    return [
        "--params", files["params"],
        "--ocv", files["ocv"],
        "--soa", files["soa"],
        *extra,
    ]


def _kv(report):
    out = {}
    for line in report.splitlines():
        if "=" in line and "," not in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


class TestSopCommand:
    def test_cc_fixture_report(self, files, capsys):
        code = main(["sop", *_base_args(files), "--soc", "0.5", "-K", "10", "--dt", "1"])
        report = capsys.readouterr().out
        assert code == 0
        kv = _kv(report)
        assert kv["mode"] == "cc"
        assert kv["feasible"] == "true"
        assert kv["dominant"] == "current"
        assert float(kv["sop_w"]) == pytest.approx(28.936971656847664, abs=1e-6)

    def test_soc_at_bound_exits_one(self, files, capsys):
        code = main(["sop", *_base_args(files), "--soc", "0.1", "-K", "10"])
        report = capsys.readouterr().out
        assert code == 1
        assert "feasible=false" in report

    def test_stepwise_mode_emits_trace(self, files, capsys):
        code = main(
            ["sop", *_base_args(files), "--mode", "cccv", "--soc", "0.38", "-K", "10"]
        )
        report = capsys.readouterr().out
        assert code == 0
        assert "step,current_a,vt_v,soc,vp_v,power_w" in report
        assert "mode_shift_step=9" in report
        assert len([l for l in report.splitlines() if l and l[0].isdigit()]) == 10

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_bad_cp_tolerance_exits_two(self, files, capsys, tol):
        code = main(["sop", *_base_args(files), "--mode", "cp", "--tol-watts", tol])
        assert code == 2
        assert capsys.readouterr().out.startswith("error:")

    @pytest.mark.parametrize("mode", ["cc", "cp"])
    def test_non_finite_dt_exits_two(self, files, capsys, mode):
        code = main(["sop", *_base_args(files), "--mode", mode, "--dt", "inf"])
        assert code == 2
        assert capsys.readouterr().out.startswith("error:")

    @pytest.mark.parametrize("direction", ["discharge", "charge"])
    @pytest.mark.parametrize("mode", ["cv", "cccv"])
    def test_subnormal_dt_reports(self, files, capsys, mode, direction):
        # dt * soc_per_amp_second underflows to 0: no SOC moves within a
        # step, so the SOC bound cannot bind (it used to divide by zero).
        argv = ["--mode", mode, "--direction", direction, "--dt", "1e-320", "-K", "3"]
        code = main(["sop", *_base_args(files), *argv])
        kv = _kv(capsys.readouterr().out)
        assert code == 0
        assert kv["feasible"] == "true"
        assert float(kv["i_mc_a"]) == (10.0 if direction == "discharge" else -4.0)

    @pytest.mark.parametrize("direction", ["discharge", "charge"])
    @pytest.mark.parametrize(
        "dt_steps", [("5e-324", "1"), ("1e-320", "3")], ids=["dt5e-324-K1", "dt1e-320-K3"]
    )
    def test_subnormal_dt_cc_report_reparses(self, files, capsys, dt_steps, direction):
        # K*dt*soc_per_amp_second underflows (to 0, or to a subnormal that the
        # SOC-bound division overflows): the SOC bound cannot bind, so the
        # current limit does, as in the stepwise modes. The unbounded SOC
        # current is left out rather than printed as inf.
        dt, steps = dt_steps
        argv = ["--direction", direction, "--dt", dt, "-K", steps]
        code = main(["sop", *_base_args(files), *argv])
        kv = _kv(capsys.readouterr().out)
        assert code == 0
        assert kv["feasible"] == "true"
        assert kv["dominant"] == "current"
        assert float(kv["i_mc_a"]) == (10.0 if direction == "discharge" else -4.0)
        assert "i_soc_limit_a" not in kv
        for key, value in kv.items():
            if key not in ("mode", "direction", "feasible", "dominant"):
                assert format_float(parse_float(value, key)) == value

    @pytest.mark.parametrize(
        "which, old, new",
        [
            # eta / (3600 C_a) overflows: a zero-current step's SOC was NaN.
            ("params", "capacity_ah=2", "capacity_ah=5e-324"),
            # A cell's cut-off voltage is positive.
            ("soa", "vt_min=2.8", "vt_min=0"),
        ],
        ids=["tiny-capacity", "zero-vt-min"],
    )
    @pytest.mark.parametrize("mode", ["cc", "cp"])
    def test_unusable_input_file_exits_two(self, files, capsys, which, old, new, mode):
        text = {"params": PARAMS_TEXT, "soa": SOA_TEXT}[which]
        Path(files[which]).write_text(text.replace(old, new))
        code = main(["sop", *_base_args(files), "--mode", mode])
        assert code == 2
        assert capsys.readouterr().out.startswith("error:")

    def test_overflowing_power_bound_exits_two(self, files, capsys):
        # |i_max_chg| * vt_max overflows: the CP bracket top was inf, each
        # probe's step current NaN, and ecm.ocv raised IndexError.
        text = SOA_TEXT.replace("vt_max=4.3", "vt_max=1.7e308")
        Path(files["soa"]).write_text(text.replace("i_max_chg=-4", "i_max_chg=-1e300"))
        argv = ["--mode", "cp", "--direction", "charge", "--soc", "0.5", "--vp=-0.3", "-K", "10"]
        code = main(["sop", *_base_args(files), *argv])
        assert code == 2
        assert capsys.readouterr().out.startswith("error:")

    @pytest.mark.parametrize(
        "params, ocv, soa, argv",
        [
            # current * r1 was inf and 1 - alpha 0: a trace row printed vp_v=nan at exit 0.
            (
                PARAMS_TEXT.replace("r1_ohm=0.03", "r1_ohm=1.7e308")
                .replace("tau_s=10", "tau_s=1e300")
                .replace("capacity_ah=2", "capacity_ah=1e300"),
                OCV_TEXT.replace("0,3.0", "0,-0.0"),
                SOA_TEXT.replace("i_max_chg=-4", "i_max_chg=-1e300"),
                ["--mode", "cv", "--soc", "0.5", "--vp=-1e-300", "-K", "1"],
            ),
            # The NaN polarization made the next SOC NaN: an IndexError in ecm.ocv.
            (
                PARAMS_TEXT.replace("r1_ohm=0.03", "r1_ohm=1.7e308")
                .replace("capacity_ah=2", "capacity_ah=1e300"),
                OCV_TEXT,
                SOA_TEXT,
                ["--mode", "cp", "--soc", "0.5", "--vp", "0.1", "-K", "30", "--dt", "1e-300"],
            ),
        ],
        ids=["cv-nan-vp", "cp-index-error"],
    )
    def test_overflowing_polarization_load_exits_two(self, files, capsys, params, ocv, soa, argv):
        for which, text in (("params", params), ("ocv", ocv), ("soa", soa)):
            Path(files[which]).write_text(text)
        code = main(["sop", *_base_args(files), "--direction", "charge", *argv])
        assert code == 2
        assert capsys.readouterr().out.startswith("error:")

    @pytest.mark.parametrize("mode", ["cv", "cccv", "cp"])
    def test_underflowing_soc_per_amp_second_exits_two(self, files, capsys, mode):
        # eta / (3600 C_a) underflowed to 0 and current * dt overflowed: a
        # trace row printed soc=nan at exit 0.
        text = PARAMS_TEXT.replace("coulombic_eff=1", "coulombic_eff=5e-324")
        Path(files["params"]).write_text(text)
        argv = ["--mode", mode, "--dt=1.7e308", "-K", "1", "--direction", "charge"]
        code = main(["sop", *_base_args(files), *argv])
        assert code == 2
        assert capsys.readouterr().out.endswith("underflows to 0\n")

    def test_overflowing_cc_power_exits_one(self, files, capsys):
        # i_mc * vt_end overflowed: the report said sop_w=inf, feasible=true.
        argv = ["--vp=1.7e308", "--direction", "charge", "-K", "10"]
        code = main(["sop", *_base_args(files), *argv])
        assert code == 1
        assert capsys.readouterr().out.startswith("infeasible: end voltage")

    @pytest.mark.parametrize("mode", ["cv", "cccv", "cp"])
    def test_overflowing_rested_voltage_exits_one(self, files, capsys, mode):
        # OCV 1e308 V less vp -1e308 V: the zero result printed vt_end_v=inf.
        Path(files["ocv"]).write_text("soc,ocv_volts\n0,1e308\n1,1e308\n")
        code = main(["sop", *_base_args(files), "--mode", mode, "--vp=-1e308"])
        assert code == 1
        assert capsys.readouterr().out == "infeasible: rested voltage inf V not finite\n"

    @pytest.mark.parametrize("mode", ["cc", "cp"])
    def test_overflowing_window_duration_exits_two(self, files, capsys, mode):
        # K * dt is inf: sop_cc printed sop_w=nan.
        code = main(["sop", *_base_args(files), "--mode", mode, "--dt", "1.7e308", "-K", "2"])
        assert code == 2
        assert capsys.readouterr().out.startswith("error:")

    def test_cc_power_rounding_to_zero_exits_one(self, files, capsys):
        # A 1e-300 V cut-off lands the end voltage on 0 V under a nonzero
        # current: the report said sop_w=0, feasible=true, at exit 0.
        Path(files["soa"]).write_text(SOA_TEXT.replace("vt_min=2.8", "vt_min=1e-300"))
        argv = ["--soc", "0.7571737717791172", "--vp", "3.9086085271349407", "-K", "1"]
        assert main(["sop", *_base_args(files), *argv]) == 1
        kv = _kv(capsys.readouterr().out)
        assert (kv["feasible"], kv["sop_w"], kv["vt_end_v"]) == ("false", "0", "0")
        assert float(kv["i_mc_a"]) > 0.0

    @pytest.mark.parametrize(
        "params, ocv, soa, argv",
        [
            # At emf < 0, 4 r0 P vanished beside emf**2 and the CP drive
            # divided by a zero root: a ZeroDivisionError traceback.
            (
                "r0_ohm=1e-300\nr1_ohm=0.03\ntau_s=0.1\ncapacity_ah=1e300\ncoulombic_eff=0.9\n",
                "soc,ocv_volts\n0,0.5\n0.40840487680611315,0.500000001\n"
                "0.6411499018016735,1000.500000001\n1,1000.500000002\n",
                SOA_TEXT.replace("i_max_chg=-4", "i_max_chg=-5e-324")
                .replace("vt_min=2.8", "vt_min=0.1")
                .replace("soc_min=0.1", "soc_min=0").replace("soc_max=0.9", "soc_max=1"),
                ["--soc", "0", "--vp=-1.0824074794006742", "-K", "300", "--dt", "0.1"],
            ),
            # emf**2 and 4 r0 P overflowed: a NaN step current, then an
            # IndexError traceback from ecm.ocv.
            (
                "r0_ohm=1e300\nr1_ohm=1e300\ntau_s=0.1\ncapacity_ah=50\ncoulombic_eff=0.9\n",
                "soc,ocv_volts\n0,3.0\n0.02189759743386621,3.000000001\n"
                "0.4346728401311236,3.000000002\n0.8003574183638044,3.100000002\n"
                "1,1003.100000002\n",
                "vt_min=2.8\nvt_max=1e300\ni_max_dis=1\ni_max_chg=-5e-324\nsoc_min=0\nsoc_max=1\n",
                ["--soc", "0.8816095287418093", "--vp=-1e300", "-K", "3", "--dt", "0.1"],
            ),
            # emf**2 overflowed to inf: sop_w=1.5e+201 at exit 0 over rows of 0 A and 0 W.
            (
                PARAMS_TEXT,
                "soc,ocv_volts\n0,1e200\n1,2e200\n",
                SOA_TEXT.replace("vt_max=4.3", "vt_max=1e250"),
                ["--soc", "0.5", "-K", "10"],
            ),
        ],
        ids=["zero-root", "nan-root", "zero-current"],
    )
    def test_cp_step_without_a_current_answers_or_refuses(
        self, files, capsys, params, ocv, soa, argv
    ):
        for which, text in (("params", params), ("ocv", ocv), ("soa", soa)):
            Path(files[which]).write_text(text)
        code = main(["sop", *_base_args(files), "--mode", "cp", *argv])
        report = capsys.readouterr().out
        assert code in (0, 1, 2), report
        if code == 2:
            assert report == f"error: soa file {files['soa']}: 8 * vt_max * vt_max overflows\n"
            return
        sop = float(_kv(report)["sop_w"])
        rows = [line.split(",") for line in report.splitlines() if line[:1].isdigit()]
        assert sop > 0.0 and rows
        # Each row delivers the reported power, to the report's 12 digits.
        assert all(abs(float(row[5]) - sop) <= 1e-11 * sop for row in rows), report

    def test_cp_vp_above_ocv_exits_one(self, files, capsys):
        code = main(["sop", *_base_args(files), "--mode", "cp", "--vp", "5"])
        assert code == 1
        assert "feasible=false" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["cv", "cccv"])
    def test_stepwise_window_leaving_soa_exits_one(self, files, capsys, mode):
        # vp = 1.5 V drives the held voltage below vt_min: no feasible window.
        code = main(["sop", *_base_args(files), "--mode", mode, "--vp", "1.5", "-K", "10"])
        assert code == 1
        assert "feasible=false" in capsys.readouterr().out

    def test_missing_ocv_file_exits_two(self, files, capsys):
        code = main(
            [
                "sop",
                "--params", files["params"],
                "--ocv", files["ocv"] + ".does-not-exist",
                "--soa", files["soa"],
            ]
        )
        assert code == 2

    def test_out_flag_writes_file(self, files, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["sop", *_base_args(files), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "sop_w=" in out.read_text()

    @pytest.mark.parametrize("where", ["missing-dir/report.txt", "."])
    def test_unwritable_out_exits_two(self, files, tmp_path, capsys, where):
        # A path under a missing directory, and a path that is a directory.
        code = main(["sop", *_base_args(files), "--out", str(tmp_path / where)])
        assert code == 2
        assert capsys.readouterr().out.startswith("error: cannot write report file")

    def test_report_round_trip(self, files, capsys):
        main(["sop", *_base_args(files), "--soc", "0.5", "-K", "10"])
        report = capsys.readouterr().out
        cells = []
        for line in report.splitlines():
            if "=" in line:
                cells.append(line.partition("=")[2])
        self._assert_cells_stable(cells)

    def test_trace_csv_round_trip(self, files, capsys):
        main(["sop", *_base_args(files), "--mode", "cv", "--soc", "0.3", "-K", "10"])
        lines = capsys.readouterr().out.splitlines()
        header_at = lines.index("step,current_a,vt_v,soc,vp_v,power_w")
        cells = [cell for line in lines[header_at + 1 :] for cell in line.split(",")]
        assert cells
        self._assert_cells_stable(cells)

    @staticmethod
    def _assert_cells_stable(cells):
        checked = 0
        for cell in cells:
            try:
                parsed = float(cell)
            except ValueError:
                continue
            assert format_float(parsed) == cell
            checked += 1
        assert checked > 0


@pytest.mark.parametrize(
    "which, text, refusal",
    [
        ("params", PARAMS_TEXT.replace("r0_ohm=0.05", "r0_ohm=0"), "r0 must be > 0, got 0.0"),
        ("soa", SOA_TEXT.replace("vt_min=2.8", "vt_min=4.5"), "vt_min must be < vt_max"),
        ("ocv", "soc,ocv_volts\n0,4.2\n1,3.0\n", "OCV curve must be non-decreasing in voltage"),
    ],
)
def test_refused_file_values_exit_two_naming_the_file(files, capsys, which, text, refusal):
    # Each reader builds its value through the validating constructor and
    # reports a refusal against the file it read.
    Path(files[which]).write_text(text)
    assert main(["sop", *_base_args(files)]) == 2
    assert capsys.readouterr().out == f"error: {which} file {files[which]}: {refusal}\n"


@pytest.mark.parametrize("which", ["params", "ocv", "soa", "profile"])
def test_non_utf8_input_file_exits_two(files, tmp_path, capsys, which):
    profile = tmp_path / "profile.csv"
    profile.write_text("t_s,current_a\n0,1\n1,1\n")
    paths = {**files, "profile": str(profile)}
    bad = Path(paths[which])
    bad.write_bytes(bad.read_bytes() + b"# \xff\n")
    argv = ["simulate", *_base_args(paths), "--profile", paths["profile"]]
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith(f"error: cannot read {which} file")


@pytest.mark.parametrize("which", ["params", "ocv", "soa", "profile"])
def test_byte_order_mark_is_ignored(files, tmp_path, capsys, which):
    # Editors on some platforms save UTF-8 with a leading BOM: it read as
    # part of the first key or header, and the file was refused (exit 2).
    profile = tmp_path / "profile.csv"
    profile.write_text("t_s,current_a\n0,1\n1,1\n")
    paths = {**files, "profile": str(profile)}
    argv = ["simulate", *_base_args(paths), "--profile", paths["profile"]]
    plain = main(argv), capsys.readouterr().out
    path = Path(paths[which])
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert (main(argv), capsys.readouterr().out) == plain
    assert plain[0] == 0


class TestSimulateCommand:
    def test_zero_current_profile_constant_soc(self, files, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        profile.write_text("t_s,current_a\n" + "".join(f"{t},0\n" for t in range(5)))
        code = main(["simulate", *_base_args(files), "--profile", str(profile)])
        report = capsys.readouterr().out
        assert code == 0
        rows = report.splitlines()[1:]
        socs = {row.split(",")[2] for row in rows}
        assert socs == {"0.5"}

    def test_cc_profile_matches_prediction(self, files, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        profile.write_text("t_s,current_a\n" + "".join(f"{t},10\n" for t in range(11)))
        code = main(["simulate", *_base_args(files), "--profile", str(profile)])
        report = capsys.readouterr().out
        assert code == 0
        last = report.strip().splitlines()[-1].split(",")
        params = BatteryParams(0.05, 0.03, 10.0, 2.0, 1.0)
        from soplab import OcvCurve

        pred = predict_cc(
            BatteryState(0.5), params, OcvCurve(((0.0, 3.0), (1.0, 4.2))), 1.2, 10.0, Window(10, 1.0)
        )
        # Reports render 12 significant digits, so the comparison is capped
        # at the rendering precision, not the library's 1e-12 agreement.
        assert float(last[4]) == pytest.approx(pred.vt_end, abs=1e-9)
        assert float(last[2]) == pytest.approx(pred.soc_end, abs=1e-9)

    def test_malformed_row_exits_two(self, files, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("t_s,current_a\n0,not-a-number\n")
        assert main(["simulate", *_base_args(files), "--profile", str(profile)]) == 2

    def test_missing_header_exits_two(self, files, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("0,1\n1,1\n")
        assert main(["simulate", *_base_args(files), "--profile", str(profile)]) == 2

    @pytest.mark.parametrize(
        "params, profile",
        [
            # current * r0 overflowed: the row printed vt_v=-inf at exit 0.
            (PARAMS_TEXT.replace("r0_ohm=0.05", "r0_ohm=1.7e308"), "0,0\n1,2\n"),
            # eta / (3600 C_a) underflowed to 0: inf * 0 made the SOC NaN, and
            # ecm.ocv raised IndexError.
            (PARAMS_TEXT.replace("coulombic_eff=1", "coulombic_eff=5e-324"), "0,2\n1e308,2\n"),
        ],
        ids=["ohmic-drop", "soc-throughput"],
    )
    def test_overflowing_sample_exits_two(self, files, tmp_path, capsys, params, profile):
        Path(files["params"]).write_text(params)
        path = tmp_path / "profile.csv"
        path.write_text("t_s,current_a\n" + profile)
        assert main(["simulate", *_base_args(files), "--profile", str(path)]) == 2
        assert capsys.readouterr().out.startswith("error:")

    def test_violation_annotation(self, files, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        profile.write_text("t_s,current_a\n0,25\n1,25\n")  # beyond i_max_dis
        code = main(["simulate", *_base_args(files), "--profile", str(profile)])
        report = capsys.readouterr().out
        assert code == 0
        assert "current_high_dis" in report


    @pytest.mark.parametrize("unread", [["-K", "200000"], ["--dt", "0"]])
    def test_window_flags_are_not_read(self, files, tmp_path, capsys, unread):
        # simulate reads no window, but it exited 2 on these flags.
        profile = tmp_path / "profile.csv"
        profile.write_text("t_s,current_a\n0,1\n1,2\n")
        argv = ["simulate", *_base_args(files), "--profile", str(profile)]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, *unread]) == 0
        assert capsys.readouterr().out == plain


class TestSweepErrorCommand:
    def test_zero_grid_zero_row(self, files, capsys):
        code = main(
            [
                "sweep-error", *_base_args(files),
                "--source", "soc", "--constraint", "soc", "--grid", "0",
            ]
        )
        report = capsys.readouterr().out
        assert code == 0
        assert report.splitlines()[1] == "0,0,0,0,true"

    def test_parabola_residuals_small(self, files, capsys):
        # The = form keeps argparse from reading the leading minus as a flag.
        code = main(
            [
                "sweep-error", *_base_args(files),
                "--source", "soc", "--constraint", "soc",
                "--grid=-0.04:0.04:0.01",
            ]
        )
        report = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in report.splitlines()[1:]]
        assert len(rows) == 9
        assert all(abs(float(r[3])) <= 1e-9 for r in rows)

    def test_out_of_domain_flagged_not_fatal(self, files, capsys):
        # x error beyond the nominal composite flips the denominator sign.
        code = main(
            [
                "sweep-error", *_base_args(files),
                "--source", "x", "--constraint", "soc",
                "--grid", "0,0.001",
            ]
        )
        report = capsys.readouterr().out
        assert code == 0
        lines = report.splitlines()
        assert lines[1].endswith("true")
        assert lines[2].endswith("false")


    @pytest.mark.parametrize("source", ["x", "r_sum", "kappa"])
    def test_underflowing_denominators_flag_or_report(self, files, capsys, source):
        # r0 = 1e-300, r1 = 0 and a flat table make the voltage-constraint
        # denominator 1e-300; the cells used to divide by its square, which
        # underflows to 0, and ended in ZeroDivisionError.
        params = PARAMS_TEXT.replace("r0_ohm=0.05", "r0_ohm=1e-300")
        Path(files["params"]).write_text(params.replace("r1_ohm=0.03", "r1_ohm=0"))
        Path(files["ocv"]).write_text("soc,ocv_volts\n0,3.7\n1,3.7\n")
        code = main(
            [
                "sweep-error", *_base_args(files),
                "--source", source, "--constraint", "voltage", "--grid=-0.01,0,0.01",
            ]
        )
        report = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in report.splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            if row[4] == "true":  # every figure re-parses, so it is finite
                assert [format_float(parse_float(c, "figure")) for c in row[1:4]] == row[1:4]
            else:
                assert row[1:] == ["nan", "nan", "nan", "false"]


class TestValidateCommand:
    def test_small_grid_passes(self, files, capsys):
        code = main(
            [
                "validate", *_base_args(files),
                "--soc-grid", "0.2,0.5,0.8", "--steps-list", "1,10",
                "--tol", "1e-6",
            ]
        )
        report = capsys.readouterr().out
        assert code == 0
        assert "points=12" in report
        assert "passed=12" in report

    @pytest.mark.parametrize("unread", [["--soc", "1.5"], ["-K", "200000"]])
    def test_window_flags_are_not_read(self, files, capsys, unread):
        # validate takes SOC, K and the direction from its grid flags, but
        # it exited 2 on these flags, on a valid grid.
        argv = ["validate", *_base_args(files), "--soc-grid", "0.5", "--steps-list", "10"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, *unread]) == 0
        assert capsys.readouterr().out == plain

    def test_empty_grid_exits_two(self, files):
        assert (
            main(
                [
                    "validate", *_base_args(files),
                    "--soc-grid", "", "--steps-list", "10",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_bad_tolerance_exits_two(self, files, capsys, tol):
        code = main(
            [
                "validate", *_base_args(files),
                "--soc-grid", "0.5", "--steps-list", "10", "--tol", tol,
            ]
        )
        assert code == 2
        assert capsys.readouterr().out.startswith("error:")

    @pytest.mark.parametrize("tol, want", [("5e-324", 2), ("2e-321", 2), ("3e-321", 0)])
    def test_tolerance_underflowing_the_oracle_exits_two(self, files, capsys, tol, want):
        # The oracle closes its bracket to tol / 1000, which underflows to 0
        # below ~2.5e-321: that is malformed input, not a traceback.
        code = main(
            [
                "validate", *_base_args(files),
                "--soc-grid", "0.5", "--steps-list", "10", "--tol", tol,
            ]
        )
        assert code == want
        assert capsys.readouterr().out.startswith("error:") == (want == 2)

    def test_out_of_soa_point_skipped_not_fatal(self, files, capsys):
        # vp = 0.5 puts the rested voltage at soc 0.1 at 2.62 V, below vt_min.
        code = main(
            [
                "validate", *_base_args(files, "--vp", "0.5"),
                "--soc-grid", "0.1:0.9:0.2", "--steps-list", "1,10",
            ]
        )
        report = capsys.readouterr().out
        rows = [line.split(",") for line in report.splitlines()[1:] if "," in line]
        skipped = [row for row in rows if row[-1] == "skipped"]
        checked = [row for row in rows if row[-1] != "skipped"]
        assert code == 1
        assert len(rows) == 20
        assert len(skipped) == 4 and {row[0] for row in skipped} == {"0.1"}
        assert all(row[4:6] == ["nan", "nan"] for row in skipped)
        kv = _kv(report)
        assert kv["points"] == "20"
        assert int(kv["passed"]) == sum(row[-1] == "true" for row in checked)
        assert float(kv["max_residual_a"]) == max(abs(float(row[5])) for row in checked)

    def test_point_without_closed_form_skipped_not_fatal(self, files, capsys, monkeypatch):
        # A closed form past the floats at one point flags that point; the
        # grid runs on.
        original = soplab.peak_cc.sop_cc

        def overflowing_at_half(state, *args):
            if state.soc == 0.5:
                raise soplab.AnalyticDomainError("end voltage nan V or power nan W not finite")
            return original(state, *args)

        monkeypatch.setattr(soplab.peak_cc, "sop_cc", overflowing_at_half)
        code = main(
            [
                "validate", *_base_args(files),
                "--soc-grid", "0.3,0.5", "--steps-list", "10", "--directions", "discharge",
            ]
        )
        report = capsys.readouterr().out
        assert code == 1
        assert report.splitlines()[2] == "0.5,10,discharge,nan,nan,nan,skipped"
        assert report.splitlines()[1].endswith(",true")
        assert (_kv(report)["points"], _kv(report)["passed"]) == ("2", "1")

    def test_infinite_ocv_slope_exits_two(self, files, capsys):
        # Knots 5e-324 apart make the OCV slope inf: the closed form's end
        # voltage was nan and every validate point skipped, while the
        # stepwise engines and the oracle answered. The table is refused.
        Path(files["ocv"]).write_text("soc,ocv_volts\n0,3.0\n5e-324,3.1\n")
        for argv in (
            ["validate", "--soc-grid", "0.5", "--steps-list", "2,30"],
            ["sop", "--mode", "cc"],
            ["sop", "--mode", "cccv", "--direction", "charge"],
        ):
            assert main([*argv, *_base_args(files)]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"error: ocv file {files['ocv']}: ")
            assert out.endswith("has a non-finite slope\n")

    def test_range_grid_ends_on_its_stop(self, files, capsys):
        # 0.3 + 6 * 0.1 is 0.9000000000000001, past soc_max; each point must be
        # the decimal the range names, so no row is skipped.
        main(
            [
                "validate", *_base_args(files, "--vp", "0.3"),
                "--soc-grid", "0.3:0.9:0.1", "--steps-list", "1,10,30",
            ]
        )
        report = capsys.readouterr().out
        rows = [line.split(",") for line in report.splitlines()[1:] if "," in line]
        assert _kv(report)["points"] == "42"
        assert not [row for row in rows if row[-1] == "skipped"]
        assert [row[-1] for row in rows if row[0] == "0.9"] == ["true"] * 6

    def test_oracle_bisects_finer_than_the_pass_bound(self, files, capsys, monkeypatch):
        original = soplab.oracle.brute_peak_current_cc
        seen = []

        def spy(*args, tol_amps, **kwargs):
            seen.append(tol_amps)
            return original(*args, tol_amps=tol_amps, **kwargs)

        monkeypatch.setattr(soplab.oracle, "brute_peak_current_cc", spy)
        code = main(
            [
                "validate", *_base_args(files),
                "--soc-grid", "0.2,0.5", "--steps-list", "1,10", "--tol", "1e-4",
            ]
        )
        assert code == 0
        assert len(seen) == 8
        assert all(tol <= 1e-4 / 1000 for tol in seen)

    def test_injected_fault_exits_one(self, files, capsys, monkeypatch):
        # Corrupt the oracle's view of the polarization resistance; the
        # closed form and the oracle must now disagree.
        original = soplab.oracle.brute_peak_current_cc

        def corrupted(state, params, curve, window, direction, soa, tol_amps=1e-6):
            bad = BatteryParams(
                params.r0, params.r1 * 1.5, params.tau, params.capacity_ah, params.coulombic_eff
            )
            return original(state, bad, curve, window, direction, soa, tol_amps=tol_amps)

        monkeypatch.setattr(soplab.oracle, "brute_peak_current_cc", corrupted)
        code = main(
            [
                "validate", *_base_args(files),
                "--soc-grid", "0.3", "--steps-list", "10",
                "--directions", "discharge", "--tol", "1e-6",
            ]
        )
        report = capsys.readouterr().out
        assert code == 1
        assert "passed=0" in report

    @pytest.mark.parametrize(
        "tol, verdict, want",
        [(2.0**-20, "true", 0), (math.nextafter(2.0**-20, 0.0), "false", 1)],
        ids=["at-tol", "one-ulp-over"],
    )
    def test_verdict_is_inclusive(self, files, capsys, monkeypatch, tol, verdict, want):
        # The oracle is made to answer 2**-20 A below the closed form, a
        # residual that is exact in floating point: at --tol it passes, and
        # with --tol one ulp below it, it fails.
        residuals = []

        def shifted(state, params, curve, window, direction, soa, tol_amps=1e-6):
            analytic = soplab.peak_cc.sop_cc(state, params, curve, window, direction, soa).i_mc
            brute = analytic - 2.0**-20
            residuals.append(analytic - brute)
            return brute

        monkeypatch.setattr(soplab.oracle, "brute_peak_current_cc", shifted)
        code = main(
            [
                "validate", *_base_args(files),
                "--soc-grid", "0.3", "--steps-list", "10",
                "--directions", "discharge", "--tol", repr(tol),
            ]
        )
        row = capsys.readouterr().out.splitlines()[1]
        assert residuals == [2.0**-20]
        assert row.endswith("," + verdict)
        assert code == want


@pytest.mark.parametrize(
    "text, want",
    [
        ("0.3:0.9:0.1", [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
        ("0.1:0.9:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
        ("-0.3:0.3:0.1", [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]),
    ],
)
def test_range_grid_points_are_exact_decimals(text, want):
    assert _parse_grid(text) == want


@pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1:5e-324"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--steps-list", "10", "--soc-grid"],
        ["sweep-error", "--source", "soc", "--constraint", "soc", "--grid"],
    ],
)
def test_oversized_range_grid_exits_two_before_building(files, capsys, monkeypatch, argv, grid):
    # 1e12 points would exhaust memory; a subnormal step makes the count infinite.
    def no_points(*args):
        raise AssertionError("grid points built before the size check")

    monkeypatch.setattr(soplab.cli, "range", no_points, raising=False)
    code = main([argv[0], *_base_args(files), *argv[1:], grid])
    assert code == 2
    assert capsys.readouterr().out.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--steps-list", "10", "--soc-grid"],
        ["sweep-error", "--source", "soc", "--constraint", "soc", "--grid"],
    ],
)
def test_range_grid_keeping_no_point_exits_two(files, capsys, argv):
    # Rounding carries the only point past stop + step / 2: sweep-error ended
    # in a ValueError traceback from error_lab.sweep.
    grid = "0.0001234567890125:0.0001234567890125:1e-20"
    with pytest.raises(soplab.InputError, match="keeps no point"):
        _parse_grid(grid)
    code = main([argv[0], *_base_args(files), *argv[1:], grid])
    assert code == 2
    assert capsys.readouterr().out == f"error: range grid {grid!r} keeps no point\n"


def test_range_grid_size_limit_is_exact(monkeypatch):
    monkeypatch.setattr(soplab.cli, "MAX_GRID_POINTS", 10)
    assert len(_parse_grid("0:9:1")) == 10
    with pytest.raises(soplab.InputError, match="more than 10 points"):
        _parse_grid("0:10:1")


@pytest.mark.parametrize(
    "argv",
    [
        ["sop", "--mode", "cv", "-K"],
        ["sweep-error", "--source", "soc", "--constraint", "soc", "--grid", "0", "-K"],
        ["validate", "--soc-grid", "0.5", "--steps-list"],
    ],
)
def test_oversized_window_exits_two_before_simulating(files, capsys, monkeypatch, argv):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the window size check")

    for module, name in (
        (soplab.modes, "_trace"), (soplab.ecm, "step"), (soplab.peak_cc, "sop_cc"),
        (soplab.oracle, "brute_peak_current_cc"),
    ):
        monkeypatch.setattr(module, name, no_simulation)
    code = main([argv[0], *_base_args(files), *argv[1:], "99999999999999999999"])
    assert code == 2
    assert capsys.readouterr().out.startswith("error: steps must be <= ")


def test_window_step_limit_is_exact(files, capsys, monkeypatch):
    monkeypatch.setattr(soplab.cli, "MAX_WINDOW_STEPS", 10)
    validate = ["validate", *_base_args(files, "-K", "10"), "--soc-grid", "0.5", "--steps-list"]
    assert main(["sop", *_base_args(files), "--mode", "cv", "-K", "10"]) == 0
    assert main([*validate, "1,10"]) == 0
    capsys.readouterr()
    assert main(["sop", *_base_args(files), "--mode", "cv", "-K", "11"]) == 2
    assert capsys.readouterr().out == "error: steps must be <= 10, got 11\n"
    assert main([*validate, "1,11"]) == 2
    assert capsys.readouterr().out == "error: steps must be <= 10, got 11\n"


def _sweep_choices(dest):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a for a in sub.choices["sweep-error"]._actions if a.dest == dest).choices)


def test_sweep_choices_match_error_lab():
    # The parser spells these out so that it need not import error_lab.
    assert _sweep_choices("source") == [s.value for s in error_lab.ErrorSource]
    assert _sweep_choices("constraint") == list(error_lab.CONSTRAINTS)


def test_unknown_command_exits_two(files):
    assert main(["frobnicate", *_base_args(files)]) == 2


@pytest.mark.parametrize(
    "which, text, message",
    [
        ("params", PARAMS_TEXT.replace("tau_s=10", "tau_s=nan"), "line 3: non-finite value: 'nan'"),
        ("soa", SOA_TEXT + "soc_max=0.8\n", "line 7: duplicate key 'soc_max'"),
        ("ocv", OCV_TEXT + "0.5,3.6,x\n", "line 4: expected two columns, got '0.5,3.6,x'"),
        ("profile", "t_s,current_a\n0,1\n1,abc\n", "line 3: not a number: 'abc'"),
        # Blank lines are skipped but still counted: the number is the file's own.
        ("ocv", "soc,ocv_volts\n\n0,3.0\nx,4.2\n", "line 4: not a number: 'x'"),
        ("profile", "t_s,current_a\n0,1\n\n1,abc\n", "line 4: not a number: 'abc'"),
        ("profile", "t_s,current_a\n0,1\n2,1\n1,1\n", "times must be strictly increasing"),
    ],
)
def test_bad_line_error_names_the_file(files, tmp_path, capsys, which, text, message):
    # A bad line is reported against its file, as every other file error is.
    profile = tmp_path / "profile.txt"
    profile.write_text("t_s,current_a\n0,1\n")
    path = tmp_path / f"{which}.txt"
    path.write_text(text)
    assert main(["simulate", *_base_args(files), "--profile", str(profile)]) == 2
    assert capsys.readouterr().out == f"error: {which} file {path}: {message}\n"


# The report of each malformed input of the shift harness, in its ``validate``
# request; None where the input parses and the report is the valid request's.
MALFORMED_REPORTS = {
    "params_comment": None,
    "params_no_equals": "params file {dir}/params.txt: line 1: expected key=value, got 'r0_ohm 0.05'",
    "params_unknown_key": "params file {dir}/params.txt: line 2: unknown key 'r2_ohm'",
    "params_missing_key": "params file {dir}/params.txt: missing keys ['coulombic_eff']",
    "ocv_empty": "ocv file {dir}/ocv.txt is empty",
    "ocv_blank_lines": "ocv file {dir}/ocv.txt is empty",
    "ocv_header_only": "ocv file {dir}/ocv.txt has a header but no data rows",
    "ocv_three_columns": "ocv file {dir}/ocv.txt: line 2: expected two columns, got '0,3.0,1'",
    "soc_grid_two_fields": "range grid must be start:stop:step, got '0.1:0.9'",
    "steps_not_a_number": "bad steps value: 'x'",
    "steps_zero": "steps must be >= 1, got 0",
    "steps_negative": "steps must be >= 1, got -3",
}


@pytest.mark.parametrize("name", list(answer_shift.BAD_INPUTS))
def test_malformed_input_report(tmp_path, capsys, name):
    argv = answer_shift.bad_request(name, tmp_path)
    message = MALFORMED_REPORTS[name]
    if message is None:
        assert main(argv) == 0
        report = capsys.readouterr().out
        (tmp_path / "params.txt").write_text(answer_shift.PARAMS_TEXT)
        assert main(argv) == 0
        assert capsys.readouterr().out == report
    else:
        assert main(argv) == 2
        assert capsys.readouterr().out == f"error: {message.format(dir=tmp_path)}\n"


@pytest.mark.parametrize("module", ["soplab", "soplab.cli"])
@pytest.mark.parametrize("extra", [["--mode", "cp", "-K", "5"], ["--tol-watts", "nan"]])
def test_module_entry_points_match_main(files, capsys, module, extra):
    argv = ["sop", *_base_args(files), *extra]
    code = main(argv)
    expected = capsys.readouterr().out
    src = str(Path(soplab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == code
    assert proc.stdout == expected.encode()


def test_cli_renders_through_fileio():
    # fileio is the one place where report lines are rendered: a command
    # passes values and records, never a formatted number, flag or line.
    source = Path(soplab.cli.__file__).read_text()
    for forbidden in ("format_float", '"true"', "'true'", '"false"', "'false'", '"\\n".join'):
        assert forbidden not in source, forbidden


def test_report_cells_render_by_type():
    pairs = [("a", True), ("b", False), ("c", 3), ("d", -0.0), ("e", 1 / 3), ("f", "x")]
    assert render_keyvalue(pairs) == "a=true\nb=false\nc=3\nd=0\ne=0.333333333333\nf=x\n"
    assert render_csv("h1,h2", [(1, 2.5), (False, "nan")]) == "h1,h2\n1,2.5\nfalse,nan\n"
    assert render_csv("h", []) == "h\n"
