"""Golden reports: the full stdout and exit code of each report form on the
README fixture, pinned byte for byte.

A change that means to alter a report updates its case here and says why;
one that only moves code leaves every case as it is.
"""

import pytest

from soplab.cli import main

FILES = {
    "params": "r0_ohm=0.05\nr1_ohm=0.03\ntau_s=10\ncapacity_ah=2\ncoulombic_eff=1\n",
    "ocv": "soc,ocv_volts\n0,3.0\n1,4.2\n",
    "soa": "vt_min=2.8\nvt_max=4.3\ni_max_dis=10\ni_max_chg=-4\nsoc_min=0.1\nsoc_max=0.9\n",
    "profile": "t_s,current_a\n0,5\n1,12\n2,-5\n3,0\n4,200\n",
}

# (name, argv after the three scenario files, exit code, stdout). The forms:
# CC with its per-constraint lines (one left out when it cannot bind), CV,
# CC-CV with its shift step, CP with its trace, a refused stepwise window,
# simulate with violations, sweep-error with a flagged row, and validate with
# a failed row, skipped rows and its footer.
CASES = [
    (
        'sop_cc',
        ['sop', '--mode', 'cc', '--soc', '0.5', '-K', '10'],
        0,
        """\
mode=cc
direction=discharge
feasible=true
dominant=current
sop_w=28.9369716568
power_w=28.9369716568
vt_end_v=2.89369716568
i_mc_a=10
i_current_limit_a=10
i_voltage_limit_a=11.3265862904
i_soc_limit_a=288
""",
    ),
    (
        'sop_cc_charge_subnormal_dt',
        ['sop', '--direction', 'charge', '--soc', '0.5', '-K', '10', '--dt', '5e-324'],
        0,
        """\
mode=cc
direction=charge
feasible=true
dominant=current
sop_w=15.2
power_w=-15.2
vt_end_v=3.8
i_mc_a=-4
i_current_limit_a=-4
i_voltage_limit_a=-14
""",
    ),
    (
        'sop_cv',
        ['sop', '--mode', 'cv', '--soc', '0.5', '--vp', '0.1', '-K', '5'],
        0,
        """\
mode=cv
direction=discharge
feasible=true
dominant=current
sop_w=26.4228308952
power_w=26.4228308952
vt_end_v=3.0095162582
i_mc_a=8.77976014359
step,current_a,vt_v,soc,vp_v,power_w
1,10,3.0095162582,0.498611111111,0.119032516393,30.095162582
2,9.62224000683,3.0095162582,0.497274688888,0.135175390895,28.9582877408
3,9.29803233579,3.0095162582,0.495983295508,0.148856494607,27.9825794838
4,9.0194554035,3.0095162582,0.494730593369,0.160440366161,27.1441976769
5,8.77976014359,3.0095162582,0.493511182238,0.170237585995,26.4228308952
""",
    ),
    (
        'sop_cccv_shift',
        ['sop', '--mode', 'cccv', '--soc', '0.3', '-K', '5'],
        0,
        """\
mode=cccv
direction=discharge
feasible=true
dominant=dual
sop_w=26.0224048846
power_w=26.0224048846
vt_end_v=2.8
i_mc_a=9.29371603023
mode_shift_step=4
step,current_a,vt_v,soc,vp_v,power_w
1,10,2.86,0.298611111111,0.0285487745892,28.6
2,10,2.83250133385,0.297222222222,0.0543807740766,28.3250133385
3,10,2.80746090746,0.295833333333,0.0777545337955,28.0746090746
4,9.692895768,2.8,0.29448709781,0.0980272412398,27.1401081504
5,9.29371603023,2.8,0.293196303917,0.115231136265,26.0224048846
""",
    ),
    (
        'sop_cp',
        ['sop', '--mode', 'cp', '--direction', 'charge', '--soc', '0.5', '--vp=-0.3', '-K', '5'],
        0,
        """\
mode=cp
direction=charge
feasible=true
dominant=current
sop_w=16.0806504649
power_w=-16.0806504649
vt_end_v=4.02016261775
i_mc_a=-3.99999999847
step,current_a,vt_v,soc,vp_v,power_w
1,-3.95194375492,4.06904841316,0.500548881077,-0.282733540556,-16.0806504649
2,-3.96585117391,4.05477910282,0.50109969374,-0.26714990595,-16.0806504649
3,-3.97842110281,4.04196791876,0.501652252227,-0.253085135857,-16.0806504649
4,-3.98976852961,4.03047203002,0.502206386745,-0.240391201114,-16.0806504649
5,-3.99999999847,4.02016261775,0.5027619423,-0.228934463566,-16.0806504649
""",
    ),
    (
        'sop_cv_refused',
        ['sop', '--mode', 'cv', '--soc', '0.95', '-K', '5'],
        1,
        """\
mode=cv
direction=discharge
feasible=false
dominant=voltage
sop_w=0
power_w=0
vt_end_v=4.14
i_mc_a=0
""",
    ),
    (
        'simulate_violations',
        ['simulate', '--profile', '{profile}'],
        0,
        """\
t_s,current_a,soc,vp_v,vt_v,violations
0,5,0.5,0,3.35,
1,12,0.499305555556,0.0142743872946,2.98489227937,current_high_dis
2,-5,0.497638888889,0.0471745292508,3.79999213742,current_high_chg
3,0,0.498333333333,0.0284108919497,3.56958910805,
4,200,0.498333333333,0.0257072381159,-6.42770723812,voltage_low;current_high_dis
""",
    ),
    (
        'sweep_error_flagged',
        ['sweep-error', '--source', 'x', '--constraint', 'soc', '--grid=-0.5,0,0.5', '-K', '5'],
        0,
        """\
delta,analytic_dsop_w,empirical_dsop_w,residual_w,in_domain
-0.5,-18708.4879954,-18708.4879954,-3.63797880709e-12,true
0,0,0,0,true
0.5,nan,nan,nan,false
""",
    ),
    (
        'validate_failed_and_skipped',
        ['validate', '--vp=0.3', '--soc-grid', '0.2,0.95', '--steps-list', '1,5'],
        1,
        """\
soc,steps,direction,analytic_a,oracle_a,residual_a,pass
0.2,1,discharge,3.17887336872,3.17887336847,2.4999735615e-10,true
0.2,1,charge,-4,-4,0,true
0.2,5,discharge,4.11959542221,3.17887336847,0.940722053736,false
0.2,5,charge,-4,-4,0,true
0.95,1,discharge,10,nan,nan,skipped
0.95,1,charge,0,nan,nan,skipped
0.95,5,discharge,10,nan,nan,skipped
0.95,5,charge,0,nan,nan,skipped
points=8
passed=3
max_residual_a=0.940722053736
""",
    ),
]


@pytest.mark.parametrize("name, argv, code, stdout", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(tmp_path, capsys, name, argv, code, stdout):
    paths = {}
    for key, text in FILES.items():
        paths[key] = str(tmp_path / f"{key}.txt")
        (tmp_path / f"{key}.txt").write_text(text)
    command, *rest = (arg.format(**paths) for arg in argv)
    scenario = ["--params", paths["params"], "--ocv", paths["ocv"], "--soa", paths["soa"]]
    assert main([command, *scenario, *rest]) == code
    assert capsys.readouterr().out == stdout
