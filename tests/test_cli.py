import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

BASE = [sys.executable, "-m", "magtun.cli"]


def run(*args, check=True):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def test_constants_csv():
    proc = run("constants")
    lines = proc.stdout.strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "name,value,error_bound"
    assert len(rows) == 11  # header + 10 constants
    names = [r.split(",")[0] for r in rows[1:]]
    assert names == ["S0", "Sa", "Shat", "r0", "Ra", "CL", "S", "t_a",
                     "D_mag", "interaction"]
    values = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert all(v == v and abs(v) < 1e6 for v in values.values())  # finite
    assert any("ordering Sa<Shat<S0: true" in c for c in comments)


@pytest.mark.parametrize("depth,a,L", [("1", "1", "4"), ("4", "1", "5"),
                                       ("0.5", "0.7", "3"), ("1", "1", "8.5")])
def test_constants_r0_bound_is_its_rounding_floor(capsys, depth, a, L):
    # g_eps(., 0) stays within one ulp of its minimum over a few 1e-8 of r,
    # so correct minimizers disagree there: the bound must cover two of
    # them (the bracket passes and scipy's bounded Brent) and stay within
    # 10x the measured half-width of that flat minimum
    import numpy as np
    from scipy.optimize import minimize_scalar

    from magtun import cli
    from magtun.numerics import PRESCAN
    from magtun.pipeline import Pipeline
    from magtun.potential import DoubleWellConfig, RadialWell

    assert cli.main(["constants", "--depth", depth, "--a", a, "--L", L]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()]
    r0, bound = next(map(float, r[1:]) for r in rows if r[0] == "r0")
    well = RadialWell.bump(depth=float(depth), a=float(a))
    profile = Pipeline(DoubleWellConfig(well, float(L))).profile

    def g(r):
        return profile.g_eps(r, 0.0)

    xs = np.linspace(0.0, well.a, PRESCAN)
    k = int(np.argmin(g(xs)))
    brent = minimize_scalar(g, bounds=(xs[k - 1], xs[k + 1]),
                            method="bounded", options={"xatol": 2.5e-10}).x
    scan = r0 + 1e-9 * np.arange(-400, 401)
    vals = g(scan)
    flat = scan[vals <= vals.min() + np.spacing(vals.min())]
    assert abs(brent - r0) <= bound <= 10 * (flat.max() - flat.min()) / 2


SPLIT = ["splitting", "--L", "8.5", "--h-range", "1.2:1.2:1"]


@pytest.mark.parametrize("argv, names", [
    (["constants", "--L", "1.5"], "L > 2a (got L=1.5"),
    (["constants", "--L", "nan"], "L > 2a (got L=nan"),
    (["constants", "--L", "inf"], "L > 2a (got L=inf"),
    (["constants", "--depth", "inf"], "depth > 0 (got inf)"),
    (["constants", "--depth", "nan"], "depth > 0 (got nan)"),
    (["constants", "--a", "nan"], "a > 0 (got nan)"),
    (["spectrum", "--h", "inf", "--modes", "0"], "h > 0 (got inf)"),
    (["spectrum", "--h", "nan", "--modes", "0"], "h > 0 (got nan)"),
    (["spectrum", "--h", "1", "--modes", "-1"], "need --modes >= 0 (got -1)"),
    (["spectrum", "--h", "1e300", "--modes", "0"],
     "need finite h^2 (got h=1e+300)"),
    (["wkb", "--h", "0.3", "--points", "0"], "need --points >= 1 (got 0)"),
    (["asymptotics", "--beta-sweep", "nan"],
     "need finite beta > 0 (got nan)"),
    (["asymptotics", "--beta-sweep", "0.5,inf"],
     "need finite beta > 0 (got inf)"),
    (["asymptotics", "--beta-sweep", "1e-300"],
     "need finite beta^-2 (got beta=1e-300)"),
    (["constants", "--a", "1e-160"],
     "need a with a^4 a nonzero finite double (got 1e-160)"),
    (SPLIT + ["--grid", "0"], "delta > 0 (got 0.0)"),
    (SPLIT + ["--grid", "-0.1"], "delta > 0 (got -0.1)"),
    (SPLIT + ["--grid", "nan"], "delta > 0 (got nan)"),
    (SPLIT + ["--box", "inf", "inf"], "box (inf,inf) is not finite"),
    (["verify", "--quick", "--grid", "0"], "delta > 0 (got 0.0)"),
    (["verify", "--quick", "--grid", "-0.1"], "delta > 0 (got -0.1)"),
    (["sweep", "--h-range", "0.3:inf:2"], "bad h-range 0.3:inf:2"),
    (["hopping", "--h-range", "0.3:inf:2"], "bad h-range 0.3:inf:2"),
    (["hopping", "--h-range", "0.1:0.3"], "bad h-range 0.1:0.3: need lo:hi:n"),
    (["hopping", "--h-range", "a:b:2"], "bad h-range a:b:2: need lo:hi:n"),
    (["hopping", "--h-range", "0.2:0.3:2.5"],
     "bad h-range 0.2:0.3:2.5: need lo:hi:n"),
    (["asymptotics", "--beta-sweep", ","], "bad --beta-sweep ,"),
    (["asymptotics", "--action", "--eta", "7"],
     "--h-range and --eta apply only with --wchain"),
    (["asymptotics", "--beta-sweep", "0.5", "--h-range", "0.1:0.3:4"],
     "--h-range and --eta apply only with --wchain"),
    (["wkb", "--h", "1", "--depth", "1e300", "--a", "1e-5", "--points", "3"],
     "(got depth=1e+300, a=1e-05)"),
    (["constants", "--depth", "1e300", "--a", "1e-5"],
     "need finite t_a and S (got t_a=nan, S=nan at depth=1e+300, a=1e-05)"),
    (["verify", "--quick", "--depth", "1e300", "--a", "1e-5"],
     "need finite t_a and S (got t_a=nan, S=nan at depth=1e+300, a=1e-05)"),
    (SPLIT + ["--grid", "1e-4"], "nodes is above MAX_LATTICE_NODES=500000"),
    (SPLIT + ["--box", "1e300", "1e300"], "nodes is above MAX_LATTICE_NODES"),
    (["verify", "--quick", "--grid", "0.2"],
     "delta=0.2 too coarse for h=0.5: need <= 0.1179"),
    (["verify", "--quick", "--grid", "1e-4"],
     "nodes is above MAX_LATTICE_NODES=500000")],
    ids=["L-below-2a", "L-nan", "L-inf", "depth-inf", "depth-nan", "a-nan",
         "spectrum-h-inf", "spectrum-h-nan", "spectrum-modes-negative",
         "spectrum-h-squared-inf",
         "wkb-points-0", "beta-sweep-nan", "beta-sweep-inf",
         "beta-sweep-tiny", "a-tiny", "splitting-grid-0",
         "splitting-grid-negative", "splitting-grid-nan", "splitting-box-inf",
         "verify-grid-0",
         "verify-grid-negative", "sweep-h-inf", "hopping-h-inf",
         "h-range-two-fields", "h-range-not-numbers", "h-range-n-not-int",
         "beta-sweep-empty", "action-with-eta", "beta-sweep-with-h-range",
         "wkb-infinite-curvature", "constants-nan-action", "verify-nan-action",
         "splitting-grid-above-cap", "splitting-box-above-cap",
         "verify-grid-too-coarse", "verify-grid-above-cap"])
def test_invalid_config_exit_2(capsys, argv, names):
    from magtun import cli

    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("config error: ") and names in err[0], err


def test_variational_gate_at_rounding_floor(capsys):
    # Sa = 3.08e8 misses its variational value by 3 ulps (1.8e-7): the
    # gate is 64 ulps of the value once that passes 1e-8
    from magtun import cli

    assert cli.main(["constants", "--depth", "1e16"]) == 0
    assert capsys.readouterr().err == ""


def test_numerical_failure_exit_3():
    # LAPACK's tridiagonal bisection does not converge on the h 1.3e154
    # fiber matrix: a NumericalError, not numpy's LinAlgError
    for argv, said in [
            (("hopping", "--h-range", "0.02:0.02:1"),
             "numerical error: AccuracyError: angular quadrature not "
             "converged: cancellation ratio kappa "),
            (("spectrum", "--h", "1.3e154", "--modes", "2"),
             "numerical error: NumericalError: stebz (eigh_tridiagonal) did "
             "not converge")]:
        proc = run(*argv, check=False)
        assert proc.returncode == 3, argv
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(said), lines
        assert " (estimate " in lines[0] and ", bound " in lines[0]


def test_underflowed_direct_sum_exit_3(capsys):
    # the angular sum underflows to w = 0, so kappa is infinite; the error
    # carries the finite absolute bound eps sum|f| and no numpy warning
    from magtun import cli

    argv = ["hopping", "--depth", "8", "--L", "8", "--h-range",
            "0.033:0.033:1", "--route", "direct"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert "kappa inf" in err[0] and "nan" not in err[0], err


@pytest.mark.parametrize("argv, said, unsaid", [
    # the inverse iteration runs on a power-of-two scaling of the matrix,
    # so these wells miss the energy tolerance with finite figures and no
    # numpy warning (which the suite's filterwarnings turns into an error)
    (["spectrum", "--h", "1", "--modes", "0", "--depth", "1e160", "--a", "1"],
     "AccuracyError: fiber eigenvalues not converged", ("nan", "inf")),
    (["wkb", "--h", "1", "--depth", "1e200", "--a", "1", "--points", "3"],
     "AccuracyError: fiber eigenvalues not converged", ("nan", "inf")),
    # the interaction term rounds away, so S passes Shat by 2 ulps: named
    # by its inputs and size, and not blamed on the code
    (["constants", "--depth", "1e-320", "--a", "10", "--L", "30"],
     "depth=1e-320, a=10.0, L=30.0: S <= Shat fails by 2 ulps of S",
     ("numerics bug",)),
    (["constants", "--depth", "1e-300", "--a", "1e3", "--L", "3000"],
     "depth=1e-300, a=1000.0, L=3000.0: S <= Shat fails by 2 ulps of S",
     ("numerics bug",)),
    # h comes from _h_range as python floats, so the fiber energies print
    # without a numpy scalar repr
    (["asymptotics", "--wchain", "--depth", "1e300", "--a", "1e-5", "--eta",
      "1e-6"], "InvariantViolation: fiber minimum at m=1", ("np.float64(",)),
    # S/h is about 760, so the Bessel route's linear sum reads 0: it raises
    # with log|w| rather than return a w that hopping divides by
    (["hopping", "--L", "30", "--h-range", "0.3:0.3:1", "--route", "bessel"],
     "AccuracyError: Bessel-route sum underflows: log|w| -757.2", ("inf",)),
    # LAPACK's bisection fails on the fiber matrix: a numerical failure,
    # not a configuration error
    (["spectrum", "--h", "1.3e154", "--modes", "2"],
     "NumericalError: stebz (eigh_tridiagonal) did not converge",
     ("config error", "LinAlgError"))],
    ids=["spectrum-depth-1e160", "wkb-depth-1e200", "corridor-depth-1e-320",
         "corridor-depth-1e-300", "wchain-fiber-energies",
         "bessel-sum-underflow", "spectrum-stebz"])
def test_exit_3_line_names_its_cause(capsys, argv, said, unsaid):
    from magtun import cli

    assert cli.main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and said in err[0], err
    assert not any(text in err[0] for text in unsaid), err


def test_asymptotics_takes_one_mode(capsys):
    from magtun import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["asymptotics", "--action", "--wchain", "--beta-sweep",
                  "0.5"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_spectrum_takes_no_L(capsys):
    # spectrum solves the single well: --L is not one of its flags
    from magtun import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--h", "1", "--L", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --L 5" in capsys.readouterr().err


def test_invariant_violation_exit_3(monkeypatch, capsys):
    from magtun import cli, pipeline, spectral

    def violated(*args, **kwargs):
        raise spectral.InvariantViolation("fiber minimum at m=1",
                                          estimate=0.5, error_bound=0.75)

    monkeypatch.setattr(pipeline, "ground_state", violated)
    assert cli.main(["wkb", "--h", "0.3"]) == 3
    assert capsys.readouterr().err == (
        "numerical error: InvariantViolation: fiber minimum at m=1 "
        "(estimate 0.5, bound 0.75)\n")


@pytest.mark.parametrize("stage, error, argv", [
    ("calibrate_outer", "OuterRepresentationError", ["wkb", "--h", "0.3"]),
    ("sharp_action", "ConsistencyError", ["constants"])],
    ids=["wkb", "constants"])
def test_every_numerical_error_exit_3(monkeypatch, capsys, stage, error,
                                      argv):
    import magtun
    from magtun import cli, pipeline

    exc = getattr(magtun, error)("stage failed", estimate=2.0, error_bound=1)
    monkeypatch.setattr(pipeline, stage, mock.Mock(side_effect=exc))
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        f"numerical error: {error}: stage failed (estimate 2, bound 1)\n")


# all three inside sharp_action, which verify's psi_minimizer reads too
ONE_ACTION = {"action_S0": 1, "action_Sa": 1, "minimizer_closed_form": 1}


@pytest.mark.parametrize("argv, calls", [
    (["sweep", "--L", "8.5", "--h-range", "1.2:1.2:1", "--with-splitting"],
     {"ground_state": 1, "hopping_direct": 1, **ONE_ACTION}),
    # one solve per distinct h: 0.5, 0.3 (full battery only), 0.1 and the
    # exponent sweep's 0.2, 0.14, 0.07, 0.05 (its 0.1 is the held case)
    (["verify", "--quick"],
     {"ground_state": 6, "hopping_direct": 1, **ONE_ACTION}),
    (["verify"], {"ground_state": 7, "hopping_direct": 2, **ONE_ACTION})],
    ids=["sweep", "verify", "verify-full"])
def test_each_stage_solved_once(monkeypatch, capsys, argv, calls):
    from magtun import agmon, asymptotics, cli, pipeline

    # count calls through every magtun module that binds the stage, so a
    # solve outside the pipeline is counted too; the pipeline binds no
    # action constant nor the minimizer, so those come from agmon and
    # asymptotics
    modules = [m for k, m in sys.modules.items() if k.startswith("magtun.")]
    seen = dict.fromkeys(calls, 0)
    for name in calls:
        fn = (getattr(pipeline, name, None) or getattr(agmon, name, None)
              or getattr(asymptotics, name))

        def counted(*args, _name=name, _fn=fn, **kw):
            seen[_name] += 1
            return _fn(*args, **kw)
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    assert cli.main(argv) == 0
    assert seen == calls


def test_variational_miss_fails_action(monkeypatch, capsys, config4):
    from magtun import asymptotics, cli
    from magtun.agmon import VariationalResult
    from magtun.verify import run_battery

    def off(profile):   # the variational value 1e-7 off S0
        value = float(profile.d(profile.L))
        return VariationalResult(value, value + 1e-7, 0.0)

    monkeypatch.setattr(asymptotics, "action_S0", off)
    assert cli.main(["constants"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "ConsistencyError" in err[0], err
    status = {r.name: r.status for r in run_battery(config4, quick=True)}
    assert status["action_corridor"] == "fail"


def _options(parser):
    """Every option string that some subcommand of parser accepts."""
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return {opt for sp in subparsers.choices.values()
            for opt in sp._option_string_actions}


@pytest.mark.parametrize("argv", [["constants", "--tol", "1e-6"],
                                  ["hopping", "--h-range", "0.3:0.5:2",
                                   "--quick"],
                                  ["verify", "--format", "json"],
                                  ["verify", "--output", "v.json"]])
def test_flags_only_where_read(argv):
    from magtun.cli import build_parser

    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(argv)
    parser.parse_args(["verify", "--quick"])
    # one CSV table on stdout, on the library's grid and tolerance
    assert not _options(parser) & {"--format", "--output", "--tol",
                                   "--radius", "--dump-eigenfunction"}


def test_spectrum_csv():
    proc = run("spectrum", "--h", "1.0", "--modes", "1")
    rows = proc.stdout.strip().splitlines()
    assert rows[0] == "m,j,energy"
    table = {(int(r.split(",")[0]), int(r.split(",")[1])):
             float(r.split(",")[2]) for r in rows[1:]}
    # canonical single well at h = 1: the m = 0 fiber is the ground fiber
    assert table[(0, 1)] == pytest.approx(0.798169, abs=1e-4)
    assert table[(0, 1)] < table[(1, 1)] < table[(-1, 1)]


def test_sweep_five_rows():
    out = run("sweep", "--h-range", "0.3:0.6:5").stdout
    rows = out.strip().splitlines()
    assert len(rows) == 6  # header + 5 data rows
    assert rows[0].startswith("h,w_direct,w_bessel,h_ln_w")


def test_sweep_row_notes_numerical_error(capsys):
    # the direct route raises at h 0.02; the row is annotated, not fatal
    from magtun import cli

    assert cli.main(["sweep", "--h-range", "0.02:0.02:1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[1] == "0.02,nan,nan,nan,nan,nan,error:AccuracyError"


def test_sweep_row_notes_lapack_failure(capsys):
    # LAPACK's bisection fails on the h 1e150 fiber matrix; that row is
    # annotated like any NumericalError, and h 0.3's row is kept as it is
    from magtun import cli

    assert cli.main(["sweep", "--h-range", "0.3:0.3:1"]) == 0
    alone = capsys.readouterr().out.strip().splitlines()[1]
    assert cli.main(["sweep", "--h-range", "0.3:1e150:2"]) == 0
    out = capsys.readouterr()
    rows = out.out.strip().splitlines()
    assert len(rows) == 3 and out.err == ""
    assert rows[1].endswith(",nan,nan,nan,nan,nan,error:NumericalError")
    assert rows[2] == alone and "nan" not in alone


def test_repeat_runs_byte_identical():
    out1 = run("constants").stdout
    out2 = run("constants").stdout
    assert out1 == out2
    args = ("sweep", "--h-range", "0.45:0.5:2")
    assert run(*args).stdout == run(*args).stdout
    args = ("splitting", "--L", "8.5", "--h-range", "1.2:1.2:1")
    assert run(*args).stdout == run(*args).stdout


def test_sweep_splitting_gated_without_fsw():
    out = run("sweep", "--h-range", "0.4:0.5:2", "--with-splitting").stdout
    rows = out.strip().splitlines()
    assert "gap" in rows[0]
    for row in rows[1:]:
        assert "fsw condition false" in row
        assert row.split(",")[6] == "nan"


def test_hopping_subcommand(capsys):
    from magtun import cli

    for spec, n, route in (("0.3:0.5:2", 2, "bessel"),
                           ("0.25:0.6:6", 6, "both")):
        assert cli.main(["hopping", "--h-range", spec, "--route", route]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "h,w_direct,w_bessel,h_ln_w,lower_env,upper_env"
        assert len(rows) == n + 1
        for row in rows[1:]:
            h, wd, wb, hlnw, lo, hi = (float(x) for x in row.split(","))
            assert lo <= hlnw / h <= hi   # the envelopes bracket ln|w|


def test_asymptotics_action():
    out = run("asymptotics", "--action").stdout
    rows = dict(l.split(",") for l in out.strip().splitlines()[1:])
    assert float(rows["S"]) == pytest.approx(5.0277727, abs=1e-5)


def test_asymptotics_beta():
    out = run("asymptotics", "--beta-sweep", "0.5,0.1").stdout
    rows = out.strip().splitlines()
    assert rows[0] == "beta,beta_S,nonmagnetic_action"
    assert len(rows) == 3


def test_splitting_subcommand():
    out = run("splitting", "--L", "8.5", "--h-range", "1.2:1.2:1").stdout
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert rows[0] == "h,e1,e2,gap,two_w,ratio,h_ln_gap,floor_flag"
    fields = rows[1].split(",")
    assert fields[-1] == "ok"
    assert 0.5 <= float(fields[5]) <= 2.0


def test_asymptotics_wchain():
    out = run("asymptotics", "--wchain", "--h-range", "0.3:0.3:1",
              "--eta", "0.05").stdout
    rows = out.strip().splitlines()
    assert rows[0] == "h,log_W1,log_W2,log_W3,log_W4"
    assert len(rows) == 2


def test_wkb_subcommand():
    out = run("wkb", "--h", "0.3", "--points", "50").stdout
    rows = out.strip().splitlines()
    assert rows[0] == "r,u_h,wkb_prediction,outer_prediction"
    assert len(rows) == 51
    # r_k = k (L + 1) / points, whatever grid the solver ended on
    assert [float(r.split(",")[0]) for r in rows[1:]] == \
        [5.0 * k / 50 for k in range(1, 51)]


# Runs one command of each kind in process and lists the public scipy
# subpackages that are then loaded, whether scipy's array-API layer is, and
# every scipy module loaded.
_SCIPY_TREE_SPY = """
import contextlib, io, json, sys
import magtun.cli
argvs = [["constants"], ["spectrum", "--h", "0.5"], ["wkb", "--h", "0.5"],
         ["hopping", "--h-range", "0.3:0.5:2"],
         ["sweep", "--h-range", "0.3:0.5:2"],
         ["asymptotics", "--action"],
         ["asymptotics", "--wchain", "--h-range", "0.3:0.3:1"],
         ["asymptotics", "--beta-sweep", "0.5,1"],
         ["verify", "--quick"],
         ["splitting", "--L", "8.5", "--h-range", "1.2:1.2:1",
          "--grid", "0.1"],
         ["sweep", "--L", "8.5", "--h-range", "1.2:1.2:1",
          "--with-splitting"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [magtun.cli.main(argv) for argv in argvs]
trees = {name for name, m in sys.modules.items() if name.count(".") == 1
         and name.startswith("scipy.") and not name[6:].startswith("_")
         and hasattr(m, "__path__")}
print(json.dumps([codes, sorted(trees),
                  "scipy._lib._array_api" in sys.modules,
                  sorted(name for name in sys.modules
                         if name.split(".")[0] == "scipy")]))
"""


def test_no_command_loads_unused_scipy_trees():
    # no command loads a public scipy subpackage: interpolate, integrate
    # and optimize cost a process about 0.2 s and 20 MB each, special 0.08
    # s and 3.6 MB, and scipy.linalg and scipy.sparse each load scipy's
    # array-API layer, about 0.2 s and 25 MB; magtun loads the compiled
    # LAPACK, SuperLU and i0e modules from their files instead, and those
    # four compiled modules are the only scipy modules any command loads
    proc = subprocess.run([sys.executable, "-c", _SCIPY_TREE_SPY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 11, [], False, sorted([
        "scipy.linalg._flapack", "scipy.special._special_ufuncs",
        "scipy.sparse._sparsetools",
        "scipy.sparse.linalg._dsolve._superlu"])]


LATTICE_STACK = ["magtun.splitting2d", "scipy.sparse._sparsetools",
                 "scipy.sparse.linalg._dsolve._superlu", "magtun.verify"]

# Runs every command that builds no lattice in one process, then splitting,
# then verify, and lists the lattice stack's modules loaded after each.
_LATTICE_IMPORT_SPY = """
import contextlib, io, json, sys
import magtun.cli
STACK = %r
argvs = [["constants"], ["spectrum", "--h", "0.5"], ["wkb", "--h", "0.5"],
         ["hopping", "--h-range", "0.3:0.5:2"],
         ["asymptotics", "--action"],
         ["asymptotics", "--wchain", "--h-range", "0.3:0.3:1"],
         ["asymptotics", "--beta-sweep", "0.5,1"],
         ["sweep", "--h-range", "0.3:0.5:2"]]
out = {}
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"] = [magtun.cli.main(argv) for argv in argvs]
    out["light"] = [m for m in STACK if m in sys.modules]
    out["codes"].append(magtun.cli.main(
        ["splitting", "--L", "8.5", "--h-range", "1.2:1.2:1", "--grid",
         "0.1"]))
    out["splitting"] = [m for m in STACK if m in sys.modules]
    out["codes"].append(magtun.cli.main(["verify", "--quick"]))
out["verify"] = [m for m in STACK if m in sys.modules]
print(json.dumps(out))
""" % LATTICE_STACK


def test_only_lattice_commands_load_the_lattice_stack():
    # the lattice module and SuperLU load only with a command that builds a
    # lattice
    proc = subprocess.run([sys.executable, "-c", _LATTICE_IMPORT_SPY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0] * 10, "light": [],
        "splitting": LATTICE_STACK[:3],
        "verify": LATTICE_STACK}


def test_lattice_names_resolve_on_first_use():
    import magtun
    from magtun import (MagneticLattice, assemble, gap_row, gap_vs_hopping,
                        landau_level_2d, lowest_two, splitting2d)

    assert (MagneticLattice, assemble, gap_row, gap_vs_hopping,
            landau_level_2d, lowest_two) == tuple(
        getattr(splitting2d, name) for name in magtun._LATTICE)
    with pytest.raises(AttributeError, match="no_such_name"):
        magtun.no_such_name


def test_constants_builds_one_agmon_table(capsys):
    from magtun import cli
    from magtun.agmon import AgmonProfile

    with mock.patch.object(AgmonProfile, "__init__", autospec=True,
                           side_effect=AgmonProfile.__init__) as spy:
        assert cli.main(["constants"]) == 0
    assert spy.call_count == 1


def test_readme_command_line_matches_parser():
    # the README's "Command line" section may name only what the parser
    # accepts: each example parses (without running) and each --flag exists
    from magtun import cli

    text = (Path(__file__).parents[1] / "README.md").read_text()
    start = text.index("\n## Command line\n")
    section = text[start:text.index("\n## ", start + 1)]
    parser = cli.build_parser()
    block = section.split("```sh\n")[1].split("```")[0]
    for line in block.splitlines():
        argv = shlex.split(re.sub(r"[][]", "", line), comments=True)
        assert argv[0] == "magtun", line
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    named = set(re.findall(r"--[A-Za-z][\w-]*", section))
    options = _options(parser)
    assert named and named <= options, sorted(named - options)
