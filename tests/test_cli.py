import json
import subprocess
import sys
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


def test_constants_json_matches_csv(tmp_path):
    csv_proc = run("constants")
    json_proc = run("constants", "--format", "json")
    payload = json.loads(json_proc.stdout)
    csv_rows = [l for l in csv_proc.stdout.splitlines()
                if not l.startswith("#")][1:]
    for row, entry in zip(csv_rows, payload["rows"]):
        name, value, _ = row.split(",")
        assert entry["name"] == name
        assert float(value) == pytest.approx(entry["value"], rel=1e-15)


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
# --config file bodies, by the placeholder that names them in argv
CONFIGS = {
    "CFG": {"well": {"profile": "bump", "depth": 1.0, "a": 1.0}, "L": 1.5},
    "CFG-NO-WELL": {"L": 4.0},
    "CFG-NO-DEPTH": {"well": {"profile": "bump", "a": 1.0}, "L": 4.0},
    "CFG-LIST": [1, 2],
    "CFG-NULL-DEPTH": {"well": {"profile": "bump", "depth": None, "a": 1.0}},
    "CFG-LIST-L": {"well": {"profile": "bump", "depth": 1.0, "a": 1.0},
                   "L": [4]},
    "CFG-STR-A": {"well": {"profile": "bump", "depth": 1.0, "a": "x"}},
    "CFG-BOOL-DEPTH": {"well": {"profile": "bump", "depth": True, "a": 1.0}},
    "CFG-STR-L": {"well": {"profile": "bump", "depth": 1.0, "a": 1.0},
                  "L": "4.0"},
}


@pytest.mark.parametrize("argv, names", [
    (["constants", "--config", "CFG"], "L > 2a (got L=1.5"),
    (["constants", "--config", "CFG-NO-WELL"], "config has no key 'well'"),
    (["constants", "--config", "CFG-NO-DEPTH"], "well has no key 'depth'"),
    (["constants", "--config", "CFG-LIST"],
     "config is not a JSON object: [1, 2]"),
    (["constants", "--config", "CFG-NULL-DEPTH"],
     "depth is not a number: None"),
    (["constants", "--config", "CFG-LIST-L"], "L is not a number: [4]"),
    (["constants", "--config", "CFG-STR-A"], "a is not a number: 'x'"),
    (["constants", "--config", "CFG-BOOL-DEPTH"],
     "depth is not a number: True"),
    (["constants", "--config", "CFG-STR-L"], "L is not a number: '4.0'"),
    (["constants", "--L", "nan"], "L > 2a (got L=nan"),
    (["constants", "--L", "inf"], "L > 2a (got L=inf"),
    (["constants", "--depth", "inf"], "depth > 0 (got inf)"),
    (["constants", "--depth", "nan"], "depth > 0 (got nan)"),
    (["constants", "--a", "nan"], "a > 0 (got nan)"),
    (["spectrum", "--h", "inf", "--modes", "0"], "h > 0 (got inf)"),
    (["spectrum", "--h", "nan", "--modes", "0"], "h > 0 (got nan)"),
    (["spectrum", "--h", "nan", "--radius", "20", "--modes", "0"],
     "h > 0 (got nan)"),
    (["spectrum", "--h", "1.0", "--modes", "0", "--grid", "0"], "n >= 400"),
    (["spectrum", "--h", "1.0", "--modes", "0", "--radius", "0"],
     "R=0.0 too small"),
    (["spectrum", "--h", "1", "--radius", "inf"], "need finite R (got inf)"),
    (["spectrum", "--h", "1", "--radius", "nan"], "need finite R (got nan)"),
    (["spectrum", "--h", "1", "--tol", "0"], "need finite tol > 0 (got 0.0)"),
    (["spectrum", "--h", "1", "--tol", "-1"],
     "need finite tol > 0 (got -1.0)"),
    (["spectrum", "--h", "1", "--tol", "nan"],
     "need finite tol > 0 (got nan)"),
    (["spectrum", "--h", "1", "--modes", "-1"], "need --modes >= 0 (got -1)"),
    (["wkb", "--h", "0.3", "--points", "0"], "need --points >= 1 (got 0)"),
    (["asymptotics", "--beta-sweep", "nan"],
     "need finite beta > 0 (got nan)"),
    (["asymptotics", "--beta-sweep", "0.5,inf"],
     "need finite beta > 0 (got inf)"),
    (["asymptotics", "--beta-sweep", "1e-300"],
     "need finite beta^-2 (got beta=1e-300)"),
    (["constants", "--a", "1e-160"],
     "need a with a^4 a nonzero finite double (got 1e-160)"),
    (["spectrum", "--h", "1", "--radius", "1e300"],
     "need finite R^2 (got R=1e+300)"),
    (["spectrum", "--h", "1", "--radius", "1e308"],
     "need finite R^2 (got R=1e+308)"),
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
     "(got depth=1e+300, a=1e-05)")],
    ids=["config-file", "config-no-well", "config-no-depth", "config-list",
         "config-null-depth", "config-list-L", "config-str-a",
         "config-bool-depth", "config-str-L",
         "L-nan", "L-inf", "depth-inf", "depth-nan", "a-nan",
         "spectrum-h-inf", "spectrum-h-nan", "spectrum-h-nan-radius",
         "spectrum-grid-0", "spectrum-radius-0", "spectrum-radius-inf",
         "spectrum-radius-nan", "spectrum-tol-0", "spectrum-tol-negative",
         "spectrum-tol-nan", "spectrum-modes-negative", "wkb-points-0",
         "beta-sweep-nan", "beta-sweep-inf", "beta-sweep-tiny", "a-tiny",
         "spectrum-radius-1e300", "spectrum-radius-1e308", "splitting-grid-0",
         "splitting-grid-negative", "splitting-grid-nan", "splitting-box-inf",
         "verify-grid-0",
         "verify-grid-negative", "sweep-h-inf", "hopping-h-inf",
         "h-range-two-fields", "h-range-not-numbers", "h-range-n-not-int",
         "beta-sweep-empty", "action-with-eta", "beta-sweep-with-h-range",
         "wkb-infinite-curvature"])
def test_invalid_config_exit_2(tmp_path, capsys, argv, names):
    from magtun import cli

    cfg = tmp_path / "bad.json"
    for a in set(argv) & set(CONFIGS):
        cfg.write_text(json.dumps(CONFIGS[a]))
    assert cli.main([str(cfg) if a in CONFIGS else a for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("config error: ") and names in err[0], err


def test_numerical_failure_exit_3():
    proc = run("hopping", "--h-range", "0.02:0.02:1", check=False)
    assert proc.returncode == 3
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical error: AccuracyError: angular "
                               "quadrature not converged: cancellation "
                               "ratio kappa ")
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
      "1e-6"], "InvariantViolation: fiber minimum at m=1", ("np.float64(",))],
    ids=["spectrum-depth-1e160", "wkb-depth-1e200", "corridor-depth-1e-320",
         "corridor-depth-1e-300", "wchain-fiber-energies"])
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


@pytest.mark.parametrize("argv", [["constants", "--tol", "1e-6"],
                                  ["hopping", "--h-range", "0.3:0.5:2",
                                   "--quick"],
                                  ["verify", "--format", "json"],
                                  ["verify", "--output", "v.json"]])
def test_flags_only_where_read(argv):
    from magtun.cli import build_parser
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    build_parser().parse_args(["spectrum", "--h", "1", "--tol", "1e-6"])
    build_parser().parse_args(["verify", "--quick"])


def test_spectrum_csv(tmp_path):
    dump = tmp_path / "eig.csv"
    proc = run("spectrum", "--h", "1.0", "--modes", "1", "--radius", "16",
               "--grid", "8000", "--dump-eigenfunction", str(dump))
    eig_rows = dump.read_text().strip().splitlines()
    assert eig_rows[0] == "r,u"
    assert len(eig_rows) > 8000
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


def test_hopping_subcommand(tmp_path):
    out_file = tmp_path / "hop.csv"
    run("hopping", "--h-range", "0.3:0.5:2", "--route", "bessel",
        "--output", str(out_file))
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "h,w_direct,w_bessel,h_ln_w,lower_env,upper_env"
    assert len(rows) == 3
    for row in rows[1:]:
        h, wd, wb, hlnw, lo, hi = (float(x) for x in row.split(","))
        assert lo <= hlnw / h * h  # corridor brackets the data
        assert lo <= hi


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


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Records the thread variables at the moment numpy is first imported.
_NUMPY_IMPORT_SPY = f"""
import json, os, sys
seen = {{}}

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in {THREAD_VARS!r}}})
        return None

sys.meta_path.insert(0, Spy())
import magtun.cli
print(json.dumps(seen))
"""


def test_thread_cap_set_before_numpy_loads():
    import os
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["MAGTUN_THREADS"] = "3"
    env["MKL_NUM_THREADS"] = "2"   # an explicit setting wins
    proc = subprocess.run([sys.executable, "-c", _NUMPY_IMPORT_SPY],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "3",
                    "MKL_NUM_THREADS": "2"}


SCIPY_ALLOWED = ["scipy.linalg", "scipy.sparse"]

# Runs one command of each kind in process and lists the public scipy
# subpackages that are then loaded.
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
          "--grid", "0.1"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [magtun.cli.main(argv) for argv in argvs]
trees = {name for name, m in sys.modules.items() if name.count(".") == 1
         and name.startswith("scipy.") and not name[6:].startswith("_")
         and hasattr(m, "__path__")}
print(json.dumps([codes, sorted(trees)]))
"""


def test_no_command_loads_unused_scipy_trees():
    # every other subpackage costs every process import time and memory
    # for nothing magtun calls: interpolate, integrate and optimize about
    # 0.2 s and 20 MB each, special 0.08 s and 3.6 MB
    proc = subprocess.run([sys.executable, "-c", _SCIPY_TREE_SPY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 10, SCIPY_ALLOWED]
