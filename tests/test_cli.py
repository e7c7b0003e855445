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


SPLIT = ["splitting", "--L", "8.5", "--h-range", "1.2:1.2:1"]


@pytest.mark.parametrize("argv, names", [
    (["constants", "--config", "CFG"], "L > 2a (got L=1.5"),
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
    (SPLIT + ["--grid", "0"], "delta > 0 (got 0.0)"),
    (SPLIT + ["--grid", "-0.1"], "delta > 0 (got -0.1)"),
    (SPLIT + ["--grid", "nan"], "delta > 0 (got nan)"),
    (["verify", "--quick", "--grid", "0"], "delta > 0 (got 0.0)"),
    (["verify", "--quick", "--grid", "-0.1"], "delta > 0 (got -0.1)")],
    ids=["config-file", "L-nan", "L-inf", "depth-inf", "depth-nan", "a-nan",
         "spectrum-h-inf", "spectrum-h-nan", "spectrum-h-nan-radius",
         "spectrum-grid-0", "spectrum-radius-0", "splitting-grid-0",
         "splitting-grid-negative", "splitting-grid-nan", "verify-grid-0",
         "verify-grid-negative"])
def test_invalid_config_exit_2(tmp_path, capsys, argv, names):
    from magtun import cli

    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"well": {"profile": "bump", "depth": 1.0,
                                        "a": 1.0}, "L": 1.5}))
    assert cli.main([str(cfg) if a == "CFG" else a for a in argv]) == 2
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


@pytest.mark.parametrize("argv, calls", [
    (["sweep", "--L", "8.5", "--h-range", "1.2:1.2:1", "--with-splitting"],
     {"ground_state": 1, "hopping_direct": 1}),
    # one solve per distinct h: 0.5, 0.3 (full battery only), 0.1 and the
    # exponent sweep's 0.2, 0.14, 0.07, 0.05 (its 0.1 is the held case)
    (["verify", "--quick"], {"ground_state": 6, "hopping_direct": 1}),
    (["verify"], {"ground_state": 7, "hopping_direct": 2})],
    ids=["sweep", "verify", "verify-full"])
def test_each_stage_solved_once(monkeypatch, capsys, argv, calls):
    from magtun import cli, pipeline

    # count calls through every magtun module that binds the stage, so a
    # solve outside the pipeline is counted too
    modules = [m for k, m in sys.modules.items() if k.startswith("magtun.")]
    seen = dict.fromkeys(calls, 0)
    for name in calls:
        fn = getattr(pipeline, name)

        def counted(*args, _name=name, _fn=fn, **kw):
            seen[_name] += 1
            return _fn(*args, **kw)
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    assert cli.main(argv) == 0
    assert seen == calls


@pytest.mark.parametrize("argv", [["constants", "--tol", "1e-6"],
                                  ["hopping", "--h-range", "0.3:0.5:2",
                                   "--quick"]])
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
