"""Self-tests of the benchmark harness (generator, checker, tracer).

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check_command  # noqa: E402
from run import END_TO_END_UNITS, layer_units, sanity_failures  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    A, FLOOR_MARGIN, GAP_FLOOR, WORKLOADS, Command, h_grid, in_domain, plan,
    sharp_action_table)

SEEDS = range(40)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_is_deterministic_per_seed(workload):
    assert plan(workload, 7, 3) == plan(workload, 7, 3)
    assert plan(workload, 7, 3) != plan(workload, 8, 3)
    # more rounds extend the same sequence
    assert plan(workload, 7, 3)[:2] == plan(workload, 7, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cases_in_domain_and_unique(workload):
    for seed in SEEDS:
        cmds = [c for r in plan(workload, seed, 3) for c in r]
        assert all(in_domain(c) for c in cmds), seed
        cases = [k for c in cmds for k in c.cases]
        assert len(cases) == len(set(cases)), seed


def test_lattice_floor_margin_against_program():
    sys.path.insert(0, str(ROOT / "src"))
    from magtun import RadialWell
    from magtun.asymptotics import sharp_action

    well = RadialWell.bump(depth=1.0, a=A)
    cmds = [c for seed in range(4) for r in plan("lattice_split", seed, 1)
            for c in r]
    for c in cmds:
        S = sharp_action(well, c.L).S
        assert sharp_action_table(c.L) >= S - 1e-9
        for h in c.hs:
            assert math.exp(-S / h) >= FLOOR_MARGIN * GAP_FLOOR
            assert float(c.argv[-1]) <= min(math.sqrt(h) / 6.0, A / 10.0)


SWEEP_HEADER = "h,w_direct,w_bessel,h_ln_w,log_w0_minus,log_w0_plus,note"


def _sweep(rows):
    cmd = Command("sweep", ("sweep",), 1.0, 4.0, h_grid(0.2, 0.5, 2))
    lines = [SWEEP_HEADER]
    for h, (wd, wb, note) in zip(cmd.hs, rows):
        lines.append(f"{h!r},{wd!r},{wb!r},-5.0,-12.0,-9.0,{note}")
    return cmd, "\n".join(lines) + "\n"


def test_checker_accepts_agreeing_routes():
    cmd, text = _sweep([(-2e-4, -2.000001e-4, ""), (-2e-7, -2e-7, "")])
    assert check_command(cmd, 0, text) == [None, None]


@pytest.mark.parametrize("bad", [
    (-2e-7, 2e-7, ""),                         # flipped w_bessel sign
    (-2e-7, -2.1e-7, ""),                      # routes 5% apart
    (float("nan"), float("nan"), "error:AccuracyError"),
])
def test_checker_flags_corrupted_row(bad):
    cmd, text = _sweep([(-2e-4, -2e-4, ""), bad])
    reasons = check_command(cmd, 0, text)
    assert reasons[0] is None and reasons[1] is not None


def test_checker_counts_missing_rows_and_errors():
    cmd, text = _sweep([(-2e-4, -2e-4, "")])
    assert check_command(cmd, 0, text)[1].startswith("missing row")
    assert all(check_command(cmd, 1, text))
    assert all(check_command(cmd, 0, "", error="RuntimeError: x"))


def _splitting(flag, h_ln_gap, ratio):
    cmd = Command("splitting", ("splitting", "--grid", "0.1"), 1.0, 8.5,
                  (1.0,))
    text = ("# corridor [-24.313437,-12.686129]\n# fsw_condition True\n"
            "h,e1,e2,gap,two_w,ratio,h_ln_gap,floor_flag\n"
            f"1.0,0.79,0.79,4e-09,3.9e-09,{ratio},{h_ln_gap},{flag}\n")
    return check_command(cmd, 0, text)


def test_checker_splitting_rows():
    assert _splitting("ok", -19.3, 1.09) == [None]
    assert _splitting("floor(gap below 100x residual)", -19.3, 1.09)[0]
    assert _splitting("ok", -30.0, 1.09)[0]
    assert _splitting("ok", -19.3, 2.5)[0]


def test_checker_verify_reads_status_words_only():
    cmd = Command("verify", ("verify",), 1.0, 4.0, ())
    good = ("PASS    oscillator: max deviation np.float64(FAIL)\n"
            "SKIP    splitting_gap: fsw condition false for this config\n")
    assert check_command(cmd, 0, good) == [None]
    bad = good + "FAIL    landau_level: lattice rel +1e-01\n"
    assert check_command(cmd, 1, bad)[0]
    assert check_command(cmd, 0, bad)[0] == "landau_level FAIL"
    assert check_command(cmd, 0, "")[0]


def test_self_time_is_total_minus_child_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    child = tracer.wrap("m.child", lambda dt: tick(dt))

    def parent_body():
        tick(1.0)
        child(2.0)
        child(0.5)
        tick(0.25)

    def failing():
        tick(0.125)
        raise RuntimeError

    parent = tracer.wrap("m.parent", parent_body)
    boom = tracer.wrap("m.boom", failing)
    parent()
    with pytest.raises(RuntimeError):
        boom()
    p, c = tracer.stats["m.parent"], tracer.stats["m.child"]
    assert p["calls"] == 1 and c["calls"] == 2
    assert p["total_s"] == 3.75 and c["total_s"] == 2.5
    assert p["self_s"] == p["total_s"] - c["total_s"]
    assert tracer.stats["m.boom"]["errors"] == 1
    assert tracer.top_level_s == 3.875


def test_sanity_check_flags_low_coverage_and_bypass_calls():
    layers = {name: 0 for name in layer_units()}
    layers["trace.coverage"] = 0.95
    assert sanity_failures("lattice_split", layers) == []
    layers["numerics.log_integral_exp.calls"] = 3
    assert sanity_failures("lattice_split", layers)
    assert sanity_failures("tunnel_sweep", layers) == []
    layers["splitting2d.lowest_two.calls"] = 1
    assert sanity_failures("tunnel_sweep", layers)
    assert sanity_failures("wchain_small_h", layers)
    layers = {name: 0 for name in layer_units()}
    layers["trace.coverage"] = 0.85
    assert sanity_failures("verify_battery", layers)


def test_benchmark_json_names_match_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layer_units()


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tunnel_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
