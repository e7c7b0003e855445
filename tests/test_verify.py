import subprocess
import sys

from magtun import Case
from magtun.verify import run_battery

BASE = [sys.executable, "-m", "magtun.cli"]


def test_verify_quick_passes():
    proc = subprocess.run(BASE + ["verify", "--quick"], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert all(l.startswith(("PASS", "SKIP")) for l in lines)
    assert any(l.startswith("SKIP") and "splitting_gap" in l for l in lines)


def test_verify_injected_fault_named():
    # a lattice spacing too coarse for the Landau check must produce a
    # failure named landau_level and exit 1
    proc = subprocess.run(BASE + ["verify", "--quick", "--grid", "0.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    failing = [l for l in proc.stdout.splitlines() if l.startswith("FAIL")]
    assert failing and "landau_level" in failing[0]


def test_verify_splitting_detail_plain_floats():
    # L 8.5 satisfies the fsw condition, so the full battery runs the
    # splitting check, whose detail lists the gap / 2|w| ratios
    proc = subprocess.run(BASE + ["verify", "--L", "8.5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert any(l.startswith("PASS") and "splitting_gap" in l
               and "ratios [" in l for l in lines), proc.stdout
    assert not [l for l in lines if "np." in l]


def test_hopping_reality_reads_every_route_h(config4, monkeypatch):
    # a w_direct at h 0.3 with Im/|w| = 1e-6 fails the full battery, which
    # checks both routes at h 0.5 and 0.3; --quick never reads h 0.3
    read = []

    def w_direct(case):
        read.append(case.h)
        return complex(1.0, 1e-6 if case.h == 0.3 else 0.0)

    monkeypatch.setattr(Case, "w_direct", property(w_direct))
    monkeypatch.setattr(Case, "w_bessel", property(lambda case: 1.0))
    full = {r.name: r for r in run_battery(config4)}
    assert full["hopping_reality"].status == "fail"
    assert full["hopping_reality"].detail == "|Im w|/|w| = 1.0e-06"
    assert 0.3 in read
    read.clear()
    quick = {r.name: r for r in run_battery(config4, quick=True)}
    assert quick["hopping_reality"].status == "pass"
    assert 0.3 not in read
