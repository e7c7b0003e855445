"""magtun benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tunnel_sweep --seed 0 \
        --seconds 12 --trace 0

Run from a source checkout (the package is imported from ./src).  With
--trace 0 it times the workload untraced and prints wall_s, setup_s,
peak_rss_mb and pass_frac; with --trace 1 it runs the same commands once
untraced and once traced and prints the per-layer metrics.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_command
from spans import COUNTS, SPAN_FIELDS, TRACED
from workloads import WORKLOADS, plan, rounds_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the measured process is single-threaded and the machine
# may be shared, so extra BLAS threads would add contention noise, not speed.
BLAS_THREADS = 1
# setup_s is the minimum over this many fresh-interpreter imports: a slow
# phase of a shared host only ever adds time, so the fastest sample is the
# steadiest estimate of the import's own cost.
SETUP_SAMPLES = 10
DEADLINE_S = 170.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import magtun.cli; "
                "print(time.perf_counter() - t)")

# Layers each workload is meant to bypass; a traced call into one fails
# the run's sanity check, as does top-level span coverage below the floor.
BYPASS = {
    "tunnel_sweep": ("splitting2d.", "asymptotics.w_chain", "verify."),
    "wchain_small_h": ("splitting2d.", "hopping.hopping_direct",
                       "hopping.hopping_bessel", "verify."),
    "lattice_split": ("numerics.log_integral_exp", "hopping.hopping_bessel",
                      "asymptotics.w_chain", "verify."),
    "verify_battery": ("asymptotics.w_chain",),
}
MIN_COVERAGE = 0.9

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "frac"}


def layer_units():
    units = {}
    for module, attr in TRACED:
        for field in SPAN_FIELDS:
            units[f"{module}.{attr}.{field}"] = \
                "s" if field.endswith("_s") else "count"
    units.update({name: "count" for name in COUNTS})
    units.update({"process.cpu_s": "s", "trace.overhead_frac": "ratio",
                  "trace.coverage": "frac"})
    return units


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("MAGTUN_THREADS", None)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


def machine_facts(env):
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            **{var: env[var] for var in THREAD_VARS}}


def import_seconds(env, timeout):
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"importing magtun.cli failed ({proc.returncode})")
    return float(proc.stdout.strip().splitlines()[-1])


def run_child(commands, env, trace, timeout):
    argv = [sys.executable, str(HERE / "child.py")] + \
        (["--trace"] if trace else [])
    payload = json.dumps([[list(c.argv) for c in r] for r in commands])
    try:
        proc = subprocess.run(argv, input=payload, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"measured process exited {proc.returncode}")
    return json.loads(proc.stdout)


def round_walls(result):
    return [r[-1]["t1"] - r[0]["t0"] for r in result["rounds"]]


def check_result(commands, result):
    """(attempted, failed) over every case, failures listed on stderr."""
    attempted = failed = 0
    for cmds, outs in zip(commands, result["rounds"]):
        for cmd, out in zip(cmds, outs):
            reasons = check_command(cmd, out["rc"], out["stdout"],
                                    out["error"])
            attempted += len(reasons)
            for reason in filter(None, reasons):
                failed += 1
                print(f"FAILED {' '.join(cmd.argv)}: {reason}",
                      file=sys.stderr)
    return attempted, failed


def sanity_failures(workload, layers):
    problems = []
    if layers["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {layers['trace.coverage']:.3f} "
                        f"< {MIN_COVERAGE}")
    for name, value in layers.items():
        if name.endswith(".calls") and value and \
                name.startswith(BYPASS[workload]):
            problems.append(f"{name} = {value} on a workload that bypasses it")
    return problems


def measure(workload, seed, seconds, trace):
    """(attempted, failed, metrics, facts) for one run."""
    start = time.monotonic()
    env = child_env()
    facts = machine_facts(env)

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    if not trace:
        commands = plan(workload, seed, rounds_for(workload, seconds))
        setup = min(import_seconds(env, remaining())
                    for _ in range(SETUP_SAMPLES))
        result = run_child(commands, env, False, remaining())
        attempted, failed = check_result(commands, result)
        metrics = {"wall_s": statistics.median(round_walls(result)),
                   "setup_s": setup,
                   "peak_rss_mb": result["peak_rss_mb"],
                   "pass_frac": (attempted - failed) / attempted}
        units = END_TO_END_UNITS
    else:
        # half the time untraced, the same commands again traced
        commands = plan(workload, seed, rounds_for(workload, seconds / 2))
        base = run_child(commands, env, False, remaining() / 2)
        result = run_child(commands, env, True, remaining())
        a0, f0 = check_result(commands, base)
        a1, f1 = check_result(commands, result)
        traced_wall = sum(round_walls(result))
        metrics = dict(result["layers"])
        metrics["process.cpu_s"] = base["cpu_s"]
        metrics["trace.overhead_frac"] = traced_wall / sum(round_walls(base))
        metrics["trace.coverage"] = result["top_level_s"] / traced_wall
        problems = sanity_failures(workload, metrics)
        for p in problems:
            print(f"FAILED sanity: {p}", file=sys.stderr)
        attempted, failed = a0 + a1 + 1, f0 + f1 + bool(problems)
        units = layer_units()
    facts.update(result["versions"], os_threads=result["os_threads"],
                 rounds=len(commands), seed=seed, workload=workload)
    return attempted, failed, {k: {"value": metrics[k], "unit": units[k]}
                               for k in units}, facts


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which then kills the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "magtun" / "cli.py").is_file():
        print(f"no magtun source under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        attempted, failed, metrics, facts = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"facts": facts}))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {failed / attempted:.6g} frac "
          f"({failed} of {attempted} cases)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
