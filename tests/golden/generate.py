"""Write, or compare byte for byte, the golden outputs of the CLI.

    python tests/golden/generate.py           # rewrite every golden file
    python tests/golden/generate.py --exact   # list the commands that moved

Each golden file `<name>.json` holds one command's argv, exit code, stdout
and stderr (as lists of lines, newlines kept).  `run` executes every
command in one fresh interpreter through `magtun.cli.main`, with the three
BLAS thread variables at 1.  A command that builds no 2-D lattice prints
the same bytes at any BLAS thread count: its reductions are numpy's, in a
fixed order.  The lattice commands (`builds_lattice`) print the same bytes
only at one thread count, since the lattice's LU solves round differently
under each.  `tests/test_golden.py` compares the files with the tree's
output within stated tolerances, and the lattice-free commands' output at
1 and 2 threads byte for byte; `--exact` compares bytes with the files.  A
change that moves an output regenerates the files and says which commands
moved, by how much and why.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

SPLIT = ["splitting", "--L", "8.5", "--h-range", "1.2:1.2:1"]

COMMANDS = [
    # what each command prints
    ["constants"],
    ["spectrum", "--h", "1.0"],
    ["spectrum", "--h", "0.5", "--modes", "1", "--levels", "2"],
    ["wkb", "--h", "0.1"],
    ["hopping", "--h-range", "0.25:0.6:6"],
    ["sweep", "--h-range", "0.3:0.6:5"],
    ["sweep", "--L", "8.5", "--h-range", "0.8:1.4:4", "--with-splitting"],
    ["splitting", "--L", "8.5", "--h-range", "0.8:1.4:4"],
    ["asymptotics", "--action"],
    ["asymptotics", "--wchain", "--h-range", "0.05:0.3:5", "--eta", "0.05"],
    ["asymptotics", "--beta-sweep", "0.5,0.2,0.1,0.05"],
    ["verify", "--quick"],
    ["verify"],
    ["verify", "--L", "8.5"],
    ["sweep", "--h-range", "0.02:0.02:1"],
    ["sweep", "--h-range", "0.3:1e150:2"],
    ["sweep", "--h-range", "1e150:1e150:1"],
    ["constants", "--depth", "1e16"],
    # configuration errors, exit 2
    ["spectrum", "--h", "nan"],
    ["constants", "--L", "1.5"],
    ["constants", "--L", "nan"],
    ["constants", "--L", "inf"],
    ["constants", "--depth", "inf"],
    ["constants", "--depth", "nan"],
    ["constants", "--a", "nan"],
    ["constants", "--a", "1e-160"],
    ["constants", "--depth", "1e300", "--a", "1e-5"],
    ["spectrum", "--h", "inf", "--modes", "0"],
    ["spectrum", "--h", "1", "--modes", "-1"],
    ["wkb", "--h", "0.3", "--points", "0"],
    ["wkb", "--h", "1", "--depth", "1e300", "--a", "1e-5", "--points", "3"],
    ["asymptotics", "--beta-sweep", "nan"],
    ["asymptotics", "--beta-sweep", "0.5,inf"],
    ["asymptotics", "--beta-sweep", "1e-300"],
    ["asymptotics", "--beta-sweep", ","],
    ["asymptotics", "--action", "--eta", "7"],
    ["asymptotics", "--beta-sweep", "0.5", "--h-range", "0.1:0.3:4"],
    SPLIT + ["--grid", "0"],
    SPLIT + ["--grid", "-0.1"],
    SPLIT + ["--grid", "nan"],
    SPLIT + ["--box", "inf", "inf"],
    SPLIT + ["--grid", "1e-4"],
    SPLIT + ["--box", "1e300", "1e300"],
    ["verify", "--quick", "--grid", "0"],
    ["verify", "--quick", "--grid", "-0.1"],
    ["verify", "--quick", "--depth", "1e300", "--a", "1e-5"],
    ["sweep", "--h-range", "0.3:inf:2"],
    ["hopping", "--h-range", "0.3:inf:2"],
    ["hopping", "--h-range", "0.1:0.3"],
    ["hopping", "--h-range", "a:b:2"],
    ["hopping", "--h-range", "0.2:0.3:2.5"],
    # numerical failures, exit 3
    ["hopping", "--h-range", "0.02:0.02:1"],
    ["hopping", "--depth", "8", "--L", "8", "--h-range", "0.033:0.033:1",
     "--route", "direct"],
    ["spectrum", "--h", "1", "--modes", "0", "--depth", "1e160", "--a", "1"],
    ["wkb", "--h", "1", "--depth", "1e200", "--a", "1", "--points", "3"],
    ["constants", "--depth", "1e-320", "--a", "10", "--L", "30"],
    ["constants", "--depth", "1e-300", "--a", "1e3", "--L", "3000"],
    ["asymptotics", "--wchain", "--depth", "1e300", "--a", "1e-5", "--eta",
     "1e-6"],
    ["spectrum", "--h", "1.3e154", "--modes", "2"],
]

_RUNNER = """
import contextlib, io, json, sys
from magtun import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects the command line
            code = exc.code
    results.append({"argv": argv, "exit": code,
                    "stdout": out.getvalue().splitlines(keepends=True),
                    "stderr": err.getvalue().splitlines(keepends=True)})
json.dump(results, sys.stdout)
"""


def name(argv):
    """The golden file's stem: the argv with each run of other characters
    than letters, digits, '.' and '-' turned into one '_'."""
    return re.sub(r"[^\w.-]+", "_", " ".join(argv).replace("--", ""))


def builds_lattice(argv):
    """Whether the command may build a 2-D lattice."""
    return argv[0] in ("splitting", "verify") or "--with-splitting" in argv


def run(commands=COMMANDS, threads=1):
    """Each command's record, from one interpreter at `threads` BLAS
    threads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-c", _RUNNER],
                          input=json.dumps(commands), capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


def load():
    """The committed records, in COMMANDS order."""
    return [json.loads((HERE / f"{name(argv)}.json").read_text())
            for argv in COMMANDS]


def main(argv):
    names = [name(c) for c in COMMANDS]
    assert len(set(names)) == len(names), "two commands share a file name"
    results = run()
    if "--exact" in argv:
        moved = [" ".join(r["argv"]) for r, g in zip(results, load())
                 if r != g]
        for line in moved:
            print(f"moved: magtun {line}")
        print(f"{len(results) - len(moved)} of {len(results)} commands "
              "byte-identical")
        return 1 if moved else 0
    for stem, record in zip(names, results):
        (HERE / f"{stem}.json").write_text(json.dumps(record, indent=1)
                                           + "\n")
    print(f"wrote {len(results)} golden files to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
