"""The checked CLI commands against their committed golden outputs.

`tests/golden/generate.py` lists the commands and wrote the files; here
they all run again in one interpreter at one BLAS thread, and those that
build no lattice once more at two threads, where they must print the same
bytes.  Exit codes and every non-numeric piece of text must match exactly.
Numbers must agree within RTOL relative, since another host may round
differently, except the 2-D gap columns, which carry the rounding of the
two levels they subtract: 8 ulp of the larger level (the rounding
`splitting2d.gap_row` flags), and every level these commands print stays
below LEVEL_MAX.  Residuals that sit at rounding level (verify's `8.9e-16`
and the like) can move on a host with another BLAS; regenerate the files
there.
"""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

RTOL = 1e-12
LEVEL_MAX = 2.0
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _tolerances(header, cells):
    """(rtol, atol) of each cell of a CSV data row under header."""
    tol = [(RTOL, 0.0)] * len(cells)
    if "gap" not in header or len(header) != len(cells):
        return tol
    gap = abs(float(cells[header.index("gap")]))
    if not 0 < gap < math.inf:
        return tol
    if "e2" in header:
        assert float(cells[header.index("e2")]) < LEVEL_MAX
    rel = 8 * np.spacing(LEVEL_MAX) / gap   # the gap's rounding, relative
    for i, col in enumerate(header):
        if col in ("gap", "ratio", "gap_over_2w"):
            tol[i] = (max(RTOL, rel), 0.0)
        elif col == "h_ln_gap":
            tol[i] = (RTOL, float(cells[header.index("h")]) * rel)
    return tol


def _differs(got, want, rtol, atol):
    """Whether two strings differ in their text or beyond tolerance in a
    number."""
    a, b = NUMBER.split(got), NUMBER.split(want)
    if len(a) != len(b) or a[::2] != b[::2]:
        return True
    return any(abs(float(x) - float(y)) > atol + rtol * abs(float(y))
               for x, y in zip(a[1::2], b[1::2]))


def _stream_differs(got, want):
    """Whether two outputs, as lists of lines, differ beyond tolerance; a
    line is compared cell by cell between its commas."""
    if len(got) != len(want):
        return True
    header = []
    for g, w in zip(got, want):
        mine, cells = g.split(","), w.split(",")
        if NUMBER.fullmatch(cells[0]):   # a CSV data row
            tol = _tolerances(header, cells)
        else:   # a CSV header, a comment or a line of text
            header = w.rstrip("\n").split(",")
            tol = [(RTOL, 0.0)] * len(cells)
        if len(mine) != len(cells) or any(
                _differs(x, y, *t) for x, y, t in zip(mine, cells, tol)):
            return True
    return False


@pytest.fixture(scope="module")
def one_thread():
    """Every command's record at one BLAS thread."""
    return generate.run()


def test_golden_outputs(one_thread):
    moved = [" ".join(want["argv"]) for got, want in
             zip(one_thread, generate.load())
             if got["exit"] != want["exit"]
             or _stream_differs(got["stdout"], want["stdout"])
             or _stream_differs(got["stderr"], want["stderr"])]
    assert not moved, moved


def test_lattice_free_outputs_independent_of_blas_threads(one_thread):
    # the 1-D path reduces in numpy's fixed order, never through a BLAS dot
    # product, whose summation order follows the thread count
    records = [r for r in one_thread if not generate.builds_lattice(r["argv"])]
    two_threads = generate.run([r["argv"] for r in records], threads=2)
    moved = [" ".join(one["argv"]) for one, two in zip(records, two_threads)
             if one != two]
    assert not moved, moved


def test_golden_files_match_commands():
    # a dropped command would leave a stale file that load() never reads
    files = {p.stem for p in generate.HERE.glob("*.json")}
    assert files == {generate.name(argv) for argv in generate.COMMANDS}
