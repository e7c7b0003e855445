"""Correctness checks on the CLI's printed output.

Only CSV values, comment-line numbers and `verify` status words are read;
the free-text detail of a verify line is never parsed.  Every case of a
command is checked; a case whose check cannot be made (missing row,
unparsable value, command error) counts as failed.
"""

from __future__ import annotations

import csv
import io
import math
import re

ROUTE_RTOL = 1e-5          # tests/test_hopping.py::test_route_agreement
RATIO_BAND = (0.5, 2.0)    # tests/test_splitting2d.py, gap / 2|w|
H_RTOL = 1e-9
_CORRIDOR = re.compile(r"^# corridor \[([^,\]]+),([^\]]+)\]$")


def _csv_rows(text):
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _num(row, key):
    return float(row[key])


def _same_h(got, want):
    return abs(got - want) <= H_RTOL * want


def _sweep_row(row, corridor):
    if row["note"]:
        return f"note {row['note']!r}"
    wd, wb = _num(row, "w_direct"), _num(row, "w_bessel")
    if not (math.isfinite(wd) and math.isfinite(wb) and wb != 0.0):
        return "non-finite w"
    gap = abs(wd - wb) / abs(wb)
    if not gap <= ROUTE_RTOL:
        return f"route gap {gap:.2e} > {ROUTE_RTOL:g}"
    return None


def _wchain_row(row, corridor):
    for k in ("log_W1", "log_W2", "log_W3", "log_W4"):
        if not math.isfinite(_num(row, k)):
            return f"{k} not finite"
    return None


def _splitting_row(row, corridor):
    if row["floor_flag"] != "ok":
        return f"floor_flag {row['floor_flag']!r}"
    if corridor is None:
        return "no corridor line"
    lnq = _num(row, "h_ln_gap")
    if not corridor[0] <= lnq <= corridor[1]:
        return f"h_ln_gap {lnq} outside corridor {corridor}"
    ratio = _num(row, "ratio")
    if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
        return f"gap/2|w| {ratio} outside {RATIO_BAND}"
    return None


_ROW_CHECK = {"sweep": _sweep_row, "wchain": _wchain_row,
              "splitting": _splitting_row}


def _corridor(text):
    for ln in text.splitlines():
        m = _CORRIDOR.match(ln.strip())
        if m:
            return float(m.group(1)), float(m.group(2))
    return None


def verify_statuses(text):
    """(name, STATUS) per battery line, from the leading words only."""
    out = []
    for ln in text.splitlines():
        words = ln.split(None, 2)
        if len(words) >= 2 and words[1].endswith(":"):
            out.append((words[1][:-1], words[0]))
    return out


def _check_verify(stdout):
    statuses = verify_statuses(stdout)
    if not statuses:
        return ["no check lines"]
    bad = [f"{name} {st}" for name, st in statuses if st not in ("PASS",
                                                                 "SKIP")]
    return [", ".join(bad)] if bad else [None]


def check_command(cmd, rc, stdout, error=None):
    """Per-case failure reasons (None where the case passed)."""
    n = len(cmd.cases)
    if error is not None:
        return [f"raised {error}"] * n
    if rc != 0:
        return [f"exit code {rc}"] * n
    if cmd.kind == "verify":
        return _check_verify(stdout)
    try:
        rows = _csv_rows(stdout)
        corridor = _corridor(stdout)
    except (csv.Error, ValueError) as exc:
        return [f"unparsable output: {exc}"] * n
    reasons = []
    for i, h in enumerate(cmd.hs):
        if i >= len(rows):
            reasons.append(f"missing row for h={h}")
            continue
        row = rows[i]
        try:
            if not _same_h(_num(row, "h"), h):
                reasons.append(f"row {i} has h={row['h']}, expected {h}")
                continue
            reasons.append(_ROW_CHECK[cmd.kind](row, corridor))
        except (KeyError, TypeError, ValueError) as exc:
            reasons.append(f"unparsable row {i}: {exc!r}")
    if len(rows) > len(cmd.hs):
        reasons[-1] = reasons[-1] or f"{len(rows)} rows, expected {n}"
    return reasons
