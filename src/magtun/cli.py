"""Command-line front end.

Subcommands: constants | spectrum | wkb | hopping | asymptotics | splitting
| sweep | verify.  Output is CSV (17 significant digits, stable formatting)
or JSON mirroring the same values.  Exit codes: 0 success, 1 assertion
failure (verify), 2 configuration error, 3 numerical failure (any
NumericalError, such as a tolerance not reached or an invariant violated;
one stderr line gives the estimate and the bound).  MAGTUN_THREADS caps the
BLAS thread pool (applied when the magtun package is imported).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .numerics import NumericalError
from .pipeline import Case, Pipeline
from .potential import DoubleWellConfig, RadialWell, WellValidationError

_FMT = "%.17g"


def _emit(rows, header, fmt, output, comments=()):
    """rows: list of tuples matching header; values formatted at 17 digits."""
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps({"rows": payload, "meta": list(comments)},
                          indent=2, default=float) + "\n"
    else:
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(
                _FMT % v if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args):
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        well = RadialWell.from_dict(data["well"])
        L = float(data.get("L", 4.0))
    else:
        well = RadialWell.bump(depth=args.depth, a=args.a)
        L = args.L
    return DoubleWellConfig(well, L)


def _h_range(spec):
    """lo:hi:n -> geometric grid from hi down to lo (n = 1 gives just hi)."""
    lo, hi, n = spec.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if not (0 < lo <= hi) or n < 1:
        raise ValueError("bad h-range")
    return list(np.geomspace(hi, lo, n))


def cmd_constants(args):
    from .agmon import corridor_CL, remainder_Ra

    pipe = Pipeline(_load_config(args))
    prof = pipe.profile
    ra = remainder_Ra(prof)
    cl = corridor_CL(prof)
    report = pipe.action
    qerr = prof.d_a_error
    rows = [
        ("S0", report.S0, 2 * qerr),
        ("Sa", report.Sa, 2 * qerr),
        ("Shat", report.Shat, 2 * qerr),
        ("r0", report.r0, 1e-9),
        ("Ra", ra.value, abs(ra.value - ra.direct) + 2 * qerr),
        ("CL", cl.value, 0.0),
        ("S", report.S, 2 * qerr),
        ("t_a", report.t_a, 0.0),
        ("D_mag", report.D_mag, qerr),
        ("interaction", report.interaction, 3 * qerr),
    ]
    ordering = bool(report.Sa < report.Shat < report.S0)
    _emit(rows, ("name", "value", "error_bound"), args.format, args.output,
          comments=(f"ordering Sa<Shat<S0: {str(ordering).lower()}",))
    return 0


def cmd_spectrum(args):
    from .spectral import FiberProblem, default_radius, solve_fiber

    config = _load_config(args)
    well = config.well
    R = default_radius(well, args.h) if args.radius is None else args.radius
    n = max(int(R / 1e-3), 4000) if args.grid is None else args.grid
    rows = []
    dump = None
    for m in range(-args.modes, args.modes + 1):
        sol = solve_fiber(FiberProblem(m=m, h=args.h, R=R, n=n, well=well),
                          k=args.levels, tol=args.tol)
        for j, e in enumerate(sol.energies, start=1):
            rows.append((m, j, float(e)))
        if m == 0:
            dump = sol
    _emit(rows, ("m", "j", "energy"), args.format, args.output)
    if args.dump_eigenfunction and dump is not None:
        _emit(list(zip(dump.grid.tolist(), dump.u.tolist())),
              ("r", "u"), "csv", args.dump_eigenfunction)
    return 0


def cmd_wkb(args):
    pipe = Pipeline(_load_config(args))
    case = Case(pipe, args.h)
    sol, outer = case.ground, case.outer
    prof, amp = pipe.profile, pipe.amplitude
    rs = np.linspace(sol.grid[0], pipe.L + 1.0, args.points)
    outside = rs >= pipe.well.a
    log_outer = np.full(rs.shape, np.nan)   # the representation needs r >= a
    log_outer[outside] = outer.log_u(rs[outside])
    rows = []
    for r, log_out in zip(rs, log_outer):
        u = math.exp(float(sol.log_u(r)))
        wkb = math.exp(float(amp.log_a0(r)) - float(prof.d(r)) / args.h) \
            / math.sqrt(args.h)
        rows.append((float(r), u, wkb, math.exp(log_out)))
    _emit(rows, ("r", "u_h", "wkb_prediction", "outer_prediction"),
          args.format, args.output)
    return 0


def cmd_hopping(args):
    pipe = Pipeline(_load_config(args))
    S0, Sa = pipe.action.S0, pipe.action.Sa
    rows = []
    c_tilde = None
    for h in _h_range(args.h_range):
        case = Case(pipe, h)
        wd = wb = float("nan")
        if args.route in ("direct", "both"):
            wd = case.w_direct.real
        if args.route in ("bessel", "both"):
            wb = case.w_bessel
        w_ref = wb if not math.isnan(wb) else wd
        if c_tilde is None:
            # fit the corridor constant once, at the largest h
            c_tilde = max(h * math.exp(-S0 / h) / abs(w_ref),
                          abs(w_ref) * h * math.exp(Sa / h)) * 1.000001
        lower = math.log(h / c_tilde) - S0 / h
        upper = math.log(c_tilde / h) - Sa / h
        rows.append((h, wd, wb, h * math.log(abs(w_ref)), lower, upper))
    _emit(rows, ("h", "w_direct", "w_bessel", "h_ln_w", "lower_env",
                 "upper_env"), args.format, args.output)
    return 0


def cmd_asymptotics(args):
    from .asymptotics import beta_scaling, nonmagnetic_action, w_chain

    pipe = Pipeline(_load_config(args))
    well, L = pipe.well, pipe.L
    if args.action:
        rows = [(k, float(v)) for k, v in pipe.action.__dict__.items()]
        _emit(rows, ("name", "value"), args.format, args.output)
        return 0
    if args.beta_sweep:
        target = nonmagnetic_action(well, L)
        rows = []
        for beta in [float(b) for b in args.beta_sweep.split(",")]:
            rows.append((beta, beta_scaling(well, L, beta), target))
        _emit(rows, ("beta", "beta_S", "nonmagnetic_action"),
              args.format, args.output)
        return 0
    if args.wchain:
        rows = []
        for h in _h_range(args.h_range):
            case = Case(pipe, h)
            res = w_chain(case.ground, case.outer, pipe.amplitude,
                          pipe.profile, args.eta)
            rows.append((h, res.log_W1, res.log_W2, res.log_W3, res.log_W4))
        _emit(rows, ("h", "log_W1", "log_W2", "log_W3", "log_W4"),
              args.format, args.output)
        return 0
    raise ValueError("asymptotics needs --action, --wchain or --beta-sweep")


def cmd_splitting(args):
    from .splitting2d import gap_vs_hopping

    box = tuple(args.box) if args.box else None
    report = gap_vs_hopping(Pipeline(_load_config(args)),
                            _h_range(args.h_range), delta=args.grid, box=box)
    rows = [(r.h, r.e1, r.e2, r.gap, r.two_w, r.ratio, r.h_ln_gap,
             r.floor_flag) for r in report.rows]
    _emit(rows, ("h", "e1", "e2", "gap", "two_w", "ratio", "h_ln_gap",
                 "floor_flag"), args.format, args.output,
          comments=(f"corridor [{report.corridor[0]:.6f},"
                    f"{report.corridor[1]:.6f}]",
                    f"fsw_condition {report.fsw_condition}"))
    return 0


def cmd_sweep(args):
    from .splitting2d import gap_row

    pipe = Pipeline(_load_config(args))
    rows = []
    for h in _h_range(args.h_range):
        case = Case(pipe, h)
        try:
            wd, wb, env = case.w_direct.real, case.w_bessel, case.envelope
            row = [h, wd, wb, h * math.log(abs(wb)),
                   env.log_w0_minus, env.log_w0_plus]
            note = ""
        except Exception as exc:   # annotate, keep streaming
            row = [h] + [float("nan")] * 5
            note = f"error:{type(exc).__name__}"
        if args.with_splitting:
            if pipe.config.fsw_condition:
                # outside the try: a splitting failure aborts the command
                r = gap_row(case)
                row += [r.gap, r.ratio]
            else:
                row += [float("nan"), float("nan")]
                note = note or "splitting skipped: fsw condition false"
        rows.append(tuple(row + [note]))
    header = ["h", "w_direct", "w_bessel", "h_ln_w", "log_w0_minus",
              "log_w0_plus"]
    if args.with_splitting:
        header += ["gap", "gap_over_2w"]
    header += ["note"]
    _emit(rows, tuple(header), args.format, args.output)
    return 0


def cmd_verify(args):
    from . import verify as verify_mod

    config = _load_config(args)
    results = verify_mod.run_battery(config, quick=args.quick,
                                     landau_delta=args.grid)
    failed = [r for r in results if r.status == "fail"]
    for r in results:
        print(f"{r.status.upper():7s} {r.name}: {r.detail}")
    return 1 if failed else 0


def _fmt_value(value):
    """A scalar, complex or array estimate as short text on one line."""
    if value is None:
        return "n/a"
    vals = np.ravel(value).tolist()
    text = ", ".join(format(v, ".6g") for v in vals)
    return text if len(vals) == 1 else f"[{text}]"


def build_parser():
    p = argparse.ArgumentParser(
        prog="magtun",
        description="Numerical laboratory for magnetic double-well tunneling")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--depth", type=float, default=1.0)
        sp.add_argument("--a", type=float, default=1.0)
        sp.add_argument("--L", type=float, default=4.0)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", help="write to file instead of stdout")

    sp = sub.add_parser("constants", help="action constants table")
    common(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("spectrum", help="fiber spectra of the single well")
    common(sp)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--modes", type=int, default=2)
    sp.add_argument("--levels", type=int, default=1)
    sp.add_argument("--grid", type=int, help="radial grid size")
    sp.add_argument("--radius", type=float)
    sp.add_argument("--dump-eigenfunction", help="CSV path for [r, u]")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("wkb", help="ground state vs WKB/outer predictions")
    common(sp)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--points", type=int, default=200)
    sp.set_defaults(func=cmd_wkb)

    sp = sub.add_parser("hopping", help="hopping coefficient sweep")
    common(sp)
    sp.add_argument("--h-range", required=True, help="lo:hi:n")
    sp.add_argument("--route", choices=("direct", "bessel", "both"),
                    default="both")
    sp.set_defaults(func=cmd_hopping)

    sp = sub.add_parser("asymptotics", help="sharp action and W-chain")
    common(sp)
    sp.add_argument("--action", action="store_true")
    sp.add_argument("--wchain", action="store_true")
    sp.add_argument("--h-range", default="0.1:0.3:4")
    sp.add_argument("--eta", type=float, default=0.05)
    sp.add_argument("--beta-sweep", help="comma-separated beta values")
    sp.set_defaults(func=cmd_asymptotics)

    sp = sub.add_parser("splitting", help="2-D eigenvalue gap")
    common(sp)
    sp.add_argument("--h-range", required=True)
    sp.add_argument("--grid", type=float, help="lattice spacing delta")
    sp.add_argument("--box", type=float, nargs=2)
    sp.set_defaults(func=cmd_splitting)

    sp = sub.add_parser("sweep", help="combined per-h table")
    common(sp)
    sp.add_argument("--h-range", required=True)
    sp.add_argument("--with-splitting", action="store_true")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="one-shot invariant battery")
    common(sp)
    sp.add_argument("--grid", type=float,
                    help="override Landau-check lattice spacing")
    sp.add_argument("--quick", action="store_true")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WellValidationError, ValueError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc} (estimate "
              f"{_fmt_value(exc.estimate)}, bound "
              f"{_fmt_value(exc.error_bound)})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
