"""Command-line front end.

Subcommands: constants | spectrum | wkb | hopping | asymptotics | splitting
| sweep | verify.  Each prints one CSV table on stdout (17 significant
digits, stable formatting), verify a plain-text report; none writes a
file.  Exit codes: 0 success, 1 assertion failure (verify), 2 configuration
error, 3 numerical failure (any NumericalError, such as a tolerance not
reached or an invariant violated, or a LAPACK failure; one stderr line
gives the estimate and the bound).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .agmon import corridor_CL, remainder_Ra
from .asymptotics import beta_scaling, nonmagnetic_action, w_chain
from .numerics import NumericalError
from .pipeline import Case, Pipeline
from .potential import DoubleWellConfig, RadialWell
from .spectral import (GROUND_DELTA, GROUND_TOL, FiberProblem, _default_n,
                       default_radius, solve_fiber)

_FMT = "%.17g"
# g_eps(., 0) rounds by up to 2.5 eps |Shat| near r0 (six bump wells), so a
# minimizer may return any r with g''(r0) (r - r0)^2 / 2 <= R0_NOISE |Shat|
R0_NOISE = 5.0 * np.finfo(float).eps
WCHAIN_H_RANGE, WCHAIN_ETA = "0.1:0.3:4", 0.05   # asymptotics --wchain's


def _emit(rows, header, comments=()):
    """Print rows (tuples matching header) as CSV, floats at 17 digits."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            _FMT % v if isinstance(v, float) else str(v) for v in row))
    sys.stdout.write("\n".join(lines) + "\n")


def _load_config(args):
    return DoubleWellConfig(RadialWell.bump(depth=args.depth, a=args.a),
                            args.L)


def _h_range(spec):
    """lo:hi:n -> geometric grid from hi down to lo (n = 1 gives just hi)."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        ok = 0 < lo <= hi < math.inf and n >= 1
    except ValueError:   # not three fields, or a field not a number
        ok = False
    if not ok:
        raise ValueError(f"bad h-range {spec}: need lo:hi:n with "
                         "0 < lo <= hi < inf, integer n >= 1")
    return np.geomspace(hi, lo, n).tolist()


def cmd_constants(args):
    pipe = Pipeline(_load_config(args))
    prof = pipe.profile
    ra = remainder_Ra(prof)
    cl = corridor_CL(prof)
    report = pipe.action
    qerr = prof.d_a_error
    k = 1e-4   # g''(r0) by a central difference of step k
    g = prof.g_eps(report.r0 + np.array([-k, 0.0, k]), 0.0)
    r0_err = k * math.sqrt(2 * R0_NOISE * abs(report.Shat)
                           / (g[0] - 2 * g[1] + g[2]))
    rows = [
        ("S0", report.S0, 2 * qerr),
        ("Sa", report.Sa, 2 * qerr),
        ("Shat", report.Shat, 2 * qerr),
        ("r0", report.r0, r0_err),
        ("Ra", ra.value, abs(ra.value - ra.direct) + 2 * qerr),
        ("CL", cl.value, 0.0),
        ("S", report.S, 2 * qerr),
        ("t_a", report.t_a, 0.0),
        ("D_mag", report.D_mag, qerr),
        ("interaction", report.interaction, 3 * qerr),
    ]
    ordering = bool(report.Sa < report.Shat < report.S0)
    _emit(rows, ("name", "value", "error_bound"),
          comments=(f"ordering Sa<Shat<S0: {str(ordering).lower()}",))
    return 0


def cmd_spectrum(args):
    if args.modes < 0:
        raise ValueError(f"need --modes >= 0 (got {args.modes})")
    well = RadialWell.bump(depth=args.depth, a=args.a)
    R = default_radius(well, args.h)
    problem = FiberProblem(m=0, h=args.h, R=R, n=_default_n(R, GROUND_DELTA),
                           v0=well.v0)
    rows = []
    for m in range(-args.modes, args.modes + 1):
        sol = solve_fiber(replace(problem, m=m), k=args.levels, tol=GROUND_TOL)
        rows += [(m, j, float(e)) for j, e in enumerate(sol.energies, 1)]
    _emit(rows, ("m", "j", "energy"))
    return 0


def cmd_wkb(args):
    if args.points < 1:
        raise ValueError(f"need --points >= 1 (got {args.points})")
    pipe = Pipeline(_load_config(args))
    # the tables first: a well they reject is a config error before a solve
    prof, amp = pipe.profile, pipe.amplitude
    case = Case(pipe, args.h)
    sol, outer = case.ground, case.outer
    # r_k = k (L + 1) / points, independent of the solver's grid
    rs = (pipe.config.L + 1.0) * np.arange(1, args.points + 1) / args.points
    outside = rs >= pipe.config.well.a
    log_outer = np.full(rs.shape, np.nan)   # the representation needs r >= a
    log_outer[outside] = outer.log_u(rs[outside])
    u = np.exp(sol.log_u(rs))
    wkb = np.exp(amp.log_a0(rs) - prof.d(rs) / args.h) / math.sqrt(args.h)
    rows = list(zip(rs.tolist(), u.tolist(), wkb.tolist(),
                    np.exp(log_outer).tolist()))
    _emit(rows, ("r", "u_h", "wkb_prediction", "outer_prediction"))
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
                 "upper_env"))
    return 0


def cmd_asymptotics(args):
    if not args.wchain and (args.h_range, args.eta) != (None, None):
        raise ValueError("--h-range and --eta apply only with --wchain")
    pipe = Pipeline(_load_config(args))
    well, L = pipe.config.well, pipe.config.L
    if args.action:
        rows = [(k, float(v)) for k, v in pipe.action.__dict__.items()]
        header = ("name", "value")
    elif args.wchain:
        eta = WCHAIN_ETA if args.eta is None else args.eta
        rows = []
        spec = WCHAIN_H_RANGE if args.h_range is None else args.h_range
        for h in _h_range(spec):
            res = w_chain(Case(pipe, h), eta)
            rows.append((h, res.log_W1, res.log_W2, res.log_W3, res.log_W4))
        header = ("h", "log_W1", "log_W2", "log_W3", "log_W4")
    else:   # --beta-sweep
        try:
            betas = [float(b) for b in args.beta_sweep.split(",")]
        except ValueError:
            raise ValueError(f"bad --beta-sweep {args.beta_sweep}: need "
                             "comma-separated numbers") from None
        target = nonmagnetic_action(well, L)
        rows = [(beta, beta_scaling(well, L, beta), target) for beta in betas]
        header = ("beta", "beta_S", "nonmagnetic_action")
    _emit(rows, header)
    return 0


def cmd_splitting(args):
    from .splitting2d import gap_vs_hopping   # loads scipy.sparse

    box = tuple(args.box) if args.box else None
    pipe = Pipeline(_load_config(args))
    report = gap_vs_hopping(pipe, _h_range(args.h_range), delta=args.grid,
                            box=box)
    rows = [(r.h, r.e1, r.e2, r.gap, r.two_w, r.ratio, r.h_ln_gap,
             r.floor_flag) for r in report.rows]
    _emit(rows, ("h", "e1", "e2", "gap", "two_w", "ratio", "h_ln_gap",
                 "floor_flag"),
          comments=(f"corridor [{report.corridor[0]:.6f},"
                    f"{report.corridor[1]:.6f}]",
                    f"fsw_condition {pipe.config.fsw_condition}"))
    return 0


def cmd_sweep(args):
    pipe = Pipeline(_load_config(args))
    rows = []
    for h in _h_range(args.h_range):
        case = Case(pipe, h)
        try:
            wd, wb, env = case.w_direct.real, case.w_bessel, case.envelope
            row = [h, wd, wb, h * math.log(abs(wb)),
                   env.log_w0_minus, env.log_w0_plus]
            note = ""
        except NumericalError as exc:   # annotate, keep streaming
            row = [h] + [float("nan")] * 5
            note = f"error:{type(exc).__name__}"
        if args.with_splitting:
            if pipe.config.fsw_condition:
                from .splitting2d import gap_row   # loads scipy.sparse

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
    _emit(rows, tuple(header))
    return 0


def cmd_verify(args):
    from .verify import run_battery   # loads scipy.sparse

    config = _load_config(args)
    results = run_battery(config, quick=args.quick, landau_delta=args.grid)
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

    def command(name, func, help, L=True):
        """The subparser of one command, with the well's flags (and L's)."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--depth", type=float, default=1.0)
        sp.add_argument("--a", type=float, default=1.0)
        if L:
            sp.add_argument("--L", type=float, default=4.0)
        return sp

    command("constants", cmd_constants, "action constants table")

    sp = command("spectrum", cmd_spectrum, "fiber spectra of the single well",
                 L=False)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--modes", type=int, default=2)
    sp.add_argument("--levels", type=int, default=1)

    sp = command("wkb", cmd_wkb, "ground state vs WKB/outer predictions")
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--points", type=int, default=200,
                    help="rows at r = k (L+1)/points, k = 1..points")

    sp = command("hopping", cmd_hopping, "hopping coefficient sweep")
    sp.add_argument("--h-range", required=True, help="lo:hi:n")
    sp.add_argument("--route", choices=("direct", "bessel", "both"),
                    default="both")

    sp = command("asymptotics", cmd_asymptotics, "sharp action and W-chain")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--action", action="store_true")
    mode.add_argument("--wchain", action="store_true")
    mode.add_argument("--beta-sweep", help="comma-separated beta values")
    sp.add_argument("--h-range",
                    help=f"lo:hi:n, --wchain only (default {WCHAIN_H_RANGE})")
    sp.add_argument("--eta", type=float,
                    help=f"--wchain only (default {WCHAIN_ETA})")

    sp = command("splitting", cmd_splitting, "2-D eigenvalue gap")
    sp.add_argument("--h-range", required=True)
    sp.add_argument("--grid", type=float, help="lattice spacing delta")
    sp.add_argument("--box", type=float, nargs=2)

    sp = command("sweep", cmd_sweep, "combined per-h table")
    sp.add_argument("--h-range", required=True)
    sp.add_argument("--with-splitting", action="store_true")

    sp = command("verify", cmd_verify, "one-shot invariant battery")
    sp.add_argument("--grid", type=float,
                    help="override Landau-check lattice spacing")
    sp.add_argument("--quick", action="store_true")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # numpy's LinAlgError, a LAPACK failure, is a ValueError: caught first
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc} (estimate "
              f"{_fmt_value(getattr(exc, 'estimate', None))}, bound "
              f"{_fmt_value(getattr(exc, 'error_bound', None))})",
              file=sys.stderr)
        return 3
    except ValueError as exc:   # WellValidationError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
