"""Command-line front end.

Subcommands: jones (colored Jones polynomials), habiro (cyclotomic
coefficients), loginv (center coefficient vectors with all-route
agreement deltas), qgroup-verify (representation-theory residual report),
volume-scan (the large-N asymptotics table).

Exit codes: 0 success, 2 configuration error, 3 feasibility refusal,
4 route disagreement beyond tolerance.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

import mpmath as mp

from .qcalc import LaurentPoly, RootContext
from . import habiro, jones, loginv, qgroup, volume

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FEASIBILITY = 3
EXIT_DISAGREEMENT = 4


DEFAULT_PRECISION = 60
# Python refuses to convert an int of more than 4300 digits to a string,
# and printing a value near 10^-dps makes mpmath convert one of about dps
# digits; 4000 keeps dps = precision + 10 clear of that limit.
MAX_PRECISION = 4000


# Largest --imax of habiro.  Every catalog coefficient is one short
# polynomial, so the cost is the printed JSON: --imax 10000 takes 0.2 s
# and 41 MB on a shared 2-vCPU Xeon, 100000 1.4 s and 210 MB (0.8 MB of
# output per 10000 coefficients).  A braid word is traced at colors up to
# --imax + 1, which jones.EXACT_DIM_CAP bounds too, though not its cost:
# --braid "2: 1 1 1" takes 0.3 s and 25 MB at --imax 20, 2.1 s and 47 MB
# at --imax 30, and 19 s and 137 MB at --imax 41.
MAX_IMAX = 10000


class ConfigError(ValueError):
    pass


def _asked_precision(args):
    """--precision, else LOGJONES_PRECISION, else None."""
    if args.precision is not None:
        return args.precision
    env = os.environ.get("LOGJONES_PRECISION")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"LOGJONES_PRECISION={env!r} is not an integer") from exc
    return None


def _resolve_knot(args) -> jones.BraidWord:
    if getattr(args, "knot", None) and getattr(args, "braid", None):
        raise ConfigError("--knot and --braid exclude each other; give one")
    if getattr(args, "knot", None):
        if args.knot in jones.KNOT_CATALOG:
            return jones.KNOT_CATALOG[args.knot]
        raise ConfigError(f"unknown knot {args.knot!r}; use one of {sorted(jones.KNOT_CATALOG)}"
                          " or --braid")
    if getattr(args, "braid", None):
        try:
            return jones.parse_braid(args.braid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("one of --knot or --braid is required")


def _require_N(args) -> int:
    if args.N is None:
        raise ConfigError(f"--N is required for {args.command}")
    if args.N < 2:
        raise ConfigError(f"--N must be at least 2, got {args.N}")
    return args.N


def _emit(text, out_path):
    """Write a str, or str chunks in batches (a write per chunk is slow), to --out or stdout."""
    chunks = iter((text,) if isinstance(text, str) else text)
    batches = iter(lambda: "".join(itertools.islice(chunks, 4096)), "")
    if out_path and out_path != "-":
        try:
            with open(out_path, "w") as fh:
                fh.writelines(batches)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(batches)


def _poly_json(p: LaurentPoly):
    return {"poly": str(p), "terms": sorted((str(e), str(c)) for e, c in p.terms.items())}


def cmd_jones(args) -> int:
    if args.m is not None and args.m < 1:
        raise ConfigError(f"--m must be at least 1, got {args.m}")
    if args.max_m < 1:
        raise ConfigError(f"--max-m must be at least 1, got {args.max_m}")
    braid = _resolve_knot(args)
    # a range, so that the top color is refused before any color is built
    colors = [args.m] if args.m is not None else range(1, args.max_m + 1)
    jones.check_trace(braid, colors[-1])
    # the encoder traces each color as it reaches its key, and _emit writes
    # the text in batches as it comes, so one color's strings are held at a time
    values = {str(m): functools.partial(jones.colored_jones_zero_framed, braid, m) for m in colors}
    payload = {"knot": braid.name, "strands": braid.strands, "writhe": braid.writhe,
               "framing": 0, "values": values}
    encoder = json.JSONEncoder(sort_keys=True, indent=1, default=lambda trace: _poly_json(trace()))
    _emit(itertools.chain(encoder.iterencode(payload), "\n"), args.out)
    return EXIT_OK


def cmd_habiro(args) -> int:
    if args.imax is not None and args.imax < 0:
        raise ConfigError(f"--imax must be at least 0, got {args.imax}")
    braid = _resolve_knot(args)
    if args.imax is not None and args.imax > MAX_IMAX:
        raise jones.FeasibilityError(f"--imax {args.imax} exceeds the bound {MAX_IMAX}")
    i_top = args.imax if args.imax is not None else (9 if args.knot else 5)
    h = habiro.coeffs_for(args.knot or braid, i_top + 1)
    coeffs = [h.coeff(i) for i in range(i_top + 1)]
    payload = {"knot": braid.name,
               "all_ones": all(c == 1 for c in coeffs),
               "coeffs": {str(i): _poly_json(c) for i, c in enumerate(coeffs)}}
    _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.out)
    return EXIT_OK


def cmd_loginv(args) -> int:
    N = _require_N(args)
    if args.s is not None and not 1 <= args.s <= N - 1:
        raise ConfigError(f"--s must be in 1..{N - 1} for N={N}, got {args.s}")
    ctx = RootContext(N, precision_digits=args.precision)
    braid = _resolve_knot(args)
    rec = loginv.center_coeffs(args.knot or braid, ctx, framing=args.framing)
    failed = rec.failed(ctx.tol)
    svals = [args.s] if args.s is not None else range(1, N)
    deltas = {str(s): mp.nstr(rec.residuals[f"gamma_{s} routes"], 8) for s in svals}
    payload = rec.to_dict(args.precision) | {
        "gamma_route_deltas": deltas, "route_tolerance": mp.nstr(ctx.tol, 8),
        "routes_agree": not failed}
    _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.out)
    if failed:
        print(f"route disagreement: at or above tolerance {mp.nstr(ctx.tol, 8)}: "
              f"{', '.join(failed)}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_qgroup_verify(args) -> int:
    N = _require_N(args)
    ctx = RootContext(N, precision_digits=args.precision)
    rows = qgroup.verification_report(ctx, include_rmatrix=not args.skip_rmatrix)
    _emit(qgroup.report_to_json(rows) + "\n", args.out)
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_DISAGREEMENT


def cmd_volume_scan(args) -> int:
    N = _require_N(args)
    # the scan sets its precision from N; an asked-for precision is a floor
    digits = volume.scan_precision(N)
    if args.precision_asked:
        digits = max(digits, args.precision)
    res = volume.asymptotic_scan(N, RootContext(N, precision_digits=digits))
    text = res.to_csv() if args.format == "csv" else res.to_json() + "\n"
    _emit(text, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and reused by
    each main call: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="logjones",
        description="Logarithmic knot invariants from colored Jones invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, knotty=True):
        p.add_argument("--precision", type=int, default=None,
                       help=f"working precision in decimal digits, 30 to {MAX_PRECISION} "
                            f"(default {DEFAULT_PRECISION}, or LOGJONES_PRECISION); "
                            "volume-scan takes it as a floor on its own 0.15 N + 35")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format; csv only for volume-scan")
        p.add_argument("--out", default="-", help="output path (default stdout)")
        if knotty:
            p.add_argument("--knot", help="catalog name: " + ", ".join(jones.KNOT_CATALOG))
            p.add_argument("--braid", help="braid word 'n: i1 i2 ...'")

    p = sub.add_parser("jones", help="exact 0-framed colored Jones polynomials")
    common(p)
    p.add_argument("--m", type=int, help="single color")
    p.add_argument("--max-m", type=int, default=4, help="colors 1..max-m when --m is absent")
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("habiro", help="cyclotomic expansion coefficients")
    common(p)
    p.add_argument("--imax", type=int, help="highest coefficient index to print/extract")
    p.set_defaults(func=cmd_habiro)

    p = sub.add_parser("loginv", help="center coefficients with route agreement")
    common(p)
    p.add_argument("--N", type=int)
    p.add_argument("--s", type=int, help="the s whose route delta is printed; every s is checked")
    p.add_argument("--framing", type=int, default=0)
    p.set_defaults(func=cmd_loginv)

    p = sub.add_parser("qgroup-verify", help="representation verification residual report")
    common(p, knotty=False)
    p.add_argument("--N", type=int)
    p.add_argument("--skip-rmatrix", action="store_true",
                   help="skip the all-pairs R-matrix specialization sweep")
    p.set_defaults(func=cmd_qgroup_verify)

    p = sub.add_parser("volume-scan", help="large-N scan of the figure-eight invariant")
    common(p, knotty=False)
    p.add_argument("--N", type=int)
    p.set_defaults(func=cmd_volume_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asked = _asked_precision(args)
        args.precision_asked = asked is not None
        args.precision = DEFAULT_PRECISION if asked is None else asked
        if not 30 <= args.precision <= MAX_PRECISION:
            raise ConfigError(f"--precision must be in 30..{MAX_PRECISION}, got {args.precision}")
        if args.format == "csv" and args.command != "volume-scan":
            raise ConfigError(f"--format csv is only supported by volume-scan, not {args.command}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except jones.FeasibilityError as exc:
        print(f"feasibility refusal: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY
    except jones.LinkNotKnotError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
