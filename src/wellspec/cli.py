"""Command-line front end: spectra, dispersion curves, ground-state sweeps, checks.

Exit codes: 0 success, 2 invalid flags, 3 solver failure, 4 check failure.
Outputs are plot-ready CSV (stable headers) or a JSON run report with a
versioned ``schema`` field; no images are produced.  Each CSV row is one
formatted line of unquoted fields, every number in ``.12g``; no field can
hold a comma, quote or newline, so the bytes are those a ``csv.writer`` of
``format(x, ".12g")`` fields gives.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import oracle, spectrum, wavefn
from .errors import PositionOutOfRange, SolverFailure
from .model import DimensionlessConfig, reduce_position

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4

DISPERSION_HEADER = ["kL_over_pi", "rhs", "is_pole"]
SWEEP_HEADER = ["f", "sign", "rho", "E_over_EB"]
SPECTRUM_HEADER = ["kind", "k_over_pi", "energy", "residual"]


def _config_echo(config: DimensionlessConfig) -> dict:
    echo = {"rho": config.rho, "f": config.f}
    if config.is_exact:
        echo["rho_exact"] = {"p": config.rational.p, "n": config.rational.n}
    return echo


def _entry_dict(s: spectrum.EigenState, config: DimensionlessConfig) -> dict:
    # a residual that is not finite is not JSON: it is written as null, as check --out does
    d = {"kind": s.kind, "k": s.k, "energy": s.energy, "residual": s.residual if math.isfinite(s.residual) else None}
    if s.kind == spectrum.NODAL:  # k = j n pi at the exact position p/n
        d["n"] = n = config.rational.n
        d["j"] = round(s.k / (n * math.pi))
    return d


def _finite_coupling(flag: str, f: float) -> float:
    """f, once it is finite; the library's free-well sentinel f = +-inf would print Infinity, which is not JSON."""
    if not math.isfinite(f):
        raise ValueError(f"{flag} must be a finite coupling, got {f}")
    return f


def _fraction(rho: str) -> tuple[int, int]:
    """The integers P and N of a ``--rho P/N``."""
    p_str, _, n_str = rho.partition("/")
    try:
        return int(p_str), int(n_str)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--rho expects P/N, got {rho!r}") from None


def _check_kmax(kmax: float) -> None:
    if not (kmax >= 0.0 and math.isfinite(kmax * math.pi)):  # the library takes k_max = kmax pi
        raise ValueError(f"--kmax must be non-negative and finite, got {kmax}")


def _parse_rho_flags(args) -> DimensionlessConfig:
    _finite_coupling("--f", args.f)
    if args.rho is not None:
        return DimensionlessConfig.exact(*_fraction(args.rho), args.f)
    return DimensionlessConfig.generic(args.rho_real, args.f)


def _emit(path: str, text: str) -> None:
    """Write ``text`` to standard output for the path "-", else to the file ``path``, in one call."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _emit_report(path: str, config: DimensionlessConfig, k_max: float, entries: list, checks: dict) -> None:
    """Write the versioned run report as strict JSON through ``_emit``; a non-finite float in it raises ValueError."""
    report = dict(schema=SCHEMA_VERSION, config=_config_echo(config), k_max=k_max, entries=entries, checks=checks)
    _emit(path, json.dumps(report, indent=2, allow_nan=False) + "\n")


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    """Write the header and the already formatted ``lines``, each ending in a newline."""
    _emit(path, ",".join(header) + "\n" + "".join(lines))


def _check_count(count: int | None) -> None:
    if count is not None and count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")


def cmd_spectrum(args) -> int:
    _check_count(args.count)
    _check_kmax(args.kmax)
    config = _parse_rho_flags(args)
    k_max = args.kmax * math.pi
    spec = spectrum.full_spectrum(config, k_max)
    entries = spec.entries if args.count is None else spec.entries[: args.count]
    if args.format == "csv":
        lines = ["%s,%.12g,%.12g,%.12g\n" % (s.kind, s.k / math.pi, s.energy, s.residual) for s in entries]
        _write_csv(args.out, SPECTRUM_HEADER, lines)
    else:
        _emit_report(args.out, config, k_max, [_entry_dict(s, config) for s in entries], {})
    return EXIT_OK


def cmd_dispersion_curve(args) -> int:
    if "/" in args.rho:
        rho = reduce_position(*_fraction(args.rho)).value
    else:
        rho = float(args.rho)
        if not 0.0 < rho < 1.0:
            raise PositionOutOfRange(f"--rho {args.rho} must lie strictly inside (0, 1)")
    _check_kmax(args.kmax)
    if args.samples_per_pi < 1:
        raise ValueError(f"--samples-per-pi must be positive, got {args.samples_per_pi}")
    span = args.kmax * args.samples_per_pi  # inf past the float range, which no int holds
    too_many = f"--kmax {args.kmax} at --samples-per-pi {args.samples_per_pi} asks for {span + 1:.3g} rows, too many"
    if not span < np.iinfo(np.intp).max // 8:  # past this np.arange raises, or wraps the count to an empty array
        raise ValueError(too_many)
    rows = int(round(span)) + 1
    try:
        k_over_pi = np.arange(rows) / args.samples_per_pi
    except MemoryError:
        raise ValueError(too_many) from None
    vals = spectrum.rhs_positive(k_over_pi * math.pi, rho)
    lines = [
        "%.12g,,1\n" % k if math.isnan(v) else "%.12g,%.12g,0\n" % (k, v)
        for k, v in zip(k_over_pi.tolist(), vals.tolist())
    ]
    _write_csv(args.out, DISPERSION_HEADER, lines)
    return EXIT_OK


def cmd_sweep_ground(args) -> int:
    f_list = [_finite_coupling("--f-list", float(tok)) for tok in args.f_list.split(",") if tok]
    if not f_list:
        raise ValueError(f"--f-list must name at least one coupling, got {args.f_list!r}")
    for f_mag in f_list:  # a negative entry would solve the sign opposite to the one its rows name
        if not f_mag > 0.0:
            raise ValueError(f"--f-list entry {f_mag!r} must be a positive magnitude; --signs sets the sign")
    if args.rho_steps < 1:
        raise ValueError(f"--rho-steps must be at least 1, got {args.rho_steps}")
    signs = ["attract", "repel"] if args.signs == "both" else [args.signs]
    rhos = np.linspace(0.005, 0.995, args.rho_steps).tolist()
    blocks = [(f_mag, sign) for f_mag in f_list for sign in signs]
    f = np.array([f_mag if sign == "attract" else -f_mag for f_mag, sign in blocks]).reshape(-1, 1)
    with np.errstate(over="ignore"):  # E f^2 leaves the float range once |f| passes about 4.2e153
        e_over_eb = spectrum.ground_states(rhos, f) * f * f  # one row of rho steps per (f, sign)
    overflow = np.isinf(e_over_eb).any(axis=1)
    if overflow.any():
        raise ValueError(f"--f-list entry {blocks[overflow.argmax()][0]!r} is too large: E/E_B = E f^2 overflows")
    results = [(f_mag, sign, rho, e) for (f_mag, sign), row in zip(blocks, e_over_eb.tolist()) for rho, e in zip(rhos, row)]
    results.sort(key=lambda r: r[:3])
    lines = ["%.12g,%s,%.12g,%.12g\n" % r for r in results]
    _write_csv(args.out, SWEEP_HEADER, lines)
    return EXIT_OK


def _run_checks(args, config: DimensionlessConfig) -> tuple[dict, bool]:
    spec = spectrum.full_spectrum(config, args.kmax * math.pi)
    states = spec.entries[: args.count]
    if len(states) < args.count:
        lie = f"only {len(states)} of the {args.count} levels --count asks for lie" if states else "no level lies"
        raise ValueError(f"{lie} below --kmax {args.kmax}; raise --kmax or lower --count")
    waves = [wavefn.build_wave(s, config) for s in states]

    gram = wavefn.gram_matrix(waves)
    diag = np.diag(gram)
    max_offdiag = float(np.abs(gram - np.diag(diag)).max())
    max_diag_defect = float(np.abs(diag - 1.0).max())

    defects = [wavefn.matching_defect(w, config) for w in waves]
    max_cont = max(d[0] for d in defects)
    max_jump = max(d[1] for d in defects)

    exact_e = [s.energy for s in states]
    oracle_e = oracle.oracle_spectrum(config, len(exact_e))
    deltas = [abs(o - e) for o, e in zip(oracle_e, exact_e)]
    oracle_ok = all(d <= max(1e-5 * abs(e), 1e-3) for d, e in zip(deltas, exact_e))

    checks = {
        "gram_max_offdiag": {"value": max_offdiag, "threshold": 1e-9, "ok": max_offdiag <= 1e-9},
        "gram_max_diag_defect": {"value": max_diag_defect, "threshold": 1e-12, "ok": max_diag_defect <= 1e-12},
        "continuity_defect": {"value": max_cont, "threshold": 1e-10, "ok": max_cont <= 1e-10},
        "jump_defect": {"value": max_jump, "threshold": 1e-8, "ok": max_jump <= 1e-8},
        "oracle_max_delta": {"value": max(deltas), "threshold": None, "ok": oracle_ok},
    }
    return checks, all(c["ok"] for c in checks.values())


def cmd_check(args) -> int:
    _check_count(args.count)
    _check_kmax(args.kmax)
    config = _parse_rho_flags(args)
    checks, ok = _run_checks(args, config)
    for name, c in checks.items():
        status = "PASS" if c["ok"] else "FAIL"
        thr = "" if c["threshold"] is None else f" (<= {c['threshold']:g})"
        print(f"{status}  {name}: {c['value']:.3e}{thr}")
    if args.out:
        for c in checks.values():  # a non-finite value is not JSON; its check has failed
            if not math.isfinite(c["value"]):
                c["value"] = None
        _emit_report(args.out, config, args.kmax * math.pi, [], checks)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_gnuplot_script(args) -> int:
    if args.figure == 1:
        script = (
            f'set datafile separator ","\n'
            f"set xlabel 'kL/pi'\nset ylabel 'RHS'\nset yrange [-6:6]\n"
            f"plot '{args.csv}' every ::1 using 1:2 with lines title 'dispersion RHS'\n"
        )
    else:
        script = (
            f'set datafile separator ","\n'
            f"set xlabel 'rho'\nset ylabel 'E/E_B'\n"
            f"plot '{args.csv}' every ::1 using 3:4 with points title 'ground state'\n"
        )
    _emit(args.out, script)
    return EXIT_OK


def _add_rho_f_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", help="exact rational position P/N")
    group.add_argument("--rho-real", type=float, help="generic real position in (0,1)")
    parser.add_argument("--f", type=float, required=True, help="dimensionless coupling Lambda/L")


class _Parser(argparse.ArgumentParser):
    """Reads "-1e-3", "-.5", "-inf" and "-nan" as values; argparse alone takes only -N and -N.N for negative numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)  # add_subparsers reuses this class


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing does not change it: it has no ``append`` actions and no mutable
    defaults, so every call of ``main`` reuses it.
    """
    parser = _Parser(prog="wellspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="solve and emit the sorted spectrum")
    _add_rho_f_flags(p_spec)
    p_spec.add_argument("--kmax", type=float, default=20.0, help="spectrum ceiling in units of pi")
    p_spec.add_argument("--count", type=int, default=None, help="truncate output to N entries")
    p_spec.add_argument("--format", choices=["csv", "json"], default="csv")
    p_spec.add_argument("--out", default="-")
    p_spec.set_defaults(func=cmd_spectrum)

    p_disp = sub.add_parser("dispersion-curve", help="emit the ratio-form dispersion curve")
    p_disp.add_argument("--rho", required=True, help="position, P/N or real")
    p_disp.add_argument("--kmax", type=float, default=9.0, help="ceiling in units of pi")
    p_disp.add_argument("--samples-per-pi", type=int, default=400)
    p_disp.add_argument("--out", default="-")
    p_disp.set_defaults(func=cmd_dispersion_curve)

    p_sweep = sub.add_parser("sweep-ground", help="ground-state energy across positions")
    p_sweep.add_argument("--f-list", default="0.1,0.4,0.5", help="positive coupling magnitudes; --signs sets the sign")
    p_sweep.add_argument("--signs", choices=["both", "attract", "repel"], default="both")
    p_sweep.add_argument("--rho-steps", type=int, default=199)
    p_sweep.add_argument("--out", default="-")
    p_sweep.set_defaults(func=cmd_sweep_ground)

    p_check = sub.add_parser("check", help="orthonormality, matching, and oracle checks")
    _add_rho_f_flags(p_check)
    p_check.add_argument("--count", type=int, default=8, help="check the lowest N levels below --kmax")
    p_check.add_argument("--kmax", type=float, default=20.0, help="ceiling in units of pi")
    p_check.add_argument("--out", default=None, help="optional JSON report path")
    p_check.set_defaults(func=cmd_check)

    p_gp = sub.add_parser("gnuplot-script", help="emit a gnuplot script for a CSV (convenience)")
    p_gp.add_argument("--figure", type=int, choices=[1, 2], required=True)
    p_gp.add_argument("--csv", required=True)
    p_gp.add_argument("--out", default="-")
    p_gp.set_defaults(func=cmd_gnuplot_script)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
