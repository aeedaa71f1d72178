"""Batch front door: reproducible runs over the toolkit.

Every subcommand writes its outputs plus ``run.json``, an echo of the fully
resolved configuration; re-running from the same configuration reproduces
the outputs byte for byte.  The one intentionally volatile field is the
timing column of ``phase-scan``, which its --deterministic flag zeroes.

Each subcommand imports the modules that only it uses (``certify``,
``spectral``, ``saw``, ``rw_oracle``) when it runs, so the others do not pay
for loading them.

Exit codes: 0 success, 1 parameter error, 2 computational refusal (oracle or
enumeration caps, exhausted truncation), 3 flagged-inconsistent results.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from dataclasses import asdict, is_dataclass

from . import __version__
from .errors import ParameterError, RefusalError, TruncationError, spec_number
from .kernels import parse_kernel_spec
from .potentials import parse_potential_spec, rho
from .transfer import clt_band, free_energy, partition_profile


def _write_json(out_dir: str, name: str, obj) -> None:
    """Write ``obj``, a dict or a dataclass record, as indented sorted-key
    strict JSON with a final newline; the one writer of every JSON output.
    A NaN or infinity writes nothing: in run.json it came from an option
    (ParameterError), in an output from the computation (RefusalError)."""
    if is_dataclass(obj):
        obj = asdict(obj)
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        error = ParameterError if name == "run.json" else RefusalError
        raise error(f"{name} would hold a non-finite number; nothing written")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([row.get(c, "") if isinstance(row, dict) else row[i]
                        for i, c in enumerate(columns)])


def _numbers(text: str, what: str, kind=float) -> list:
    """Comma-separated finite numbers, at least one; anything else is a
    ParameterError."""
    values = [spec_number(t, what, kind) for t in text.split(",") if t]
    if not values:
        raise ParameterError(f"{what} lists no numbers")
    return values


def _check_L_max(L_max: int) -> None:
    """An --L-max below 1 covers no length, so a check over it would pass
    vacuously: a parameter error."""
    if L_max < 1:
        raise ParameterError("--L-max must be at least 1")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_free_energy(args) -> int:
    kernel = parse_kernel_spec(args.kernel)
    pot = parse_potential_spec(args.pot)
    fe = free_energy(kernel, pot, tol=args.tol, L_cross=args.L_cross)
    result = {
        "f_hat": fe.value, "eigenvalue": fe.eigenvalue,
        "residual": fe.residual, "h_max": fe.h_max,
        "cross_raw": fe.cross_raw, "gap": fe.gap, "flagged": fe.flagged,
        "trace": list(fe.trace),
        "rho": rho(pot, kernel.sigma2).value,
    }
    _write_json(args.out_dir, "free_energy.json", result)
    return 3 if fe.flagged else 0


def _cmd_phase_scan(args) -> int:
    from .certify import SCAN_COLUMNS, ScanPoint, phase_scan

    _check_L_max(args.L_max)
    amps = _numbers(args.amps, "--amps")
    points = [
        ScanPoint(kernel_spec=k, family_spec=f, amplitude=a)
        for k in args.kernel for f in args.family for a in amps
    ]
    rows = phase_scan(points, L_max=args.L_max, workers=args.workers,
                      deterministic_timing=args.deterministic)
    _write_csv(os.path.join(args.out_dir, "scan.csv"),
               SCAN_COLUMNS + ("error",), rows)
    if any(r["error"].startswith("inconsistent") for r in rows):
        return 3
    return 0


def _cmd_certify_deloc(args) -> int:
    from .certify import delocalization_certificate

    _check_L_max(args.L_max)
    kernel = parse_kernel_spec(args.kernel)
    pot = parse_potential_spec(args.pot)
    cert = delocalization_certificate(
        kernel, pot, b=args.b, delta=args.delta, L_max=args.L_max)
    _write_json(args.out_dir, "certificate.json", cert)
    return 0


def _cmd_certify_loc(args) -> int:
    from .spectral import localization_certificate

    kernel = parse_kernel_spec(args.kernel)
    pot = parse_potential_spec(args.pot)
    _write_json(args.out_dir, "certificate.json",
                localization_certificate(kernel, pot))
    return 0


def _cmd_threshold(args) -> int:
    from .certify import wetting_threshold

    _check_L_max(args.L_max)
    kernel = parse_kernel_spec(args.kernel)

    def make_pot(amp: float):
        return parse_potential_spec(args.family, amplitude=amp)

    bracket = wetting_threshold(
        kernel, make_pot, args.amp_lo, args.amp_hi, tol=args.tol,
        L_max=args.L_max,
    )
    cols = ("kernel", "sigma2", "family", "amp_lo", "amp_hi", "rho_lo",
            "rho_hi", "stalled", "hi_route", "caveat")
    row = {"kernel": args.kernel, "sigma2": kernel.sigma2,
           "family": args.family, **asdict(bracket)}
    _write_csv(os.path.join(args.out_dir, "threshold.csv"), cols, [row])
    _write_json(args.out_dir, "threshold.json", bracket)
    return 0


def _cmd_verify_clt(args) -> int:
    if args.L_max < max(1, args.L_min):
        raise ParameterError("--L-max must be at least 1 and at least --L-min")
    kernel = parse_kernel_spec(args.kernel)
    grid = []
    L = max(1, args.L_min)
    while L <= args.L_max:
        grid.append(L)
        L *= 2
    if grid[-1] != args.L_max:
        grid.append(args.L_max)
    _write_csv(os.path.join(args.out_dir, "clt.csv"),
               ("L", "sqrt_sigma2L_times_Z"), clt_band(kernel, grid))
    return 0


def _cmd_saw_enumerate(args) -> int:
    from .saw import enumerate_saw

    x = tuple(_numbers(args.x, "--x"))
    y = tuple(_numbers(args.y, "--y"))
    if len(x) != 2 or len(y) != 2:
        raise ParameterError("endpoints are 'x,y' pairs like '0.5,0'")
    n = 0
    with open(os.path.join(args.out_dir, "paths.txt"), "w") as fh:
        for path in enumerate_saw(x, y, args.cap):
            fh.write(path.to_line())
            fh.write("\n")
            n += 1
    print(f"wrote {n} paths", file=sys.stderr)
    return 0


def _cmd_saw_verify(args) -> int:
    from .saw import (
        grand_canonical,
        minimal_horizontal_identity,
        permutation_bound_delta,
        permutation_sum,
        regularity_stats,
        saw_partition,
    )

    Ls = _numbers(args.L_list, "--L-list", int)
    betas = _numbers(args.beta_list, "--beta-list")
    report: dict = {"identity": [], "permutation_bound": [], "regularity": []}
    for L in Ls:
        for beta in betas:
            rep = minimal_horizontal_identity(L, beta)
            report["identity"].append({
                "L": L, "beta": beta, "lhs_lower": rep.lhs.lower,
                "lhs_upper": rep.lhs.upper, "rhs": rep.rhs,
                "agrees": rep.agrees, "relative_width": rep.relative_width,
            })
    for c in (2.0, 3.0, 4.0):
        xs = [2, 5, 7]
        s = permutation_sum(xs, 12, c)
        bound = (1.0 + permutation_bound_delta(c)) ** len(xs)
        report["permutation_bound"].append(
            {"c": c, "sum": s, "bound": bound, "ok": s <= bound})
    for beta in (min(betas), max(betas)):
        st = regularity_stats(6, beta, args.cap)
        report["regularity"].append({
            "beta": beta,
            "not_regular_mid": st.not_regular[3][1],
            "first_edge_vertical": st.first_edge_vertical[1],
            "ext_moment": st.ext_moment[1],
        })
    # free-endpoint mass, measured only (no asymptotic claim): the pinned
    # over grand-canonical ratio normalised by sqrt(sigma_hat^2 L), with
    # sigma_hat^2 ~ 1/(cosh(beta)-1) the effective diffusion constant
    report["grand_canonical"] = []
    for L in (2, 4):
        for beta in betas:
            z = saw_partition(L, beta, args.cap)
            xi = grand_canonical(L, beta, args.cap)
            ratio = z.partial_sum / xi.partial_sum
            s2_hat = 1.0 / (math.cosh(beta) - 1.0)
            report["grand_canonical"].append({
                "L": L, "beta": beta, "ratio": ratio,
                "normalized": ratio * math.sqrt(s2_hat * L),
            })
    _write_json(args.out_dir, "saw_verify.json", report)
    ok = all(r["agrees"] for r in report["identity"]) and \
        all(r["ok"] for r in report["permutation_bound"])
    return 0 if ok else 3


def _cmd_oracle_check(args) -> int:
    from .rw_oracle import max_enumerable_L, oracle_partition

    _check_L_max(args.L_max)
    rows = []
    worst = 0.0
    for s2 in _numbers(args.sigma2_list, "--sigma2-list"):
        kernel = parse_kernel_spec(f"binomial:sigma2={s2}")
        L_top = min(args.L_max, max_enumerable_L(kernel))
        variants = [("free", None, None), ("wall0", 0, None),
                    ("wall2", 2, None)]
        pot = parse_potential_spec("single:j=0,eps=0.1")
        variants.append(("pinned_wall0", 0, pot))
        mixed = parse_potential_spec("exp:delta=1,amp=0.05")
        variants.append(("mixed_wall0", 0, mixed))
        for name, wall, p in variants:
            log_z = partition_profile(kernel, L_top, wall=wall, pot=p)
            z_o = oracle_partition(kernel, L_top, wall=wall, pot=p).tolist()
            err = 0.0
            for L in range(1, L_top + 1):
                z_t = math.exp(float(log_z[L]))
                err = max(err, abs(z_t - z_o[L]) / z_o[L])
            rows.append({"sigma2": s2, "variant": name, "L_max": L_top,
                         "max_rel_err": err})
            worst = max(worst, err)
    _write_csv(os.path.join(args.out_dir, "oracle_check.csv"),
               ("sigma2", "variant", "L_max", "max_rel_err"), rows)
    return 0 if worst <= 1e-12 else 3


# options of earlier versions that a stored run.json may still carry; each
# is dropped where the subcommand no longer declares it
_RETIRED = frozenset({"c0", "deterministic"})


def _stored_value(action: argparse.Action, value):
    """A run.json value as the parser would have produced it: text, or a
    JSON number written as text, through the option's ``type=``; a flag
    takes a bool, an appended option a list.  Anything else is a
    ParameterError."""
    if value is None and action.default is None and not action.required:
        return None
    bad = ParameterError(
        f"config option {action.dest} has a bad value {value!r}")

    def convert(v):
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if isinstance(v, str) or (number and action.type is not None):
            try:
                return (action.type or str)(str(v))
            except ValueError:
                pass
        raise bad

    if action.nargs == 0:  # a store_true flag
        if isinstance(value, bool):
            return value
    elif not isinstance(action, argparse._AppendAction):
        return convert(value)
    elif isinstance(value, list):
        return [convert(v) for v in value]
    raise bad


def _cmd_rerun(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read config {args.config}: {exc}")
    if not (isinstance(cfg, dict) and isinstance(cfg.get("subcommand"), str)
            and isinstance(cfg.get("options"), dict)):
        raise ParameterError(
            f"config {args.config} is not a run.json: it needs an object "
            "with a 'subcommand' string and an 'options' object")
    sub, stored = cfg["subcommand"], cfg["options"]
    (subs,) = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    parser = subs.choices.get(sub)
    if parser is None or sub == "rerun":
        raise ParameterError(f"unknown subcommand in config: {sub}")
    declared = {a.dest: a for a in parser._actions if a.dest != "help"}
    unknown = sorted(set(stored) - set(declared) - _RETIRED)
    if unknown:
        raise ParameterError(
            f"config options not declared by {sub}: {unknown}")
    options = {}
    for dest, action in declared.items():
        if dest in stored:
            options[dest] = _stored_value(action, stored[dest])
        elif action.required:
            raise ParameterError(
                f"config lacks the required option {action.option_strings[0]}")
        else:
            options[dest] = action.default
    if args.out_dir is not None:
        options["out_dir"] = args.out_dir
    return _run(sub, options, parser.get_default("func"))


def _run(subcommand: str, options: dict, func) -> int:
    """Echo the resolved configuration to run.json, then execute it."""
    _write_json(options["out_dir"], "run.json", {
        "subcommand": subcommand, "options": options, "version": __version__})
    return func(argparse.Namespace(**options))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wetting-lab",
        description="Pinning / wetting toolkit: partition functions, "
                    "certificates, scans.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, *specs):  # then each named spec as a required option
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=1)
        for name in specs:
            p.add_argument(f"--{name}", required=True)

    p = sub.add_parser("free-energy", help="growth-rate estimate")
    common(p, "kernel", "pot")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--L-cross", type=int, default=4096)
    p.set_defaults(func=_cmd_free_energy)

    p = sub.add_parser("phase-scan", help="grid of certificates + f estimates")
    common(p)
    p.add_argument("--kernel", action="append", required=True)
    p.add_argument("--family", action="append", required=True)
    p.add_argument("--amps", required=True, help="comma-separated amplitudes")
    p.add_argument("--L-max", type=int, default=1024)
    p.add_argument("--deterministic", action="store_true",
                   help="zero the wall_time_s column")
    p.set_defaults(func=_cmd_phase_scan)

    p = sub.add_parser("certify-deloc", help="scale-doubling certificate")
    common(p, "kernel", "pot")
    p.add_argument("--b", type=float, default=None,
                   help="decoupling constant (default: rho's upper bound, at "
                        "least 1e-9)")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--L-max", type=int, default=4096)
    p.add_argument("--exhaustive", action="store_true",
                   help="no effect: every scale of each doubling window is "
                        "always checked")
    p.set_defaults(func=_cmd_certify_deloc)

    p = sub.add_parser("certify-loc", help="spectral localization certificate")
    common(p, "kernel", "pot")
    p.set_defaults(func=_cmd_certify_loc)

    p = sub.add_parser("threshold", help="bracket the wetting threshold")
    common(p, "kernel", "family")
    p.add_argument("--amp-lo", type=float, required=True)
    p.add_argument("--amp-hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--L-max", type=int, default=4096)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify-clt", help="normalised bridge mass over L")
    common(p, "kernel")
    p.add_argument("--L-min", type=int, default=1)
    p.add_argument("--L-max", type=int, default=16384)
    p.set_defaults(func=_cmd_verify_clt)

    p = sub.add_parser("saw-enumerate", help="dump self-avoiding paths")
    common(p)
    p.add_argument("--x", default="0.5,0")
    p.add_argument("--y", required=True)
    p.add_argument("--cap", type=int, default=2)
    p.set_defaults(func=_cmd_saw_enumerate)

    p = sub.add_parser("saw-verify", help="identity and bound checks for paths")
    common(p)
    p.add_argument("--L-list", default="2,4")
    p.add_argument("--beta-list", default="2.5,3")
    p.add_argument("--cap", type=int, default=8)
    p.set_defaults(func=_cmd_saw_verify)

    p = sub.add_parser("oracle-check", help="transfer vs brute-force oracle")
    common(p)
    p.add_argument("--sigma2-list", default="0.1,0.5")
    p.add_argument("--L-max", type=int, default=12)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("rerun", help="re-execute a run from its run.json")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None,
                   help="redirect outputs (default: the stored out_dir)")
    p.set_defaults(func=_cmd_rerun)

    return ap


def main(argv=None) -> int:
    # move every object that exists after import (numpy's above all) into
    # the permanent generation: collections, the one at interpreter
    # shutdown included, then skip them, and objects made by the run are
    # collected as before
    gc.freeze()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.subcommand == "rerun":
            return args.func(args)
        options = {k: v for k, v in vars(args).items()
                   if k not in ("func", "subcommand")}
        return _run(args.subcommand, options, args.func)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except (RefusalError, TruncationError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
