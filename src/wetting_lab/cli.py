"""Batch front door: reproducible runs over the toolkit.

Every subcommand writes its outputs plus ``run.json``, an echo of the fully
resolved configuration; re-running from the same configuration reproduces
the outputs byte for byte (pass --deterministic to zero the timing column,
the one intentionally volatile field).

Exit codes: 0 success, 1 parameter error, 2 computational refusal (oracle or
enumeration caps, exhausted truncation), 3 flagged-inconsistent results.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .certify import (
    SCAN_COLUMNS,
    ScanPoint,
    delocalization_certificate,
    phase_scan,
    wetting_threshold,
)
from .errors import ParameterError, RefusalError, TruncationError
from .kernels import parse_kernel_spec
from .potentials import parse_potential_spec, rho
from .rw_oracle import clt_band, max_enumerable_L, oracle_partition
from .saw import (
    enumerate_saw,
    grand_canonical,
    minimal_horizontal_identity,
    permutation_bound_delta,
    permutation_sum,
    regularity_stats,
    saw_partition,
)
from .spectral import localization_certificate
from .transfer import free_energy, log_partition


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: serialisable, and sufficient to re-execute
    the run (``wetting-lab rerun --config run.json``) byte for byte."""

    subcommand: str
    options: dict

    def to_json(self) -> str:
        payload = {"subcommand": self.subcommand, "options": self.options,
                   "version": __version__}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def load(path: str) -> "RunConfig":
        with open(path) as fh:
            blob = json.load(fh)
        return RunConfig(subcommand=blob["subcommand"],
                         options=blob["options"])


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([row.get(c, "") if isinstance(row, dict) else row[i]
                        for i, c in enumerate(columns)])


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_free_energy(args) -> int:
    kernel = parse_kernel_spec(args.kernel, c0=args.c0)
    pot = parse_potential_spec(args.pot)
    fe = free_energy(kernel, pot, tol=args.tol, L_cross=args.L_cross)
    result = {
        "f_hat": fe.value, "eigenvalue": fe.eigenvalue,
        "residual": fe.residual, "h_max": fe.h_max,
        "cross_raw": fe.cross_raw, "gap": fe.gap, "flagged": fe.flagged,
        "trace": list(fe.trace),
        "rho": rho(pot, kernel.sigma2).value,
    }
    with open(os.path.join(args.out_dir, "free_energy.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 3 if fe.flagged else 0


def _cmd_phase_scan(args) -> int:
    amps = _floats(args.amps)
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
    kernel = parse_kernel_spec(args.kernel, c0=args.c0)
    pot = parse_potential_spec(args.pot)
    b = args.b if args.b is not None else max(rho(pot, kernel.sigma2).upper, 1e-9)
    cert = delocalization_certificate(
        kernel, pot, b=b, delta=args.delta, L_max=args.L_max,
        exhaustive=args.exhaustive,
    )
    with open(os.path.join(args.out_dir, "certificate.json"), "w") as fh:
        fh.write(cert.to_json())
        fh.write("\n")
    return 0


def _cmd_certify_loc(args) -> int:
    kernel = parse_kernel_spec(args.kernel, c0=args.c0)
    pot = parse_potential_spec(args.pot)
    cert = localization_certificate(kernel, pot)
    with open(os.path.join(args.out_dir, "certificate.json"), "w") as fh:
        fh.write(cert.to_json())
        fh.write("\n")
    return 0


def _cmd_threshold(args) -> int:
    kernel = parse_kernel_spec(args.kernel, c0=args.c0)

    def make_pot(amp: float):
        return parse_potential_spec(args.family, amplitude=amp)

    bracket = wetting_threshold(
        kernel, make_pot, args.amp_lo, args.amp_hi, tol=args.tol,
        L_max=args.L_max,
    )
    cols = ("kernel", "sigma2", "family", "amp_lo", "amp_hi", "rho_lo",
            "rho_hi", "stalled", "hi_route", "caveat")
    row = {
        "kernel": args.kernel, "sigma2": kernel.sigma2, "family": args.family,
        "amp_lo": bracket.amp_lo, "amp_hi": bracket.amp_hi,
        "rho_lo": bracket.rho_lo, "rho_hi": bracket.rho_hi,
        "stalled": bracket.stalled, "hi_route": bracket.hi_route,
        "caveat": bracket.caveat,
    }
    _write_csv(os.path.join(args.out_dir, "threshold.csv"), cols, [row])
    with open(os.path.join(args.out_dir, "threshold.json"), "w") as fh:
        json.dump(bracket.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_verify_clt(args) -> int:
    if args.L_max < max(1, args.L_min):
        raise ParameterError("--L-max must be at least 1 and at least --L-min")
    kernel = parse_kernel_spec(args.kernel, c0=args.c0)
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
    x = tuple(_floats(args.x))
    y = tuple(_floats(args.y))
    if len(x) != 2 or len(y) != 2:
        raise ParameterError("endpoints are 'x,y' pairs like '0.5,0'")
    n = 0
    with open(os.path.join(args.out_dir, "paths.txt"), "w") as fh:
        for path in enumerate_saw((x[0], int(x[1])), (y[0], int(y[1])),
                                  args.cap):
            fh.write(path.to_line())
            fh.write("\n")
            n += 1
    print(f"wrote {n} paths", file=sys.stderr)
    return 0


def _cmd_saw_verify(args) -> int:
    Ls = _ints(args.L_list)
    betas = _floats(args.beta_list)
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
    with open(os.path.join(args.out_dir, "saw_verify.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = all(r["agrees"] for r in report["identity"]) and \
        all(r["ok"] for r in report["permutation_bound"])
    return 0 if ok else 3


def _cmd_oracle_check(args) -> int:
    rows = []
    worst = 0.0
    for s2 in _floats(args.sigma2_list):
        kernel = parse_kernel_spec(f"binomial:sigma2={s2}")
        L_top = min(args.L_max, max_enumerable_L(kernel))
        variants = [("free", None, None), ("wall0", 0, None),
                    ("wall2", 2, None)]
        pot = parse_potential_spec("single:j=0,eps=0.1")
        variants.append(("pinned_wall0", 0, pot))
        mixed = parse_potential_spec("exp:delta=1,amp=0.05")
        variants.append(("mixed_wall0", 0, mixed))
        for name, wall, p in variants:
            err = 0.0
            for L in range(1, L_top + 1):
                z_t = math.exp(log_partition(kernel, L, wall=wall, pot=p))
                z_o = oracle_partition(kernel, L, wall=wall, pot=p,
                                       mode="float")
                err = max(err, abs(z_t - z_o) / z_o)
            rows.append({"sigma2": s2, "variant": name, "L_max": L_top,
                         "max_rel_err": err})
            worst = max(worst, err)
    _write_csv(os.path.join(args.out_dir, "oracle_check.csv"),
               ("sigma2", "variant", "L_max", "max_rel_err"), rows)
    return 0 if worst <= 1e-12 else 3


_DISPATCH = {
    "free-energy": _cmd_free_energy,
    "phase-scan": _cmd_phase_scan,
    "certify-deloc": _cmd_certify_deloc,
    "certify-loc": _cmd_certify_loc,
    "threshold": _cmd_threshold,
    "verify-clt": _cmd_verify_clt,
    "saw-enumerate": _cmd_saw_enumerate,
    "saw-verify": _cmd_saw_verify,
    "oracle-check": _cmd_oracle_check,
}


def _cmd_rerun(args) -> int:
    cfg = RunConfig.load(args.config)
    if cfg.subcommand not in _DISPATCH:
        raise ParameterError(f"unknown subcommand in config: {cfg.subcommand}")
    options = dict(cfg.options)
    if args.out_dir is not None:
        options["out_dir"] = args.out_dir
    ns = argparse.Namespace(**options)
    _emit_run_json(RunConfig(subcommand=cfg.subcommand, options=options),
                   ns.out_dir)
    return _DISPATCH[cfg.subcommand](ns)


def _emit_run_json(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        fh.write(cfg.to_json())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wetting-lab",
        description="Pinning / wetting toolkit: partition functions, "
                    "certificates, scans.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--c0", type=float, default=1.0,
                       help="kernel class constant (reported, default 1)")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--deterministic", action="store_true",
                       help="zero volatile fields (timings) in outputs")

    p = sub.add_parser("free-energy", help="growth-rate estimate")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--pot", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--L-cross", type=int, default=4096)
    p.set_defaults(func=_cmd_free_energy)

    p = sub.add_parser("phase-scan", help="grid of certificates + f estimates")
    common(p)
    p.add_argument("--kernel", action="append", required=True)
    p.add_argument("--family", action="append", required=True)
    p.add_argument("--amps", required=True, help="comma-separated amplitudes")
    p.add_argument("--L-max", type=int, default=1024)
    p.set_defaults(func=_cmd_phase_scan)

    p = sub.add_parser("certify-deloc", help="scale-doubling certificate")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--pot", required=True)
    p.add_argument("--b", type=float, default=None,
                   help="decoupling constant (default: rho of the potential)")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--L-max", type=int, default=4096)
    p.add_argument("--exhaustive", action="store_true",
                   help="check every scale in each doubling window")
    p.set_defaults(func=_cmd_certify_deloc)

    p = sub.add_parser("certify-loc", help="spectral localization certificate")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--pot", required=True)
    p.set_defaults(func=_cmd_certify_loc)

    p = sub.add_parser("threshold", help="bracket the wetting threshold")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--amp-lo", type=float, required=True)
    p.add_argument("--amp-hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--L-max", type=int, default=4096)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify-clt", help="normalised bridge mass over L")
    common(p)
    p.add_argument("--kernel", required=True)
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
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.subcommand != "rerun":
            options = {k: v for k, v in vars(args).items()
                       if k not in ("func", "subcommand")}
            _emit_run_json(RunConfig(subcommand=args.subcommand,
                                     options=options), args.out_dir)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except (RefusalError, TruncationError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
