#!/usr/bin/env python3
"""Bracket the wetting threshold across kernel variances.

For each sigma^2 the certificate-based bracket is compared with the
free-energy crossing, both in rho units; the spread of the brackets across
variances shows how uniform the transition point is in this normalisation.
The crossing is an inertia test on the window [0, 2^13] only, hence the
columns window_rho_lo/window_rho_hi: its upper end is where I - A stops
being positive definite on that window, so A has an eigenvalue >= 1 and the
free energy leaves 0, while its lower end would miss a bound state wider
than the window (just above the threshold the crossing can read high).
"""

import argparse

from wetting_lab.certify import free_energy_crossing, wetting_threshold
from wetting_lab.kernels import make_binomial
from wetting_lab.potentials import make_family, rho


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma2", default="0.1,0.25,0.5")
    ap.add_argument("--level", type=int, default=0)
    ap.add_argument("--tol", type=float, default=0.05)
    ap.add_argument("--L-max", type=int, default=2048)
    ap.add_argument("--out", default="thresholds.csv")
    args = ap.parse_args()

    rows = []
    for s2 in (float(t) for t in args.sigma2.split(",")):
        kernel = make_binomial(s2)

        def mk(amp):
            return make_family("single", j=args.level, amplitude=amp)

        lo0 = 0.1 * s2 / (args.level + 1)
        hi0 = 2.5 * s2 / (args.level + 1)
        bracket = wetting_threshold(kernel, mk, lo0, hi0, tol=args.tol,
                                    L_max=args.L_max)
        fc_lo, fc_hi = free_energy_crossing(kernel, mk, lo0, hi0, tol=args.tol)
        rows.append({
            "sigma2": s2,
            "rho_lo": bracket.rho_lo,
            "rho_hi": bracket.rho_hi,
            "stalled": bracket.stalled,
            "hi_route": bracket.hi_route,
            "window_rho_lo": rho(mk(fc_lo), s2).value,
            "window_rho_hi": rho(mk(fc_hi), s2).value,
        })
        print(rows[-1])

    cols = list(rows[0])
    with open(args.out, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
