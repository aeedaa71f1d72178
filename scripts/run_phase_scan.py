#!/usr/bin/env python3
"""Sweep the single-level pinning phase diagram and write scan.csv.

Amplitudes are laid out geometrically around sigma^2, so each kernel's row
set straddles its own transition.  Output columns are the standard scan
table; feed the CSV to any plotting tool.
"""

import argparse
import csv

from wetting_lab.certify import SCAN_COLUMNS, ScanPoint, phase_scan


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma2", default="0.1,0.25,0.5")
    ap.add_argument("--level", type=int, default=0)
    ap.add_argument("--rho-grid", default="0.1,0.25,0.5,0.75,1.0,1.5,2.0",
                    help="amplitudes expressed as target rho values")
    ap.add_argument("--L-max", type=int, default=1024)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="scan.csv")
    args = ap.parse_args()

    points = []
    for s2 in (float(t) for t in args.sigma2.split(",")):
        for r in (float(t) for t in args.rho_grid.split(",")):
            amp = r * s2 / (args.level + 1)
            points.append(ScanPoint(
                kernel_spec=f"binomial:sigma2={s2}",
                family_spec=f"single:j={args.level}",
                amplitude=amp,
            ))
    rows = phase_scan(points, L_max=args.L_max, workers=args.workers)
    columns = SCAN_COLUMNS + ("error",)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([row[c] for c in columns] for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
