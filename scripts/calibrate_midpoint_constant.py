#!/usr/bin/env python3
"""Derive the shipped midpoint calibration constant.

The scale-doubling certificate needs the unconstrained bridge to put
probability at most 3/4 on staying above the wall at the two middle times
for every L >= C (j+1)^2 / sigma^2.  This script locates the smallest C (on
a half-integer grid) that works across a (sigma^2, j) grid, checking each
candidate at L = ceil(C (j+1)^2/sigma^2) * {1, 2, 4, 8}.

The packaged default (certify.SCALE_CONSTANT = 8.0) is the smallest
half-integer C passing this scan's default grid.  Each (sigma^2, j) cell
sweeps one midpoint profile to the largest L its candidates ask for and
reads every candidate from it, so the default grid takes seconds.  The
test suite runs the cell that binds C (--sigma2 0.05 --j 8 --c-max 8) and
checks that it still gives the shipped default.
"""

import argparse
import math

from wetting_lab.certify import SCALE_CONSTANT
from wetting_lab.kernels import make_binomial
from wetting_lab.transfer import midpoint_prob


def works(C: float, profiles, mults) -> tuple[bool, tuple | None]:
    for (s2, j), prof in profiles.items():
        L1 = math.ceil(C * (j + 1) ** 2 / s2)
        for m in mults:
            L = max(2, L1 * m)
            p = prof[L]
            if p > 0.75:
                return False, (s2, j, L, p)
    return True, None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma2", default="0.05,0.1,0.25,0.5")
    ap.add_argument("--j", default="0,1,2,4,8")
    ap.add_argument("--mults", default="1,2,4,8")
    ap.add_argument("--c-max", type=float, default=24.0)
    args = ap.parse_args()

    sigma2s = [float(t) for t in args.sigma2.split(",")]
    js = [int(t) for t in args.j.split(",")]
    mults = [int(t) for t in args.mults.split(",")]

    cs = [0.5 * k for k in range(1, int(2 * args.c_max) + 1)]
    # one profile per cell, swept to the largest L any candidate reads
    profiles = {}
    for s2 in sigma2s:
        kernel = make_binomial(s2)
        for j in js:
            top = max([2] + [math.ceil(c * (j + 1) ** 2 / s2) * m
                             for c in cs for m in mults])
            profiles[s2, j] = midpoint_prob(kernel, top, j)
    chosen = None
    for c in cs:
        ok, witness = works(c, profiles, mults)
        print(f"C={c:5.1f}: {'ok' if ok else f'fails at {witness}'}")
        if ok and chosen is None:
            chosen = c
    if chosen is None:
        print("no C in range satisfied the bound")
        return 1
    print(f"\nsmallest working C on this grid: {chosen}")
    print(f"shipped default: {SCALE_CONSTANT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
