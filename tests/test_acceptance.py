"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run  pytest tests/test_acceptance.py -v -s  to watch the lines appear; plain
pytest shows them for failing criteria only.  Every test also enforces its
runtime budget.
"""

import math
import time
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from wetting_lab.certify import (
    SCALE_CONSTANT,
    base_scale,
    free_energy_crossing,
    wetting_threshold,
)
from wetting_lab.kernels import make_binomial
from wetting_lab.potentials import decouple, make_family, rho
from wetting_lab.rw_oracle import oracle_partition
from wetting_lab.saw import (
    excess_length,
    minimal_horizontal_identity,
    permutation_bound_delta,
    permutation_sum,
    regularity_stats,
    saw_partition,
)
from wetting_lab.spectral import sine_profile_bound
from wetting_lab.transfer import midpoint_prob, partition_profile


def _report(num, name, ok, started, budget, detail=""):
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < budget
    tail = f"{detail + ' | ' if detail else ''}{elapsed:.1f}s of {budget:.0f}s"
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({tail})")
    assert ok, f"criterion {num} ({name}): {tail}"


@lru_cache(maxsize=64)
def _kernel(sigma2):
    return make_binomial(sigma2)


@lru_cache(maxsize=64)
def _free_profile(sigma2, L_max):
    return partition_profile(_kernel(sigma2), L_max)


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    pots = {
        "none": None,
        "pin0": make_family("single", j=0, amplitude=0.1),
        "mix_list": make_family("list", values=[0.1, 0.05]),
        "mix_exp": make_family("exp", delta=1.0, amplitude=0.08),
        "mix_power": make_family("power", delta=0.5, amplitude=0.05,
                                 weighted_tail_tol=1e-4),
    }
    worst = 0.0
    for s2 in (0.1, 0.5):
        k = _kernel(s2)
        variants = [("free", None, None)]
        variants += [(f"wall{j}", j, None) for j in (0, 1, 2, 3)]
        variants += [("pin_wall0", 0, pots["pin0"]),
                     ("mix_list", 0, pots["mix_list"]),
                     ("mix_exp", 0, pots["mix_exp"]),
                     ("mix_power", 0, pots["mix_power"])]
        for _, wall, pot in variants:
            prof = partition_profile(k, 14, wall=wall, pot=pot)
            z = oracle_partition(k, 14, wall=wall, pot=pot)
            for L in range(1, 15):
                worst = max(worst, abs(math.exp(prof[L]) - z[L]) / z[L])
    _report(1, "transfer matches brute-force oracle", worst <= 1e-12, t0, 60,
            f"max rel err {worst:.2e}")


def test_criterion_02_local_clt_band():
    t0 = time.perf_counter()
    ok = True
    details = []
    for s2 in (0.1, 0.5):
        prof = _free_profile(s2, 1 << 14)
        Ls = np.arange(1, (1 << 14) + 1)
        vals = np.sqrt(s2 * Ls) * np.exp(prof[1:])
        lo = math.ceil(100 / s2)
        band = vals[lo - 1:]
        endpoint = vals[-1]
        ok &= bool(band.min() >= 0.2 and band.max() <= 0.6)
        ok &= abs(endpoint - 1 / math.sqrt(2 * math.pi)) <= 0.05
        details.append(f"s2={s2}: [{band.min():.3f},{band.max():.3f}] "
                       f"end {endpoint:.4f}")
    _report(2, "normalised bridge mass stays in band", ok, t0, 30,
            "; ".join(details))


def test_criterion_03_midpoint_bound_grid():
    t0 = time.perf_counter()
    worst, arg = 0.0, None
    for s2 in (0.1, 0.25, 0.5):
        k = _kernel(s2)
        for j in (0, 1, 2, 4):
            L1 = math.ceil(SCALE_CONSTANT * (j + 1) ** 2 / s2)
            for mult in (1, 2, 4):
                p = midpoint_prob(k, L1 * mult, j)[1][L1 * mult]
                if p > worst:
                    worst, arg = p, (s2, j, L1 * mult)
    _report(3, "midpoint bound <= 3/4 on the calibrated grid", worst <= 0.75,
            t0, 120, f"worst {worst:.4f} at {arg}")


def test_criterion_04_pinned_ratio_bounded_by_two():
    t0 = time.perf_counter()
    b = 0.1
    worst = 0.0
    for s2 in (0.1, 0.25, 0.5):
        k = _kernel(s2)
        free = _free_profile(s2, 1 << 12)
        for j in (0, 1, 2, 4):
            eps = b * s2 / (j + 1)
            pin = partition_profile(k, 1 << 12, wall=j,
                                    pot=make_family("single", j=0,
                                                    amplitude=eps))
            worst = max(worst, float(np.exp(pin[1:] - free[1:]).max()))
    _report(4, "weakly pinned walled ratio stays <= 2", worst <= 2.0, t0, 300,
            f"max ratio {worst:.4f}")


def test_criterion_05_spectral_certificate_and_growth():
    t0 = time.perf_counter()
    ok = True
    max_a, worst_margin = 0.0, math.inf
    for s2 in (0.1, 0.25, 0.5):
        k = _kernel(s2)
        for j in (0, 1, 2, 4):
            found = None
            d_grid = sorted({0, 1, 2, j, 2 * j, 2 * j + 1, 2 * j + 2,
                             4 * (j + 1)})
            for a in np.arange(0.25, 30.01, 0.25):
                eps = a * s2 / (j + 1)
                pot = make_family("single", j=j, amplitude=eps)
                q = max(sine_profile_bound(k, pot, d).quotient
                        for d in d_grid)
                if q > 1.005:
                    found = (float(a), q)
                    break
            ok &= found is not None
            a, q = found
            max_a = max(max_a, a)
            eps = a * s2 / (j + 1)
            prof = partition_profile(k, 1 << 13, wall=j,
                                     pot=make_family("single", j=0,
                                                     amplitude=eps))
            growth = float(prof[1 << 13] - prof[1 << 12]) / (1 << 12)
            margin = growth - (math.log(q) - 0.01)
            worst_margin = min(worst_margin, margin)
            ok &= margin >= 0
    _report(5, "sine certificate exists and growth beats its rate", ok, t0,
            300, f"max a {max_a}, min growth margin {worst_margin:.4f}")


def test_criterion_06_decoupling_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    s2 = 0.5
    k = _kernel(s2)
    ok = True
    for _ in range(20):
        nlev = int(rng.integers(1, 5))
        pot = make_family("list",
                          values=rng.uniform(0.01, 0.3, size=nlev).tolist())
        b = rho(pot, s2).value  # weights sum to exactly 1
        dec = decouple(pot, b, s2)
        assert dec.rho_sum == pytest.approx(1.0, rel=1e-12)
        L = int(rng.choice([6, 9, 12]))
        lhs = oracle_partition(k, L, wall=0, pot=pot)[L]
        rhs = sum(
            lp.rho_j * oracle_partition(
                k, L, wall=0,
                pot=make_family("single", j=lp.j, amplitude=lp.kappa_j))[L]
            for lp in dec.levels if lp.rho_j > 0
        )
        ok &= lhs <= rhs * (1 + 1e-12)
    _report(6, "level decoupling bounds the mixed ensemble", ok, t0, 60)


def _overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def test_criterion_07_threshold_bracketing_consistency():
    t0 = time.perf_counter()
    ok = True
    brackets = {}
    details = []
    for s2, lo0, hi0 in ((0.1, 0.01, 0.2), (0.5, 0.1, 1.0)):
        k = _kernel(s2)

        def mk(amp):
            return make_family("single", j=0, amplitude=amp)

        wt = wetting_threshold(k, mk, lo0, hi0, tol=0.05, L_max=2048)
        fc_lo, fc_hi = free_energy_crossing(k, mk, lo0, hi0, tol=0.05)
        wt_rho = (wt.rho_lo, wt.rho_hi)
        fc_rho = (rho(mk(fc_lo), s2).value, rho(mk(fc_hi), s2).value)
        ok &= _overlap(wt_rho, fc_rho)
        # exact single-level threshold of the nearest-neighbour walk:
        # e^{eps_c} (1 - sigma^2/2) = 1, i.e. rho_c = -log(1 - sigma^2/2)/sigma^2
        rho_c = -math.log(1.0 - s2 / 2.0) / s2
        ok &= wt_rho[0] <= rho_c <= wt_rho[1]
        ok &= fc_rho[0] <= rho_c <= fc_rho[1]
        brackets[s2] = wt_rho
        details.append(f"s2={s2}: wt rho [{wt_rho[0]:.3f},{wt_rho[1]:.3f}] "
                       f"fe [{fc_rho[0]:.3f},{fc_rho[1]:.3f}] "
                       f"exact {rho_c:.5f}")
    common_lo = max(b[0] for b in brackets.values())
    common_hi = min(b[1] for b in brackets.values())
    ok &= common_lo <= common_hi
    _report(7, "threshold brackets agree and share a band", ok, t0, 600,
            "; ".join(details))


def test_criterion_08_minimal_horizontal_identity():
    t0 = time.perf_counter()
    ok = True
    widest = 0.0
    for L in (2, 4, 6, 8):
        for beta in (2.5, 3.0, 4.0):
            target = 1e-7 if beta >= 3.0 else 1e-5
            rep = minimal_horizontal_identity(L, beta, rel_target=target)
            ok &= rep.agrees
            if beta == 3.0:
                widest = max(widest, rep.relative_width)
                ok &= rep.relative_width < 1e-6
    _report(8, "path sum equals the walk reduction within certificates", ok,
            t0, 120, f"widest certificate at beta=3: {widest:.2e}")


def test_criterion_09_path_ensemble_ratio_bounded_by_four():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for beta in (2.5, 3.0):
        amp = 0.1 * math.exp(-beta)
        pot = make_family("exp", delta=1.0, amplitude=amp)
        for L in (2, 3, 4, 5, 6, 7, 8):
            cap = 6 if L >= 7 else 8
            z_pot = saw_partition(L, beta, cap, constraint="wall", pot=pot)
            z_free = saw_partition(L, beta, cap)
            ratio = z_pot.upper / z_free.lower
            worst = max(worst, ratio)
            ok &= ratio <= 4.0
    _report(9, "weakly rewarded path ensemble stays <= 4x free", ok, t0, 300,
            f"worst certified ratio {worst:.3f}")


def test_criterion_10_permutation_excess_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for c in (2.0, 3.0, 4.0):
        delta = permutation_bound_delta(c)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            span = int(rng.integers(n + 2, 40))
            xs = sorted(rng.choice(np.arange(1, span), size=n,
                                   replace=False).tolist())
            ok &= permutation_sum(xs, span, c) <= (1 + delta) ** n + 1e-12
    # nonnegativity with equality exactly at the identity order
    for _ in range(10):
        n = int(rng.integers(1, 8))
        span = int(rng.integers(n + 2, 30))
        xs = sorted(rng.choice(np.arange(1, span), size=n,
                               replace=False).tolist())
        for pi in permutations(range(n)):
            ell = excess_length(xs, span, pi)
            ok &= ell >= 0 and (ell == 0) == (pi == tuple(range(n)))
    _report(10, "permutation excess-length bound", ok, t0, 60)


def test_criterion_11_regularity_trends():
    t0 = time.perf_counter()
    lo = regularity_stats(6, 2.5, 8)
    hi = regularity_stats(6, 4.0, 8)
    ok = hi.not_regular[3][1] < lo.not_regular[3][1]
    ok &= hi.first_edge_vertical[1] < lo.first_edge_vertical[1]
    ok &= (hi.ext_moment[1] - 1.0) < (lo.ext_moment[1] - 1.0)
    ok &= (hi.ext_moment[1] - 1.0) > 0
    _report(11, "irregularity statistics fall as beta grows", ok, t0, 120,
            f"P(not regular at 3): {lo.not_regular[3][1]:.2e} -> "
            f"{hi.not_regular[3][1]:.2e}")


def test_criterion_12_bootstrap_stability():
    t0 = time.perf_counter()
    s2, b = 0.25, 0.1
    k = _kernel(s2)
    free = _free_profile(s2, 1 << 12)
    ok = True
    details = []
    for j in (0, 1, 2):
        eps = b * s2 / (j + 1)
        L1 = base_scale(j, s2)
        pin = partition_profile(k, 1 << 12, wall=j,
                                pot=make_family("single", j=0, amplitude=eps))
        walled = partition_profile(k, 1 << 12, wall=j)
        moments = np.exp(pin[1:] - walled[1:])  # index L-1
        run_half = moments[L1 - 1:(1 << 11)].max()
        run_full = moments[L1 - 1:(1 << 12)].max()
        growth = (run_full - run_half) / run_half
        ok &= growth < 0.01
        # the walled mass fraction decays like 1/L over the last decade
        Ls = np.arange(1, (1 << 12) + 1)
        m = Ls >= (1 << 12) // 10
        slope = np.polyfit(np.log(Ls[m]), (walled[1:] - free[1:])[m], 1)[0]
        ok &= abs(slope + 1.0) <= 0.1
        details.append(f"j={j}: runmax growth {growth:.2e}, slope {slope:.3f}")
    _report(12, "pinned moment stabilises; walled fraction ~ 1/L", ok, t0,
            120, "; ".join(details))
