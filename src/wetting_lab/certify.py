"""Delocalization certificates, threshold bracketing, and phase scans.

The delocalization engine follows a scale-doubling induction.  For a single
pinned level j with reward kappa = b sigma^2/(j+1) and wall depth j, define
scales L_n = 2^n L_0 with L_0 = (C/2)(j+1)^2/sigma^2.  If

  * the ratio Z_pinned/Z_free stays <= 1+delta for every L <= L_1 (base case),
  * 3/4 (1+delta)^2 e^{2 kappa} <= 1+delta (scalar step inequality), and
  * the unconstrained bridge puts probability <= 3/4 on staying above the
    wall at the two middle times, for every L in each doubling window,

then the ratio bound propagates to every larger scale.  The midpoint bound
is checked at every scale of every window up to a finite L_max, from one
midpoint profile per level swept to L_max (each window reads its slice);
the verdict is therefore labelled empirical and carries that scale.
Localized verdicts come only from the spectral engine.  Multi-level
potentials are first split into single-level problems with weights rho_j;
the split needs sum rho_j <= 1, which is checked, never assumed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .certificates import (
    Certificate,
    DELOCALIZED_EMPIRICAL,
    Evidence,
    LOCALIZED,
    UNDETERMINED,
)
from .errors import ParameterError, positive_finite
from .kernels import WalkKernel, parse_kernel_spec
from .potentials import PinningPotential, decouple, make_family, parse_potential_spec, rho
from .transfer import free_energy, midpoint_prob, partition_profile

# Shipped midpoint calibration constant: smallest C (on a half-integer grid)
# with midpoint_prob <= 3/4 across the tested (sigma2, j) grid; derived by
# scripts/calibrate_midpoint_constant.py, not assumed.
SCALE_CONSTANT = 8.0
_SLACK = 1e-12
_LOG_RATIO_CAP = 709.0  # just below log(largest float), so exp stays finite
_RATIO_MAX = math.exp(_LOG_RATIO_CAP)
_MAX_BISECT = 60        # bisection steps of the threshold brackets


def _ratio(log_ratio: float) -> float:
    """exp(log_ratio), saturated below the float range so that evidence
    stays finite; a saturated ratio fails every threshold here anyway."""
    return math.exp(min(log_ratio, _LOG_RATIO_CAP))


def _scale_L0(j: int, sigma2: float) -> float:
    """L_0 = (C/2)(j+1)^2 / sigma^2 with C = SCALE_CONSTANT."""
    return 0.5 * SCALE_CONSTANT * (j + 1) ** 2 / sigma2


def base_scale(j: int, sigma2: float) -> int:
    """L_1 = 2 L_0 = C (j+1)^2 / sigma^2, the end of the base-case window."""
    return max(2, int(math.ceil(2.0 * _scale_L0(j, sigma2))))


@lru_cache(maxsize=128)
def _profile_cached(kernel: WalkKernel, L: int, j: int | None):
    """The profiles up to L that no amplitude enters: the midpoint profile
    at wall depth j, or for j None the free bridge's log Z.  Read-only, and
    shared by every certificate (and so by every bisection point of a
    threshold run) on the same kernel and length; a certificate sweeps each
    to its L_max once and reads prefixes and slices of it."""
    prof = (partition_profile(kernel, L) if j is None
            else midpoint_prob(kernel, L, j))
    prof.flags.writeable = False
    return prof


@dataclass(frozen=True)
class BaseCaseResult:
    max_ratio: float
    worst_L: int
    L1: int
    covered_to: int   # < L1 when L_max ends first


def base_case_check(kernel: WalkKernel, j: int, b: float,
                    L_max: int) -> BaseCaseResult:
    """Largest ratio Z_pinned/Z_free over L up to L_1, or up to L_max if that
    is shorter; the base case holds for every delta with max_ratio <= 1+delta.
    The free log Z is read from the one profile swept to L_max."""
    if b < 0:
        raise ParameterError("need b >= 0")
    eps = b * kernel.sigma2 / (j + 1)
    L1 = base_scale(j, kernel.sigma2)
    top = min(L1, L_max)
    pin = partition_profile(kernel, top, wall=j,
                            pot=make_family("single", j=0, amplitude=eps))
    free = _profile_cached(kernel, L_max, None)
    best, worst = 0.0, 1
    for L in range(1, top + 1):
        r = _ratio(pin[L] - free[L])
        if r > best:
            best, worst = r, L
    return BaseCaseResult(max_ratio=best, worst_L=worst, L1=L1, covered_to=top)


def scalar_step_bound(delta: float, eps: float) -> float:
    """The doubling-step scalar: must be <= 1+delta for the induction.

    A value beyond the float range is inf, which fails that test for every
    finite delta, as the true value does."""
    try:
        return 0.75 * (1.0 + delta) ** 2 * math.exp(2.0 * eps)
    except OverflowError:
        return math.inf


def max_feasible_delta(eps: float) -> float:
    """Largest delta with scalar_step_bound(delta, eps) <= 1+delta.

    e^{2 eps} saturates below the float range, where the result is already
    -1.0 (no feasible delta)."""
    return 4.0 / (3.0 * _ratio(2.0 * eps)) - 1.0


@dataclass(frozen=True)
class DoublingStepResult:
    passed: bool
    scalar_value: float
    samples: range    # every scale in the window
    worst_midpoint: float


def doubling_step_check(kernel: WalkKernel, j: int, b: float, delta: float,
                        n: int, L_max: int) -> DoublingStepResult:
    """One induction step: scalar inequality plus the midpoint bound at every
    scale of the n-th doubling window (L_0 2^n, L_0 2^{n+1}], cut at L_max.
    The window reads its slice of the level's midpoint profile to L_max."""
    if n < 1:
        raise ParameterError("doubling steps start at n=1")
    eps = b * kernel.sigma2 / (j + 1)
    L0 = _scale_L0(j, kernel.sigma2)
    L_lo = int(math.ceil(L0 * 2 ** n))
    L_hi = min(int(math.ceil(L0 * 2 ** (n + 1))), L_max)
    scalar = scalar_step_bound(delta, eps)
    ok = scalar <= 1.0 + delta + _SLACK
    samples = range(max(L_lo + 1, 2), L_hi + 1)
    worst = 0.0
    if samples:
        prof = _profile_cached(kernel, L_max, j)
        worst = float(prof[samples.start:samples.stop].max())
        ok &= worst <= 0.75 + _SLACK
    return DoublingStepResult(
        passed=ok, scalar_value=scalar, samples=samples,
        worst_midpoint=worst,
    )


def delocalization_certificate(
    kernel: WalkKernel,
    pot: PinningPotential,
    b: float | None = None,
    delta: float | None = None,
    L_max: int = 4096,
) -> Certificate:
    """Run the full pipeline: split by level, certify each level's doubling
    chain up to L_max, then check the recombined ratio directly.

    The decoupling constant ``b`` defaults to rho's upper bound (at least
    1e-9), which makes the level weights sum to 1.  Every recorded
    inequality must pass for the verdict ``delocalized_empirical`` (valid up
    to L_max); any failure, an infeasible delta window, or decoupling
    weights above 1 yield ``undetermined`` with the failing scale recorded.
    A reward above log 2 gives ``undetermined`` before a default ``b`` is
    checked, so rho overflowing there is no error (``b`` is then None).
    """
    sigma2 = kernel.sigma2
    if b is not None:
        positive_finite(b, "b")
    else:
        b = max(rho(pot, sigma2).upper, 1e-9)
    if delta is not None:
        positive_finite(delta, "delta")
    params = {
        "kernel": kernel.spec_string(),
        "pot": pot.spec_string(),
        "sigma2": sigma2,
        "b": b if math.isfinite(b) else None,
        "C": SCALE_CONSTANT,
        "L_max": L_max,
    }
    evidence: list[Evidence] = []

    def cert(verdict: str, note: str, valid_up_to: int | None = None):
        return Certificate(verdict=verdict, evidence=tuple(evidence),
                           params=params, valid_up_to=valid_up_to,
                           notes=(note,))

    if pot.exceeds_log2:
        return cert(UNDETERMINED, "rewards above log 2 cannot be delocalized; "
                    "run the spectral engine instead")
    positive_finite(b, "b")  # the default of a non-summable tail is inf
    levels = pot.support
    if levels and L_max < base_scale(levels[0], sigma2):
        return cert(UNDETERMINED, f"L_max={L_max} ends before the base scale "
                    f"L_1={base_scale(levels[0], sigma2)}, so the induction "
                    "covers no scale")

    dec = decouple(pot, b, sigma2)
    weight_sum = dec.rho_sum + pot.tail_bound / (b * sigma2)
    if not math.isfinite(weight_sum):
        return cert(UNDETERMINED, "decoupling weights are unbounded at this b "
                    f"(tail bound {pot.tail_bound:g}); the level split does "
                    "not apply")
    evidence.append(Evidence(
        scale=0, check="decoupling_weight_sum", measured=weight_sum,
        threshold=1.0, passed=weight_sum <= 1.0 + _SLACK,
        detail=f"retained={dec.rho_sum:.6g}, tail<={pot.tail_bound / (b * sigma2):.3g}",
    ))
    if not evidence[-1].passed:
        return cert(UNDETERMINED, "decoupling weights exceed 1 at this b; "
                    "the level split does not apply")

    # a wall deeper than (L_max // 2) max_step is out of every bridge's
    # reach, so such levels differ only in kappa_j = b sigma^2/(j+1), which
    # falls with j, and have L_1 >= L_max (no doubling step): the shallowest
    # one bounds the base ratios of the rest and leaves the same delta window
    reach = (L_max // 2) * kernel.max_step
    deep = [j for j in levels if j > reach]
    levels = [j for j in levels if j <= reach] + deep[:1]

    # the base ratios do not depend on delta: measure them first, then pick
    # delta strictly inside the window they leave with the scalar step
    base = {j: base_case_check(kernel, j, b, L_max) for j in levels}
    if delta is None:
        delta_lo = max([0.0] + [r.max_ratio - 1.0 for r in base.values()])
        delta_hi = min([math.inf] + [max_feasible_delta(b * sigma2 / (j + 1))
                                     for j in levels])
        if delta_lo >= delta_hi - 1e-9:
            params["delta_window"] = (delta_lo, delta_hi)
            return cert(UNDETERMINED, "no feasible delta: base ratios need > "
                        f"{delta_lo:.4g}, scalar step allows < {delta_hi:.4g}")
        delta = 0.5 * (delta_lo + delta_hi) if levels else 0.1
    params["delta"] = delta

    for j in levels:
        res = base[j]
        ok = res.max_ratio <= 1.0 + delta + _SLACK
        detail = f"worst L={res.worst_L}"
        if res.covered_to < res.L1:
            detail += f"; base window truncated at {res.covered_to} of {res.L1}"
        if len(deep) > 1 and j == deep[0]:
            detail += (f"; covers levels {deep[0]}..{deep[-1]} ({len(deep)} "
                       f"levels), whose walls no bridge up to L_max reaches")
        evidence.append(Evidence(
            scale=res.covered_to, check=f"base_ratio[j={j}]",
            measured=res.max_ratio, threshold=1.0 + delta, passed=ok,
            detail=detail,
        ))
        if not ok:
            continue
        L0 = _scale_L0(j, sigma2)
        n = 1
        while L0 * 2 ** n < L_max:
            step = doubling_step_check(kernel, j, b, delta, n, L_max)
            scales = step.samples
            span = f"L={scales[0]}..{scales[-1]}" if scales else "no scale"
            evidence.append(Evidence(
                scale=scales.stop - 1,
                check=f"doubling[j={j},n={n}]",
                measured=min(max(step.scalar_value / (1.0 + delta),
                                 step.worst_midpoint / 0.75), _RATIO_MAX),
                threshold=1.0, passed=step.passed,
                detail=(f"scalar={step.scalar_value:.6g} vs {1 + delta:.6g}; "
                        f"midpoint max={step.worst_midpoint:.6g} over "
                        f"{span}"),
            ))
            if not step.passed:
                break
            n += 1

    prof_pot = partition_profile(kernel, L_max, wall=0, pot=pot)
    prof_free = _profile_cached(kernel, L_max, None)
    L = 2
    grid = []
    while L < L_max:
        grid.append(L)
        L *= 2
    grid.append(L_max)
    for L in grid:
        ratio = _ratio(prof_pot[L] - prof_free[L])
        evidence.append(Evidence(
            scale=L, check="recombined_ratio", measured=ratio, threshold=4.0,
            passed=ratio <= 4.0 + _SLACK,
        ))

    failing = [e for e in evidence if not e.passed]
    if not failing:
        return cert(DELOCALIZED_EMPIRICAL, "empirical: midpoint bound checked "
                    "at every scale up to valid_up_to, nothing claimed beyond "
                    "it", valid_up_to=L_max)
    return cert(UNDETERMINED, f"first failing check: {failing[0].check} at "
                f"scale {failing[0].scale:g}")


# ---------------------------------------------------------------------------
# threshold bracketing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdBracket:
    amp_lo: float
    amp_hi: float
    rho_lo: float
    rho_hi: float
    caveat: str
    stalled: bool
    hi_route: str
    trail: tuple[tuple[float, str], ...]  # (amplitude, verdict) in test order


def _bisect(above, amp_lo: float, amp_hi: float, tol: float,
            sides: tuple[str, str]) -> tuple[float, float, bool]:
    """Halve [amp_lo, amp_hi] until its width is at most tol * lo.

    ``above(amp)`` is False below the transition, True above it, and None
    where it cannot tell, which stops the bracket there (stalled).  The
    ends must lie on opposite sides, named by ``sides`` in the error.
    Returns (lo, hi, stalled)."""
    if not (0 < amp_lo < amp_hi):
        raise ParameterError("need 0 < amp_lo < amp_hi")
    positive_finite(tol, "tol")
    if above(amp_lo) is not False:
        raise ParameterError(f"amp_lo={amp_lo} is not {sides[0]}")
    if above(amp_hi) is not True:
        raise ParameterError(f"amp_hi={amp_hi} is not {sides[1]}")
    lo, hi = amp_lo, amp_hi
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol * lo:
            break
        mid = 0.5 * (lo + hi)
        side = above(mid)
        if side is None:
            return lo, hi, True
        if side:
            hi = mid
        else:
            lo = mid
    return lo, hi, False


def wetting_threshold(
    kernel: WalkKernel,
    make_pot,
    amp_lo: float,
    amp_hi: float,
    tol: float = 0.05,
    *,
    L_max: int = 4096,
) -> ThresholdBracket:
    """Bisect an amplitude family between a certified-empirical delocalized
    endpoint and a spectrally localized endpoint.

    ``make_pot(amp)`` must return the potential at amplitude ``amp``.  The
    decoupling constant is the default b = rho, so the level weights sum
    to 1.  If a midpoint is neither certifiable nor localized
    the bracket stops shrinking and is returned with ``stalled`` set.
    """
    from .spectral import localization_certificate

    trail: list[tuple[float, str]] = []
    hi_route = ""  # every localized amplitude becomes the upper end

    def localized(amp: float) -> bool | None:
        nonlocal hi_route
        pot = make_pot(amp)
        loc = localization_certificate(kernel, pot)
        if loc.verdict == LOCALIZED:
            trail.append((amp, "localized"))
            hi_route = loc.spectral["route"]
            return True
        dl = delocalization_certificate(kernel, pot, L_max=L_max)
        trail.append((amp, dl.verdict))
        return False if dl.verdict == DELOCALIZED_EMPIRICAL else None

    lo, hi, stalled = _bisect(
        localized, amp_lo, amp_hi, tol,
        ("delocalized-empirical", "spectrally localized"))
    return ThresholdBracket(
        amp_lo=lo,
        amp_hi=hi,
        rho_lo=rho(make_pot(lo), kernel.sigma2).value,
        rho_hi=rho(make_pot(hi), kernel.sigma2).upper,
        caveat="empirical below, rigorous above",
        stalled=stalled,
        hi_route=hi_route,
        trail=tuple(trail),
    )


def free_energy_crossing(
    kernel: WalkKernel,
    make_pot,
    amp_lo: float,
    amp_hi: float,
    tol: float = 0.05,
) -> tuple[float, float]:
    """Amplitude bracket around the point where the free energy leaves 0.

    "f > 0" is decided by inertia on the window [0, 2^13]: I - A is not
    positive definite there exactly when A has an eigenvalue >= 1 on the
    window, and the window's top eigenvalue lower-bounds the half-line's.
    So the upper end has f > 0 up to floating point (bar an eigenvalue of
    exactly 1), while at the lower end I - A is positive definite on the
    window, which would miss only a bound state wider than 2^13.
    """
    from .spectral import _EIG_H_CAP, _min_pivot, pinned_operator

    def positive(amp: float) -> bool:
        op = pinned_operator(kernel, make_pot(amp), _EIG_H_CAP)
        return _min_pivot(op, 1.0) <= 0.0

    lo, hi, _ = _bisect(positive, amp_lo, amp_hi, tol,
                        ("at f = 0 on the window", "at f > 0 on the window"))
    return lo, hi


# ---------------------------------------------------------------------------
# phase scans
# ---------------------------------------------------------------------------

SCAN_COLUMNS = (
    "kernel", "sigma2", "family", "amplitude", "rho",
    "verdict_spectral", "verdict_induction", "f_hat", "f_err", "wall_time_s",
)


@dataclass(frozen=True)
class ScanPoint:
    kernel_spec: str
    family_spec: str
    amplitude: float


def _scan_one(args) -> dict:
    from .spectral import localization_certificate

    point, L_max, deterministic_timing = args
    t0 = time.perf_counter()
    row = {c: "" for c in SCAN_COLUMNS}
    row["kernel"] = point.kernel_spec
    row["family"] = point.family_spec
    row["amplitude"] = point.amplitude
    row["error"] = ""
    try:
        kernel = parse_kernel_spec(point.kernel_spec)
        pot = parse_potential_spec(point.family_spec, amplitude=point.amplitude)
        row["sigma2"] = kernel.sigma2
        rho_est = rho(pot, kernel.sigma2)
        row["rho"] = rho_est.value
        loc = localization_certificate(kernel, pot)
        row["verdict_spectral"] = loc.verdict
        dl = delocalization_certificate(kernel, pot, L_max=L_max)
        row["verdict_induction"] = dl.verdict
        fe = free_energy(kernel, pot, L_cross=1024)
        row["f_hat"] = fe.value
        row["f_err"] = max(fe.gap, fe.residual)
        if loc.verdict == LOCALIZED and dl.verdict == DELOCALIZED_EMPIRICAL:
            row["error"] = "inconsistent: both engines claimed a verdict"
    except Exception as exc:  # per-point failures stay in-row
        row["verdict_spectral"] = row["verdict_induction"] = "error"
        row["f_hat"] = row["f_err"] = float("nan")
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_s"] = 0.0 if deterministic_timing else time.perf_counter() - t0
    return row


def phase_scan(
    points: list[ScanPoint],
    *,
    L_max: int = 1024,
    workers: int = 1,
    deterministic_timing: bool = False,
) -> list[dict]:
    """One row per grid point, in input (row-major) order regardless of
    scheduling; per-point errors are recorded in-row and the scan continues.
    f_hat's cross-check slope is taken at L_cross = 1024."""
    jobs = [(p, L_max, deterministic_timing) for p in points]
    if workers <= 1 or len(jobs) <= 1:
        return [_scan_one(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_one, jobs))
