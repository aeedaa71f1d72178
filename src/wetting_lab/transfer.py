"""Partition functions via height-truncated transfer.

The walk bridge of length L with an optional wall at height -j and an optional
pinning potential is summed exactly on a finite height window.  Weights decay
like p(0)^L, far below linear-domain range at large L, so the recursion keeps
a running log scale (equivalently, log-sum-exp with per-step max extraction).

Conventions, fixed once for every operation here and in the oracle:
  * bridges start and end at height 0; a wall at depth j keeps all heights
    >= -j; internally states are shifted so the wall sits at state 0;
  * pinning rewards apply at interior times 1..L-1 only, never at the two
    endpoints;
  * potential levels index absolute heights (level 0 is the start height),
    regardless of the wall depth.

Each step of the sweep is one ``np.correlate`` of the scaled state vector
with the reversed stencil, one max, one in-place division by it and a few
scalar reads; the profiles that take no amplitude (midpoint profiles, free
bridge log Z) are swept once per kernel and length and kept read-only in
the one process-wide cache of ``certify``.

Window truncation is monitored, not assumed: a profile sweep grows its
window in place from the mass its edge rows carry, and stops at an exact
fixed point, which a localized sweep reaches within a few thousand steps
(see ``_sweep``).  Past ``_STATE_CAP`` rows, or after 8 doublings of the
midpoint sweep's fixed window, a relative edge mass above ``DEFECT_TOL``
raises TruncationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, RefusalError, TruncationError,
                     positive_finite)
from .kernels import WalkKernel
from .potentials import PinningPotential

DEFECT_TOL = 1e-12
_STATE_CAP = 1 << 17
_GROW = float(1 << 53)  # edge mass times this above the reference grows
_EPS_MAX = math.log(np.finfo(float).max)  # largest reward with finite e^eps
_EIG_TOL = 1e-10    # Lanczos residual tolerance of free_energy


# ---------------------------------------------------------------------------
# sweep engine: whole length profiles in one pass, scaled linear domain
# ---------------------------------------------------------------------------


@dataclass
class _Window:
    base: int      # absolute height of state 0
    n: int         # state count
    start: int
    end: int
    walled: bool


def _make_window(kernel: WalkKernel, L: int, wall: int | None,
                 pot: PinningPotential | None) -> _Window:
    """The floor window of an L-step sweep, from the start up (and, with no
    wall, down): the rewarded levels a bridge of length L can reach, plus
    4 max_step rows, and at least max(4 max_step, 16) rows."""
    m = kernel.max_step
    spread = max(4 * m, 16)
    if pot is not None and pot.support:
        spread = max(spread, min(pot.support[-1], (L // 2) * m) + 4 * m)
    if wall is not None:
        return _Window(-wall, wall + spread + 1, wall, wall, walled=True)
    return _Window(-spread, 2 * spread + 1, spread, spread, walled=False)


def _diag_for(window: _Window,
              pot: PinningPotential | None) -> np.ndarray | None:
    idx0 = -window.base  # state of absolute height 0
    hi = 0 if pot is None else min(window.n - idx0, pot.j_max + 1)
    if hi <= 0:
        return None
    eps = np.zeros(window.n)
    eps[idx0: idx0 + hi] = pot.eps_array(hi)
    if eps.max() > _EPS_MAX:
        raise ParameterError(
            f"pinning reward {eps.max():.6g} is beyond the float range of the "
            f"transfer weights (at most {_EPS_MAX:.6g})")
    return np.exp(eps)


def _min_positive(s: np.ndarray) -> float:
    """Smallest positive entry of ``s``, inf if none."""
    return s.min(where=s > 0.0, initial=math.inf).item()


def _sweep(kernel: WalkKernel, L: int, window: _Window,
           pot: PinningPotential | None, defect_tol: float, on_step=None):
    """Run L steps; return (logZ profile for lengths 1..L, defect flag).

    ``on_step(t, v)``, if given, is called with the scaled state vector after
    t steps for t = 0, 1, ..., which the sweep never writes to afterwards.
    The window then stays fixed, and edge rows with a relative mass above
    ``defect_tol`` end the sweep with the flag set.

    Without ``on_step`` the window grows in place: when a step leaves its
    edge rows more than 2^-53 of the smallest positive entry on the read-out
    row (height 0) and the rewarded rows a bridge of length L can reach
    (read, as one slice, only when the edge carries mass), the open sides
    double and the step is redone from the zero-padded previous vector; past
    ``_STATE_CAP`` rows the ``defect_tol`` test decides.  Such a sweep also
    ends at an exact fixed point: from step 2 on every step is the same map,
    so once a step returns its input bit for bit (the vectors hold no NaN
    and no -0.0), every later one returns it with the same max, and the rest
    of the profile is filled with the additions those steps would make.

    ``np.correlate`` with the reversed stencil forms the sums
    ``np.convolve`` forms, in the same order, without its argument checks;
    scalars are read by ``.item()``, the max at ``argmax``."""
    stencil = kernel.prob_array()[::-1].copy()
    mstep = kernel.max_step
    grows = on_step is None
    # the rewarded levels above height 0 (the read-out row) within reach
    top = [j for j in (pot.support if pot else ()) if 0 < j <= L // 2 * mstep]
    lo, hi = (top[0], top[-1] + 1) if top else (0, 0)
    diag = _diag_for(window, pot)
    n, end, walled = window.n, window.end, window.walled
    v = np.zeros(n)
    v[window.start] = 1.0
    if on_step is not None:
        on_step(0, v)
    scale = 0.0
    m_prev = math.nan  # step 1 applies a different map: never a match
    logz = np.full(L + 1, -math.inf)
    for t in range(1, L + 1):
        prev = v
        while True:
            u = prev if (diag is None or t == 1) else prev * diag
            v = np.correlate(u, stencil, "same")
            m = v.item(v.argmax())  # the max, without a ufunc reduction
            if m <= 0.0:
                return logz, False  # every path died inside the window
            v /= m
            if mstep == 1:
                edge = v.item(-1) if walled else max(v.item(-1), v.item(0))
            else:
                edge = v[n - mstep:].sum().item()
                if not walled:
                    edge = max(edge, v[:mstep].sum().item())
            ve = v.item(end)
            over = edge * _GROW
            if not (grows and over > 0.0 and (
                    over > ve > 0.0
                    or hi and over > _min_positive(v[end + lo:end + hi]))):
                break
            # each open side twice as far from the start
            low, high = (0 if walled else window.start), n - 1 - window.start
            if n + low + high > _STATE_CAP:
                break
            prev = np.pad(prev, (low, high))
            window = _Window(window.base - low, n + low + high,
                             window.start + low, end + low, walled)
            n, end = window.n, window.end
            diag = _diag_for(window, pot)
        # v.max() == 1 now, so v.sum() >= 1: edge <= defect_tol cannot trip
        # the relative test, and the sum is only needed past that point
        if edge > defect_tol and edge / v.sum().item() > defect_tol:
            return logz, True
        scale += math.log(m)
        if on_step is not None:
            on_step(t, v)
        logz[t] = scale + math.log(ve) if ve > 0.0 else -math.inf
        if m == m_prev and grows and v.tobytes() == prev.tobytes():
            if ve > 0.0:
                # add.accumulate adds left to right, as `scale += log(m)`
                tail = logz[t:]
                tail[0] = scale
                tail[1:] = math.log(m)
                np.add.accumulate(tail, out=tail)
                tail += math.log(ve)
            return logz, False
        m_prev = m
    return logz, False


def partition_profile(
    kernel: WalkKernel,
    L_max: int,
    *,
    wall: int | None = None,
    pot: PinningPotential | None = None,
) -> np.ndarray:
    """log Z for every length 1..L_max in one pass (entry 0 is unused -inf)."""
    if L_max < 1:
        raise ParameterError("L_max must be at least 1")
    if wall is not None and wall < 0:
        raise ParameterError("wall depth must be nonnegative")
    window = _make_window(kernel, L_max, wall, pot)
    logz, defect = ((None, True) if window.n > _STATE_CAP else
                    _sweep(kernel, L_max, window, pot, DEFECT_TOL))
    if defect:
        raise TruncationError(f"window growth exhausted at L_max={L_max}",
                              partial=logz)
    return logz


def log_partition(
    kernel: WalkKernel,
    L: int,
    wall: int | None = None,
    pot: PinningPotential | None = None,
) -> float:
    """log of the bridge partition function with optional wall and potential."""
    return float(partition_profile(kernel, L, wall=wall, pot=pot)[L])


def midpoint_prob(kernel: WalkKernel, L: int, j: int) -> np.ndarray:
    """Midpoint profile: entry l is P(both heights at times floor(l/2),
    floor(l/2)+1 stay >= -j) under the unconstrained bridge of length l, for
    every 2 <= l <= L.  Entries 0 and 1 are unused (1.0).  Where
    j >= l*max_step the wall is out of reach and the entry is exactly 1.0.

    One sweep of L//2 steps on the window of length L serves every l: the
    legs of length 2t are the state vectors after t and t-1 steps, those of
    2t+1 the vector after t steps twice, so only the previous one is kept.
    """
    if L < 2:
        raise ParameterError("needs L >= 2")
    if j < 0:
        raise ParameterError("j must be nonnegative")
    prof = np.ones(L + 1)
    if j >= L * kernel.max_step:
        return prof
    parr = kernel.prob_array()
    for grow in range(8):
        w = int(math.ceil(8.0 * math.sqrt(kernel.sigma2 * L)))
        w = (max(w, j + 2 * kernel.max_step, 16) + 2 * kernel.max_step) << grow
        if 2 * w + 1 > _STATE_CAP:
            break
        window = _Window(base=-w, n=2 * w + 1, start=w, end=w, walled=False)
        mask = np.arange(window.n) + window.base >= -j
        last = None  # the previous vector and its masked copy, each stepped

        def on_step(t: int, v: np.ndarray) -> None:
            nonlocal last
            vm = v * mask
            now = (np.convolve(v, parr, mode="same"),
                   np.convolve(vm, parr, mode="same"))
            if t:
                # num and den carry the same dropped log scales, which cancel
                for l, (cg, cgm) in ((2 * t, last), (2 * t + 1, now)):
                    if l <= L:
                        prof[l] = float(vm @ cgm) / float(v @ cg)
            last = now

        _, defect = _sweep(kernel, L // 2, window, None, DEFECT_TOL, on_step)
        if not defect:
            return prof
    raise TruncationError(f"midpoint window exhausted at L={L}, j={j}")


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeEnergyEstimate:
    value: float          # primary: max(0, log top eigenvalue), window-doubled
    eigenvalue: float
    residual: float
    h_max: int
    cross_raw: float      # (log Z_{2L} - log Z_L)/L, not floored
    gap: float            # |value - max(0, cross_raw)|
    flagged: bool
    trace: tuple[str, ...]


def free_energy(
    kernel: WalkKernel,
    pot: PinningPotential,
    tol: float = 1e-4,
    *,
    L_cross: int = 4096,
) -> FreeEnergyEstimate:
    """Growth rate of the walled, potential-weighted bridge ensemble.

    Primary estimator: log of the top eigenvalue of the symmetrised pinned
    operator on [0, h_max], h_max doubled from max(64, 4 (j_max+1),
    8 max_step) up to 2^13 until the floored value moves by less than
    ``tol``; a first window past 2^13 is cut to it, so a long support costs
    one window of 2^13, never a basis as long as the support.
    The floor at 0 is sound: the potential is nonnegative
    so the true rate is >= 0, and truncation approaches it from below in the
    delocalized phase.  Cross-check: two-point slope of log Z at L_cross.
    Disagreement beyond 10*tol flags the result but still returns it; a
    log Z that is not finite there (a reward so large that the sweep's
    weight at height 0 falls below the float range) refuses the slope.
    """
    from .spectral import _EIG_H_CAP, _eigen_windows

    positive_finite(tol, "tol")

    def rate(eig) -> float:
        return max(0.0, math.log(eig.value))

    def settled(a, b) -> bool:
        return abs(rate(b) - rate(a)) < tol

    trace = []
    if pot.exceeds_log2:
        j_star = pot.log2_excess[0]
        trace.append(
            f"reward at level {j_star} exceeds log 2; stuck-at-level path "
            f"already gives rate >= {math.log(kernel.prob(0)) + pot.eps[j_star]:.6g}"
        )
    h0 = min(max(64, 4 * (pot.j_max + 1), 8 * kernel.max_step), _EIG_H_CAP)
    windows = _eigen_windows(kernel, pot, h0, _EIG_TOL, settled)
    for h, eig in windows:
        trace.append(f"h_max={h}: lambda={eig.value:.12g} residual={eig.residual:.3g}")
    if len(windows) < 2 or not settled(windows[-2][1], windows[-1][1]):
        trace.append("window cap reached before eigenvalue stabilised")
    h, eig = windows[-1]
    primary = rate(eig)
    prof = partition_profile(kernel, 2 * L_cross, wall=0, pot=pot)
    if not np.isfinite(prof[[L_cross, 2 * L_cross]]).all():
        raise RefusalError(f"log Z at L={L_cross} or {2 * L_cross} is not "
                           "finite in the sweep; no cross-check slope")
    cross_raw = float(prof[2 * L_cross] - prof[L_cross]) / L_cross
    gap = abs(primary - max(0.0, cross_raw))
    return FreeEnergyEstimate(
        value=primary,
        eigenvalue=eig.value,
        residual=eig.residual,
        h_max=h,
        cross_raw=cross_raw,
        gap=gap,
        flagged=gap > 10 * tol,
        trace=tuple(trace),
    )
