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

Every kernel is symmetric, so a bridge of length 2t or 2t-1 splits at
time t into legs of t and t or t-1 steps from height 0: one sweep of
ceil(L/2) steps (each one ``np.correlate`` of the scaled state vector with
the reversed stencil, one max and one division) gives the log Z and
midpoint profiles up to L; ``certify`` caches the amplitude-free ones.
Callers read every length they need from one profile, the normalised CLT
rows of ``clt_band`` included.

Window truncation is monitored, not assumed: the sweep grows its window in
place from the mass its edge rows carry, and stops at an exact fixed point,
which a localized sweep reaches within a few thousand steps; past
``_STATE_CAP`` rows a relative edge mass above ``DEFECT_TOL`` raises
TruncationError.
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
_SUM_MAX = 2.0 ** 1006  # a read scales larger weights down: 2^17 add up
_BLOCK = 1 << 13    # stored cells (steps x rows) a reader gets at once
_EIG_TOL = 1e-10    # Lanczos residual tolerance of free_energy


# ---------------------------------------------------------------------------
# sweep engine: half-length legs in one pass, scaled linear domain
# ---------------------------------------------------------------------------


@dataclass
class _Window:
    base: int      # absolute height of state 0
    n: int         # state count
    start: int     # state of height 0
    walled: bool


def _make_window(kernel: WalkKernel, T: int, wall: int | None,
                 pot: PinningPotential | None) -> _Window:
    """The floor window of a T-step sweep, from the start up (and, with no
    wall, down): the rewarded levels a leg of T steps can reach, plus
    4 max_step rows, and at least max(4 max_step, 16) rows."""
    m = kernel.max_step
    spread = max(4 * m, 16)
    if pot is not None and pot.support:
        spread = max(spread, min(pot.support[-1], T * m) + 4 * m)
    if wall is not None:
        return _Window(-wall, wall + spread + 1, wall, walled=True)
    return _Window(-spread, 2 * spread + 1, spread, walled=False)


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
    return np.exp(eps) if eps.any() else None


def _min_positive(s: np.ndarray) -> float:
    """Smallest positive entry of ``s``, inf if none."""
    return s.min(where=s > 0.0, initial=math.inf).item()


def _sweep(kernel: WalkKernel, T: int, window: _Window,
           pot: PinningPotential | None, read):
    """Run up to T steps from height 0; return (defect flag, fixed point).

    Step t maps v_{t-1} to v_t = P D v_{t-1} / m_t (P the stencil on the
    window, by ``np.correlate`` with it reversed: the sums ``np.convolve``
    forms, without its argument checks; D the weights e^eps but not at step
    1; m_t the max), so v_t is the leg weight F_t scaled to max 1.  The
    vectors fill a buffer of ``_BLOCK`` cells (two rows at least), handed
    to ``read(rows, ms, t, window, diag)``: rows v_t..v_{t+k}, maxima
    m_{t+1}..m_{t+k}, and their window and weights.

    The window grows in place: when a step leaves its edge rows more than
    2^-53 of the smallest positive entry on the start row and the rewarded
    rows a leg of T steps can reach (read, as one slice, only when the edge
    carries mass), the open sides double and the step is redone from the
    zero-padded previous vector; past ``_STATE_CAP`` rows a relative edge
    mass above ``DEFECT_TOL`` sets the flag and ends the sweep, and a max of
    0 (every path died inside the window) ends it unflagged.  From step 2
    on every step is the same map, so once step k returns its input bit for
    bit (the vectors hold no NaN and no -0.0) every later one returns it
    with the same max m: the sweep ends with the fixed point (k, m)."""
    stencil = kernel.prob_array()[::-1].copy()
    mstep = kernel.max_step
    # the rewarded levels above height 0 (the start row) within reach
    top = [j for j in (pot.support if pot else ()) if 0 < j <= T * mstep]
    lo, hi = (top[0], top[-1] + 1) if top else (0, 0)
    diag = _diag_for(window, pot)
    n, start, walled = window.n, window.start, window.walled
    buf = np.zeros((max(2, _BLOCK // n), n))  # the block's vectors
    buf[0, start] = 1.0
    ms, done = [], 0  # the maxima of buf[1:len(ms) + 1], and steps read

    def flush():  # hand the stored steps over, keeping the last vector
        nonlocal ms, done
        if ms:
            read(buf[:len(ms) + 1], ms, done, window, diag)
            buf[0] = buf[len(ms)]
        ms, done = [], done + len(ms)

    m_prev = math.nan  # step 1 applies a different map: never a match
    for t in range(1, T + 1):
        prev = buf[len(ms)]
        while True:
            u = prev if (diag is None or t == 1) else prev * diag
            v = np.correlate(u, stencil, "same")
            m = v.item(v.argmax())  # the max, without a ufunc reduction
            if m <= 0.0:
                flush()
                return False, None
            v = np.divide(v, m, out=buf[len(ms) + 1])
            if mstep == 1:
                edge = v.item(-1) if walled else max(v.item(-1), v.item(0))
            else:
                edge = v[n - mstep:].sum().item()
                if not walled:
                    edge = max(edge, v[:mstep].sum().item())
            over = edge * _GROW
            if not (over > 0.0 and (
                    over > v.item(start) > 0.0
                    or hi and over > _min_positive(v[start + lo:start + hi]))):
                break
            # each open side twice as far from the start
            low, high = (0 if walled else start), n - 1 - start
            if n + low + high > _STATE_CAP:
                break
            flush()
            n, start = n + low + high, start + low
            window = _Window(window.base - low, n, start, walled)
            diag = _diag_for(window, pot)
            prev = np.pad(buf[0], (low, high))
            buf = np.zeros((max(2, _BLOCK // n), n))
            buf[0] = prev
        # v.max() == 1 now, so v.sum() >= 1: edge <= DEFECT_TOL cannot trip
        # the relative test, and the sum is only needed past that point
        if edge > DEFECT_TOL and edge / v.sum().item() > DEFECT_TOL:
            flush()
            return True, None
        ms.append(m)
        if m == m_prev and v.tobytes() == prev.tobytes():
            flush()
            return False, (t, m)
        if len(ms) + 1 == len(buf):
            flush()
        m_prev = m
    flush()
    return False, None


def partition_profile(
    kernel: WalkKernel,
    L_max: int,
    *,
    wall: int | None = None,
    pot: PinningPotential | None = None,
) -> np.ndarray:
    """log Z for every length 1..L_max in one pass (entry 0 is unused -inf):
    Z_2t = sum_h F_t(h)^2 e^eps(h) and Z_2t-1 = sum_h F_t(h) e^eps(h)
    F_t-1(h), read from vectors of max 1, so no entry far below the peak
    decides a value.  Past a fixed point at step k each length from 2k on
    adds log m: within rounding of what a continued sweep reads, not bit
    for bit.  On the localized cases of the fixed-point test (L = 8,192)
    the two differ by up to 3.3e-10 in log Z (1.6e-13 relative), and the
    tail is the closer to a step-by-step sweep (7.1e-12 against 3.3e-10)."""
    if L_max < 1:
        raise ParameterError("L_max must be at least 1")
    if wall is not None and wall < 0:
        raise ParameterError("wall depth must be nonnegative")
    T = (L_max + 1) // 2
    logz = np.full(2 * T + 1, -math.inf)
    scale = 0.0  # the log of the product of the maxima read so far

    def read(rows, ms, t, window, diag):
        nonlocal scale
        s = np.add.accumulate(np.concatenate(([scale], np.log(ms))))
        d = np.ones(rows.shape[1]) if diag is None else diag
        h = min(1.0, _SUM_MAX / d.max())  # 1.0 unless a reward is near e^709
        out = logz[2 * t + 1:2 * (t + len(ms)) + 1].reshape(-1, 2)
        odd, even = (np.log(np.einsum("ij,j,ij->i", a, d * h, rows[1:]))
                     for a in (rows[:-1], rows[1:]))
        out[:, 0] = s[:-1] + s[1:] + odd - math.log(h)
        out[:, 1] = 2.0 * s[1:] + even - math.log(h)
        scale = s[-1].item()

    window = _make_window(kernel, T, wall, pot)
    defect, fixed = ((True, None) if window.n > _STATE_CAP else
                     _sweep(kernel, T, window, pot, read))
    logz[1] = math.log(kernel.prob(0))  # one step, and no reward at the start
    if defect:
        raise TruncationError(
            f"window growth exhausted at L_max={L_max}",
            partial=logz[:L_max + 1] if window.n <= _STATE_CAP else None)
    if fixed:  # add.accumulate adds left to right, as a running scale would
        logz[2 * fixed[0] + 1:] = math.log(fixed[1])
        np.add.accumulate(logz[2 * fixed[0]:], out=logz[2 * fixed[0]:])
    return logz[:L_max + 1]


def midpoint_prob(kernel: WalkKernel, L: int, j: int) -> np.ndarray:
    """Midpoint profile: entry l is P(both heights at times floor(l/2),
    floor(l/2)+1 stay >= -j) under the unconstrained bridge of length l, for
    every 2 <= l <= L.  Entries 0 and 1 are unused (1.0).  Where
    j >= l*max_step the wall is out of reach and the entry is exactly 1.0.

    Legs of s and s-1 steps end at the middle heights of the bridge of
    length 2s, two legs of s-1 steps at those of 2s-1, joined by one step
    P.  As P v_{s-1} = m_s v_s, the bridge sums are m_s |v_s|^2 and
    m_s v_{s-1}.v_s; the event's are the same over heights >= -j, less the
    joining steps that start in the m = max_step rows below -j."""
    if L < 2:
        raise ParameterError("needs L >= 2")
    if j < 0:
        raise ParameterError("j must be nonnegative")
    T = (L + 1) // 2
    prof = np.ones(2 * T + 1)
    m = kernel.max_step
    # the step from height -j-m+b up to -j+a
    cross = np.array([[kernel.prob(m + a - b) for b in range(m)]
                      for a in range(m)])

    def read(rows, ms, t, window, diag):
        w = max(-j - window.base, 0)  # the state of height -j, or 0
        c = cross[:window.n - w, max(m - w, 0):]
        out = prof[2 * t + 1:2 * (t + len(ms)) + 1].reshape(-1, 2)
        for col, a in ((0, rows[:-1]), (1, rows[1:])):  # 2s-1 and 2s
            low = np.einsum("ij,ij->i", a[:, :w], rows[1:, :w])
            high = np.einsum("ij,ij->i", a[:, w:], rows[1:, w:])
            cut = np.einsum("ia,ab,ib->i", a[:, w:w + m], c,
                            rows[:-1, max(w - m, 0):w])
            out[:, col] = (high - cut / ms) / (high + low)

    defect, fixed = _sweep(kernel, T, _make_window(kernel, T, None, None),
                           None, read)
    if defect:
        raise TruncationError(f"midpoint window exhausted at L={L}, j={j}")
    if fixed:  # every later pair of legs is the pair at the fixed point
        prof[2 * fixed[0] + 1:] = prof[2 * fixed[0]]
    return prof[:L + 1]


def clt_band(kernel: WalkKernel, L_list: list[int]) -> list[tuple[int, float]]:
    """(L, sqrt(sigma2 L) * Z_L) rows for the distinct L in increasing
    order, all read from one free sweep to the largest."""
    if min(L_list, default=1) < 1:
        raise ParameterError("L must be >= 1")
    Ls = sorted(set(L_list))
    prof = partition_profile(kernel, max(Ls, default=1))
    return [(L, math.sqrt(kernel.sigma2 * L) * math.exp(prof[L])) for L in Ls]


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
    log Z that is not finite there refuses the slope.
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
