"""Partition functions and pinned expectations via height-truncated transfer.

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

Window truncation is monitored, not assumed: if the top rows (and, for free
bridges, the bottom rows) ever carry a relative mass above ``defect_tol``,
the window is doubled and the sweep rerun; exhausting the doubling budget
raises TruncationError with the partial result attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TruncationError
from .kernels import WalkKernel
from .potentials import PinningPotential, make_family

DEFECT_TOL = 1e-12
_STATE_CAP = 1 << 17


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
                 pot: PinningPotential | None, grow: int) -> _Window:
    m = kernel.max_step
    spread = int(math.ceil(8.0 * math.sqrt(kernel.sigma2 * max(L, 1)))) + 2 * m
    # the window must cover any reachable rewarded level, not just the
    # diffusive range, or a strong high reward could be silently cut off
    if pot is not None and pot.support:
        reach = (L // 2) * m
        spread = max(spread, min(pot.support[-1], reach) + 4 * m)
    spread = max(spread, 4 * m, 16) << grow
    if wall is not None:
        n = wall + spread + 1
        return _Window(base=-wall, n=n, start=wall, end=wall, walled=True)
    n = 2 * spread + 1
    return _Window(base=-spread, n=n, start=spread, end=spread, walled=False)


def _diag_for(window: _Window, pot: PinningPotential | None,
              extra: dict[int, float] | None) -> np.ndarray | None:
    eps = np.zeros(window.n)
    have = False
    if pot is not None:
        idx0 = -window.base  # state of absolute height 0
        hi = min(window.n - idx0, pot.j_max + 1)
        if hi > 0:
            eps[idx0: idx0 + hi] += pot.eps_array(hi)
            have = True
    if extra:
        for h, e in extra.items():
            s = h - window.base
            if 0 <= s < window.n:
                eps[s] += e
                have = True
    return np.exp(eps) if have else None


def _sweep(kernel: WalkKernel, L: int, window: _Window,
           diag: np.ndarray | None, defect_tol: float,
           keep: tuple[int, ...] = ()):
    """Run L steps; return (logZ profile for lengths 1..L, defect flag,
    {t: scaled state vector after t steps} for each t in ``keep``)."""
    parr = kernel.prob_array()
    mstep = kernel.max_step
    n = window.n
    v = np.zeros(n)
    v[window.start] = 1.0
    kept = {0: v} if 0 in keep else {}
    scale = 0.0
    logz = np.full(L + 1, -math.inf)
    for t in range(1, L + 1):
        u = v if (diag is None or t == 1) else v * diag
        v = np.convolve(u, parr, mode="same")
        m = float(v.max())
        if m <= 0.0:
            return logz, False, kept  # every path died inside the window
        v /= m
        scale += math.log(m)
        edge = float(v[n - mstep:].sum())
        if not window.walled:
            edge = max(edge, float(v[:mstep].sum()))
        # v.max() == 1 now, so v.sum() >= 1: edge <= defect_tol cannot trip
        # the relative test, and the sum is only needed past that point
        if edge > defect_tol and edge / float(v.sum()) > defect_tol:
            return logz, True, kept
        if t in keep:
            kept[t] = v
        ve = float(v[window.end])
        logz[t] = scale + math.log(ve) if ve > 0.0 else -math.inf
    return logz, False, kept


def partition_profile(
    kernel: WalkKernel,
    L_max: int,
    *,
    wall: int | None = None,
    pot: PinningPotential | None = None,
    extra_eps: dict[int, float] | None = None,
    defect_tol: float = DEFECT_TOL,
) -> np.ndarray:
    """log Z for every length 1..L_max in one pass (entry 0 is unused -inf)."""
    if L_max < 1:
        raise ParameterError("L_max must be at least 1")
    if wall is not None and wall < 0:
        raise ParameterError("wall depth must be nonnegative")
    last = None
    for grow in range(8):
        window = _make_window(kernel, L_max, wall, pot, grow)
        if window.n > _STATE_CAP:
            break
        diag = _diag_for(window, pot, extra_eps)
        logz, defect, _ = _sweep(kernel, L_max, window, diag, defect_tol)
        last = logz
        if not defect:
            return logz
    raise TruncationError(
        f"window doubling exhausted at L_max={L_max}", partial=last
    )


def log_partition(
    kernel: WalkKernel,
    L: int,
    wall: int | None = None,
    pot: PinningPotential | None = None,
    *,
    defect_tol: float = DEFECT_TOL,
) -> float:
    """log of the bridge partition function with optional wall and potential."""
    return float(partition_profile(
        kernel, L, wall=wall, pot=pot, defect_tol=defect_tol)[L])


def pinned_expectation(kernel: WalkKernel, L: int, j: int, eps: float) -> float:
    """E[e^{eps N}] for the walled bridge, N = interior contacts with height 0."""
    if L < 2:
        raise ParameterError("pinned expectation needs L >= 2")
    if eps == 0.0:
        return 1.0
    pot = make_family("single", j=0, amplitude=eps)
    num = log_partition(kernel, L, wall=j, pot=pot)
    den = log_partition(kernel, L, wall=j)
    return math.exp(num - den)


def zero_contact_moment(kernel: WalkKernel, L: int, b: float) -> float:
    """E[e^{b sigma N / sqrt(L)}] for the unconstrained bridge."""
    if L < 2:
        raise ParameterError("needs L >= 2")
    if b < 0:
        raise ParameterError("b must be nonnegative")
    if b == 0.0:
        return 1.0
    eps = b * kernel.sigma / math.sqrt(L)
    num = float(partition_profile(kernel, L, wall=None,
                                  extra_eps={0: eps})[L])
    den = float(partition_profile(kernel, L, wall=None)[L])
    return math.exp(num - den)


def midpoint_prob(kernel: WalkKernel, L: int, j: int,
                  *, defect_tol: float = DEFECT_TOL) -> float:
    """P(both heights at times floor(L/2), floor(L/2)+1 stay >= -j) under the
    unconstrained bridge measure."""
    if L < 2:
        raise ParameterError("needs L >= 2")
    if j < 0:
        raise ParameterError("j must be nonnegative")
    if j >= L * kernel.max_step:
        return 1.0
    mid = L // 2
    parr = kernel.prob_array()
    for grow in range(8):
        w = int(math.ceil(8.0 * math.sqrt(kernel.sigma2 * L)))
        w = (max(w, j + 2 * kernel.max_step, 16) + 2 * kernel.max_step) << grow
        if 2 * w + 1 > _STATE_CAP:
            break
        window = _Window(base=-w, n=2 * w + 1, start=w, end=w, walled=False)
        # one sweep serves both legs: the second is the first's prefix
        _, defect, kept = _sweep(kernel, mid, window, None, defect_tol,
                                 keep=(L - mid - 1, mid))
        if defect:
            continue
        f, g = kept[mid], kept[L - mid - 1]
        mask = np.arange(window.n) + window.base >= -j
        # num and den carry the same dropped log scales, which cancel here
        den = float(f @ np.convolve(g, parr, mode="same"))
        num = float((f * mask) @ (np.convolve(g * mask, parr, mode="same")))
        return num / den
    raise TruncationError(f"midpoint window exhausted at L={L}, j={j}")


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeEnergyEstimate:
    value: float          # primary: max(0, log top eigenvalue), window-doubled
    eigenvalue: float
    residual: float
    eig_converged: bool
    h_max: int
    cross_raw: float      # (log Z_{2L} - log Z_L)/L, not floored
    cross: float          # floored at 0
    gap: float
    flagged: bool
    trace: tuple[str, ...]


def free_energy(
    kernel: WalkKernel,
    pot: PinningPotential,
    tol: float = 1e-4,
    *,
    L_cross: int = 4096,
    h0: int | None = None,
    h_cap: int = 1 << 13,
    eig_tol: float = 1e-10,
) -> FreeEnergyEstimate:
    """Growth rate of the walled, potential-weighted bridge ensemble.

    Primary estimator: log of the top eigenvalue of the symmetrised pinned
    operator on [0, h_max], h_max doubled until the floored value moves by
    less than ``tol``.  The floor at 0 is sound: the potential is nonnegative
    so the true rate is >= 0, and truncation approaches it from below in the
    delocalized phase.  Cross-check: two-point slope of log Z at L_cross.
    Disagreement beyond 10*tol flags the result but still returns it.
    """
    from .spectral import pinned_operator, top_eigenvalue  # deferred: cycle

    trace = []
    if pot.exceeds_log2:
        j_star = pot.log2_excess[0]
        trace.append(
            f"reward at level {j_star} exceeds log 2; stuck-at-level path "
            f"already gives rate >= {math.log(kernel.prob(0)) + pot.eps[j_star]:.6g}"
        )
    h = h0 if h0 is not None else max(64, 4 * (pot.j_max + 1), 8 * kernel.max_step)
    prev = None
    eig = None
    while True:
        op = pinned_operator(kernel, pot, h)
        eig = top_eigenvalue(op, tol=eig_tol)
        f_h = max(0.0, math.log(eig.value))
        trace.append(f"h_max={h}: lambda={eig.value:.12g} residual={eig.residual:.3g}")
        if prev is not None and abs(f_h - prev) < tol:
            break
        if 2 * h > h_cap:
            trace.append("window cap reached before eigenvalue stabilised")
            break
        prev = f_h
        h *= 2
    primary = max(0.0, math.log(eig.value))
    prof = partition_profile(kernel, 2 * L_cross, wall=0, pot=pot)
    cross_raw = float(prof[2 * L_cross] - prof[L_cross]) / L_cross
    cross = max(0.0, cross_raw)
    gap = abs(primary - cross)
    return FreeEnergyEstimate(
        value=primary,
        eigenvalue=eig.value,
        residual=eig.residual,
        eig_converged=eig.converged,
        h_max=h,
        cross_raw=cross_raw,
        cross=cross,
        gap=gap,
        flagged=gap > 10 * tol,
        trace=tuple(trace),
    )
