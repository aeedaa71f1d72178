"""Localization certificates from the symmetrised pinned transfer operator.

With step matrix P_{ij} = p(i-j) on the half-line (Dirichlet below 0) and
diagonal rewards V, the growth rate of the pinned walled ensemble is governed
by the self-adjoint operator e^{V/2} P e^{V/2}.  Any unit vector's Rayleigh
quotient lower-bounds its top eigenvalue, and restricting the window can only
shrink it, so a quotient above 1 computed on a finite window certifies
exponential growth (up to floating point).  The canonical test vector is the
discrete sine profile on a window [0, d].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .certificates import Certificate, Evidence, LOCALIZED, UNDETERMINED
from .errors import ParameterError
from .kernels import WalkKernel
from .potentials import PinningPotential

# ||A|| <= e^{max eps} since P is substochastic, so for a unit x the squared
# norm ||Ax||^2 <= e^{2 max eps} stays finite; one unit of slack for rounding
_EPS_MAX = 0.5 * math.log(np.finfo(float).max) - 1.0
_LOG_QUOT_CAP = 709.0  # just below log(largest float), so exp stays finite
_MAX_ITER = 20000  # matvec budget of top_eigenvalue
_KRYLOV = 64  # largest Lanczos basis: 64 rows of the window length
_BREAKDOWN = 1e-14  # Lanczos step norm taken as an invariant Krylov space
# eigen-window fallback of localization_certificate: windows [0, 128],
# [0, 256], ... up to 2^13, each solved by top_eigenvalue to a residual of
# 1e-9 relative (_EIG_TOL), settled once the eigenvalue moves by <= 1e-8,
# and localized when the Ritz vector's Rayleigh quotient exceeds 1 + 1e-8;
# 2^13 is also the largest window of free_energy and free_energy_crossing
_EIG_H0 = 128
_EIG_H_CAP = 1 << 13
_EIG_TOL = 1e-9
_EIG_MARGIN = 10 * _EIG_TOL
# levels of a long-tailed support that get their own sine windows; a window
# pair for every level would give power:delta=1,amp=0.01 11,555 windows
_SINE_LEVELS = 64


def _apply_stencil(vec: np.ndarray, stencil: np.ndarray, m: int) -> np.ndarray:
    """(P vec)[i] = sum_k p(k) vec[i+k] with Dirichlet outside the window;
    valid for windows of any size, including smaller than the stencil."""
    pad = np.zeros(m)  # "full" mode would sum edge outputs over fewer terms
    return np.convolve(np.concatenate((pad, vec, pad)), stencil, "valid")


@dataclass(frozen=True)
class PinnedOperator:
    """e^{V/2} P e^{V/2} restricted to states [0, h_max], wall below 0.

    Stored as the kernel stencil plus the diagonal; matvecs run in
    O(dim * stencil) and entries are materialised only on demand.
    """

    dim: int
    exp_half: np.ndarray   # e^{eps/2} for the diagonal rewards eps
    stencil: np.ndarray    # p(-m)..p(m)
    max_step: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("operator needs dim >= 1")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        e = self.exp_half
        return e * _apply_stencil(e * x, self.stencil, self.max_step)


def pinned_operator(kernel: WalkKernel, pot: PinningPotential | None,
                    h_max: int) -> PinnedOperator:
    if h_max < 0:
        raise ParameterError("h_max must be nonnegative")
    n = h_max + 1
    eps = pot.eps_array(n) if pot is not None else np.zeros(n)
    if eps.max() > _EPS_MAX:
        raise ParameterError(
            f"pinning reward {eps.max():.6g} is beyond the float range of the "
            f"pinned operator (at most {_EPS_MAX:.6g})")
    return PinnedOperator(dim=n, exp_half=np.exp(0.5 * eps),
                          stencil=kernel.prob_array(), max_step=kernel.max_step)


@dataclass(frozen=True)
class EigenEstimate:
    value: float
    residual: float
    iterations: int
    converged: bool


def _lanczos_cycle(op: PinnedOperator, basis: np.ndarray, x: np.ndarray,
                   ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One Lanczos run from the unit vector x (with ax = A x) over the rows
    of ``basis``, fully reorthogonalised: (top Ritz vector, its image,
    matvecs used).  That is len(basis) matvecs, fewer if the Krylov space
    becomes invariant."""
    alpha, beta = [], []
    basis[0] = x
    w = ax
    for j in range(len(basis)):
        if j:
            w = op.matvec(basis[j])
        alpha.append(float(basis[j] @ w))
        if j + 1 == len(basis):
            break
        w = w - alpha[-1] * basis[j]
        if j:
            w -= beta[-1] * basis[j - 1]
        q = basis[:j + 1]
        w -= (q @ w) @ q
        b = float(np.linalg.norm(w))
        if b <= _BREAKDOWN:
            break
        beta.append(b)
        basis[j + 1] = w / b
    # top eigenvector of the k x k tridiagonal (k <= _KRYLOV) from LAPACK
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    x = np.linalg.eigh(t)[1][:, -1] @ basis[:len(alpha)]
    x /= np.linalg.norm(x)
    return x, op.matvec(x), len(alpha)


def top_eigenvalue(op: PinnedOperator, tol: float = 1e-10) -> EigenEstimate:
    """Restarted Lanczos with Rayleigh stopping.

    The operator is nonnegative and positive semidefinite (p(0) >= 1/2), so
    a positive start vector overlaps the top eigenvector.  Each cycle builds
    a Krylov basis of at most _KRYLOV vectors, fully reorthogonalised, and
    restarts from its top Ritz vector.  Cycles run on A e^{-max eps}, whose
    norm is at most 1, so no reward up to _EPS_MAX overflows.  They stop
    once the Ritz vector's residual meets the tolerance, once its Ritz
    value moves by at most that between cycles (which need not be at an
    eigenpair), or at _MAX_ITER matvecs.  ``value`` is the Rayleigh
    quotient of the last Ritz vector, recomputed with one matvec of A, so a
    lower bound on the top eigenvalue; some eigenvalue lies within
    ``residual`` of it, and ``converged`` means
    residual <= tol * max(1, |value|).  ``iterations`` counts matvecs.
    """
    n = op.dim
    top = float(op.exp_half.max())
    unit = top * top  # e^{max eps}
    scaled = replace(op, exp_half=op.exp_half / top)
    basis = np.empty((min(_KRYLOV, n), n))
    x = np.full(n, 1.0 / math.sqrt(n))
    ax = scaled.matvec(x)
    it = 1
    prev = None
    while True:
        theta = float(x @ ax)
        bound = tol * max(1.0, theta * unit) / unit
        res = float(np.linalg.norm(ax - theta * x))
        rows = min(len(basis), _MAX_ITER - 1 - it)  # one matvec kept for value
        if (res <= bound or rows < 2  # a one-row cycle cannot move x
                or (prev is not None and abs(theta - prev) <= bound)):
            break
        prev = theta
        x, ax, used = _lanczos_cycle(scaled, basis[:rows], x, ax)
        it += used
    ax = op.matvec(x)
    it += 1
    xx = float(x @ x)
    value = float(x @ ax) / xx
    res = float(np.linalg.norm(ax - value * x)) / math.sqrt(xx)
    return EigenEstimate(value=value, residual=res, iterations=it,
                         converged=res <= tol * max(1.0, abs(value)))


def _eliminate(stencil: np.ndarray, m: int, shift: float, e: np.ndarray,
               s0: int = 0, best: float = math.inf, corner_inv=None):
    """(smallest pivot, inverse of the factor's last m x m corner) of the
    blocked Cholesky of shift*I - diag(e) P diag(e) in blocks of max(64, m)
    rows, continued from that state after rows [0, s0); 0.0 once one fails."""
    b = max(64, m)
    k = np.arange(b)
    off = k[:, None] - k[None, :]
    band = np.where(np.abs(off) <= m, stencil[np.clip(off + m, 0, 2 * m)], 0.0)
    # A between the first rows of a block and the last m of the one before
    # (the sign of this coupling drops out of the Schur update)
    couple = np.triu(stencil[np.clip(off[:m, :m] + 2 * m, 0, 2 * m)])
    for s in range(s0, len(e), b):
        es = e[s:s + b]
        nb = len(es)
        schur = shift * np.eye(nb) - es[:, None] * band[:nb, :nb] * es
        if corner_inv is not None:
            r = min(m, nb)
            x = corner_inv @ (couple[:r] * es[:r, None] * e[s - m:s]).T
            schur[:r, :r] -= x.T @ x
        try:
            fac = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            return 0.0, None
        best = min(best, float(np.diag(fac).min()) ** 2)
        if nb == b:
            corner_inv = np.linalg.inv(fac[b - m:, b - m:])
    return best, corner_inv


@functools.lru_cache(maxsize=32)
def _free_blocks(stencil: bytes, m: int, shift: float, rows: int):
    """_eliminate's state after ``rows`` reward-free rows (whole blocks), the
    same for every potential on the kernel; each keeps one m x m corner."""
    state = _eliminate(np.frombuffer(stencil), m, shift, np.ones(rows))
    if state[1] is not None:
        state[1].flags.writeable = False
    return state


def _min_pivot(op: PinnedOperator, shift: float) -> float:
    """Smallest LDL^T pivot of shift*I - A on the window of ``op``, or 0.0
    once one is not positive.  Rows are eliminated from the far end, so the
    blocks of reward-free rows (the stencil is symmetric) come first and are
    cached.  All pivots positive means shift*I - A is positive definite
    (Sylvester's law of inertia): every Rayleigh quotient of A on the window,
    or on any block of it, is below ``shift``.  The leading block goes
    first, in forward order: where it is not positive definite the window
    is not either, and the far end's free rows are never factored."""
    m, b = op.max_step, max(64, op.max_step)
    if _eliminate(op.stencil, m, shift, op.exp_half[:b])[0] == 0.0:
        return 0.0
    e = op.exp_half[::-1]
    rows = np.flatnonzero(e != 1.0).min(initial=op.dim) // b * b
    state = _free_blocks(op.stencil.tobytes(), m, shift, rows)
    return _eliminate(op.stencil, m, shift, e, rows, *state)[0]


def _eigen_windows(kernel: WalkKernel, pot: PinningPotential, h: int,
                   tol: float, settled) -> list[tuple[int, EigenEstimate]]:
    """(h, top eigenvalue) on the windows [0, h], [0, 2h], ... until
    ``settled(previous, current)`` or the next window would exceed
    _EIG_H_CAP."""
    windows = []
    while True:
        op = pinned_operator(kernel, pot, h)
        windows.append((h, top_eigenvalue(op, tol=tol)))
        if 2 * h > _EIG_H_CAP or (
                len(windows) > 1 and settled(windows[-2][1], windows[-1][1])):
            return windows
        h *= 2


@dataclass(frozen=True)
class SineBound:
    """Exact Rayleigh quotient of the sine profile on [0, d].

    ``quotient`` > 1 certifies a positive growth rate of at least
    log(quotient).
    """

    d: int
    quotient: float


def sine_profile_bound(kernel: WalkKernel, pot: PinningPotential,
                       d: int) -> SineBound:
    """Evaluate the sine-profile Rayleigh quotient on the window [0, d]."""
    if d < 0:
        raise ParameterError("d must be nonnegative")
    n = d + 1
    i = np.arange(n)
    s = np.sin(math.pi * (i + 1) / (d + 2))
    eps = pot.eps_array(n)
    ps = _apply_stencil(s, kernel.prob_array(), kernel.max_step)
    norm = float((s * s) @ np.exp(-eps))
    return SineBound(d=d, quotient=float(s @ ps) / norm)


def _default_d_grid(pot: PinningPotential) -> list[int]:
    """Dyadic windows up to 4 (j_max + 1), plus the windows 2j and 2j + 2
    centred near level j for the _SINE_LEVELS levels with the largest
    rewards (every level of a shorter support)."""
    top = max(4 * (pot.j_max + 1), 64)
    grid = [0, 1, 2, 3]
    d = 4
    while d <= top:
        grid.append(d)
        d *= 2
    for j in sorted(pot.support, key=lambda j: -pot.eps[j])[:_SINE_LEVELS]:
        grid.append(2 * j)
        grid.append(2 * j + 2)
    return sorted(set(grid))


def localization_certificate(kernel: WalkKernel,
                             pot: PinningPotential) -> Certificate:
    """Try the indicator vector of a level with reward above log 2, then
    sine-profile windows, then fall back to the top Lanczos Ritz vector on
    growing windows.

    The verdict is ``localized`` iff one of these vectors has a Rayleigh
    quotient above 1 (above 1 + 1e-8 for the Ritz vector on a truncated
    window).  Each lower-bounds the growth rate, rigorously up to floating
    point.  The eigen windows run only when (1 + 1e-8) I - A is not
    positive definite on the largest window [0, 2^13]; when it is, no
    Ritz vector could pass and the answer is ``undetermined`` at once.
    Anything else is ``undetermined`` too -- never a delocalization claim.
    The eigen-window route keeps its label ``power_iteration``, which
    readers of certificates match on.
    """
    params = {
        "kernel": kernel.spec_string(),
        "pot": pot.spec_string(),
        "sigma2": kernel.sigma2,
    }
    evidence: list[Evidence] = []

    def cert(verdict: str, *notes: str, **spectral) -> Certificate:
        return Certificate(verdict=verdict, evidence=tuple(evidence),
                           params=params, spectral=spectral or None,
                           notes=notes)

    if pot.exceeds_log2:
        j_star = pot.log2_excess[0]
        # in logs: e^eps alone overflows for rewards beyond ~709
        log_quot = math.log(kernel.prob(0)) + pot.eps[j_star]
        quot = math.exp(min(log_quot, _LOG_QUOT_CAP))
        evidence.append(Evidence(
            scale=j_star, check="stuck_at_level_quotient", measured=quot,
            threshold=1.0, passed=log_quot > 0.0,
            detail=f"indicator vector at level {j_star}",
        ))
        return cert(LOCALIZED, "reward above log 2 localizes on its own",
                    route="indicator", level=j_star, quotient=quot,
                    rate=log_quot)

    best: SineBound | None = None
    for d in _default_d_grid(pot):
        sb = sine_profile_bound(kernel, pot, d)
        evidence.append(Evidence(
            scale=d, check="sine_quotient", measured=sb.quotient,
            threshold=1.0, passed=sb.quotient > 1.0,
        ))
        if sb.quotient > 1.0 and (best is None or sb.quotient > best.quotient):
            best = sb
    if best is not None:
        return cert(LOCALIZED, "rigorous modulo floating point", route="sine",
                    d=best.d, quotient=best.quotient,
                    rate=math.log(best.quotient))

    # every eigen window below is a leading block of the cap window, so a
    # positive definite (1 + margin) I - A there rules out all of them
    shift = 1.0 + _EIG_MARGIN
    pivot = _min_pivot(pinned_operator(kernel, pot, _EIG_H_CAP), shift)
    if pivot > 0.0:
        evidence.append(Evidence(
            scale=_EIG_H_CAP, check="inertia", measured=pivot,
            threshold=0.0, passed=False,
            detail=(f"smallest LDL^T pivot of (1 + {_EIG_MARGIN:g}) I - A "
                    f"on [0, {_EIG_H_CAP}], eliminated from the far end"),
        ))
        return cert(UNDETERMINED, "no certificate found",
                    f"(1 + {_EIG_MARGIN:g}) I - A is positive definite on "
                    f"[0, {_EIG_H_CAP}], so no eigen window up to it can "
                    "localize")

    windows = _eigen_windows(
        kernel, pot, _EIG_H0, _EIG_TOL,
        lambda a, b: abs(b.value - a.value) <= _EIG_MARGIN)
    for h, eig in windows:
        evidence.append(Evidence(
            scale=h, check="top_eigenvalue", measured=eig.value,
            threshold=1.0 + _EIG_MARGIN, passed=eig.value > 1.0 + _EIG_MARGIN,
            detail=f"residual={eig.residual:.3g}",
        ))
    h, eig = windows[-1]
    if eig.value > 1.0 + _EIG_MARGIN:
        return cert(LOCALIZED, "rigorous modulo floating point",
                    route="power_iteration", h_max=h, eigenvalue=eig.value,
                    residual=eig.residual, rate=math.log(eig.value))
    return cert(UNDETERMINED, "no certificate found")
