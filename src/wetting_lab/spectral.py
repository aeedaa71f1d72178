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

import math
from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, Evidence, LOCALIZED, UNDETERMINED
from .errors import ParameterError
from .kernels import WalkKernel
from .potentials import PinningPotential


def _apply_stencil(vec: np.ndarray, stencil: np.ndarray, m: int) -> np.ndarray:
    """(P vec)[i] = sum_k p(k) vec[i+k] with Dirichlet outside the window;
    valid for windows of any size, including smaller than the stencil."""
    return np.convolve(np.pad(vec, m), stencil, mode="valid")


@dataclass(frozen=True)
class PinnedOperator:
    """e^{V/2} P e^{V/2} restricted to states [0, h_max], wall below 0.

    Stored as the kernel stencil plus the diagonal; matvecs run in
    O(dim * stencil) and entries are materialised only on demand.
    """

    dim: int
    eps: np.ndarray        # diagonal rewards per state
    stencil: np.ndarray    # p(-m)..p(m)
    max_step: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("operator needs dim >= 1")

    @property
    def exp_half(self) -> np.ndarray:
        return np.exp(0.5 * self.eps)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        t = self.exp_half * x
        t = _apply_stencil(t, self.stencil, self.max_step)
        return self.exp_half * t

    def dense(self) -> np.ndarray:
        """Explicit matrix; intended for small dims and tests."""
        m = self.max_step
        out = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(max(0, i - m), min(self.dim, i + m + 1)):
                out[i, j] = self.stencil[i - j + m] * math.exp(
                    0.5 * (self.eps[i] + self.eps[j])
                )
        return out


def pinned_operator(kernel: WalkKernel, pot: PinningPotential | None,
                    h_max: int) -> PinnedOperator:
    if h_max < 0:
        raise ParameterError("h_max must be nonnegative")
    n = h_max + 1
    eps = pot.eps_array(n) if pot is not None else np.zeros(n)
    return PinnedOperator(dim=n, eps=eps, stencil=kernel.prob_array(),
                          max_step=kernel.max_step)


@dataclass(frozen=True)
class EigenEstimate:
    value: float
    residual: float
    iterations: int
    converged: bool


def top_eigenvalue(op: PinnedOperator, tol: float = 1e-10,
                   max_iter: int = 20000) -> EigenEstimate:
    """Power iteration with Rayleigh stopping.

    The operator is nonnegative and positive semidefinite (p(0) >= 1/2), so a
    positive start vector overlaps the top eigenvector.  Near a band edge the
    Rayleigh value can plateau below full convergence; the residual reports
    how far from an exact eigenpair the returned estimate is.
    """
    n = op.dim
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        w = op.matvec(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return EigenEstimate(0.0, 0.0, it, True)
        w /= nw
        new_lam = float(w @ op.matvec(w))
        if it > 1 and abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
            lam = new_lam
            v = w
            converged = True
            break
        lam = new_lam
        v = w
    res = float(np.linalg.norm(op.matvec(v) - lam * v))
    return EigenEstimate(value=lam, residual=res, iterations=it,
                         converged=converged)


@dataclass(frozen=True)
class SineBound:
    """Exact Rayleigh quotient of the sine profile on [0, d].

    ``quotient`` > 1 certifies a positive growth rate of at least
    log(quotient).  ``chain_bound`` is the looser closed-form estimate from
    the same profile (linear Dirichlet-form bound and the e^{-x} <= 1 - x/4
    denominator trick); it needs all rewards <= log 2 and is reported as a
    diagnostic only.
    """

    d: int
    quotient: float
    chain_bound: float
    normalizer: float       # sum s(i)^2 e^{-eps_i}
    dirichlet: float        # (1/2) sum P_ij (s_i - s_j)^2 on the window
    rate: float             # max(0, log(quotient))
    eps_within_log2: bool


def sine_profile_bound(kernel: WalkKernel, pot: PinningPotential,
                       d: int) -> SineBound:
    """Evaluate the sine-profile Rayleigh quotient on the window [0, d]."""
    if d < 0:
        raise ParameterError("d must be nonnegative")
    n = d + 1
    i = np.arange(n)
    s = np.sin(math.pi * (i + 1) / (d + 2))
    eps = pot.eps_array(n)
    parr = kernel.prob_array()
    ps = _apply_stencil(s, parr, kernel.max_step)
    s_ps = float(s @ ps)
    norm = float((s * s) @ np.exp(-eps))
    quotient = s_ps / norm
    # row sums inside the window, for the exact Dirichlet form
    row = _apply_stencil(np.ones(n), parr, kernel.max_step)
    dirichlet = float((s * s) @ row) - s_ps
    # closed-form variant: pi^2 sigma^2 / (2 (d+1)) numerator deficit,
    # (1/4) (d+1)^-2 sum_{i<=d/2} (i+1)^2 eps_i denominator credit
    half = d // 2
    credit = float(((i[: half + 1] + 1.0) ** 2) @ eps[: half + 1])
    s2 = float(s @ s)
    chain_num = s2 - 0.5 * math.pi ** 2 * kernel.sigma2 / (d + 1)
    chain_den = s2 - 0.25 * credit / (d + 1) ** 2
    chain = chain_num / chain_den if chain_den > 0 else math.inf
    return SineBound(
        d=d,
        quotient=quotient,
        chain_bound=chain,
        normalizer=norm,
        dirichlet=dirichlet,
        rate=max(0.0, math.log(quotient)) if quotient > 0 else 0.0,
        eps_within_log2=not pot.exceeds_log2,
    )


def _default_d_grid(pot: PinningPotential) -> list[int]:
    top = max(4 * (pot.j_max + 1), 64)
    grid = [0, 1, 2, 3]
    d = 4
    while d <= top:
        grid.append(d)
        d *= 2
    for j in pot.support:
        grid.append(2 * j)
        grid.append(2 * j + 2)
    return sorted(set(grid))


def localization_certificate(
    kernel: WalkKernel,
    pot: PinningPotential,
    *,
    d_grid: list[int] | None = None,
    eig_h0: int = 128,
    eig_h_cap: int = 1 << 13,
    eig_tol: float = 1e-9,
) -> Certificate:
    """Scan sine-profile windows, then fall back to power iteration.

    The verdict is ``localized`` iff some window quotient exceeds 1 (rigorous
    up to floating point) or the truncated top eigenvalue exceeds
    1 + 10*eig_tol (numerical evidence; labelled as such).  Anything else is
    ``undetermined`` -- never a delocalization claim.
    """
    params = {
        "kernel": kernel.spec_string(),
        "pot": pot.spec_string(),
        "sigma2": kernel.sigma2,
    }
    evidence: list[Evidence] = []
    notes: list[str] = []

    if pot.exceeds_log2:
        j_star = pot.log2_excess[0]
        quot = kernel.prob(0) * math.exp(pot.eps[j_star])
        evidence.append(Evidence(
            scale=j_star, check="stuck_at_level_quotient", measured=quot,
            threshold=1.0, passed=quot > 1.0,
            detail=f"indicator vector at level {j_star}",
        ))
        return Certificate(
            verdict=LOCALIZED,
            evidence=tuple(evidence),
            params=params,
            spectral={
                "route": "indicator",
                "level": j_star,
                "quotient": quot,
                "rate": math.log(quot),
            },
            notes=("reward above log 2 localizes on its own",),
        )

    best: SineBound | None = None
    for d in d_grid if d_grid is not None else _default_d_grid(pot):
        sb = sine_profile_bound(kernel, pot, d)
        evidence.append(Evidence(
            scale=d, check="sine_quotient", measured=sb.quotient,
            threshold=1.0, passed=sb.quotient > 1.0,
        ))
        if sb.quotient > 1.0 and (best is None or sb.quotient > best.quotient):
            best = sb
    if best is not None:
        return Certificate(
            verdict=LOCALIZED,
            evidence=tuple(evidence),
            params=params,
            spectral={
                "route": "sine",
                "d": best.d,
                "quotient": best.quotient,
                "rate": math.log(best.quotient),
            },
            notes=("rigorous modulo floating point",),
        )

    h = eig_h0
    prev = None
    eig = None
    while True:
        eig = top_eigenvalue(pinned_operator(kernel, pot, h), tol=eig_tol)
        evidence.append(Evidence(
            scale=h, check="top_eigenvalue", measured=eig.value,
            threshold=1.0 + 10 * eig_tol, passed=eig.value > 1.0 + 10 * eig_tol,
            detail=f"residual={eig.residual:.3g}",
        ))
        if prev is not None and abs(eig.value - prev) <= eig_tol * 10:
            break
        if 2 * h > eig_h_cap:
            break
        prev = eig.value
        h *= 2
    if eig.value > 1.0 + 10 * eig_tol:
        return Certificate(
            verdict=LOCALIZED,
            evidence=tuple(evidence),
            params=params,
            spectral={
                "route": "power_iteration",
                "h_max": h,
                "eigenvalue": eig.value,
                "residual": eig.residual,
                "rate": math.log(eig.value),
            },
            notes=("numerical evidence, not a floating-point-rigorous bound",),
        )
    return Certificate(
        verdict=UNDETERMINED,
        evidence=tuple(evidence),
        params=params,
        notes=notes and tuple(notes) or ("no certificate found",),
    )
