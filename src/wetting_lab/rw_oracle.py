"""Brute-force enumeration of walk bridges: the ground truth oracle.

Every quantity the transfer module produces is cross-checked here on small
lengths by explicitly enumerating all bridges, with one float accumulator
that meets in the middle (Horowitz–Sahni, J. ACM 21, 1974).  The
ceil(L/2) steps from the start and the floor(L/2) steps back from the end
are each expanded literally, one numpy row per half path, carrying the wall
and the rewards of their own interior times; each half's weights are summed
per end height (sorted, then one pairwise ``ndarray.sum`` per height), and
Z_L = sum_h F(h) e^{eps(h)} B(h), the midpoint reward applied once.  About
2 * 3^{L/2} rows instead of 3^L; against an exact rational height DP the
values agree to ~1e-15 relative.  Nothing is kept between calls.

The oracle refuses above its cost cap rather than approximate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, RefusalError
from .kernels import WalkKernel
from .potentials import PinningPotential
from .transfer import partition_profile

_BASE_CAP_STEPS = 14  # for a 3-point stencil


def max_enumerable_L(kernel: WalkKernel) -> int:
    """Length cap keeping the enumeration tree comparable to 3^14 nodes: it
    branches once per offset of positive weight (``_meet`` expands no other)."""
    width = sum(p > 0 for p in kernel.probs)
    return max(1, int(_BASE_CAP_STEPS * math.log(3) / math.log(width)))


def _check_cap(kernel: WalkKernel, L: int):
    if L > max_enumerable_L(kernel):
        raise RefusalError(
            f"oracle cap is L <= {max_enumerable_L(kernel)} for this stencil; "
            f"got L={L} (oracles refuse rather than approximate)"
        )


def _pot_factor_table(pot: PinningPotential | None, span: int) -> np.ndarray | None:
    """exp(eps) indexed by height + span, identity outside the support; None
    when no reward lies within reach.  Reads only the levels up to span (a
    power tail may hold millions)."""
    if pot is None:
        return None
    top = min(pot.j_max, span)
    eps = pot.eps_array(top + 1)
    if not eps.any():
        return None
    table = np.ones(2 * span + 1)
    table[span: span + top + 1] = np.exp(eps)
    return table


def _half_sums(offs: np.ndarray, pv: np.ndarray, n: int, L: int, m: int,
               wall: int | None, factor: np.ndarray | None,
               span: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights and per-height weight sums of the n-step half paths of a
    length-L bridge (stencil reach m), expanded literally from height 0 with
    steps ``offs`` of weights ``pv``, one row per path.

    Rows obey the wall and the reach of the remaining L - t steps, and carry
    the reward (``factor``, indexed by height + span) of their interior
    times 1..n-1; time n is the midpoint, rewarded once by the caller.  The
    caller passes only the steps of positive weight, so no row is a path of
    weight 0.  Each height's rows are summed by one pairwise ``ndarray.sum``
    (``np.bincount`` would sum them in sequence).
    """
    h = np.zeros(1, dtype=offs.dtype)
    w = np.ones(1)
    for t in range(1, n + 1):
        if t >= 2 and factor is not None:
            w = w * factor[h + span]
        h = (h[:, None] + offs[None, :]).reshape(-1)
        w = (w[:, None] * pv[None, :]).reshape(-1)
        keep = np.abs(h) <= (L - t) * m
        if wall is not None:
            keep &= h >= -wall
        h, w = h[keep], w[keep]
    order = np.argsort(h, kind="stable")
    h, w = h[order], w[order]
    heights, starts = np.unique(h, return_index=True)
    ends = np.append(starts[1:], h.size)
    return heights, np.array([w[i:j].sum() for i, j in zip(starts, ends)])


@np.errstate(over="ignore")  # an overflow ends as inf, refused below
def _meet(kernel: WalkKernel, L: int, wall: int | None,
          pot: PinningPotential | None) -> float:
    """sum_h F(h) e^{eps(h)} B(h) over the ceil(L/2) steps from the start
    (F) and the floor(L/2) steps back from the end (B, offsets negated, so
    no symmetry of the kernel is assumed); the midpoint is interior, and
    rewarded, only when L >= 2.  A sum past the float range is refused."""
    m = kernel.max_step
    a, b = (L + 1) // 2, L // 2
    span = a * m
    factor = _pot_factor_table(pot, span)
    # narrowest integer type for the heights (|h + span| <= 2 L m); a step
    # of weight 0 would only add rows of weight 0
    pv = np.array(kernel.probs)
    offs = np.array(kernel.offsets, dtype=np.min_scalar_type(-2 * L * m))
    offs, pv = offs[pv > 0], pv[pv > 0]
    hf, F = _half_sums(offs, pv, a, L, m, wall, factor, span)
    hb, B = _half_sums(-offs, pv, b, L, m, wall, factor, span)
    mid, i, j = np.intersect1d(hf, hb, assume_unique=True, return_indices=True)
    z = F[i] * B[j]
    if b >= 1 and factor is not None:
        z = z * factor[mid + span]
    total = float(z.sum())
    if not math.isfinite(total):
        raise RefusalError(f"the bridge weight at L={L} is beyond the float "
                           "range (oracles refuse rather than approximate)")
    return total


def oracle_partition(
    kernel: WalkKernel,
    L: int,
    wall: int | None = None,
    pot: PinningPotential | None = None,
    mode: str = "float",
) -> float:
    """Bridge partition function by exhaustive enumeration: two literally
    enumerated half-path expansions met at the midpoint.  'float' is the
    only mode."""
    if L < 1:
        raise ParameterError("L must be >= 1")
    if wall is not None and wall < 0:
        raise ParameterError("wall depth must be nonnegative")
    _check_cap(kernel, L)
    if mode != "float":
        raise ParameterError(f"unknown oracle mode {mode!r}")
    return _meet(kernel, L, wall, pot)


def clt_band(kernel: WalkKernel, L_list: list[int]) -> list[tuple[int, float]]:
    """(L, sqrt(sigma2 L) * Z_L) rows: small L by enumeration, the rest from
    one transfer sweep (the two agree on the overlap to 1e-12)."""
    cap = max_enumerable_L(kernel)
    big = [L for L in L_list if L > cap]
    prof = partition_profile(kernel, max(big)) if big else None
    return [(L, math.sqrt(kernel.sigma2 * L)
             * (oracle_partition(kernel, L) if L <= cap
                else math.exp(float(prof[L]))))
            for L in sorted(set(L_list))]
