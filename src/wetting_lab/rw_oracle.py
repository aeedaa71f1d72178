"""Brute-force enumeration of walk bridges: the ground truth oracle.

Every quantity the transfer module produces is cross-checked here on small
lengths by explicitly enumerating all bridges, with one float accumulator
that meets in the middle (Horowitz–Sahni, J. ACM 21, 1974).  One call
gives Z_L for every L up to L_max from one pair of expansions: the
ceil(L_max/2) steps from the start and the floor(L_max/2) steps back from
the end are each expanded literally, one numpy row per half path, carrying
the wall and the rewards of their own interior times.  At every level each
half's weights are summed per end height (sorted, then one pairwise
``ndarray.sum`` per height), and Z_L = sum_h F(h) e^{eps(h)} B(h) meets
level ceil(L/2) of the forward half with level floor(L/2) of the backward
one, the midpoint reward applied once.  About 2 * 3^{L_max/2} rows instead
of 3^L per length; against an exact rational height DP the values agree to
~1e-15 relative.  Nothing is kept between calls.

The oracle refuses above its cost cap rather than approximate.  It shares
no code with the transfer module and is no production engine: only
``oracle-check`` and the tests call it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, RefusalError
from .kernels import WalkKernel
from .potentials import PinningPotential

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


def _half_levels(offs: np.ndarray, pv: np.ndarray, n: int,
                 wall: int | None, factor: np.ndarray | None,
                 span: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Heights and per-height weight sums of the t-step half paths, for
    every t = 0..n, expanded literally from height 0 with steps ``offs`` of
    weights ``pv``, one row per path.

    Rows obey the wall and carry the reward (``factor``, indexed by height +
    span) of their interior times 1..t-1; time t is the midpoint, rewarded
    once by the caller.  The caller passes only the steps of positive
    weight, so no row is a path of weight 0.  Each height's rows are summed,
    in the order they were expanded, by one pairwise ``ndarray.sum``
    (``np.bincount`` would sum them in sequence).
    """
    h = np.zeros(1, dtype=offs.dtype)
    w = np.ones(1)
    levels = [(h, w)]
    for t in range(1, n + 1):
        if t >= 2 and factor is not None:
            w = w * factor[h + span]
        h = (h[:, None] + offs[None, :]).reshape(-1)
        w = (w[:, None] * pv[None, :]).reshape(-1)
        if wall is not None:
            keep = h >= -wall
            h, w = h[keep], w[keep]
        order = np.argsort(h, kind="stable")
        heights, starts = np.unique(h[order], return_index=True)
        ws, ends = w[order], np.append(starts[1:], h.size)
        levels.append((heights, np.array([ws[i:j].sum()
                                          for i, j in zip(starts, ends)])))
    return levels


@np.errstate(over="ignore")  # an overflow ends as inf, refused below
def _meet(kernel: WalkKernel, L_max: int, wall: int | None,
          pot: PinningPotential | None) -> np.ndarray:
    """Z_L = sum_h F(h) e^{eps(h)} B(h) for every L <= L_max, over the
    ceil(L/2) steps from the start (F) and the floor(L/2) steps back from
    the end (B, offsets negated, so no symmetry of the kernel is assumed);
    the midpoint is interior, and rewarded, only when L >= 2.  Each half is
    expanded once, to the level of L_max.  A half path of L that ends out of
    the other half's reach meets nothing, so expanding it changes no sum.
    A sum past the float range is refused."""
    m = kernel.max_step
    span = (L_max + 1) // 2 * m
    factor = _pot_factor_table(pot, span)
    # narrowest integer type for the heights (|h + span| <= 2 L_max m); a step
    # of weight 0 would only add rows of weight 0
    pv = np.array(kernel.probs)
    offs = np.array(kernel.offsets, dtype=np.min_scalar_type(-2 * L_max * m))
    offs, pv = offs[pv > 0], pv[pv > 0]
    fwd = _half_levels(offs, pv, (L_max + 1) // 2, wall, factor, span)
    bwd = _half_levels(-offs, pv, L_max // 2, wall, factor, span)
    z = np.zeros(L_max + 1)
    for L in range(1, L_max + 1):
        (hf, F), (hb, B) = fwd[(L + 1) // 2], bwd[L // 2]
        mid, i, j = np.intersect1d(hf, hb, assume_unique=True,
                                   return_indices=True)
        terms = F[i] * B[j]
        if L >= 2 and factor is not None:
            terms = terms * factor[mid + span]
        z[L] = terms.sum()
        if not math.isfinite(z[L]):
            raise RefusalError(f"the bridge weight at L={L} is beyond the "
                               "float range (oracles refuse rather than "
                               "approximate)")
    return z


def oracle_partition(
    kernel: WalkKernel,
    L_max: int,
    wall: int | None = None,
    pot: PinningPotential | None = None,
) -> np.ndarray:
    """Bridge partition functions Z_1..Z_L_max by exhaustive enumeration:
    entry L is Z_L (entry 0 is unused, 0.0), read from two literally
    enumerated half-path expansions met at the midpoint."""
    if L_max < 1:
        raise ParameterError("L must be >= 1")
    if wall is not None and wall < 0:
        raise ParameterError("wall depth must be nonnegative")
    _check_cap(kernel, L_max)
    return _meet(kernel, L_max, wall, pot)
