"""Brute-force enumeration of walk bridges: the ground truth oracle.

Every quantity the transfer module produces is cross-checked here on small
lengths by explicitly enumerating all bridges.  Two accumulators:

  * ``float``: each partial path is one row of a numpy array (the expansion
    is literal enumeration, vectorised); products of dyadic probabilities are
    exact in binary floating point and pairwise summation keeps the rest at
    ~1e-15 relative.  There is one expansion per (kernel, wall, potential),
    and every length is read from it: Z_t sums the rows at height 0 after t
    steps, which are exactly, and in the same order, the rows a length-t
    expansion would keep, so each value is bit-for-bit the per-length one.
    The Z values (never the rows) of the longest expansion so far are kept
    for the process;
  * ``fraction``: recursive depth-first enumeration with exact rationals,
    grouping paths by their contact signature so pinning weights multiply a
    single exact rational per signature.

The oracle refuses above its cost cap rather than approximate.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ParameterError, RefusalError
from .kernels import WalkKernel
from .potentials import PinningPotential, make_family
from .transfer import partition_profile

_ROW_CAP = 80_000_000
_BASE_CAP_STEPS = 14  # for a 3-point stencil


def max_enumerable_L(kernel: WalkKernel) -> int:
    """Length cap keeping the enumeration tree comparable to 3^14 nodes."""
    width = 2 * kernel.max_step + 1
    return max(1, int(_BASE_CAP_STEPS * math.log(3) / math.log(width)))


def _check_cap(kernel: WalkKernel, L: int):
    if L > max_enumerable_L(kernel):
        raise RefusalError(
            f"oracle cap is L <= {max_enumerable_L(kernel)} for this stencil; "
            f"got L={L} (oracles refuse rather than approximate)"
        )


def _pot_factor_table(pot: PinningPotential | None, span: int) -> np.ndarray | None:
    """exp(eps) indexed by height + span, identity outside the support."""
    if pot is None or not pot.support:
        return None
    table = np.ones(2 * span + 1)
    top = min(pot.j_max, span)
    table[span: span + top + 1] = np.exp(pot.eps_array(top + 1))
    return table


def _bridge_rows(kernel: WalkKernel, L_max: int, wall: int | None,
                 pot: PinningPotential | None,
                 count_level: int | None = None):
    """Expand every path once up to L_max and yield, for t = 1..L_max, the
    (weights, counts) row-per-path arrays of the length-t bridges.

    A length-t bridge passes every prune of the length-L_max expansion, so
    the rows with height 0 at step t are exactly the rows a length-t
    expansion keeps, in the same (lexicographic) order and with the same
    products.  They are read before the step-t reward, which belongs to
    interior visits only.  The last step is not expanded: a row returns to 0
    only through the offset -h, so those rows are gathered and weighted
    directly, a zero-probability offset keeping a 0.0 row.
    """
    m = kernel.max_step
    dt = np.min_scalar_type(-2 * L_max * m)  # narrowest type for the heights
    offs = np.array(kernel.offsets, dtype=dt)
    pv = np.array(kernel.probs)
    back = np.full(2 * m + 1, -1)  # offset index by -height + m
    back[m - offs] = np.arange(offs.size)
    span = L_max * m
    factor = _pot_factor_table(pot, span)
    h = np.zeros(1, dtype=dt)
    w = np.ones(1)
    c = np.zeros(1, dtype=np.int64) if count_level is not None else None
    for t in range(L_max):
        if t >= 1:
            at0 = h == 0
            yield w[at0], None if c is None else c[at0]
            if factor is not None:
                w = w * factor[h + span]
            if c is not None:
                c = c + (h == count_level)
        if h.size * offs.size > _ROW_CAP:
            raise RefusalError("oracle row cap exceeded")
        if t == L_max - 1:
            break
        h = (h[:, None] + offs[None, :]).reshape(-1)
        w = (w[:, None] * pv[None, :]).reshape(-1)
        if c is not None:
            c = np.repeat(c, offs.size)
        keep = np.abs(h) <= (L_max - t - 1) * m
        if wall is not None:
            keep &= h >= -wall
        h, w = h[keep], w[keep]
        if c is not None:
            c = c[keep]
    k = back[m - h]  # |h| <= m after the last prune
    ret = k >= 0
    yield w[ret] * pv[k[ret]], None if c is None else c[ret]


# Z_t for t = 0..L of the longest float expansion made so far per (kernel,
# wall, potential): values only, never rows, for at most _PROFILE_KEYS keys
_PROFILE_KEYS = 64
_profiles: dict[tuple, tuple[float, ...]] = {}


def _float_profile(kernel: WalkKernel, L: int, wall: int | None,
                   pot: PinningPotential | None) -> tuple[float, ...]:
    key = (kernel, wall, pot)
    z = _profiles.get(key)
    if z is None or len(z) <= L:
        z = (1.0,) + tuple(float(w.sum())
                           for w, _ in _bridge_rows(kernel, L, wall, pot))
        _profiles.pop(key, None)
        if len(_profiles) >= _PROFILE_KEYS:
            _profiles.pop(next(iter(_profiles)), None)
        _profiles[key] = z
    return z


def _enumerate_fraction(kernel: WalkKernel, L: int, wall: int | None,
                        pot: PinningPotential | None):
    """Exact rational weight per contact signature over the support levels."""
    pf = [(k, Fraction(p)) for k, p in zip(kernel.offsets, kernel.probs) if p > 0]
    support = pot.support if pot is not None else ()
    maxstep = kernel.max_step
    lo = -wall if wall is not None else None
    acc: dict[tuple[int, ...], Fraction] = {}

    def rec(t: int, h: int, w: Fraction, sig: tuple[int, ...]):
        if t == L:
            acc[sig] = acc.get(sig, Fraction(0)) + w
            return
        if t >= 1 and support:
            try:
                idx = support.index(h)
                sig = sig[:idx] + (sig[idx] + 1,) + sig[idx + 1:]
            except ValueError:
                pass
        rem = L - t - 1
        for k, p in pf:
            nh = h + k
            if abs(nh) > rem * maxstep:
                continue
            if lo is not None and nh < lo:
                continue
            rec(t + 1, nh, w * p, sig)

    rec(0, 0, Fraction(1), (0,) * len(support))
    return acc, support


def is_dyadic(kernel: WalkKernel) -> bool:
    for p in kernel.probs:
        den = Fraction(p).denominator
        if den & (den - 1) or den > 1 << 12:
            return False
    return True


def oracle_partition(
    kernel: WalkKernel,
    L: int,
    wall: int | None = None,
    pot: PinningPotential | None = None,
    mode: str = "auto",
) -> float:
    """Bridge partition function by exhaustive enumeration.

    mode 'fraction' accumulates exact rationals (per contact signature when a
    potential is present); 'float' is row-per-path vectorised enumeration;
    'auto' picks fraction for small dyadic kernels.
    """
    if L < 1:
        raise ParameterError("L must be >= 1")
    if wall is not None and wall < 0:
        raise ParameterError("wall depth must be nonnegative")
    _check_cap(kernel, L)
    if mode == "auto":
        mode = "fraction" if (is_dyadic(kernel) and L <= 12) else "float"
    if mode == "float":
        return _float_profile(kernel, L, wall, pot)[L]
    if mode == "fraction":
        acc, support = _enumerate_fraction(kernel, L, wall, pot)
        if pot is None or not support:
            return float(sum(acc.values(), Fraction(0)))
        eps = [pot.eps[j] for j in support]
        return float(sum(
            float(frac) * math.exp(sum(n * e for n, e in zip(sig, eps)))
            for sig, frac in acc.items()
        ))
    raise ParameterError(f"unknown oracle mode {mode!r}")


def oracle_partition_exact(kernel: WalkKernel, L: int,
                           wall: int | None = None) -> Fraction:
    """Exact rational partition function (no potential weights)."""
    _check_cap(kernel, L)
    acc, _ = _enumerate_fraction(kernel, L, wall, None)
    return sum(acc.values(), Fraction(0))


def oracle_path_count(kernel: WalkKernel, L: int, wall: int | None = None) -> int:
    """Number of admissible bridges (Motzkin numbers for the walled
    nearest-neighbour walk)."""
    _check_cap(kernel, L)
    *_, (w, _) = _bridge_rows(kernel, L, wall, None)
    return w.size


def oracle_contact_distribution(
    kernel: WalkKernel,
    L: int,
    wall: int | None,
    j: int,
    mode: str = "auto",
) -> dict[int, float]:
    """Exact pmf of the interior contact count with height j under the
    (optionally walled) bridge measure."""
    if j < 0:
        raise ParameterError("level must be nonnegative")
    _check_cap(kernel, L)
    if mode == "auto":
        mode = "fraction" if (is_dyadic(kernel) and L <= 12) else "float"
    if mode == "fraction":
        marker = make_family("single", j=j, amplitude=1.0)
        acc, support = _enumerate_fraction(kernel, L, wall, marker)
        total = sum(acc.values(), Fraction(0))
        if total == 0:
            raise ParameterError("empty bridge ensemble")
        out: dict[int, Fraction] = {}
        for sig, frac in acc.items():
            n = sig[0] if support else 0
            out[n] = out.get(n, Fraction(0)) + frac
        return {n: float(v / total) for n, v in sorted(out.items())}
    *_, (w, c) = _bridge_rows(kernel, L, wall, None, count_level=j)
    total = float(w.sum())
    pmf: dict[int, float] = {}
    for n in np.unique(c):
        pmf[int(n)] = float(w[c == n].sum()) / total
    return pmf


def clt_band(kernel: WalkKernel, L_list: list[int]) -> list[tuple[int, float]]:
    """(L, sqrt(sigma2 L) * Z_L) rows: small L by enumeration, the rest from
    one transfer sweep (the two agree on the overlap to 1e-12)."""
    cap = max_enumerable_L(kernel)
    big = [L for L in L_list if L > cap]
    prof = partition_profile(kernel, max(big)) if big else None
    # largest first, so one expansion serves every enumerable length
    z = {L: oracle_partition(kernel, L, mode="float")
         for L in sorted({L for L in L_list if L <= cap}, reverse=True)}
    return [(L, math.sqrt(kernel.sigma2 * L)
             * (z[L] if L <= cap else math.exp(float(prof[L]))))
            for L in sorted(set(L_list))]
