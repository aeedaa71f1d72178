"""Self-avoiding lattice paths weighted by length, with certified truncation.

Vertices live on the half-integer-shifted lattice (Z + 1/2) x Z; internally
the x coordinate is doubled so every vertex is an integer pair (u, y) with u
odd.  A path is a vertex-distinct chain of unit edges; its Boltzmann weight
is exp(-beta * length).

Every ensemble here is enumerated by one search (``_Search``) up to a
length budget (minimal length + excess cap).  It runs on a flat grid, cell
(col, y) at index (col - c0) * H + (y - y0), so the steps E, N, W, S are
the offsets +H, +1, -H, -1.  Per-cell arrays built once per call hold the
distance still to go (closed for padding and blocked cells), the arrival
factor and a mark.  The search goes a level at a time: numpy extends every
path of a block by its four steps at once, keeping per path its cells, the
product of arrival factors and, where a caller reads them, the marked count
and the crossings of the lines it asks for.  A step may not revisit a
cell, and the cells it could revisit lie an odd number of steps back.
Blocks hold at most ``_CHUNK`` paths and go on depth first, so memory stays
bounded and the paths of each length arrive in depth-first E, N, W, S
order: per-length float sums add the same terms in the same order whatever
the block size.  ``enumerate_saw`` merges the lengths by sorting its paths
on their step codes.

The unweighted unconstrained path sets (free-end counts, regularity
counts, bridge counts without rewards) are symmetric under y -> -y, which
maps the paths whose first vertical step is N one-to-one onto the S-first
ones and keeps length, crossings, first edge and y = 0 contacts.  So they
walk the flat and the N-first paths and count the N-first twice; walls,
avoided levels, rewards and ``enumerate_saw`` get the full search.  The
reward-free unconstrained bridges of span L are exactly the free-end paths
of span L that end at the goal, so one free-end search (``_span_counts``)
counts both.

The minimal-horizontal identity needs no search: its paths are one signed
vertical run per column, so their counts by excess length have a closed
form (``_excess_count``) and their tail a Rankin bound.

The length weight stays out of the search: every ensemble sum is a power
series in e^{-beta} whose coefficients, the sums S[n] over paths of length
n, do not depend on beta.  Each ensemble shape enumerates its S[n] once per
process (an lru_cache keyed by everything but beta) and every beta
evaluates sum_n S[n] e^{-beta n}.  Without arrival factors S[n] is an exact
integer count, so the value is exact up to that last evaluation.

The discarded mass is bounded rigorously by the crude path count: at most
4 * 3^(m-1) paths of length m leave any fixed vertex, so the tail of the
weight series is geometric once beta > log 3.  Ensembles therefore refuse
to exist below BETA_MIN = log 3 + margin, and every partition value is
returned as (partial sum, certified interval).

Conventions: the span-L ensemble joins (1/2, 0) to (L - 1/2, 0); interior
contacts with height j are vertices (i + 1/2, j) for i in [1, L-2]; external
contacts are height-0 vertices in columns i outside [0, L-1].  Step order
is fixed to E, N, W, S, so enumeration streams and summation order are
reproducible byte for byte.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ParameterError, RefusalError
from .kernels import make_sos, sos_normalizer
from .potentials import PinningPotential
from .transfer import partition_profile

BETA_MARGIN = 0.5
BETA_MIN = math.log(3.0) + BETA_MARGIN
# -log of the smallest normal float (about 708.4): spans whose shortest path
# weighs less than that are refused
_LOG_TINY = -math.log(sys.float_info.min)


@dataclass(frozen=True)
class LatticePath:
    """Vertex chain in doubled-x coordinates (u odd <-> x = u/2)."""

    vertices: tuple[tuple[int, int], ...]

    def to_line(self) -> str:
        """Dump format: 'u0,y0;u1,y1;...' with x doubled to stay integral."""
        return ";".join(f"{u},{y}" for u, y in self.vertices)


def _to_doubled(p: tuple[float, int]) -> tuple[int, int]:
    u = float(2 * p[0])
    if not (u.is_integer() and int(u) % 2):
        raise ParameterError(f"x coordinate {p[0]} is not a half-integer")
    if not float(p[1]).is_integer():
        raise ParameterError(f"y coordinate {p[1]} is not an integer")
    return int(u), int(p[1])


# frontier block size: a level extends at most this many paths at once,
# which bounds the memory a search holds
_CHUNK = 1024


def _take(arrays, index):
    return [None if a is None else a[index] for a in arrays]


class _Search:
    """Self-avoiding paths from ``start`` with at most ``max_len`` edges.

    They arrive at ``goal`` or, with ``free_end``, at any vertex of goal's
    column (and may go on).  Iterating yields batches of arrivals, each
    (n, cells, weight, marks, crossings) for some paths of length n: their
    n + 1 grid cells row by row, the product of factor(u, y) over the
    vertices entered (1 without ``factor``), the count of marked vertices
    entered (None without ``marked``) and, per line x = u of ``lines``, the
    horizontal edges crossing it (None without ``lines``).
    ``gate`` is the distance still to go (Manhattan, or horizontal only with
    a free end), or max_len + 1 where closed: one comparison with the
    budget admits a step.

    The search is level-synchronous: each level extends every path of a
    block by E, N, W and S at once, in that order per path, and splits a
    block grown past ``_CHUNK`` paths into parts that go on depth first, in
    order.  So the paths of each length arrive in depth-first E, N, W, S
    order, whatever the block size.

    ``mirror`` is for path sets that the caller knows to be symmetric, with
    marks and factors, under y -> 2 sy - y: a flat path (a straight E or W
    run from the start) takes no S step, and its N step doubles the weight,
    which counts the S-first mirror image of every path walked below it.
    """

    def __init__(self, start: tuple[int, int], goal: tuple[int, int],
                 max_len: int, *, free_end: bool = False, factor=None,
                 blocked=None, marked=None, lines=None, mirror: bool = False):
        (su, sy), (gu, gy) = start, goal
        sc, gc = (su - 1) // 2, (gu - 1) // 2

        def dist(c, y):
            return abs(c - gc) + (0 if free_end else abs(y - gy))

        usable = [(c, y) for c in range(sc - max_len, sc + max_len + 1)
                  for y in range(sy - max_len, sy + max_len + 1)
                  if abs(c - sc) + abs(y - sy) + dist(c, y) <= max_len]
        self.c0 = c0 = min(c for c, _ in usable) - 1
        self.y0 = y0 = min(y for _, y in usable) - 1
        W = max(c for c, _ in usable) - c0 + 2
        self.H = H = max(y for _, y in usable) - y0 + 2
        self.gate = np.full(W * H, max_len + 1)
        self.factor = None if factor is None else np.ones(W * H)
        self.mark = None if marked is None else np.zeros(W * H, int)
        for c, y in usable:
            i, u = (c - c0) * H + (y - y0), 2 * c + 1
            if blocked is None or not blocked(u, y):
                self.gate[i] = dist(c, y)
            if factor is not None:
                self.factor[i] = factor(u, y)
            if marked is not None:
                self.mark[i] = marked(u, y)
        self.lines = None if lines is None else np.array(lines, int)
        self.start = (sc - c0) * H + (sy - y0)
        self.goal = (gc - c0) * H + (gy - y0)
        self.max_len, self.stop, self.mirror = max_len, not free_end, mirror

    def __iter__(self):
        gate, factor, mark, lines = self.gate, self.factor, self.mark, self.lines
        max_len, steps = self.max_len, np.array([self.H, 1, -self.H, -1])
        if lines is not None:
            # hit[i, k]: the lines crossed by step k from cell i, whose
            # vertex is at x = c + 1/2: x = c + 1 going E, x = c going W
            c = np.arange(gate.size) // self.H + self.c0
            hit = np.zeros((gate.size, 4, lines.size), np.int8)
            hit[:, 0] = c[:, None] + 1 == lines
            hit[:, 2] = c[:, None] == lines
        cell_type = np.int16 if gate.size <= np.iinfo(np.int16).max else np.int32
        cells = np.zeros((1, max_len + 1), cell_type)
        cells[0, 0] = self.start
        blocks = [(0, [cells, np.ones(1, int if factor is None else float),
                       None if mark is None else np.zeros(1, int),
                       None if lines is None else np.zeros((1, lines.size),
                                                           np.int8),
                       np.ones(1, bool) if self.mirror else None])]
        while blocks:
            t, state = blocks.pop()
            cells, flat = state[0], state[4]
            cand = cells[:, t, None] + steps
            open_ = gate[cand] < max_len - t
            if flat is not None:
                open_[:, 3] &= ~flat  # S-first: the mirror images
            p, s = open_.nonzero()
            nxt = cand[p, s].astype(cell_type)
            # the cells a step can revisit lie an odd number of steps back
            fresh = (cells[p, (t + 1) % 2:t:2] != nxt[:, None]).all(axis=1)
            p, s, nxt = p[fresh], s[fresh], nxt[fresh]
            arrived = gate[nxt] == 0
            if self.stop:  # arrivals end there: they go last, in order
                last = np.argsort(arrived, kind="stable")
                p, s, nxt, arrived = p[last], s[last], nxt[last], arrived[last]
            cells, w, m, cross, flat = state = _take(state, p)
            n = t + 1
            if cross is not None:
                cross += hit[cells[:, t], s]
            cells[:, n] = nxt
            if factor is not None:
                w *= factor[nxt]
            if flat is not None:
                w *= 1 + (flat & (s == 1))
                flat &= s % 2 == 0
            if m is not None:
                m += mark[nxt]
            if arrived.any():
                k = len(p) - np.count_nonzero(arrived)
                yield (n, *_take((cells[:, :n + 1], w, m, cross),
                                 slice(k, None) if self.stop else arrived))
                if self.stop:
                    state = _take(state, slice(0, k))
            if n < max_len:
                for i in reversed(range(0, len(state[0]), _CHUNK)):
                    blocks.append((n, _take(state, slice(i, i + _CHUNK))))


def enumerate_saw(x: tuple[float, int], y: tuple[float, int],
                  excess_cap: int):
    """Yield every self-avoiding path from x to y with length at most
    minimal + excess_cap, in depth-first E, N, W, S order."""
    if excess_cap < 0:
        raise ParameterError("excess_cap must be nonnegative")
    start, goal = _to_doubled(x), _to_doubled(y)
    if start == goal:
        raise ParameterError("endpoints must differ")
    minimal = abs(start[0] - goal[0]) // 2 + abs(start[1] - goal[1])
    search = _Search(start, goal, minimal + excess_cap)
    H = search.H
    code = np.zeros(2 * H + 1, np.int8)  # of each step's offset: E, N, W, S
    code[H + np.array([H, 1, -H, -1])] = range(4)
    ends, codes = [], []
    for n, cells, *_ in search:
        ends += [n] * len(cells)
        codes.append(np.pad(code[H + np.diff(cells)],
                            ((0, 0), (0, search.max_len - n))))
    codes = np.concatenate(codes)
    # a path ends at the goal, so none is a prefix of another and the
    # depth-first order is the order of their step codes E < N < W < S
    moves = ((2, 0), (0, 1), (-2, 0), (0, -1))  # E, N, W, S in (u, y)
    for k in np.lexsort(codes.T[::-1]):
        vertices = [start]
        for s in codes[k, :ends[k]].tolist():
            (u, v), (du, dv) = vertices[-1], moves[s]
            vertices.append((u + du, v + dv))
        yield LatticePath(vertices=tuple(vertices))


# ---------------------------------------------------------------------------
# certified partition sums
# ---------------------------------------------------------------------------


def saw_tail_bound(min_excluded_len: int, beta: float,
                   eps_max: float = 0.0) -> float:
    """Bound on the discarded weight: per-vertex rewards of at most eps_max
    inflate a length-m path by e^{eps_max (m+1)}, and at most 4*3^{m-1}
    paths of length m leave a fixed vertex."""
    x = 3.0 * math.exp(-(beta - eps_max))
    if x >= 1.0:
        raise RefusalError(
            f"no tail certificate: need beta - eps_max > log 3, "
            f"got beta={beta}, eps_max={eps_max}"
        )
    return math.exp(eps_max) * (4.0 / 3.0) * x ** min_excluded_len / (1.0 - x)


@dataclass(frozen=True)
class TruncatedEnsemble:
    """Partial partition sum plus a rigorous bound on what the cap discarded."""

    L: int
    beta: float
    excess_cap: int
    partial_sum: float
    tail_cert: float

    def __post_init__(self):
        if self.beta < BETA_MIN:
            raise RefusalError(
                f"beta={self.beta} below BETA_MIN={BETA_MIN:.4f}; "
                "the truncation cannot be certified"
            )

    @property
    def lower(self) -> float:
        return self.partial_sum

    @property
    def upper(self) -> float:
        return self.partial_sum + self.tail_cert


def _length_sums(search: _Search, L: int, excess_cap: int) -> tuple:
    """Arrival weights of a span-L search summed by length, for the lengths
    L - 1 ... L - 1 + excess_cap, each sum added up in arrival order."""
    sums = [0.0] * (L + excess_cap)
    for n, _, w, _, _ in search:
        sums[n] = np.add.accumulate(np.concatenate(([sums[n]], w)))[-1].item()
    return tuple(sums[L - 1:])


def _at_beta(sums, L: int, beta: float) -> float:
    """sum_n S[n] e^{-beta n} over per-length sums starting at n = L - 1,
    in ascending n, correctly rounded from the rounded terms."""
    return math.fsum(s * math.exp(-beta * n)
                     for n, s in enumerate(sums, start=L - 1))


def _check_span(L: int, beta: float, excess_cap: int) -> None:
    if L < 2:
        raise ParameterError("span L must be at least 2")
    if not math.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta!r}")
    if excess_cap < 0:
        raise ParameterError("excess_cap must be nonnegative")
    if beta < BETA_MIN:
        raise RefusalError(
            f"beta={beta} below BETA_MIN={BETA_MIN:.4f}: refusing, "
            "no truncation certificate is possible")
    if beta * (L - 1) > _LOG_TINY:
        raise RefusalError(
            f"beta*(L-1)={beta * (L - 1):.6g} exceeds {_LOG_TINY:.6g}: the "
            "weight of the shortest path is below the normal float range")


@functools.lru_cache
def _bridge_sums(L: int, excess_cap: int, constraint: str,
                 avoid_level: int | None, pot: PinningPotential | None,
                 eps_ext: float) -> tuple[float, ...]:
    """Per-length sums of the arrival factors over span-L paths (the
    arguments of ``saw_partition`` but beta; ``saw_partition`` reads the
    reward-free unconstrained sums from ``_span_counts``)."""
    blocked = {
        "none": None,
        "wall": lambda u, y: y < 0,
        # the goal stays allowed
        "avoid": lambda u, y: y == avoid_level and (u, y) != (2 * L - 1, 0),
    }[constraint]
    eps = pot.eps if pot is not None else ()
    ext_w = math.exp(eps_ext) if eps_ext else 1.0

    def arrival_factor(u: int, y: int) -> float:
        f = 1.0
        if 0 <= y < len(eps) and 3 <= u <= 2 * L - 3:  # interior contact
            f *= math.exp(eps[y])
        if eps_ext and y == 0 and (u < 1 or u > 2 * L - 1):
            f *= ext_w
        return f

    search = _Search((1, 0), (2 * L - 1, 0), (L - 1) + excess_cap,
                     factor=arrival_factor, blocked=blocked)
    return _length_sums(search, L, excess_cap)


def saw_partition(
    L: int,
    beta: float,
    excess_cap: int,
    constraint: str = "none",
    pot: PinningPotential | None = None,
    *,
    avoid_level: int | None = None,
    eps_ext: float = 0.0,
) -> TruncatedEnsemble:
    """Certified partition sum of the span-L ensemble.

    constraint: 'none', 'wall' (all heights >= 0), or 'avoid' (no interior
    vertex at ``avoid_level``).  Rewards from ``pot`` weight interior
    contacts; ``eps_ext`` weights external height-0 contacts.
    """
    _check_span(L, beta, excess_cap)
    if constraint not in ("none", "wall", "avoid"):
        raise ParameterError(f"unknown constraint {constraint!r}")
    if constraint == "avoid" and avoid_level is None:
        raise ParameterError("'avoid' constraint needs avoid_level")
    eps = pot.eps if pot is not None else ()
    eps_max = max(max(eps, default=0.0), eps_ext, 0.0)
    tail = saw_tail_bound((L - 1) + excess_cap + 1, beta, eps_max)
    if constraint == "none" and pot is None and not eps_ext:
        sums = _span_counts(L, excess_cap)[1]
    else:
        sums = _bridge_sums(L, excess_cap, constraint, avoid_level, pot,
                            eps_ext)
    return TruncatedEnsemble(L=L, beta=beta, excess_cap=excess_cap,
                             partial_sum=_at_beta(sums, L, beta),
                             tail_cert=tail)


@functools.lru_cache
def _span_counts(L: int, excess_cap: int) -> tuple[tuple[float, ...], ...]:
    """Per-length counts of the paths of ``grand_canonical`` and of those
    among them that end at (L - 1/2, 0): the reward-free unconstrained
    bridges of ``saw_partition``.  One free-end search yields both; its
    weights are exact integers, so the order they are added in is moot."""
    search = _Search((1, 0), (2 * L - 1, 0), (L - 1) + excess_cap,
                     free_end=True, mirror=True)
    free, bridges = [0.0] * (L + excess_cap), [0.0] * (L + excess_cap)
    for n, cells, w, _, _ in search:
        free[n] += w.sum().item()
        bridges[n] += w[cells[:, n] == search.goal].sum().item()
    return tuple(free[L - 1:]), tuple(bridges[L - 1:])


def grand_canonical(L: int, beta: float, excess_cap: int) -> TruncatedEnsemble:
    """Partition sum over paths from (1/2, 0) ending anywhere in column
    L - 1/2 (free endpoint height)."""
    _check_span(L, beta, excess_cap)
    total = _at_beta(_span_counts(L, excess_cap)[0], L, beta)
    tail = saw_tail_bound((L - 1) + excess_cap + 1, beta)
    return TruncatedEnsemble(L=L, beta=beta, excess_cap=excess_cap,
                             partial_sum=total, tail_cert=tail)


# ---------------------------------------------------------------------------
# contact statistics and regularity
# ---------------------------------------------------------------------------


def _ratio_interval(num: float, den: float, tail_num: float,
                    tail_den: float, cap: float = math.inf):
    """(lower, point, upper) for num / den, each widened by its tail."""
    return (num / (den + tail_den), num / den,
            min((num + tail_num) / den, cap))


@dataclass(frozen=True)
class RegularityStats:
    """Ensemble statistics under the span-L weight, with certified intervals.

    Each entry is (lower, point, upper); the point estimate is the truncated
    ratio and the interval accounts for both tails.
    """

    L: int
    beta: float
    excess_cap: int
    partial_sum: float
    tail_cert: float
    not_regular: dict[int, tuple[float, float, float]]
    first_edge_vertical: tuple[float, float, float]
    ext_moment: tuple[float, float, float]
    a_ext: float


@functools.lru_cache
def _regularity_counts(L: int, excess_cap: int, u_list: tuple[int, ...]):
    """Per-length path counts for ``regularity_stats``, lengths L - 1 ...
    L - 1 + excess_cap: (all paths, per u of u_list the paths not regular at
    u, paths whose first edge is vertical, ext) where ext[n][k] counts the
    paths with k external contacts."""
    top = L + excess_cap
    total, fv = np.zeros(top, np.int64), np.zeros(top, np.int64)
    not_regular = np.zeros((top, len(u_list)), np.int64)
    ext = np.zeros((top, top + 1), np.int64)
    # regular: crossed once for interior u, never for u in {0, L}
    once = np.array([0 if u in (0, L) else 1 for u in u_list])
    search = _Search((1, 0), (2 * L - 1, 0), (L - 1) + excess_cap,
                     # marks: external contacts
                     marked=lambda u, y: y == 0 and not 1 <= u <= 2 * L - 1,
                     lines=u_list, mirror=True)
    for n, cells, w, n_ext, cross in search:  # w: 1 or 2 paths (mirror)
        total[n] += w.sum()
        not_regular[n] += w @ (cross != once)
        # same column: first edge vertical
        fv[n] += w[abs(cells[:, 1] - cells[:, 0]) == 1].sum()
        ext[n] += np.bincount(n_ext, weights=w, minlength=top + 1).astype(int)
    cut = L - 1
    return (tuple(total[cut:].tolist()),
            tuple(map(tuple, not_regular[cut:].T.tolist())),
            tuple(fv[cut:].tolist()), tuple(map(tuple, ext[cut:].tolist())))


def regularity_stats(L: int, beta: float, excess_cap: int,
                     a_ext: float = 0.1,
                     u_list: tuple[int, ...] | None = None) -> RegularityStats:
    """Non-regularity probabilities, first-edge orientation, and the external
    contact moment E[e^{a N_ext}] in the unconstrained span-L ensemble."""
    _check_span(L, beta, excess_cap)
    u_list = (0, L // 2, L) if u_list is None else tuple(u_list)
    if any(not 0 <= u <= L for u in u_list):
        raise ParameterError("u must lie in [0, L]")
    counts, not_regular, fv, ext = _regularity_counts(L, excess_cap, u_list)
    total = _at_beta(counts, L, beta)
    ext_sum = math.fsum(c * math.exp(a_ext * k - beta * n)
                        for n, row in enumerate(ext, start=L - 1)
                        for k, c in enumerate(row) if c)
    tail0 = saw_tail_bound((L - 1) + excess_cap + 1, beta)
    tail_a = saw_tail_bound((L - 1) + excess_cap + 1, beta, eps_max=a_ext)

    def probability(sums):
        return _ratio_interval(_at_beta(sums, L, beta), total, tail0, tail0,
                               cap=1.0)

    return RegularityStats(
        L=L, beta=beta, excess_cap=excess_cap, partial_sum=total,
        tail_cert=tail0,
        not_regular={u: probability(sums)
                     for u, sums in zip(u_list, not_regular)},
        first_edge_vertical=probability(fv),
        ext_moment=_ratio_interval(ext_sum, total, tail_a, tail0),
        a_ext=a_ext,
    )


# ---------------------------------------------------------------------------
# minimal-horizontal identity
# ---------------------------------------------------------------------------


def _excess_count(L: int, v: int) -> int:
    """Exact count N_v of minimal-horizontal span-L paths with excess v.

    Such paths are signed vertical runs d_0..d_{L-1} (one per column, any
    sign, self-avoidance automatic) with sum d_i = 0; excess = sum |d_i|.
    For v = 2s > 0, a runs go up and add to s and b runs go down and add to
    -s: choose their columns, then compose s into a and into b positive
    parts."""
    if v == 0 or v % 2:
        return int(v == 0)
    s = v // 2
    return sum(math.comb(L, a) * math.comb(L - a, b)
               * math.comb(s - 1, a - 1) * math.comb(s - 1, b - 1)
               for a in range(1, min(s, L) + 1)
               for b in range(1, min(s, L - a) + 1))


def _runs_tail_bound(L: int, cap: int, beta: float) -> float:
    """Absolute bound on the weight of minimal-horizontal paths with excess
    v > cap, by Rankin's method.  N_v vanishes for odd v, so with
    x = e^{-beta}, c the least even excess above cap and any y in (x, 1):
    sum_{v>cap} N_v x^v <= (x/y)^c sum_v N_v y^v, and that sum is the
    constant term of G(z)^L, G(z) = sum_d y^{|d|} z^d, so at most
    G(1)^L = ((1+y)/(1-y))^L.  The y used minimises the bound; a rounded y
    is still in (x, 1), so the bound still holds.  Each path also weighs
    e^{-beta (L-1)}; the crude all-paths bound is used when it is smaller
    or when y <= x."""
    x, c = math.exp(-beta), cap // 2 * 2 + 2
    generic = saw_tail_bound(L - 1 + c, beta)
    y = (math.hypot(L, c) - L) / c
    if y <= x:
        return generic
    rankin = ((x / y) ** c * ((1 + y) / (1 - y)) ** L
              * math.exp(-beta * (L - 1)))
    return min(rankin, generic)


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the minimal-horizontal correspondence at one (L, beta)."""

    L: int
    beta: float
    lhs: TruncatedEnsemble     # path-side enumeration with certificate
    rhs: float                 # e^{-beta(L-1)} Z_beta^L Z_{0,L} via kernels+transfer
    rhs_err: float
    rel_target: float          # certificate width the cap had to meet

    @property
    def agrees(self) -> bool:
        """The certificate met ``rel_target`` and its interval holds rhs; a
        wider interval would agree with almost anything."""
        return (self.relative_width <= self.rel_target
                and self.lhs.lower - self.rhs_err <= self.rhs
                <= self.lhs.upper + self.rhs_err)

    @property
    def relative_width(self) -> float:
        return self.lhs.tail_cert / self.lhs.partial_sum


def minimal_horizontal_identity(L: int, beta: float,
                                rel_target: float = 1e-7,
                                cap: int | None = None) -> IdentityReport:
    """Compare the minimal-horizontal path sum against the walk formula.

    Left side: exact closed-form counts of minimal-horizontal paths grouped
    by excess vertical length, truncated with a Rankin tail certificate.
    Right side: the closed-form reduction to the geometric-walk bridge,
    evaluated through the kernel and transfer modules.  Without ``cap`` the
    cap grows until the certificate's relative width meets ``rel_target``;
    ``agrees`` is false when the cap used did not meet it.
    """
    _check_span(L, beta, 0 if cap is None else cap)
    caps = range(4, 128, 2) if cap is None else (cap,)
    counts = []  # N_v, extended only as far as the caps reached need
    # e^{-beta (L-1)} may be near the float floor: keep it out of the terms
    scale = math.exp(-beta * (L - 1))
    for cap in caps:
        counts += (_excess_count(L, v) for v in range(len(counts), cap + 1))
        part = scale * _at_beta(counts, 1, beta)
        tail = _runs_tail_bound(L, cap, beta)
        if tail / part <= rel_target:
            break
    lhs = TruncatedEnsemble(L=L, beta=beta, excess_cap=cap,
                            partial_sum=part, tail_cert=tail)
    kernel = make_sos(beta, tail_tol=1e-15)
    log_z = partition_profile(kernel, L)[L]
    rhs = math.exp(-beta * (L - 1) + L * math.log(sos_normalizer(beta)) + log_z)
    rhs_err = rhs * (2.0 * L * kernel.truncation_defect + 1e-13)
    return IdentityReport(L=L, beta=beta, lhs=lhs, rhs=rhs, rhs_err=rhs_err,
                          rel_target=rel_target)


# ---------------------------------------------------------------------------
# permutation excess length
# ---------------------------------------------------------------------------

_PERM_CAP = 9


def excess_length(xs, L: int, pi) -> int:
    """Extra horizontal travel from visiting marked columns in permuted
    order: -L + sum |x_{pi(i+1)} - x_{pi(i)}| with fixed ends 0 and L."""
    xs = list(xs)
    n = len(xs)
    if sorted(pi) != list(range(n)):
        raise ParameterError("pi must be a permutation of range(n)")
    if any(x == 0 for x in xs) or any(xs[i] >= xs[i + 1] for i in range(n - 1)):
        raise ParameterError("points must be strictly increasing and nonzero")
    if xs and xs[-1] >= L:
        raise ParameterError("points must lie left of L")
    order = [0] + [xs[i] for i in pi] + [L]
    return -L + sum(abs(order[i + 1] - order[i]) for i in range(n + 1))


def permutation_sum(xs, L: int, c: float) -> float:
    """Sum of e^{-c * excess} over all orders of visiting the marked columns."""
    xs = np.asarray(list(xs), dtype=float)
    n = xs.size
    if n > _PERM_CAP:
        raise RefusalError(f"permutation sum refuses n > {_PERM_CAP} (n! cost)")
    if n == 0:
        return 1.0
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    mid = xs[perms]
    aug = np.column_stack([np.zeros(len(perms)), mid,
                           np.full(len(perms), float(L))])
    ell = np.abs(np.diff(aug, axis=1)).sum(axis=1) - L
    return float(np.exp(-c * ell).sum())


def permutation_bound_delta(c: float) -> float:
    """The geometric constant in the bound sum <= (1 + delta)^n."""
    x = math.exp(-c)
    return 2.0 * x / (1.0 - x)
