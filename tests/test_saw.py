import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from wetting_lab import saw
from wetting_lab.errors import ParameterError, RefusalError
from wetting_lab.potentials import make_family
from wetting_lab.saw import (
    BETA_MIN,
    LatticePath,
    enumerate_saw,
    excess_length,
    grand_canonical,
    minimal_horizontal_identity,
    permutation_bound_delta,
    permutation_sum,
    regularity_stats,
    saw_partition,
    saw_tail_bound,
    _at_beta,
    _bridge_sums,
    _excess_count,
    _regularity_counts,
    _runs_tail_bound,
    _span_counts,
)


def _length(path):
    return len(path.vertices) - 1


def _edges(path):
    return zip(path.vertices[:-1], path.vertices[1:])


def _excess_counts(L, top):
    """N_0 ... N_top of the closed form ``saw._excess_count``."""
    return [_excess_count(L, v) for v in range(top + 1)]


# --- test-local references: read off the vertex list, independent of the
# crossing and mark bookkeeping of the search ---


def validate(path: LatticePath) -> None:
    vs = path.vertices
    if len(vs) < 2:
        raise ParameterError("a path has at least one edge")
    if len(set(vs)) != len(vs):
        raise ParameterError("vertices must be distinct (self-avoidance)")
    for (u1, y1), (u2, y2) in _edges(path):
        if u1 % 2 == 0 or u2 % 2 == 0:
            raise ParameterError("x coordinates must be half-integers")
        if not ((abs(u1 - u2) == 2 and y1 == y2)
                or (u1 == u2 and abs(y1 - y2) == 1)):
            raise ParameterError("consecutive vertices must be unit steps")


def contacts(path: LatticePath, j: int, L: int) -> tuple[int, int, int]:
    """(interior vertex contacts at height j, horizontal edges at height j,
    external height-0 contacts)."""
    n_j = 0
    n_ext = 0
    for u, y in path.vertices:
        if y == j and 3 <= u <= 2 * L - 3:
            n_j += 1
        if y == 0 and (u < 1 or u > 2 * L - 1):
            n_ext += 1
    n_hat = sum(1 for (a, b) in _edges(path)
                if a[1] == j and b[1] == j)
    return n_j, n_hat, n_ext


def is_regular(path: LatticePath, u: int, L: int) -> bool:
    """True when the path crosses the vertical line x=u exactly once for
    interior u in [1, L-1], or not at all for u in {0, L}.

    Vertices sit on half-integer columns, so intersections with the line are
    counted through the horizontal edges that cross it.
    """
    if not (0 <= u <= L):
        raise ParameterError("u must lie in [0, L]")
    crossings = 0
    for (u1, y1), (u2, y2) in _edges(path):
        if y1 == y2 and min(u1, u2) == 2 * u - 1:
            crossings += 1
    if u in (0, L):
        return crossings == 0
    return crossings == 1


def test_enumerate_minimal_and_cap2():
    paths = list(enumerate_saw((0.5, 0), (1.5, 0), 0))
    assert len(paths) == 1 and _length(paths[0]) == 1
    paths = list(enumerate_saw((0.5, 0), (1.5, 0), 2))
    assert len(paths) == 3
    assert sorted(_length(p) for p in paths) == [1, 3, 3]
    for p in paths:
        validate(p)


def test_enumeration_order_is_stable():
    # depth-first, steps tried in E, N, W, S order: straight path first
    assert [p.to_line() for p in enumerate_saw((0.5, 0), (2.5, 0), 2)] == [
        "1,0;3,0;5,0",
        "1,0;3,0;3,1;5,1;5,0",
        "1,0;3,0;3,-1;5,-1;5,0",
        "1,0;1,1;3,1;5,1;5,0",
        "1,0;1,1;3,1;3,0;5,0",
        "1,0;1,-1;3,-1;5,-1;5,0",
        "1,0;1,-1;3,-1;3,0;5,0",
    ]


def test_path_validation_catches_defects():
    with pytest.raises(ParameterError):
        validate(LatticePath(vertices=((1, 0), (5, 0))))  # not a unit step
    with pytest.raises(ParameterError):
        validate(LatticePath(vertices=((1, 0), (3, 0), (1, 0))))  # revisits


def test_partition_minimal_cap():
    t = saw_partition(2, 3.0, 0)
    assert t.partial_sum == pytest.approx(math.exp(-3.0), rel=1e-15)
    assert t.tail_cert > 0
    assert t.lower <= t.upper


def test_partition_matches_explicit_enumeration():
    pot = make_family("list", values=[0.2, 0.1])
    for cap in (0, 2, 4):
        total = 0.0
        for p in enumerate_saw((0.5, 0), (3.5, 0), cap):
            w = math.exp(-2.7 * _length(p))
            n0, _, _ = contacts(p, 0, 4)
            n1, _, _ = contacts(p, 1, 4)
            total += w * math.exp(0.2 * n0 + 0.1 * n1)
        t = saw_partition(4, 2.7, cap, pot=pot)
        assert t.partial_sum == pytest.approx(total, rel=1e-12)


def test_partition_with_external_rewards_matches_stream():
    a = 0.15
    total = 0.0
    for p in enumerate_saw((0.5, 0), (2.5, 0), 6):
        _, _, n_ext = contacts(p, 0, 3)
        total += math.exp(-2.8 * _length(p) + a * n_ext)
    t = saw_partition(3, 2.8, 6, eps_ext=a)
    assert t.partial_sum == pytest.approx(total, rel=1e-12)


def test_interval_soundness_under_cap_growth():
    narrow = saw_partition(4, 2.5, 2)
    wide = saw_partition(4, 2.5, 8)
    assert narrow.lower <= wide.partial_sum <= narrow.upper
    assert wide.tail_cert < narrow.tail_cert


def test_wall_reduces_partition():
    free = saw_partition(5, 3.0, 6)
    wall = saw_partition(5, 3.0, 6, constraint="wall")
    assert wall.upper <= free.upper
    assert wall.partial_sum <= free.partial_sum


ENSEMBLES = [
    lambda beta, cap, L=2: saw_partition(L, beta, cap),
    lambda beta, cap, L=2: grand_canonical(L, beta, cap),
    lambda beta, cap, L=3: regularity_stats(L, beta, cap),
    lambda beta, cap, L=2: minimal_horizontal_identity(L, beta, cap=cap),
]
ENSEMBLE_IDS = ["saw_partition", "grand_canonical", "regularity_stats",
                "identity"]


def test_beta_floor_refusal():
    with pytest.raises(RefusalError):
        saw_partition(4, 1.2, 4)
    for ensemble in ENSEMBLES:
        with pytest.raises(RefusalError):
            ensemble(BETA_MIN - 0.01, 2)
    # e^{-beta (L-1)} below the smallest normal float: refused, not a 0.0
    # partition sum or a division by zero
    for ensemble in ENSEMBLES:
        with pytest.raises(RefusalError, match="normal float range"):
            ensemble(3.0, 2, L=300)
    assert saw_partition(237, 3.0, 0).partial_sum > 0.0  # 3 * 236 = 708
    assert BETA_MIN == pytest.approx(math.log(3) + 0.5)


@pytest.mark.parametrize("ensemble", ENSEMBLES, ids=ENSEMBLE_IDS)
@pytest.mark.parametrize("beta, cap", [(math.nan, 2), (math.inf, 2),
                                       (-math.inf, 2), (2.5, -1)])
def test_ensembles_reject_bad_beta_and_cap(ensemble, beta, cap):
    with pytest.raises(ParameterError):
        ensemble(beta, cap)


@pytest.mark.parametrize("x, y", [
    ((0.5, 0), (4.5, 0.7)), ((0.7, 0), (4.5, 0)), ((0.5, 0), (4.0, 0)),
    ((0.5, 0), (math.nan, 0)), ((0.5, 0), (math.inf, 0)),
    ((0.5, 0), (4.5, math.nan)),
])
def test_enumerate_rejects_off_lattice_endpoints(x, y):
    with pytest.raises(ParameterError):
        list(enumerate_saw(x, y, 2))


def test_contacts_straight_and_excursion():
    straight = LatticePath(vertices=tuple((2 * i + 1, 0) for i in range(5)))
    assert contacts(straight, 0, 5) == (3, 4, 0)
    # excursion dipping left of the span: external zero-level contact
    p = LatticePath(vertices=((1, 0), (1, 1), (-1, 1), (-1, 0), (-3, 0),
                              (-3, -1), (-1, -1), (1, -1), (3, -1), (3, 0)))
    validate(p)
    n0, nhat0, next_ = contacts(p, 0, 2)
    assert next_ == 2  # (-1/2, 0) and (-3/2, 0)
    assert nhat0 == 1  # one horizontal edge at height 0: (-3,0)-(-1,0)
    nm1, nhatm1, _ = contacts(p, -1, 2)
    assert nhatm1 == 3


def test_regularity():
    straight = LatticePath(vertices=tuple((2 * i + 1, 0) for i in range(5)))
    for u in range(0, 6):
        assert is_regular(straight, u, 5)
    # a path swinging back across x=2 three times
    p = LatticePath(vertices=((1, 0), (3, 0), (5, 0), (5, 1), (3, 1), (3, 2),
                              (5, 2), (7, 2), (7, 1), (7, 0), (9, 0)))
    validate(p)
    assert not is_regular(p, 2, 5)
    assert is_regular(p, 4, 5)
    with pytest.raises(ParameterError):
        is_regular(p, 9, 5)
    with pytest.raises(ParameterError):
        regularity_stats(5, 3.0, 2, u_list=(6,))
    with pytest.raises(ParameterError):
        regularity_stats(1, 3.0, 2)


def test_regularity_stats_trends_with_beta():
    lo = regularity_stats(4, 2.5, 6)
    hi = regularity_stats(4, 4.0, 6)
    assert hi.not_regular[2][1] < lo.not_regular[2][1]
    assert hi.first_edge_vertical[1] < lo.first_edge_vertical[1]
    assert hi.ext_moment[1] < lo.ext_moment[1]
    # intervals bracket the point estimates
    for st_ in (lo, hi):
        lo_v, mid, hi_v = st_.ext_moment
        assert lo_v <= mid <= hi_v
    # a = 0 gives exactly 1
    flat = regularity_stats(4, 3.0, 4, a_ext=0.0)
    assert flat.ext_moment[1] == pytest.approx(1.0)


@pytest.mark.parametrize("a_ext", [0.0, 0.1])
@pytest.mark.parametrize("L,beta,cap",
                         [(2, 2.6, 6), (3, 2.8, 4), (4, 3.0, 6), (5, 3.2, 5)])
def test_regularity_stats_matches_enumeration(L, beta, cap, a_ext):
    us = tuple(range(L + 1))
    total = fv = ext = 0.0
    nr = dict.fromkeys(us, 0.0)
    for p in enumerate_saw((0.5, 0), (L - 0.5, 0), cap):
        w = math.exp(-beta * _length(p))
        total += w
        for u in us:
            if not is_regular(p, u, L):
                nr[u] += w
        if p.vertices[0][0] == p.vertices[1][0]:
            fv += w
        ext += w * math.exp(a_ext * contacts(p, 0, L)[2])
    st_ = regularity_stats(L, beta, cap, a_ext=a_ext, u_list=us)
    t0 = st_.tail_cert
    ta = saw_tail_bound(L + cap, beta, eps_max=a_ext)

    def close(got, want):
        assert all(math.isclose(g, w, rel_tol=1e-12)
                   for g, w in zip(got, want, strict=True)), (got, want)

    close((st_.partial_sum,), (total,))
    for u in us:
        close(st_.not_regular[u], (nr[u] / (total + t0), nr[u] / total,
                                   min((nr[u] + t0) / total, 1.0)))
    close(st_.first_edge_vertical, (fv / (total + t0), fv / total,
                                    min((fv + t0) / total, 1.0)))
    close(st_.ext_moment, (ext / (total + t0), ext / total,
                           (ext + ta) / total))


def test_minimal_horizontal_identity_small():
    rep = minimal_horizontal_identity(2, 3.0)
    closed = math.exp(-3.0) * (1 + 2 * math.exp(-6.0) / (1 - math.exp(-6.0)))
    assert rep.agrees
    assert rep.rhs == pytest.approx(closed, rel=1e-10)
    assert rep.lhs.lower <= closed <= rep.lhs.upper
    rep = minimal_horizontal_identity(4, 2.5)
    assert rep.agrees


def test_identity_agrees_only_when_the_cap_meets_the_target():
    # the interval still holds rhs, but a cap that misses rel_target is no
    # agreement; relative_width reports how far it missed
    rep = minimal_horizontal_identity(2, 3.0, rel_target=1e-30, cap=4)
    assert rep.lhs.lower - rep.rhs_err <= rep.rhs <= rep.lhs.upper + rep.rhs_err
    assert rep.relative_width > 1e-30
    assert rep.agrees is False
    assert minimal_horizontal_identity(2, 3.0, cap=8).agrees


def test_minimal_horizontal_runs_match_dfs():
    # the closed-form counts are literally the set of minimal-horizontal
    # paths; cross-check against the generic DFS restricted by edge count
    L, beta, cap = 3, 2.6, 4
    rep = minimal_horizontal_identity(L, beta, cap=cap)
    total = 0.0
    for p in enumerate_saw((0.5, 0), (L - 0.5, 0), cap):
        n_horiz = sum(1 for (a, b) in _edges(p) if a[1] == b[1])
        if n_horiz == L - 1:
            total += math.exp(-beta * _length(p))
    assert rep.lhs.partial_sum == pytest.approx(total, rel=1e-12)


def _run_profile_dp(L, cap):
    """Reference: minimal-horizontal paths counted by excess with a dynamic
    program over (height, used budget), one signed vertical run per column."""
    states = {(0, 0): 1}
    for _ in range(L):
        new = {}
        for (s, u), cnt in states.items():
            room = cap - u
            for d in range(-room, room + 1):
                s2, u2 = s + d, u + abs(d)
                if abs(s2) > cap - u2:  # can no longer return to height 0
                    continue
                new[(s2, u2)] = new.get((s2, u2), 0) + cnt
        states = new
    out = [0] * (cap + 1)
    for (s, u), cnt in states.items():
        if s == 0:
            out[u] += cnt
    return out


def test_excess_counts_match_the_run_profile_dp():
    for L in range(2, 13):
        for cap in range(21):
            assert _excess_counts(L, cap) == _run_profile_dp(L, cap)


def test_runs_tail_bound_covers_the_exact_tail():
    # exact tail from the closed-form counts up to excess V; each term past
    # V is below 1e-150 of the largest one kept
    V = 300
    for L in (2, 3, 5, 8, 20, 50, 100, 200):
        counts = _excess_counts(L, V)
        for beta in (2.5, 3.0, 4.0):
            x = math.exp(-beta)
            for cap in range(127):  # every cap the automatic range reaches
                tail = math.exp(-beta * (L - 1)) * math.fsum(
                    counts[v] * x ** v for v in range(cap + 1, V + 1))
                # past the span limit (L=200, beta=4) the tail underflows
                assert tail > 0 or beta * (L - 1) > 708
                assert _runs_tail_bound(L, cap, beta) >= tail


def test_identity_at_span_200():
    # beta=2.5 needs a cap above 62: the automatic caps reach 126
    for beta in (2.5, 3.0):
        rep = minimal_horizontal_identity(200, beta)
        assert rep.agrees and rep.relative_width <= 1e-7
    # a certificate wider than asked for is reported, not passed
    rep = minimal_horizontal_identity(200, 2.5, cap=62)
    assert rep.relative_width > rep.rel_target and not rep.agrees


def test_identity_interval_holds_near_the_span_limit():
    # beta (L-1) = 705 is just inside the float range: the shortest path
    # weighs about 1e-306 while the sum is dominated by excess near 20
    for L, beta in ((200, 3.0), (236, 3.0)):
        rep = minimal_horizontal_identity(L, beta, cap=62)
        assert (rep.lhs.lower - rep.rhs_err <= rep.rhs
                <= rep.lhs.upper + rep.rhs_err)


def test_first_edge_vertical_is_rare_at_low_temperature():
    # consecutive initial vertical edges cost a geometric factor, so the
    # probability sits well under 3 e^{-beta} once beta >= 3
    st6 = regularity_stats(6, 3.0, 6)
    assert st6.first_edge_vertical[1] < 3 * math.exp(-3.0)


def test_avoid_level_constraint():
    # forbids interior vertices at the given height; endpoints stay allowed
    full = saw_partition(4, 3.0, 4)
    avoided = saw_partition(4, 3.0, 4, constraint="avoid", avoid_level=1)
    assert avoided.partial_sum < full.partial_sum
    want = 0.0
    for p in enumerate_saw((0.5, 0), (3.5, 0), 4):
        if all(y != 1 for _, y in p.vertices):
            want += math.exp(-3.0 * _length(p))
    assert avoided.partial_sum == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("L,beta,cap", [(2, 3.0, 4), (3, 2.7, 5), (4, 3.1, 4)])
def test_grand_canonical_matches_enumeration(L, beta, cap):
    # a free-end path is a bridge to some (L - 1/2, y) with |y| <= cap
    want = 0.0
    for y in range(-cap, cap + 1):
        for p in enumerate_saw((0.5, 0), (L - 0.5, y), cap - abs(y)):
            want += math.exp(-beta * _length(p))
    got = grand_canonical(L, beta, cap).partial_sum
    assert math.isclose(got, want, rel_tol=1e-12)


def test_grand_canonical_interval():
    g = grand_canonical(3, 3.0, 4)
    assert 0 < g.lower <= g.upper
    wider = grand_canonical(3, 3.0, 8)
    assert g.lower <= wider.partial_sum <= g.upper


def test_localizing_trend_in_amplitude():
    # ratio growth log(Z_pinned / Z_wall)/L increases with the reward scale
    L, beta, cap = 6, 2.5, 6
    zw = saw_partition(L, beta, cap, constraint="wall")
    rates = []
    for amp in (0.05, 0.2, 0.8):
        pot = make_family("exp", delta=1.0, amplitude=amp)
        zp = saw_partition(L, beta, cap, constraint="wall", pot=pot)
        rates.append(math.log(zp.partial_sum / zw.partial_sum) / L)
    assert rates[0] < rates[1] < rates[2]


def test_excess_length_examples():
    assert excess_length([3, 5], 10, (1, 0)) == 4
    assert excess_length([3, 5], 10, (0, 1)) == 0
    assert excess_length([7], 12, (0,)) == 0
    assert permutation_sum([7], 12, 3.0) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        excess_length([5, 3], 10, (0, 1))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_excess_nonnegative_zero_iff_identity(n, data):
    span = data.draw(st.integers(min_value=n + 1, max_value=30))
    xs = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=span - 1),
                                  min_size=n, max_size=n)))
    from itertools import permutations as perms
    for pi in perms(range(n)):
        ell = excess_length(xs, span, pi)
        assert ell >= 0
        assert (ell == 0) == (pi == tuple(range(n)))


def test_permutation_sum_bound_and_refusal():
    for c in (2.0, 3.0, 4.0):
        delta = permutation_bound_delta(c)
        s = permutation_sum([2, 5, 9, 11], 15, c)
        assert s <= (1 + delta) ** 4
    with pytest.raises(RefusalError):
        permutation_sum(list(range(1, 11)), 20, 2.0)


def test_sum_paths_matches_enumerate_stream():
    got = _at_beta(_span_counts(3, 3)[1], 3, 3.1)
    want = sum(math.exp(-3.1 * _length(p))
               for p in enumerate_saw((0.5, 0), (2.5, 0), 3))
    assert got == pytest.approx(want, rel=1e-13)


# --- per-length sums: one enumeration per path set, evaluated per beta ---


def _by_length(paths, L, cap):
    counts = [0] * (cap + 1)
    for p in paths:
        counts[_length(p) - (L - 1)] += 1
    return counts


def _exact(sums):
    assert all(isinstance(s, int) or s.is_integer() for s in sums), sums
    return [int(s) for s in sums]


@pytest.mark.parametrize("L,cap", [(2, 6), (3, 5), (4, 4)])
def test_bridge_sums_are_counts_by_length(L, cap):
    def bridges(keep):
        return _by_length((p for p in enumerate_saw((0.5, 0), (L - 0.5, 0), cap)
                           if keep(p)), L, cap)

    assert _exact(_span_counts(L, cap)[1]) == bridges(lambda p: True)
    assert _exact(_bridge_sums(L, cap, "wall", None, None, 0.0)) == \
        bridges(lambda p: all(y >= 0 for _, y in p.vertices))
    for level in (1, -1):
        assert _exact(_bridge_sums(L, cap, "avoid", level, None, 0.0)) == \
            bridges(lambda p: all(y != level for _, y in p.vertices[1:-1]))


@pytest.mark.parametrize("L,cap", [(2, 5), (3, 4), (4, 4)])
def test_free_end_counts_by_length(L, cap):
    want = [0] * (cap + 1)
    for y in range(-cap, cap + 1):
        for p in enumerate_saw((0.5, 0), (L - 0.5, y), cap - abs(y)):
            want[_length(p) - (L - 1)] += 1
    assert _exact(_span_counts(L, cap)[0]) == want


@pytest.mark.parametrize("L,cap", [(2, 6), (3, 4), (5, 4)])
def test_regularity_counts_by_length(L, cap):
    us = tuple(range(L + 1))
    total, fv = [0] * (cap + 1), [0] * (cap + 1)
    nr = {u: [0] * (cap + 1) for u in us}
    ext: dict[tuple[int, int], int] = {}
    for p in enumerate_saw((0.5, 0), (L - 0.5, 0), cap):
        i = _length(p) - (L - 1)
        total[i] += 1
        for u in us:
            nr[u][i] += not is_regular(p, u, L)
        fv[i] += p.vertices[0][0] == p.vertices[1][0]
        key = (i, contacts(p, 0, L)[2])
        ext[key] = ext.get(key, 0) + 1
    got_total, got_nr, got_fv, got_ext = _regularity_counts(L, cap, us)
    assert list(got_total) == total and list(got_fv) == fv
    assert [list(c) for c in got_nr] == [nr[u] for u in us]
    assert {(i, k): c for i, row in enumerate(got_ext)
            for k, c in enumerate(row) if c} == ext


# beta * n is exact in binary for these beta, so the only roundings left are
# exp, one product per length and the final sum
@pytest.mark.parametrize("beta", [2.5, 3.0, 3.25])
@pytest.mark.parametrize("ensemble, L, cap", [
    (saw_partition, 4, 8), (grand_canonical, 4, 10), (regularity_stats, 5, 6),
    (saw_partition, 2, 10),
])
def test_factor_free_values_match_decimal(ensemble, L, cap, beta):
    if ensemble is grand_canonical:
        counts = _span_counts(L, cap)[0]
    elif ensemble is saw_partition:
        counts = _span_counts(L, cap)[1]
    else:
        counts = _regularity_counts(L, cap, (0, L // 2, L))[0]
    with localcontext() as ctx:
        ctx.prec = 40
        want = sum(int(c) * (-Decimal(beta) * (L - 1 + i)).exp()
                   for i, c in enumerate(counts))
    got = ensemble(L, beta, cap).partial_sum
    assert abs(Decimal(got) - want) <= Decimal("1e-15") * want


class _ReferenceDFS:
    """``saw._Search`` as it stood before the level engine, verbatim: a
    depth-first search taking one Python step per node.  It is the
    reference of the engine, with the callers as they stood below it."""

    def __init__(self, start, goal, max_len, *, free_end=False, factor=None,
                 blocked=None, marked=None, mirror=False):
        (su, sy), (gu, gy) = start, goal
        sc, gc = (su - 1) // 2, (gu - 1) // 2

        def dist(c, y):
            return abs(c - gc) + (0 if free_end else abs(y - gy))

        usable = [(c, y) for c in range(sc - max_len, sc + max_len + 1)
                  for y in range(sy - max_len, sy + max_len + 1)
                  if abs(c - sc) + abs(y - sy) + dist(c, y) <= max_len]
        self.c0 = c0 = min(c for c, _ in usable) - 1
        y0 = min(y for _, y in usable) - 1
        W = max(c for c, _ in usable) - c0 + 2
        self.H = H = max(y for _, y in usable) - y0 + 2
        self.y0, self.closed = y0, max_len + 1
        self.gate = [self.closed] * (W * H)
        self.factor = [1] * (W * H)
        self.mark = [0] * (W * H)
        # each cell's steps E, N, W, S, paired with the index in ``cross``
        # of the line they cross (W, a spare slot, for N and S)
        self.steps = [()] * (W * H)
        self.cross = [0] * (W + 1)
        for c, y in usable:
            i, u, j = (c - c0) * H + (y - y0), 2 * c + 1, c - c0
            if blocked is None or not blocked(u, y):
                self.gate[i] = dist(c, y)
            if factor is not None:
                self.factor[i] = factor(u, y)
            if marked is not None:
                self.mark[i] = int(marked(u, y))
            self.steps[i] = ((i + H, j + 1), (i + 1, W),
                             (i - H, j), (i - 1, W))
        self.path = [(sc - c0) * H + (sy - y0)]
        self.max_len, self.stop, self.mirror = max_len, not free_end, mirror

    def __iter__(self):
        gate, steps, factor, mark = (self.gate, self.steps, self.factor,
                                     self.mark)
        cross, path, closed = self.cross, self.path, self.closed
        start, top = path[0], self.max_len + 1
        gate[start] = closed
        if not self.mirror:
            yield from self._walk(1, 0, self.max_len, iter(steps[start]))
            return
        yield from self._walk(2, 0, self.max_len, iter(steps[start][1:2]))
        fresh = gate[:]
        for e in (0, 2):  # the flat runs E and W
            w, m, rem = 1, 0, self.max_len
            while gate[steps[path[-1]][e][0]] < rem:
                n, k = steps[path[-1]][e]
                w, m, d = w * factor[n], m + mark[n], gate[n]
                cross[k] += 1
                path.append(n)
                if not d:
                    yield top - rem, w, m
                    if self.stop:
                        break
                gate[n] = closed
                rem -= 1
                yield from self._walk(2 * w, m, rem, iter(steps[n][1:2]))
            gate[:], cross[:] = fresh, [0] * len(cross)
            del path[1:]

    def _walk(self, w, m, rem, it):
        """The DFS below the last cell of ``path``: weight w, m marks, rem
        steps left and ``it`` over the steps still open there."""
        gate, steps, factor, mark = (self.gate, self.steps, self.factor,
                                     self.mark)
        cross, path, closed = self.cross, self.path, self.closed
        stop, top = self.stop, self.max_len + 1
        stack = []
        while True:
            for n, k in it:
                d = gate[n]
                if d >= rem:
                    continue
                nw = w * factor[n]
                nm = m + mark[n]
                cross[k] += 1
                path.append(n)
                if not d:
                    yield top - rem, nw, nm
                    if stop:
                        path.pop()
                        cross[k] -= 1
                        continue
                stack.append((w, m, it, k, d))
                gate[n] = closed
                w, m, it = nw, nm, iter(steps[n])
                rem -= 1
                break
            else:
                if not stack:
                    return
                w, m, it, k, d = stack.pop()
                gate[path.pop()] = d
                cross[k] -= 1
                rem += 1


def _reference_length_sums(search, L, excess_cap):
    sums = [0.0] * (L + excess_cap)
    for n, w, _ in search:
        sums[n] += w
    return tuple(sums[L - 1:])


def _reference_search(monkeypatch, fn, *args):
    """What ``_bridge_sums`` returned on the reference DFS, summed as it
    summed it."""
    with monkeypatch.context() as m:
        m.setattr(saw, "_Search", _ReferenceDFS)
        m.setattr(saw, "_length_sums", _reference_length_sums)
        return fn.__wrapped__(*args)


def _reference_span_counts(L, excess_cap):
    """``_span_counts`` as the reference DFS gave it, each path set from a
    search of its own: the free-end counts, then the bridge counts."""
    args = (1, 0), (2 * L - 1, 0), (L - 1) + excess_cap
    return tuple(_reference_length_sums(
        _ReferenceDFS(*args, free_end=free_end, mirror=True), L, excess_cap)
        for free_end in (True, False))


def _reference_regularity_counts(L, excess_cap, u_list):
    """``_regularity_counts`` as it stood on the reference DFS."""
    top = L + excess_cap
    total, fv = [0] * top, [0] * top
    not_regular = [[0] * top for _ in u_list]
    ext = [[0] * (top + 1) for _ in range(top)]
    search = _ReferenceDFS((1, 0), (2 * L - 1, 0), (L - 1) + excess_cap,
                           marked=lambda u, y: y == 0
                           and not 1 <= u <= 2 * L - 1,
                           mirror=True)
    cross, path = search.cross, search.path
    lines = [(counts, u - search.c0, 0 if u in (0, L) else 1)
             for counts, u in zip(not_regular, u_list)]
    for n, w, n_ext in search:
        total[n] += w
        for counts, k, once in lines:
            if cross[k] != once:
                counts[n] += w
        if abs(path[1] - path[0]) == 1:
            fv[n] += w
        ext[n][n_ext] += w
    cut = L - 1
    return (tuple(total[cut:]), tuple(tuple(c[cut:]) for c in not_regular),
            tuple(fv[cut:]), tuple(tuple(row) for row in ext[cut:]))


def _reference_lines(x, y, cap):
    """``enumerate_saw``'s dump lines as the reference DFS streamed them."""
    start, goal = saw._to_doubled(x), saw._to_doubled(y)
    search = _ReferenceDFS(start, goal, abs(start[0] - goal[0]) // 2
                           + abs(start[1] - goal[1]) + cap)
    H, c0, y0 = search.H, search.c0, search.y0
    return [";".join(f"{2 * (i // H + c0) + 1},{i % H + y0}"
                     for i in search.path) for _ in search]


# every (L, cap) with L in 2..7 and (L - 1) + cap <= 13
GRID = [(L, cap) for L in range(2, 8) for cap in range(0, 13 - (L - 1) + 1)]
_POT = make_family("list", values=[0.2, 0.1])
# the reward-free unconstrained bridges are read from ``_span_counts``
BRIDGES = [("wall", None, None, 0.0),
           ("avoid", 1, None, 0.0), ("avoid", -1, None, 0.0),
           ("none", None, _POT, 0.0), ("none", None, None, 0.3)]


def _engine_values(L, cap):
    us = tuple(range(L + 1))
    return ([_span_counts.__wrapped__(L, cap),
             _regularity_counts.__wrapped__(L, cap, us)]
            + [_bridge_sums.__wrapped__(L, cap, *b) for b in BRIDGES])


@pytest.fixture(scope="module")
def reference_values():
    """Every grid point's values and dump lines on the reference DFS."""
    values = {}
    with pytest.MonkeyPatch.context() as m:
        for L, cap in GRID:
            us = tuple(range(L + 1))
            values[L, cap] = (
                [_reference_span_counts(L, cap),
                 _reference_regularity_counts(L, cap, us)]
                + [_reference_search(m, _bridge_sums, L, cap, *b)
                   for b in BRIDGES],
                _reference_lines((0.5, 0), (L - 0.5, 0), cap))
    return values


def _recording_searches(monkeypatch, base=saw._Search):
    """Patch ``saw._Search`` with ``base`` made to record the arguments of
    every search it starts; returns the record."""
    made = []

    class Recording(base):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(saw, "_Search", Recording)
    return made


@pytest.mark.parametrize("chunk, top", [(None, 13), (3, 10)])
def test_engine_matches_the_reference_search(monkeypatch, reference_values,
                                             chunk, top):
    # free-end and reward-free bridge counts, all four regularity tuples,
    # the bridge sums of every other constraint, reward and external
    # reward, and the dump lines: equal, float sums to the last bit, each
    # from a fresh search (none read from a cache).  Blocks of 3 paths split
    # at every level; they cost a numpy pass per 3 paths, so they run up to
    # length 10
    if chunk is not None:
        monkeypatch.setattr(saw, "_CHUNK", chunk)
    made = _recording_searches(monkeypatch)
    for (L, cap), (want, lines) in reference_values.items():
        if (L - 1) + cap > top:
            continue
        before = len(made)
        got = _engine_values(L, cap)
        assert got == want, (L, cap)
        assert repr(got) == repr(want), (L, cap)
        assert [p.to_line() for p in enumerate_saw((0.5, 0), (L - 0.5, 0),
                                                   cap)] == lines, (L, cap)
        assert len(made) - before == 3 + len(BRIDGES)


@pytest.mark.parametrize("chunk", [3, 17, 1024])
@pytest.mark.parametrize("L,cap", [(2, 6), (3, 6), (4, 5)])
def test_each_length_arrives_in_depth_first_order(monkeypatch, L, cap, chunk):
    # the free-end search without the reflection: every prefix arrives
    monkeypatch.setattr(saw, "_CHUNK", chunk)
    args = (1, 0), (2 * L - 1, 0), (L - 1) + cap
    want, got = {}, {}
    reference = _ReferenceDFS(*args, free_end=True)
    for n, _, _ in reference:
        want.setdefault(n, []).append(reference.path[:])
    for n, cells, *_ in saw._Search(*args, free_end=True):
        got.setdefault(n, []).extend(cells.tolist())
    assert got == want


def test_one_search_per_path_set_across_betas(monkeypatch):
    cached = (_bridge_sums, _span_counts, _regularity_counts)
    for fn in cached:
        fn.cache_clear()
    searches = _recording_searches(monkeypatch)
    pot = make_family("list", values=[0.2, 0.1])
    try:
        for beta in (2.5, 3.0):
            saw_partition(4, beta, 4)
            saw_partition(4, beta, 4, constraint="wall", pot=pot)
            grand_canonical(4, beta, 4)
            st_ = regularity_stats(4, beta, 4)
            assert st_.partial_sum == saw_partition(4, beta, 4).partial_sum
        assert len(searches) == 3
    finally:
        for fn in cached:
            fn.cache_clear()


# --- the reflection y -> -y: each symmetric path set searched by halves ---


class _FullSearch(saw._Search):
    """The search with the reflection switched off."""

    def __init__(self, *args, mirror=False, **kwargs):
        super().__init__(*args, **kwargs)


def _full(monkeypatch, fn, *args):
    """fn's value from a fresh search with the reflection switched off."""
    with monkeypatch.context() as m:
        made = _recording_searches(m, _FullSearch)
        value = fn.__wrapped__(*args)
    assert len(made) == 1  # not read from a cache
    return value


@pytest.mark.parametrize("L", range(2, 8))
def test_halved_search_counts_equal_the_full_search(monkeypatch, L):
    # every cap with (L - 1) + cap <= 13; cap = 0 leaves only the flat path
    us = tuple(range(L + 1))
    for cap in range(0, 13 - (L - 1) + 1):
        half = _span_counts.__wrapped__(L, cap)
        full = _full(monkeypatch, _span_counts, L, cap)
        for got, want in zip(half, full, strict=True):  # free end, bridges
            assert got == want, cap
            assert _exact(got) == _exact(want)
        half = _regularity_counts.__wrapped__(L, cap, us)
        full = _full(monkeypatch, _regularity_counts, L, cap, us)
        for got, want in zip(half, full, strict=True):  # totals, lines, fv, ext
            assert got == want, cap
        for sums in (half[0], *half[1], half[2], *half[3]):
            _exact(sums)


@pytest.mark.parametrize("L,cap", [(2, 8), (4, 6), (6, 4)])
def test_halved_free_end_search_walks_half(monkeypatch, L, cap):
    # the full search, its flat arrivals told apart by their row
    search = saw._Search((1, 0), (2 * L - 1, 0), (L - 1) + cap, free_end=True)
    row = search.start % search.H
    full = flat = 0
    for _, cells, *_ in search:
        full += len(cells)
        flat += int((cells % search.H == row).all(axis=1).sum())
    # the search behind grand_canonical walks the flat path once and each
    # N-first path for itself and its S-first mirror image
    arrived = []

    class Counting(saw._Search):
        def __iter__(self):
            for batch in super().__iter__():
                arrived.extend(batch[1])
                yield batch

    monkeypatch.setattr(saw, "_Search", Counting)
    _span_counts.__wrapped__(L, cap)
    assert flat == 1
    assert 2 * len(arrived) == full + flat
