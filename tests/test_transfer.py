import itertools
import math

import numpy as np
import pytest

from wetting_lab import transfer
from wetting_lab.errors import ParameterError, RefusalError, TruncationError
from wetting_lab.kernels import make_binomial, make_sos, parse_kernel_spec
from wetting_lab.potentials import make_family, parse_potential_spec
from wetting_lab.rw_oracle import oracle_partition
from wetting_lab.transfer import (
    DEFECT_TOL,
    _diag_for,
    _sweep,
    _Window,
    free_energy,
    midpoint_prob,
    partition_profile,
)

K5 = make_binomial(0.5)


def test_two_step_bridge_values():
    assert math.exp(partition_profile(K5, 2)[2]) == pytest.approx(0.375, rel=1e-14)
    assert math.exp(partition_profile(K5, 2, wall=0)[2]) == pytest.approx(0.3125, rel=1e-14)


def test_one_step_bridge_is_p0():
    for k in (K5, make_binomial(0.1), make_sos(3.0)):
        assert math.exp(partition_profile(k, 1)[1]) == pytest.approx(k.prob(0), rel=1e-13)


def test_wall_only_costs_mass():
    for L in (2, 5, 8):
        zj = [partition_profile(K5, L, wall=j)[L] for j in (0, 1, 2)]
        zfree = partition_profile(K5, L)[L]
        assert zj[0] <= zj[1] <= zj[2] <= zfree + 1e-14


def _contact_moment(L, eps, wall=None):
    """E[e^{eps N}] for the bridge, N = interior contacts with height 0, as
    a ratio of two partition functions."""
    pot = make_family("single", j=0, amplitude=eps)
    return math.exp(partition_profile(K5, L, wall=wall, pot=pot)[L]
                    - partition_profile(K5, L, wall=wall)[L])


def test_pinned_expectation_formula_and_monotone():
    for eps in (0.0, 0.1, 0.4):
        want = (0.25 * math.exp(eps) + 0.0625) / 0.3125
        assert _contact_moment(2, eps, wall=0) == pytest.approx(want, rel=1e-13)
    vals = [_contact_moment(10, e, wall=1) for e in (0.0, 0.05, 0.1, 0.2)]
    assert vals == sorted(vals)
    assert vals[0] == pytest.approx(1.0)


def test_partition_monotone_in_each_level():
    base = make_family("list", values=[0.1, 0.05, 0.02])
    z0 = partition_profile(K5, 8, wall=0, pot=base)[8]
    for lvl in range(3):
        values = list(base.eps)
        values[lvl] += 0.05
        z1 = partition_profile(
            K5, 8, wall=0, pot=make_family("list", values=values))[8]
        assert z1 > z0


def test_zero_potential_step_matches_plain():
    zero = make_family("list", values=[0.0, 0.0])
    for wall in (None, 0):
        a = partition_profile(K5, 64, wall=wall, pot=zero)
        b = partition_profile(K5, 64, wall=wall, pot=None)
        assert np.array_equal(a, b)


def test_defect_flag_trips_on_tiny_window(monkeypatch):
    # the cap keeps the window from growing
    monkeypatch.setattr(transfer, "_STATE_CAP", 3)
    window = _Window(base=0, n=3, start=0, walled=True)
    defect, _ = _sweep(K5, 12, window, None, lambda *block: None)
    assert defect


def _assert_z_close(new, ref, tol=1e-10):
    """The same lengths are finite, and log Z agrees to ``tol`` there (the
    relative difference in Z)."""
    done = np.isfinite(ref)
    assert np.array_equal(np.isfinite(new), done)
    assert np.abs(new[done] - ref[done]).max(initial=0.0) <= tol


def _reference_window(kernel, L, wall, pot, grow):
    """The window a sweep of L steps ran on before windows grew in place:
    8 sigma sqrt(L) + 2 max_step rows, or the reach of the rewards, doubled
    ``grow`` times."""
    m = kernel.max_step
    spread = int(math.ceil(8.0 * math.sqrt(kernel.sigma2 * max(L, 1)))) + 2 * m
    if pot is not None and pot.support:
        spread = max(spread, min(pot.support[-1], (L // 2) * m) + 4 * m)
    spread = max(spread, 4 * m, 16) << grow
    if wall is not None:
        return _Window(base=-wall, n=wall + spread + 1, start=wall,
                       walled=True)
    return _Window(base=-spread, n=2 * spread + 1, start=spread,
                   walled=False)


def _reference_profile(kernel, L_max, wall=None, pot=None):
    """``partition_profile`` as it stood before windows grew in place: the
    formula window, doubled and the sweep rerun while the edge rows carry a
    relative mass above DEFECT_TOL."""
    for grow in range(8):
        window = _reference_window(kernel, L_max, wall, pot, grow)
        if window.n > transfer._STATE_CAP:
            break
        logz, defect = _reference_sweep(kernel, L_max, window,
                                        _diag_for(window, pot), DEFECT_TOL)
        if not defect:
            return logz
    raise AssertionError("reference window doubling exhausted")


def _reference_sweep(kernel, L, window, diag, defect_tol, on_step=None):
    """A fixed-window sweep of every length, each read at the start row:
    the reference of the two-leg profiles of ``transfer._sweep``."""
    parr = kernel.prob_array()
    mstep = kernel.max_step
    n = window.n
    v = np.zeros(n)
    v[window.start] = 1.0
    if on_step is not None:
        on_step(0, v)
    scale = 0.0
    m_prev = math.nan  # step 1 applies a different map: never a match
    logz = np.full(L + 1, -math.inf)
    for t in range(1, L + 1):
        prev = v
        u = v if (diag is None or t == 1) else v * diag
        v = np.convolve(u, parr, mode="same")
        m = float(v.max())
        if m <= 0.0:
            return logz, False  # every path died inside the window
        v /= m
        scale += math.log(m)
        edge = float(v[n - mstep:].sum())
        if not window.walled:
            edge = max(edge, float(v[:mstep].sum()))
        # v.max() == 1 now, so v.sum() >= 1: edge <= defect_tol cannot trip
        # the relative test, and the sum is only needed past that point
        if edge > defect_tol and edge / float(v.sum()) > defect_tol:
            return logz, True
        if on_step is not None:
            on_step(t, v)
        ve = float(v[window.start])
        logz[t] = scale + math.log(ve) if ve > 0.0 else -math.inf
        if m == m_prev and on_step is None and np.array_equal(v, prev):
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


def _reference_midpoint(kernel, L, j):
    """``midpoint_prob`` on the fixed window of 8 sigma sqrt(L) rows,
    doubled and rerun on a defect, with each step's legs convolved."""
    prof = np.ones(L + 1)
    if j >= L * kernel.max_step:
        return prof
    parr = kernel.prob_array()
    for grow in range(8):
        w = int(math.ceil(8.0 * math.sqrt(kernel.sigma2 * L)))
        w = (max(w, j + 2 * kernel.max_step, 16) + 2 * kernel.max_step) << grow
        window = _Window(base=-w, n=2 * w + 1, start=w, walled=False)
        mask = np.arange(window.n) + window.base >= -j
        last = None  # the previous vector and its masked copy, each stepped

        def on_step(t, v):
            nonlocal last
            vm = v * mask
            now = (np.convolve(v, parr, mode="same"),
                   np.convolve(vm, parr, mode="same"))
            if t:
                for l, (cg, cgm) in ((2 * t, last), (2 * t + 1, now)):
                    if l <= L:
                        prof[l] = float(vm @ cgm) / float(v @ cg)
            last = now

        _, defect = _reference_sweep(kernel, L // 2, window, None, DEFECT_TOL,
                                     on_step)
        if not defect:
            return prof
    raise AssertionError("reference midpoint window doubling exhausted")


@pytest.mark.parametrize("kspec", [
    "binomial:sigma2=0.1", "binomial:sigma2=0.5", "sos:beta=2.5"])
def test_sweep_is_byte_identical_to_the_reference(kspec):
    # the two-leg reads sum in another order than a sweep of every length:
    # log Z agrees to 1e-10 and the midpoint probabilities to 1e-14
    kernel = parse_kernel_spec(kspec)
    pots = [None] + [parse_potential_spec(p) for p in (
        "single:j=0,eps=0.3", "exp:delta=1,amp=0.2", "power:delta=3,amp=0.3")]
    for L, wall, pot in itertools.product((700, 701), (None, 0, 3), pots):
        new = partition_profile(kernel, L, wall=wall, pot=pot)
        ref = _reference_profile(kernel, L, wall=wall, pot=pot)
        _assert_z_close(new, ref)
    for L, j in itertools.product((700, 701), (0, 3)):
        new = midpoint_prob(kernel, L, j)
        ref = _reference_midpoint(kernel, L, j)
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("L", [700, 4096])
def test_growth_follows_a_far_rewarded_level(monkeypatch, L):
    # the mode at level 20 starts far below the read-out row and takes over
    # later; a window grown from the read-out row alone misses it, and Z_L
    # then differs by ~7e-12 relative from the sweep on a window wide from
    # the start (the formula window, doubled once)
    kernel = make_binomial(0.1)
    pot = parse_potential_spec("single:j=20,eps=0.6")
    for wall in (None, 0, 3):
        new = partition_profile(kernel, L, wall=wall, pot=pot)
        _assert_z_close(new, _reference_profile(kernel, L, wall=wall, pot=pot))
        with monkeypatch.context() as m:
            m.setattr(transfer, "_make_window",
                      lambda k, T, w, p: _reference_window(k, L, w, p, 1))
            wide = partition_profile(kernel, L, wall=wall, pot=pot)
        _assert_z_close(new, wide, tol=1e-12)


def test_fixed_point_exit_is_byte_identical_to_the_reference(monkeypatch):
    kernel = parse_kernel_spec("binomial:sigma2=0.5")
    pot = parse_potential_spec("single:j=0,eps=0.8")
    L = 65536
    rows = []
    correlate = np.correlate

    def counting(*args):
        rows.append(len(args[0]))
        return correlate(*args)

    with monkeypatch.context() as m:
        m.setattr(transfer.np, "correlate", counting)
        new = partition_profile(kernel, L, wall=0, pot=pot)
    assert 0 < len(rows) < L // 8  # the sweep stopped at the fixed point
    # the window grew to what the localized vector carries, far below the
    # 1,452 rows of 8 sigma sqrt(L)
    assert max(rows) <= 256
    _assert_z_close(new, _reference_profile(kernel, L, wall=0, pot=pot))


def test_growth_past_the_cap_raises_with_the_partial_profile(monkeypatch):
    # the free bridge asks for ~8.6 sigma sqrt(L) rows; with the cap at 64
    # the 33-row floor cannot double, and the edge trips DEFECT_TOL
    ref = _reference_profile(K5, 4096)
    monkeypatch.setattr(transfer, "_STATE_CAP", 64)
    with pytest.raises(TruncationError, match="exhausted") as exc:
        partition_profile(K5, 4096)
    partial = exc.value.partial
    done = np.isfinite(partial)
    assert partial.shape == (4097,) and 8 < done.sum() < 4096
    assert done[1:done.sum() + 1].all()
    np.testing.assert_allclose(partial[done], ref[done], rtol=1e-13)
    # a floor window beyond the cap is never swept
    monkeypatch.setattr(transfer, "_STATE_CAP", 16)
    with pytest.raises(TruncationError) as exc:
        partition_profile(K5, 4096)
    assert exc.value.partial is None


@pytest.mark.parametrize("kernel, window", [
    (K5, _Window(base=0, n=3, start=0, walled=True)),
    (K5, _Window(base=-2, n=5, start=2, walled=False)),
    (make_sos(2.5), _Window(base=0, n=25, start=0, walled=True)),
])
def test_defect_exit_is_byte_identical_to_the_reference(monkeypatch, kernel,
                                                        window):
    # on a window the cap keeps from growing, both sweeps sum the bridges
    # confined to it and trip at the same step; the two-leg one reads two
    # lengths per step, so its partial profile reaches about twice as far
    ref, ref_defect = _reference_sweep(kernel, 40, window, None, DEFECT_TOL)
    monkeypatch.setattr(transfer, "_STATE_CAP", window.n)
    monkeypatch.setattr(transfer, "_make_window", lambda *args: window)
    with pytest.raises(TruncationError) as exc:
        partition_profile(kernel, 40)
    new = exc.value.partial
    assert ref_defect
    done = np.isfinite(ref)
    assert np.isfinite(new).sum() >= done.sum()
    _assert_z_close(new[done], ref[done])


def test_full_matrix_symmetry():
    # the two-leg read rests on the symmetry of the dense transfer product
    # P (D P)^(L-1) on the states above a wall; its diagonal entry at the
    # start state is the bridge, which the sweep must match
    pot = make_family("list", values=[0.15, 0.0, 0.3, 0.05])
    n = 12  # a bridge of length <= 8 from state <= 3 stays below state 8
    P = np.array([[K5.prob(b - a) for b in range(n)] for a in range(n)])
    for wall in range(4):
        eps = np.zeros(n)
        eps[wall:] = pot.eps_array(n - wall)
        DP = np.exp(eps)[:, None] * P
        W = P
        for L in range(1, 9):
            np.testing.assert_allclose(W, W.T, rtol=1e-12, atol=1e-300)
            z = math.exp(partition_profile(K5, L, wall=wall, pot=pot)[L])
            assert z == pytest.approx(W[wall, wall], rel=1e-13), (wall, L)
            W = W @ DP


@pytest.mark.parametrize("kspec, pspec, localized", [
    ("binomial:sigma2=0.5", "single:j=0,eps=0.8", True),
    ("sos:beta=2.5", "single:j=0,eps=0.5", True),
    ("binomial:sigma2=0.1", "power:delta=3,amp=0.3", True),
    ("binomial:sigma2=0.5", "single:j=0,eps=0.05", False),
])
def test_fixed_point_exit_matches_every_step(monkeypatch, kspec, pspec,
                                             localized):
    kernel = parse_kernel_spec(kspec)
    pot = parse_potential_spec(pspec)
    L = 8192
    window = _reference_window(kernel, L, 0, pot, 0)
    repeats = []
    last = [None]

    def on_step(t, v):  # a callback makes the sweep run every step
        if t >= 2 and np.array_equal(v, last[0]):
            repeats.append(t)
        last[0] = v

    ref, defect = _reference_sweep(kernel, L, window, _diag_for(window, pot),
                                   DEFECT_TOL, on_step)
    assert not defect
    steps = []
    sweep = transfer._sweep

    def counting(kernel, T, window, pot, read):
        defect, fixed = sweep(kernel, T, window, pot, read)
        steps.append(fixed[0] if fixed else T)
        return defect, fixed

    monkeypatch.setattr(transfer, "_sweep", counting)
    _assert_z_close(partition_profile(kernel, L, wall=0, pot=pot), ref)
    # localized sweeps hit the fixed point long before L, delocalized never
    assert (bool(repeats) and repeats[0] < L // 2) == localized
    assert len(steps) == 1 and (steps[0] < L // 2) == localized


def test_reward_beyond_float_range_is_parameter_error():
    with pytest.raises(ParameterError, match="float range"):
        partition_profile(K5, 16, wall=0,
                          pot=make_family("single", j=0, amplitude=1000.0))


def _midpoint_by_enumeration(kernel, L, js):
    """Midpoint probabilities from every bridge of length L, summed directly."""
    mid = L // 2
    steps = list(zip(kernel.offsets, kernel.probs))
    den = 0.0
    num = dict.fromkeys(js, 0.0)
    for path in itertools.product(steps, repeat=L):
        if sum(k for k, _ in path) != 0:
            continue
        w = math.prod(p for _, p in path)
        h_mid = sum(k for k, _ in path[:mid])
        low = min(h_mid, h_mid + path[mid][0])
        den += w
        for j in js:
            if low >= -j:
                num[j] += w
    return {j: num[j] / den for j in js}


def test_midpoint_matches_enumeration():
    for s2 in (0.5, 0.1):
        k = make_binomial(s2)
        profiles = {j: midpoint_prob(k, 9, j) for j in (0, 1)}
        for L in range(2, 10):
            want = _midpoint_by_enumeration(k, L, (0, 1))
            for j, p in want.items():
                assert midpoint_prob(k, L, j)[L] == pytest.approx(p, rel=1e-12)
                assert profiles[j][L] == pytest.approx(p, rel=1e-12)


def test_midpoint_profile_matches_per_scale():
    for k in (make_binomial(0.5), make_binomial(0.1), make_sos(2.5)):
        for j in (0, 3):
            L = 97
            prof = midpoint_prob(k, L, j)
            assert prof.shape == (L + 1,)
            for ell in range(2, L + 1):
                if j >= ell * k.max_step:
                    assert prof[ell] == 1.0
                else:
                    assert prof[ell] == pytest.approx(
                        midpoint_prob(k, ell, j)[ell], rel=1e-14)


def test_midpoint_examples():
    assert midpoint_prob(K5, 2, 0)[2] == pytest.approx(0.3125 / 0.375,
                                                       rel=1e-13)
    assert midpoint_prob(K5, 2, 5)[2] == 1.0  # constraint vacuous
    vals = [midpoint_prob(K5, 64, j)[64] for j in (0, 1, 2, 4)]
    assert vals == sorted(vals)  # nested events
    assert vals[0] <= 0.75


def test_zero_contact_moment():
    # E[e^{b sigma N / sqrt(L)}] for the free bridge
    def moment(L, b):
        return _contact_moment(L, b * math.sqrt(K5.sigma2 / L))

    assert moment(2, 0.0) == 1.0
    for b in (0.3, 0.7):
        # sigma / sqrt(2) = 1/2
        want = (0.125 + 0.25 * math.exp(b / 2)) / 0.375
        assert moment(2, b) == pytest.approx(want, rel=1e-13)
    vals = [moment(32, b) for b in (0.0, 0.2, 0.5, 1.0)]
    assert vals == sorted(vals)


def test_log_partition_convex_in_amplitude():
    base = make_family("list", values=[0.2, 0.1, 0.05])
    L = 48
    ts = np.linspace(0.0, 1.5, 7)
    g = [partition_profile(K5, L, wall=0, pot=base.scaled(t))[L] / L for t in ts]
    second = np.diff(g, 2)
    assert np.all(second >= -1e-9)


def test_matches_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(20):
        s2 = float(rng.uniform(0.05, 0.5))
        k = make_binomial(s2)
        L = int(rng.integers(2, 11))
        wall = int(rng.integers(0, 3)) if rng.random() < 0.7 else None
        pot = None
        if rng.random() < 0.7:
            pot = make_family(
                "list", values=rng.uniform(0.0, 0.5,
                                           size=rng.integers(1, 4)).tolist())
        z_t = math.exp(partition_profile(k, L, wall=wall, pot=pot)[L])
        z_o = oracle_partition(k, L, wall=wall, pot=pot)[L]
        assert z_t == pytest.approx(z_o, rel=1e-12)


def test_matches_oracle_sos_kernel():
    k = make_sos(3.0, tail_tol=1e-6)
    z_o = oracle_partition(k, 5)
    for L in range(1, 6):
        z_t = math.exp(partition_profile(k, L)[L])
        assert z_t == pytest.approx(z_o[L], rel=1e-12)


def test_local_clt_sandwich():
    for s2 in (0.1, 0.5):
        k = make_binomial(s2)
        prof = partition_profile(k, 1 << 12)
        for L in range(int(math.ceil(100 / s2)), (1 << 12) + 1, 97):
            val = math.sqrt(2 * math.pi * s2 * L) * math.exp(prof[L])
            assert abs(val - 1.0) <= 0.1


def test_window_covers_high_rewarded_level():
    # a strong reward at a level outside the diffusive range must still be
    # felt; sticking at level 60 already beats the free bridge by far
    pot = make_family("single", j=60, amplitude=1.2)
    L = 512
    z_pot = partition_profile(K5, L, wall=0, pot=pot)[L]
    stick = 120 * math.log(0.25) + (L - 121) * (math.log(0.5) + 1.2)
    assert z_pot >= stick - 1e-6
    assert z_pot > partition_profile(K5, L, wall=0)[L] + 100


def test_sos_kernel_end_to_end():
    k = make_sos(3.0)
    prof = partition_profile(k, 2048)
    val = math.sqrt(2 * math.pi * k.sigma2 * 2048) * math.exp(prof[2048])
    assert abs(val - 1.0) < 0.05
    assert midpoint_prob(k, 640, 0)[640] <= 0.75


def test_free_energy_zero_potential():
    fe = free_energy(K5, make_family("single", j=0, amplitude=0.0),
                     L_cross=512)
    assert fe.value == 0.0
    assert fe.cross_raw <= 0.0
    assert not fe.flagged


@pytest.mark.parametrize("kw", [
    {"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-4}, {"tol": math.inf},
])
def test_free_energy_rejects_bad_tolerance(kw):
    with pytest.raises(ParameterError, match="tol"):
        free_energy(K5, make_family("single", j=0, amplitude=0.8),
                    L_cross=64, **kw)


def test_free_energy_monotone_and_log2_note():
    f1 = free_energy(K5, make_family("single", j=0, amplitude=0.4),
                     L_cross=1024).value
    f2 = free_energy(K5, make_family("single", j=0, amplitude=0.8),
                     L_cross=1024).value
    assert 0 < f1 <= f2
    fe = free_energy(K5, make_family("single", j=1, amplitude=1.0),
                     L_cross=512)
    # stuck-at-level lower bound: log p(0) + eps > 0
    assert fe.value >= math.log(K5.prob(0)) + 1.0 - 0.01
    assert any("log 2" in line for line in fe.trace)


def test_free_energy_refuses_a_cross_check_below_the_float_range(
        monkeypatch):
    # a log Z below the float range reads -inf, and the slope would be NaN;
    # the two-leg read gives no such value (see the test below), so a
    # profile that has one stands in
    monkeypatch.setattr(transfer, "partition_profile",
                        lambda *args, **kw: np.full(129, -math.inf))
    pot = make_family("single", j=4, amplitude=246.0)
    with pytest.raises(RefusalError, match="cross-check"):
        free_energy(make_binomial(0.25), pot, L_cross=64)


def test_log_z_stays_finite_under_a_dominant_reward():
    # e^246 at level 4 leaves the height-0 weight below e^-709 of the peak;
    # the two-leg read multiplies vectors of max 1 and never reads it alone
    pot = make_family("single", j=4, amplitude=246.0)
    prof = partition_profile(make_binomial(0.25), 64, wall=0, pot=pot)
    assert np.isfinite(prof[1:]).all()
    assert abs(prof[8] - 229.36446766656132) <= 1e-13  # the oracle's value


def test_free_energy_first_window_stays_under_the_cap():
    # a support of ~2,150 levels asks for a first window of 4 (j_max + 1)
    # = 8620 rows; the eigen windows stop at 2^13 whatever the support
    fe = free_energy(K5, make_family("exp", delta=0.01, amplitude=0.01))
    assert fe.h_max <= 8192
