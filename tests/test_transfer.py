import itertools
import math

import numpy as np
import pytest

from wetting_lab.kernels import make_binomial, make_sos
from wetting_lab.potentials import make_family
from wetting_lab.rw_oracle import oracle_partition
from wetting_lab.transfer import (
    DEFECT_TOL,
    _diag_for,
    _sweep,
    _Window,
    free_energy,
    log_partition,
    midpoint_prob,
    partition_profile,
    pinned_expectation,
    zero_contact_moment,
)

K5 = make_binomial(0.5)


def test_two_step_bridge_values():
    assert math.exp(log_partition(K5, 2)) == pytest.approx(0.375, rel=1e-14)
    assert math.exp(log_partition(K5, 2, wall=0)) == pytest.approx(0.3125, rel=1e-14)


def test_one_step_bridge_is_p0():
    for k in (K5, make_binomial(0.1), make_sos(3.0)):
        assert math.exp(log_partition(k, 1)) == pytest.approx(k.prob(0), rel=1e-13)


def test_wall_only_costs_mass():
    for L in (2, 5, 8):
        zj = [log_partition(K5, L, wall=j) for j in (0, 1, 2)]
        zfree = log_partition(K5, L)
        assert zj[0] <= zj[1] <= zj[2] <= zfree + 1e-14


def test_pinned_expectation_formula_and_monotone():
    for eps in (0.0, 0.1, 0.4):
        want = (0.25 * math.exp(eps) + 0.0625) / 0.3125
        assert pinned_expectation(K5, 2, 0, eps) == pytest.approx(want, rel=1e-13)
    vals = [pinned_expectation(K5, 10, 1, e) for e in (0.0, 0.05, 0.1, 0.2)]
    assert vals == sorted(vals)
    assert vals[0] == pytest.approx(1.0)


def test_partition_monotone_in_each_level():
    base = make_family("list", values=[0.1, 0.05, 0.02])
    z0 = log_partition(K5, 8, wall=0, pot=base)
    for lvl in range(3):
        values = list(base.eps)
        values[lvl] += 0.05
        z1 = log_partition(K5, 8, wall=0, pot=make_family("list", values=values))
        assert z1 > z0


def test_zero_potential_step_matches_plain():
    zero = make_family("list", values=[0.0, 0.0])
    for wall in (None, 0):
        a = partition_profile(K5, 64, wall=wall, pot=zero)
        b = partition_profile(K5, 64, wall=wall, pot=None)
        assert np.array_equal(a, b)


def test_defect_flag_trips_on_tiny_window():
    window = _Window(base=0, n=3, start=0, end=0, walled=True)
    _, defect, _ = _sweep(K5, 12, window, None, DEFECT_TOL)
    assert defect


def test_full_matrix_symmetry():
    pot = make_family("list", values=[0.15, 0.0, 0.3, 0.05])
    n = 9
    L = 5
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            window = _Window(base=0, n=n, start=i, end=j, walled=True)
            # the window is deliberately tight: weights, not the flag, matter
            logz, _, _ = _sweep(K5, L, window, _diag_for(window, pot, None),
                                math.inf)
            W[i, j] = math.exp(logz[L])
    np.testing.assert_allclose(W, W.T, rtol=1e-12, atol=1e-300)


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
        for L in range(2, 10):
            want = _midpoint_by_enumeration(k, L, (0, 1))
            for j, p in want.items():
                assert midpoint_prob(k, L, j) == pytest.approx(p, rel=1e-12)


def test_midpoint_examples():
    assert midpoint_prob(K5, 2, 0) == pytest.approx(0.3125 / 0.375, rel=1e-13)
    assert midpoint_prob(K5, 2, 5) == 1.0  # constraint vacuous
    vals = [midpoint_prob(K5, 64, j) for j in (0, 1, 2, 4)]
    assert vals == sorted(vals)  # nested events
    assert vals[0] <= 0.75


def test_zero_contact_moment():
    assert zero_contact_moment(K5, 2, 0.0) == 1.0
    for b in (0.3, 0.7):
        want = (0.125 + 0.25 * math.exp(b * K5.sigma / math.sqrt(2))) / 0.375
        assert zero_contact_moment(K5, 2, b) == pytest.approx(want, rel=1e-13)
    vals = [zero_contact_moment(K5, 32, b) for b in (0.0, 0.2, 0.5, 1.0)]
    assert vals == sorted(vals)


def test_log_partition_convex_in_amplitude():
    base = make_family("list", values=[0.2, 0.1, 0.05])
    L = 48
    ts = np.linspace(0.0, 1.5, 7)
    g = [log_partition(K5, L, wall=0, pot=base.scaled(t)) / L for t in ts]
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
        z_t = math.exp(log_partition(k, L, wall=wall, pot=pot))
        z_o = oracle_partition(k, L, wall=wall, pot=pot, mode="float")
        assert z_t == pytest.approx(z_o, rel=1e-12)


def test_matches_oracle_sos_kernel():
    k = make_sos(3.0, tail_tol=1e-6)
    for L in range(1, 6):
        z_t = math.exp(log_partition(k, L))
        z_o = oracle_partition(k, L, mode="float")
        assert z_t == pytest.approx(z_o, rel=1e-12)


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
    z_pot = log_partition(K5, L, wall=0, pot=pot)
    stick = 120 * math.log(0.25) + (L - 121) * (math.log(0.5) + 1.2)
    assert z_pot >= stick - 1e-6
    assert z_pot > log_partition(K5, L, wall=0) + 100


def test_sos_kernel_end_to_end():
    k = make_sos(3.0)
    prof = partition_profile(k, 2048)
    val = math.sqrt(2 * math.pi * k.sigma2 * 2048) * math.exp(prof[2048])
    assert abs(val - 1.0) < 0.05
    assert midpoint_prob(k, 640, 0) <= 0.75


def test_free_energy_zero_potential():
    fe = free_energy(K5, make_family("single", j=0, amplitude=0.0),
                     L_cross=512)
    assert fe.value == 0.0
    assert fe.cross_raw <= 0.0
    assert not fe.flagged


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
