import itertools
import math
import tracemalloc

import numpy as np
import pytest

from wetting_lab import spectral
from wetting_lab.certificates import LOCALIZED, UNDETERMINED
from wetting_lab.errors import ParameterError
from wetting_lab.kernels import make_binomial, make_sos
from wetting_lab.potentials import make_family
from wetting_lab.spectral import (
    _EPS_MAX,
    _min_pivot,
    localization_certificate,
    pinned_operator,
    sine_profile_bound,
    top_eigenvalue,
)

K5 = make_binomial(0.5)
K1 = make_binomial(0.1)


def test_window_zero_quotients():
    zero = make_family("single", j=0, amplitude=0.0)
    assert sine_profile_bound(K5, zero, 0).quotient == pytest.approx(0.5)
    for eps in (0.3, 1.0):
        pot = make_family("single", j=0, amplitude=eps)
        q = sine_profile_bound(K5, pot, 0).quotient
        assert q == pytest.approx(math.exp(eps) * 0.5, rel=1e-13)


def test_unpinned_quotient_below_one():
    zero = make_family("list", values=[0.0])
    for d in (0, 1, 5, 17, 64):
        assert sine_profile_bound(K5, zero, d).quotient <= 1.0 + 1e-12


def test_quotient_monotone_in_scale():
    pot = make_family("exp", delta=1.0, amplitude=0.05)
    q = [sine_profile_bound(K1, pot.scaled(t), 6).quotient
         for t in (0.5, 1.0, 2.0, 4.0)]
    assert q == sorted(q)


def _dense(op):
    """The operator's explicit matrix, entry by entry (small dims only)."""
    m = op.max_step
    out = np.zeros((op.dim, op.dim))
    for i in range(op.dim):
        for j in range(max(0, i - m), min(op.dim, i + m + 1)):
            out[i, j] = op.stencil[i - j + m] * op.exp_half[i] * op.exp_half[j]
    return out


def test_operator_dense_matches_matvec():
    # dims 1..24 cover windows smaller than, equal to and just past the
    # sos stencil (max_step 11, 23 taps)
    pot = make_family("list", values=[0.2, 0.0, 0.4, 0.1])
    rng = np.random.default_rng(3)
    for kernel, h in itertools.product((K5, make_sos(2.5)), range(24)):
        op = pinned_operator(kernel, pot, h)
        dense = _dense(op)
        for _ in range(3):
            x = rng.normal(size=op.dim)
            np.testing.assert_allclose(op.matvec(x), dense @ x, rtol=1e-12)
        np.testing.assert_allclose(dense, dense.T)
        assert np.all(dense >= 0)
        assert dense.sum(axis=1).max() <= math.exp(max(pot.eps)) + 1e-12


def test_top_eigenvalue_1x1_and_substochastic():
    pot = make_family("single", j=0, amplitude=0.7)
    est = top_eigenvalue(pinned_operator(K5, pot, 0))
    assert est.value == pytest.approx(math.exp(0.7) * 0.5, rel=1e-12)
    assert est.residual < 1e-12
    assert est.converged
    zero = make_family("single", j=0, amplitude=0.0)
    est = top_eigenvalue(pinned_operator(K5, zero, 64), tol=1e-10)
    assert est.value <= 1.0 + 1e-9


def test_top_eigenvalue_converges_near_the_transition():
    # near the transition the top eigenvalue stands only 6e-4 clear of the
    # rest of the spectrum; the Ritz vector must still reach it to rounding
    pot = make_family("single", j=0, amplitude=0.0575)
    op = pinned_operator(K1, pot, 128)
    est = top_eigenvalue(op, tol=spectral._EIG_TOL)
    assert abs(est.value - np.linalg.eigvalsh(_dense(op))[-1]) <= 1e-12
    assert est.converged
    # a delocalized window has no isolated top eigenvalue and may stop on
    # the Ritz-value rule: the flag must still follow the residual
    tol = spectral._EIG_TOL
    est = top_eigenvalue(pinned_operator(
        K1, make_family("single", j=0, amplitude=0.01), 8192), tol=tol)
    assert est.converged == (est.residual <= tol * max(1.0, abs(est.value)))
    assert est.value < 1.0


@pytest.mark.parametrize("kernel", [K1, make_sos(2.5)],
                         ids=lambda k: k.spec_string())
def test_top_eigenvalue_matches_the_dense_spectrum(kernel):
    # windows shorter than, equal to and longer than the 64-vector basis
    pot = make_family("list", values=[0.3, 0.0, 0.5, 0.2])
    for h in (0, 1, 5, 62, 63, 64, 100):
        op = pinned_operator(kernel, pot, h)
        est = top_eigenvalue(op)
        assert est.converged, (h, est)
        assert est.value == pytest.approx(np.linalg.eigvalsh(_dense(op))[-1],
                                          abs=1e-12)


def _recorded_top_eigenvalue(monkeypatch):
    calls = []

    def record(op, tol=1e-10):
        est = top_eigenvalue(op, tol)
        calls.append((op.dim, est))
        return est
    monkeypatch.setattr(spectral, "top_eigenvalue", record)
    return calls


def test_lanczos_work_and_memory_stay_bounded(monkeypatch):
    # the threshold workload's two eigen-window points (sigma2=0.1): three
    # restart cycles of the 64-vector basis (194 matvecs) reach the
    # tolerance on each window
    calls = _recorded_top_eigenvalue(monkeypatch)
    for eps in (0.0575, 0.105):
        cert = localization_certificate(K1, make_family("single", j=0,
                                                        amplitude=eps))
        assert cert.spectral["route"] == "power_iteration"
    assert calls
    for dim, est in calls:
        assert est.converged and est.iterations <= 512, (dim, est)
    # the basis keeps at most 64 rows of the window: 4.2 MB at [0, 8192]
    op = pinned_operator(K1, make_family("list", values=[0.0]), 8192)
    tracemalloc.start()
    try:
        top_eigenvalue(op, tol=spectral._EIG_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("kernel,eps_eig", [(K5, 0.4), (make_sos(2.5), 0.15)],
                         ids=["binomial-0.5", "sos-2.5"])
def test_rewards_up_to_the_float_limit_never_overflow(kernel, eps_eig):
    # the Lanczos cycles run on A e^{-max eps}; unscaled, a reward of
    # _EPS_MAX overflows the basis dot products
    pots = (make_family("single", j=0, amplitude=_EPS_MAX),
            make_family("single", j=5, amplitude=_EPS_MAX),
            make_family("list", values=[_EPS_MAX, 0.0, 0.5 * _EPS_MAX]),
            make_family("exp", delta=1.0, amplitude=_EPS_MAX))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for pot, h in itertools.product(pots, (8, 200)):
            est = top_eigenvalue(pinned_operator(kernel, pot, h))
            assert math.isfinite(est.value) and est.value > 1.0
            assert math.isfinite(est.residual)
            assert est.residual <= 1e-10 * est.value
        # rewards above log 2 take the indicator route; eps_eig is
        # localized by the eigen windows
        for pot in pots:
            cert = localization_certificate(kernel, pot)
            assert cert.spectral["route"] == "indicator"
        cert = localization_certificate(
            kernel, make_family("single", j=0, amplitude=eps_eig))
        assert cert.spectral["route"] == "power_iteration"


def test_power_iteration_value_is_rayleigh_lower_bound():
    for eps in (0.01, 0.0575, 0.2):
        op = pinned_operator(K1, make_family("single", j=0, amplitude=eps), 128)
        exact = np.linalg.eigvalsh(_dense(op))[-1]
        est = top_eigenvalue(op)
        assert est.value <= exact + 1e-12
        assert abs(est.value - exact) <= est.residual + 1e-12


def test_rayleigh_consistency():
    # the sine quotient never exceeds the top eigenvalue of the same window
    for eps, d in ((0.2, 4), (0.5, 2), (1.2, 7)):
        pot = make_family("single", j=0, amplitude=eps)
        q = sine_profile_bound(K5, pot, d).quotient
        est = top_eigenvalue(pinned_operator(K5, pot, d))
        assert q <= est.value + est.residual + 1e-12


def test_localization_certificate_verdicts():
    zero = make_family("single", j=0, amplitude=0.0)
    assert localization_certificate(K5, zero).verdict == UNDETERMINED

    pot = make_family("single", j=0, amplitude=1.0)
    cert = localization_certificate(K5, pot)
    assert cert.verdict == LOCALIZED
    assert cert.spectral["quotient"] == pytest.approx(math.e * 0.5, rel=1e-12)
    assert cert.spectral["rate"] > 0

    # below log 2 the sine route fires once eps > -log(1 - sigma2)
    pot = make_family("single", j=0, amplitude=0.2)
    cert = localization_certificate(K1, pot)
    assert cert.verdict == LOCALIZED
    assert cert.spectral["route"] == "sine"


def test_pinned_operator_refuses_rewards_beyond_float_range():
    with pytest.raises(ParameterError, match="float range"):
        pinned_operator(K5, make_family("single", j=0, amplitude=400.0), 8)
    # at the largest accepted reward ||Ax||^2 of a unit vector stays finite
    top = make_family("single", j=0, amplitude=_EPS_MAX)
    for kernel in (K5, make_sos(2.5)):
        op = pinned_operator(kernel, top, 8)
        x = np.zeros(op.dim)
        x[0] = 1.0
        ax = op.matvec(x)
        assert math.isfinite(ax @ ax)
        eig = top_eigenvalue(op)
        assert math.isfinite(eig.value) and eig.value > 1.0


def test_certificate_scales_upward():
    pot = make_family("single", j=0, amplitude=0.25)
    c1 = localization_certificate(K1, pot)
    c2 = localization_certificate(K1, pot.scaled(2.0))
    assert c1.verdict == LOCALIZED and c2.verdict == LOCALIZED
    assert c2.spectral["rate"] >= c1.spectral["rate"]


def test_rate_scales_like_sigma2_over_window_squared():
    # pinning tuned so the windowed average equals a*sigma2 at window d;
    # certified rates, normalised by sigma2/(d+1)^2, stay within a factor 4
    a = 6.0
    normalized = []
    for s2 in (0.1, 0.5):
        kernel = make_binomial(s2)
        for d in (2, 4, 8):
            j = d // 2
            eps = a * s2 * (d + 1) / (j + 1) ** 2
            pot = make_family("single", j=j, amplitude=eps)
            best = 0.0
            dd = 0
            while dd <= 4 * (d + 1):
                best = max(best, sine_profile_bound(kernel, pot, dd).quotient)
                dd = dd + 1 if dd < 4 else dd * 2
            assert best > 1.0, (s2, d)
            normalized.append(math.log(best) * (d + 1) ** 2 / s2)
    assert max(normalized) / min(normalized) <= 4.0


def test_certificate_appears_when_amplitude_swept_up():
    for s2, j in ((0.1, 0), (0.5, 2)):
        kernel = make_binomial(s2)
        found = None
        for a in np.arange(0.5, 30.1, 0.5):
            pot = make_family("single", j=j, amplitude=a * s2 / (j + 1))
            if localization_certificate(kernel, pot).verdict == LOCALIZED:
                found = a
                break
        assert found is not None and found <= 30


_PIVOT_POTS = (
    lambda a: make_family("single", j=0, amplitude=a),
    lambda a: make_family("single", j=3, amplitude=a),
    lambda a: make_family("exp", delta=1.0, amplitude=a),
    lambda a: make_family("power", delta=2.0, amplitude=a),
)


@pytest.mark.parametrize("kernel", [K1, make_binomial(0.25), K5,
                                    make_sos(2.5)],
                         ids=lambda k: k.spec_string())
def test_min_pivot_sign_matches_dense_spectrum(kernel):
    # blocks are 64 rows: h=5 is one block shorter than the sos stencil
    # (m=11), h=130 ends on a 3-row block (shorter than m) and h=200 on a
    # 9-row one
    signs = set()
    for mk, a in itertools.product(_PIVOT_POTS, np.geomspace(0.005, 0.4, 9)):
        pot = mk(a)
        for h, shift in itertools.product((5, 40, 130, 200),
                                          (1.0, 1.0 + 1e-8)):
            op = pinned_operator(kernel, pot, h)
            lam = np.linalg.eigvalsh(shift * np.eye(op.dim) - _dense(op))[0]
            pivot = _min_pivot(op, shift)
            assert (pivot > 0.0) == (lam > 0.0), (pot.spec_string(), h)
            if pivot > 0.0:
                # pivot k is 1 / (M_k^-1)_kk for the leading block M_k,
                # so at least lambda_min(M_k) >= lambda_min(M)
                assert lam <= pivot * (1.0 + 1e-9)
            signs.add(lam > 0.0)
    assert signs == {True, False}


def test_min_pivot_of_one_row_and_free_walk():
    pot = make_family("single", j=0, amplitude=0.3)
    op = pinned_operator(K5, pot, 0)
    assert _min_pivot(op, 1.0) == pytest.approx(1.0 - 0.5 * math.exp(0.3),
                                                rel=1e-12)
    # the free walk's top eigenvalue stays below 1 on every window
    zero = make_family("list", values=[0.0])
    assert _min_pivot(pinned_operator(K1, zero, 8192), 1.0) > 0.0


@pytest.mark.parametrize("kernel", [K1, make_binomial(0.25), K5,
                                    make_sos(2.5)],
                         ids=lambda k: k.spec_string())
def test_far_end_pivot_sign_matches_dense_spectrum(monkeypatch, kernel):
    # rewards straddle the 64-row block edges (j=63 and the exp and power
    # tails); h=64 ends on a 1-row block, shorter than the sos stencil
    # (m=11), and h=129 on a 2-row one; the free rows ahead of the rewards,
    # all rows of the all-free window, come from the cache in whole blocks
    rows = []
    real = spectral._free_blocks

    def counting(stencil, m, shift, n):
        rows.append(n)
        return real(stencil, m, shift, n)

    monkeypatch.setattr(spectral, "_free_blocks", counting)
    free = make_family("list", values=[0.0])
    pots = [free] + [mk(a) for mk, a in itertools.product(
        _PIVOT_POTS[1:] + (lambda a: make_family("single", j=63,
                                                 amplitude=a),),
        np.geomspace(0.005, 0.4, 5))]
    signs = set()
    for pot, h in itertools.product(pots, (63, 64, 65, 128, 129, 300)):
        op = pinned_operator(kernel, pot, h)
        dense = _dense(op)
        for shift in (1.0, 1.0 + 1e-8):
            lam = np.linalg.eigvalsh(shift * np.eye(op.dim) - dense)[0]
            pivot = _min_pivot(op, shift)
            assert (pivot > 0.0) == (lam > 0.0), (pot.spec_string(), h)
            if pivot > 0.0:
                assert lam <= pivot * (1.0 + 1e-9)
            signs.add(lam > 0.0)
    assert signs == {True, False}
    assert {0, 64, 128, 192, 256} <= set(rows)


def test_free_block_cache_is_exact():
    spectral._free_blocks.cache_clear()
    pot = make_family("single", j=3, amplitude=0.005)
    for kernel in (K1, make_sos(2.5)):
        op = pinned_operator(kernel, pot, 1000)
        before = spectral._free_blocks.cache_info()
        cold = _min_pivot(op, 1.0 + 1e-8)
        warm = _min_pivot(op, 1.0 + 1e-8)
        info = spectral._free_blocks.cache_info()
        assert cold == warm > 0.0
        # the same elimination without the cache, rewarded rows last
        assert cold == spectral._eliminate(op.stencil, op.max_step,
                                           1.0 + 1e-8, op.exp_half[::-1])[0]
        assert (info.misses - before.misses, info.hits - before.hits) == (1, 1)
        # a second amplitude on the same kernel reuses the free rows
        _min_pivot(pinned_operator(kernel, pot.scaled(1.5), 1000), 1.0 + 1e-8)
        after = spectral._free_blocks.cache_info()
        assert (after.misses, after.hits) == (info.misses, info.hits + 1)
    state = spectral._free_blocks(K1.prob_array().tobytes(), 1, 1.0, 128)
    with pytest.raises(ValueError):
        state[1][0, 0] = 0.0


def test_localized_window_stops_in_its_leading_block(monkeypatch):
    # at eps = 0.0575 the leading 64 rows alone are not positive definite,
    # so a cold cache stays cold; near the transition (0.0515) the leading
    # block passes and the far end decides, as without the first block
    spectral._free_blocks.cache_clear()
    rows = []
    real = spectral._free_blocks

    def counting(stencil, m, shift, n):
        rows.append(n)
        return real(stencil, m, shift, n)

    monkeypatch.setattr(spectral, "_free_blocks", counting)
    shift = 1.0 + 1e-8
    for kernel, eps in ((K1, 0.0575), (make_sos(2.5), 0.105)):
        pot = make_family("single", j=0, amplitude=eps)
        assert _min_pivot(pinned_operator(kernel, pot, 8192), shift) == 0.0
    assert rows == []
    assert real.cache_info().currsize == 0
    op = pinned_operator(K1, make_family("single", j=0, amplitude=0.0515),
                         8192)
    assert spectral._eliminate(op.stencil, 1, shift, op.exp_half[:64])[0] > 0
    assert _min_pivot(op, shift) == 0.0
    assert rows == [8192]


def test_inertia_row_moves_with_the_reward(monkeypatch):
    # the threshold workload's three points ruled out by inertia; eliminated
    # from the far end, the 8,192 free rows reach the bulk pivot 0.050022
    # for all three, and the smallest pivot falls in the last rows, where
    # the reward sits
    real = spectral._min_pivot
    calls = []

    def counting(op, shift):
        calls.append(op.dim)
        return real(op, shift)

    monkeypatch.setattr(spectral, "_min_pivot", counting)
    measured = []
    for eps in (0.01, 0.03375, 0.045625):
        pot = make_family("single", j=0, amplitude=eps)
        calls.clear()
        cert = localization_certificate(K1, pot)
        assert calls == [8193]
        row = cert.evidence[-1]
        assert row.check == "inertia"
        assert row.measured == real(pinned_operator(K1, pot, 8192),
                                    1.0 + 1e-8)
        measured.append(row.measured)
    assert measured[0] > measured[1] > measured[2] > 0.0


def _loc_key(cert):
    return cert.verdict, cert.spectral


@pytest.mark.parametrize("kernel,pots,n_inertia", [
    # the three undetermined points of the threshold workload, one just
    # above eps_c = 0.05129 that only a window of 2048 localizes, one
    # localized well above, and a sine one
    (K1, [make_family("single", j=0, amplitude=a)
          for a in (0.01, 0.03375, 0.045625, 0.0515, 0.0575, 0.2)], 3),
    (K5, [make_family("exp", delta=1.0, amplitude=a)
          for a in (0.02, 0.2, 0.3)], 1),
], ids=["binomial-0.1-single", "binomial-0.5-exp"])
def test_inertia_shortcut_keeps_every_verdict(monkeypatch, kernel, pots,
                                              n_inertia):
    fast = [localization_certificate(kernel, p) for p in pots]
    monkeypatch.setattr(spectral, "_min_pivot", lambda op, shift: 0.0)
    slow = [localization_certificate(kernel, p) for p in pots]
    assert [_loc_key(c) for c in fast] == [_loc_key(c) for c in slow]
    assert {c.verdict for c in fast} == {LOCALIZED, UNDETERMINED}
    ruled_out = [c for c in fast if c.evidence[-1].check == "inertia"]
    assert len(ruled_out) == n_inertia
    for cert in ruled_out:
        row = cert.evidence[-1]
        assert cert.verdict == UNDETERMINED
        assert (row.scale, row.threshold, row.passed) == (8192, 0.0, False)
        assert row.measured > 0.0
        assert all(e.check == "sine_quotient" for e in cert.evidence[:-1])


def _full_d_grid(pot):
    """The sine grid with windows 2j and 2j + 2 for every support level."""
    grid = {0, 1, 2, 3}
    d = 4
    while d <= max(4 * (pot.j_max + 1), 64):
        grid.add(d)
        d *= 2
    for j in pot.support:
        grid.update((2 * j, 2 * j + 2))
    return sorted(grid)


def test_sine_grid_stays_bounded_on_long_tails():
    pot = make_family("power", delta=1.0, amplitude=0.01)
    assert len(pot.support) > 10_000
    grid = spectral._default_d_grid(pot)
    # dyadic windows up to 4 (j_max + 1) plus two per rewarded level kept
    assert len(grid) <= 5 + math.log2(4 * (pot.j_max + 1)) + 2 * 64
    assert max(grid) <= 4 * (pot.j_max + 1)
    # a support of at most 64 levels keeps every per-level window
    for short in (make_family("power", delta=4.0, amplitude=0.2),
                  make_family("exp", delta=1.0, amplitude=0.2),
                  make_family("list", values=[0.1] * 64)):
        assert len(short.support) <= 64
        assert spectral._default_d_grid(short) == _full_d_grid(short)


@pytest.mark.parametrize("kernel, family, delta, amp", [
    (K1, "power", 1.5, 0.05),   # localized by the eigen windows
    (K1, "power", 2.0, 0.2),    # localized by a sine window
    (K5, "power", 2.0, 0.2),    # undetermined
    (make_sos(2.5), "power", 1.5, 0.2),
    (make_sos(2.5), "power", 2.0, 0.05),
], ids=["binomial0.1-power1.5-0.05", "binomial0.1-power2-0.2",
        "binomial0.5-power2-0.2", "sos2.5-power1.5-0.2", "sos2.5-power2-0.05"])
def test_bounded_sine_grid_keeps_the_verdict(monkeypatch, kernel, family,
                                             delta, amp):
    pot = make_family(family, delta=delta, amplitude=amp)
    assert len(pot.support) > 64
    bounded = localization_certificate(kernel, pot)
    monkeypatch.setattr(spectral, "_default_d_grid", _full_d_grid)
    full = localization_certificate(kernel, pot)
    assert (bounded.verdict, bounded.spectral) == (full.verdict, full.spectral)


@pytest.mark.parametrize("kernel,pot,stub,verdict,route,notes,checks", [
    (K5, make_family("single", j=0, amplitude=1.0), False, LOCALIZED,
     "indicator", ("reward above log 2 localizes on its own",),
     ["stuck_at_level_quotient"]),
    (K1, make_family("power", delta=2.0, amplitude=0.2), False, LOCALIZED,
     "sine", ("rigorous modulo floating point",), ["sine_quotient"]),
    (K1, make_family("single", j=0, amplitude=0.01), False, UNDETERMINED,
     None, ("no certificate found",
            "(1 + 1e-08) I - A is positive definite on [0, 8192], so no "
            "eigen window up to it can localize"),
     ["sine_quotient", "inertia"]),
    (K1, make_family("single", j=0, amplitude=0.0575), False, LOCALIZED,
     "power_iteration", ("rigorous modulo floating point",),
     ["sine_quotient", "top_eigenvalue"]),
    # just above eps_c = 0.05129: the top eigenvalue on [0, 2048] is
    # 1 + 5.49e-8 (dense eigvalsh), but the Lanczos value settles there,
    # unconverged, below 1 + 1e-8 (1 + 9.16e-9)
    (K1, make_family("single", j=0, amplitude=0.05135), True, UNDETERMINED,
     None, ("no certificate found",), ["sine_quotient", "top_eigenvalue"]),
], ids=["indicator", "sine", "inertia", "eigen-localized",
        "eigen-undetermined"])
def test_every_localization_exit(monkeypatch, kernel, pot, stub, verdict,
                                 route, notes, checks):
    if stub:
        monkeypatch.setattr(spectral, "_min_pivot", lambda op, shift: 0.0)
    cert = localization_certificate(kernel, pot)
    assert cert.verdict == verdict
    assert (cert.spectral or {}).get("route") == route
    assert cert.notes == notes
    assert list(dict.fromkeys(e.check for e in cert.evidence)) == checks
    assert cert.params == {"kernel": kernel.spec_string(),
                           "pot": pot.spec_string(), "sigma2": kernel.sigma2}
