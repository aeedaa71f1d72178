import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from wetting_lab import certify, potentials, spectral
from wetting_lab.certificates import (
    Certificate,
    DELOCALIZED_EMPIRICAL,
    Evidence,
    LOCALIZED,
    UNDETERMINED,
)
from wetting_lab.errors import ParameterError
from wetting_lab.kernels import make_binomial, parse_kernel_spec
from wetting_lab.potentials import make_family, parse_potential_spec, rho
from wetting_lab.certify import (
    ScanPoint,
    base_case_check,
    base_scale,
    delocalization_certificate,
    doubling_step_check,
    free_energy_crossing,
    max_feasible_delta,
    phase_scan,
    scalar_step_bound,
    wetting_threshold,
)
from wetting_lab.transfer import midpoint_prob, partition_profile

K5 = make_binomial(0.5)
K1 = make_binomial(0.1)


def test_base_case_b0_always_passes():
    res = base_case_check(K5, 1, 0.0, 64)
    assert res.max_ratio <= 1.0 + 0.05
    assert res.max_ratio <= 1.0 + 1e-12


def test_base_case_moderate_b():
    res = base_case_check(K5, 0, 0.1, 16)
    assert res.max_ratio <= 1.0 + 1.0
    # the L=2 point of the same ratio, by hand
    eps = 0.1 * 0.5
    want = (0.25 * math.exp(eps) + 0.0625) / 0.375
    got = math.exp(
        partition_profile(K5, 2, wall=0,
                          pot=make_family("single", j=0, amplitude=eps))[2]
        - partition_profile(K5, 2)[2])
    assert got == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(0.8675, abs=2e-4)


def test_base_case_fails_far_supercritical():
    res = base_case_check(K5, 0, 5.0, 16)
    assert res.max_ratio > 1.0 + 1.0


def test_scalar_step_examples():
    assert scalar_step_bound(1.0, 0.05) == pytest.approx(3.316, abs=2e-3)
    assert scalar_step_bound(1.0, 0.05) > 2.0  # fails at delta=1
    assert scalar_step_bound(0.1, 0.01) == pytest.approx(0.926, abs=1e-3)
    assert scalar_step_bound(0.1, 0.01) <= 1.1  # passes at delta=0.1
    # the feasible window solves the fixed point exactly
    d = max_feasible_delta(0.02)
    assert scalar_step_bound(d, 0.02) == pytest.approx(1.0 + d, rel=1e-12)
    # past the float range: no feasible delta, and a scalar no delta meets
    assert max_feasible_delta(1000.0) == -1.0
    assert scalar_step_bound(1e200, 0.01) == math.inf
    assert scalar_step_bound(0.1, 1000.0) == math.inf


def test_doubling_step_passes_normally():
    # the window reads its slice of the profile swept to L_max = 64
    res = doubling_step_check(K5, 0, 0.1, 0.1, 1, 64)
    assert res.passed
    assert res.worst_midpoint <= 0.75
    assert res.scalar_value <= 1.1
    # every scale of the window (16, 32] is checked
    assert list(res.samples) == list(range(17, 33))
    assert res.worst_midpoint == pytest.approx(max(
        midpoint_prob(K5, L, 0)[L] for L in res.samples), rel=1e-14)


def test_doubling_step_fails_when_wall_unfelt(monkeypatch):
    # tiny scale constant puts every L of the window below the wall's reach
    monkeypatch.setattr(certify, "SCALE_CONSTANT", 0.02)
    res = doubling_step_check(K5, 10, 0.1, 0.3, 1, 64)
    assert list(res.samples) == list(range(6, 11))
    assert res.worst_midpoint == 1.0
    assert not res.passed


def test_deloc_zero_potential_trivial():
    pot = make_family("single", j=0, amplitude=0.0)
    cert = delocalization_certificate(K5, pot, b=1.0, L_max=256)
    assert cert.verdict == DELOCALIZED_EMPIRICAL
    assert cert.valid_up_to == 256
    assert all(e.passed for e in cert.evidence)


def test_deloc_exponential_instance_passes():
    # multi-level instance with rho tied to b through the decoupling weights
    k = make_binomial(0.25)
    pot = make_family("exp", delta=1.0, amplitude=0.05 * 0.25)
    cert = delocalization_certificate(k, pot, b=rho(pot, 0.25).upper,
                                      L_max=4096)
    assert cert.verdict == DELOCALIZED_EMPIRICAL
    checks = {e.check.split("[")[0] for e in cert.evidence}
    assert {"decoupling_weight_sum", "base_ratio", "doubling",
            "recombined_ratio"} <= checks
    assert max(e.measured for e in cert.evidence
               if e.check == "recombined_ratio") <= 4.0


def test_deloc_supercritical_fails():
    pot = make_family("single", j=0, amplitude=0.1)  # above the threshold
    cert = delocalization_certificate(K1, pot, b=rho(pot, 0.1).value,
                                      L_max=1024)
    assert cert.verdict == UNDETERMINED
    assert cert.notes


def test_deloc_below_base_scale_is_undetermined():
    # L_1 = 8 (j+1)^2 / sigma^2 = 16 here: an L_max short of it covers none
    # of the induction and must not be labelled delocalized
    pot = make_family("single", j=0, amplitude=0.01)
    b = rho(pot, 0.5).upper
    for L_max in (1, 15):
        cert = delocalization_certificate(K5, pot, b=b, L_max=L_max)
        assert cert.verdict == UNDETERMINED
        assert cert.valid_up_to is None
        assert "L_1=16" in cert.notes[0]
    cert = delocalization_certificate(K5, pot, b=b, L_max=16)
    assert cert.verdict == DELOCALIZED_EMPIRICAL
    # the floor is the smallest level's base scale (j=2 alone: L_1 = 144)
    pot = make_family("single", j=2, amplitude=0.01)
    assert "L_1=144" in delocalization_certificate(
        K5, pot, b=b, L_max=100).notes[0]


def test_deloc_nonsummable_power_is_refused_cleanly():
    pot = make_family("power", delta=0.5, amplitude=0.05, sign="-")
    cert = delocalization_certificate(K5, pot, b=rho(pot, 0.5).value,
                                      L_max=512)
    assert cert.verdict == UNDETERMINED  # infinite weighted tail


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_deloc_large_b_keeps_evidence_finite():
    # b = 100 puts a reward of 50 on the base-case pinned bridge, whose
    # ratio to the free one leaves the float range at L = 16
    pot = make_family("single", j=0, amplitude=0.01)
    for delta in (None, 0.1):
        cert = delocalization_certificate(K5, pot, b=100.0, delta=delta,
                                          L_max=64)
        assert cert.verdict == UNDETERMINED
        assert all(math.isfinite(e.measured) for e in cert.evidence)
        json.loads(json.dumps(asdict(cert)),
                   parse_constant=_refuse_constant)


@pytest.mark.parametrize("kernel, pot", itertools.product(
    ["binomial:sigma2=0.1", "binomial:sigma2=0.5", "sos:beta=2.5"],
    ["single:j=0,eps=0.05", "exp:delta=1,amp=0.05", "power:delta=3,amp=0.05",
     "single:j=0,eps=700"]))
def test_sweeps_and_induction_raise_no_float_error(kernel, pot):
    kernel, pot = parse_kernel_spec(kernel), parse_potential_spec(pot)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        prof = partition_profile(kernel, 256, wall=0, pot=pot)
        mid = midpoint_prob(kernel, 256, 0)
        cert = delocalization_certificate(kernel, pot, L_max=256)
    assert np.isfinite(prof[1:]).all()
    assert ((0.0 < mid) & (mid <= 1.0)).all()
    assert all(math.isfinite(e.measured) for e in cert.evidence)


def test_deloc_log2_shortcircuit():
    pot = make_family("single", j=0, amplitude=2.5)
    cert = delocalization_certificate(K5, pot, b=1.0, L_max=128)
    assert cert.verdict == UNDETERMINED
    assert "log 2" in cert.notes[0]


def test_certificate_construction_rules():
    with pytest.raises(ValueError):
        Certificate(verdict=LOCALIZED, evidence=(), params={})
    bad = Evidence(scale=1, check="x", measured=2.0, threshold=1.0,
                   passed=False)
    with pytest.raises(ValueError):
        Certificate(verdict=DELOCALIZED_EMPIRICAL, evidence=(bad,), params={})


def test_certificate_json_schema():
    pot = make_family("single", j=0, amplitude=0.0)
    cert = delocalization_certificate(K5, pot, b=1.0, L_max=64)
    blob = json.loads(json.dumps(asdict(cert)))
    assert set(blob) == {"verdict", "params", "valid_up_to", "spectral",
                         "notes", "evidence"}
    assert blob["evidence"][0].keys() >= {"scale", "check", "measured",
                                          "threshold", "passed"}


def test_wetting_threshold_contract():
    def mk(amp):
        return make_family("single", j=0, amplitude=amp)

    br = wetting_threshold(K5, mk, 0.1, 1.0, tol=0.2, L_max=512)
    assert 0.1 <= br.amp_lo < br.amp_hi <= 1.0
    assert br.rho_lo < br.rho_hi
    assert br.caveat == "empirical below, rigorous above"
    # verdicts along the trail never conflict at one amplitude
    seen = {}
    for amp, verdict in br.trail:
        assert seen.setdefault(amp, verdict) == verdict


def _count_profile_sweeps(monkeypatch):
    """Record the free-bridge (L_max) and midpoint (L, j) sweeps that
    certify runs from an empty profile cache."""
    certify._profile_cached.cache_clear()
    free, mid = [], []
    real_free, real_mid = certify.partition_profile, certify.midpoint_prob

    def counting_free(kernel, L_max, *, wall=None, pot=None):
        if wall is None and pot is None:
            free.append(L_max)
        return real_free(kernel, L_max, wall=wall, pot=pot)

    def counting_mid(kernel, L, j):
        mid.append((L, j))
        return real_mid(kernel, L, j)

    monkeypatch.setattr(certify, "partition_profile", counting_free)
    monkeypatch.setattr(certify, "midpoint_prob", counting_mid)
    return free, mid


def test_threshold_sweeps_each_free_profile_once(monkeypatch):
    # the profiles take no amplitude: one free-bridge sweep to L_max serves
    # every bisection point's base case (a prefix) and recombined ratios,
    # and one midpoint sweep to L_max every doubling window (a slice)
    free, mid = _count_profile_sweeps(monkeypatch)
    br = wetting_threshold(
        K1, lambda amp: make_family("single", j=0, amplitude=amp),
        0.01, 0.2, L_max=2048)
    assert sum(v != "localized" for _, v in br.trail) >= 2
    assert free == [2048]
    assert mid == [(2048, 0)]


def test_threshold_factors_the_free_rows_once_per_shift():
    # the benchmark's threshold run: five certificates reach the inertia
    # test on [0, 2^13]; the two localized ones (0.105 and 0.0575) stop in
    # its leading block, and the other three share one factorisation of its
    # 8,192 free rows; free_energy_crossing's nine steps share one more, at
    # shift 1, bar the three that stop in the leading block
    spectral._free_blocks.cache_clear()

    def mk(amp):
        return make_family("single", j=0, amplitude=amp)

    wetting_threshold(K1, mk, 0.01, 0.2, L_max=2048)
    info = spectral._free_blocks.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    free_energy_crossing(K1, mk, 0.01, 0.2)
    after = spectral._free_blocks.cache_info()
    assert (after.misses, after.hits) == (2, info.hits + 5)


def test_deloc_exhaustive_sweeps_one_midpoint_profile(monkeypatch):
    # the benchmark's exhaustive certificate: seven doubling windows
    # (8 2^n, 8 2^{n+1}], the last cut at L_max, read one profile
    pot = parse_potential_spec("single:j=0,eps=0.05")
    free, mid = _count_profile_sweeps(monkeypatch)
    cert = delocalization_certificate(K5, pot, L_max=1536)
    assert cert.verdict == DELOCALIZED_EMPIRICAL
    assert free == [1536] and mid == [(1536, 0)]
    rows = [e for e in cert.evidence if e.check.startswith("doubling")]
    assert [e.scale for e in rows] == [32, 64, 128, 256, 512, 1024, 1536]
    # each window's slice matches a profile swept to the window's end alone
    for n, e in enumerate(rows, start=1):
        step = doubling_step_check(K5, 0, cert.params["b"],
                                   cert.params["delta"], n, 1536)
        assert step.samples.stop - 1 == e.scale
        alone = midpoint_prob(K5, e.scale, 0)[step.samples.start:].max()
        assert step.worst_midpoint == pytest.approx(alone, rel=1e-15)


@pytest.mark.parametrize("spec, n, L_max", [
    ("binomial:sigma2=0.1", 90, 128),
    ("binomial:sigma2=0.5", 90, 64),
    ("sos:beta=2.5", 400, 64),
])
@pytest.mark.parametrize("amp", [0.01, 0.2])
def test_out_of_reach_levels_share_one_base_sweep(monkeypatch, spec, n,
                                                  L_max, amp):
    # reference: every level's own base case, as a per-level run measures
    kernel = parse_kernel_spec(spec)
    pot = make_family("list", values=[amp * (j + 1) ** -3.0 for j in range(n)])
    b = rho(pot, kernel.sigma2).upper
    per_level = {j: base_case_check(kernel, j, b, L_max) for j in pot.support}
    lo = max([0.0] + [r.max_ratio - 1.0 for r in per_level.values()])
    hi = min(max_feasible_delta(b * kernel.sigma2 / (j + 1))
             for j in pot.support)

    swept = []
    real = certify.base_case_check

    def counting(kernel, j, b, L_max):
        swept.append(j)
        return real(kernel, j, b, L_max)

    monkeypatch.setattr(certify, "base_case_check", counting)
    cert = delocalization_certificate(kernel, pot, L_max=L_max)
    reach = (L_max // 2) * kernel.max_step
    assert n - 1 > reach + 1  # some walls are out of reach
    assert swept == list(range(reach + 2))
    if lo >= hi - 1e-9:
        assert cert.verdict == UNDETERMINED
        assert cert.params["delta_window"] == (lo, hi)
        return
    delta = cert.params["delta"]
    assert delta == 0.5 * (lo + hi)
    # the rows the certificate leaves out would all have passed
    assert all(r.max_ratio <= 1.0 + delta for r in per_level.values())
    row, = [e for e in cert.evidence if e.check == f"base_ratio[j={reach + 1}]"]
    assert f"covers levels {reach + 1}..{n - 1} ({n - reach - 1} levels)" \
        in row.detail
    assert not any(e.check.startswith(f"doubling[j={reach + 1},")
                   for e in cert.evidence)


def test_deloc_builds_no_level_pins(monkeypatch):
    # certify reads only the weight sum; the per-level split is built on
    # first read, from the same terms in the same order
    pot = make_family("power", delta=3.0, amplitude=0.05)
    dec = potentials.decouple(pot, 0.4, K5.sigma2)
    assert dec.rho_sum == sum(lp.rho_j for lp in dec.levels)

    def refuse(**kw):
        raise AssertionError("a LevelPin was built")

    monkeypatch.setattr(potentials, "LevelPin", refuse)
    cert = delocalization_certificate(K5, pot, L_max=256)
    assert cert.evidence[0].check == "decoupling_weight_sum"


def test_cached_profiles_are_read_only():
    for j in (None, 0):
        prof = certify._profile_cached(K5, 64, j)
        with pytest.raises(ValueError):
            prof[2] = 0.5


def test_wetting_threshold_rejects_bad_endpoints():
    def mk(amp):
        return make_family("single", j=0, amplitude=amp)

    with pytest.raises(ParameterError):
        wetting_threshold(K5, mk, 0.9, 1.0, tol=0.2, L_max=256)
    with pytest.raises(ParameterError):
        wetting_threshold(K5, mk, 0.1, 0.15, tol=0.2, L_max=256)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -0.1, math.inf])
def test_bracketing_rejects_bad_tolerance(tol):
    def mk(amp):
        return make_family("single", j=0, amplitude=amp)

    with pytest.raises(ParameterError, match="tol"):
        wetting_threshold(K5, mk, 0.1, 1.0, tol=tol, L_max=256)
    with pytest.raises(ParameterError, match="tol"):
        free_energy_crossing(K5, mk, 0.1, 1.0, tol=tol)


@pytest.mark.parametrize("j", [0, 1, 3])
@pytest.mark.parametrize("s2", [0.1, 0.25, 0.5])
def test_closed_form_threshold_inside_both_brackets(j, s2):
    kernel = make_binomial(s2)

    def mk(amp):
        return make_family("single", j=j, amplitude=amp)

    lo0, hi0 = 0.1 * s2 / (j + 1), 2.5 * s2 / (j + 1)
    # exact single-level threshold of the nearest-neighbour walk
    rho_c = -((j + 1) / s2) * math.log(1.0 - s2 / (2.0 * (j + 1)))
    wt = wetting_threshold(kernel, mk, lo0, hi0, tol=0.05, L_max=2048)
    assert wt.rho_lo <= rho_c <= wt.rho_hi
    fc_lo, fc_hi = free_energy_crossing(kernel, mk, lo0, hi0, tol=0.05)
    assert rho(mk(fc_lo), s2).value <= rho_c <= rho(mk(fc_hi), s2).value
    assert fc_hi - fc_lo <= 0.05 * fc_lo


def test_phase_scan_rows_and_consistency():
    pts = [ScanPoint("binomial:sigma2=0.5", "single:j=0", a)
           for a in (0.0, 0.05, 1.0)]
    rows = phase_scan(pts, L_max=256, deterministic_timing=True)
    assert len(rows) == 3
    assert [r["amplitude"] for r in rows] == [0.0, 0.05, 1.0]
    for r in rows:
        assert r["error"] == ""
        both = (r["verdict_spectral"] == LOCALIZED
                and r["verdict_induction"] == DELOCALIZED_EMPIRICAL)
        assert not both
    assert rows[0]["verdict_induction"] == DELOCALIZED_EMPIRICAL
    assert rows[0]["f_hat"] == 0.0
    assert rows[2]["verdict_spectral"] == LOCALIZED


def test_phase_between_verdicts_monotone_along_amplitude_ray():
    pts = [ScanPoint("binomial:sigma2=0.5", "single:j=0", a)
           for a in (0.2, 0.4, 0.8, 1.6)]
    rows = phase_scan(pts, L_max=128, deterministic_timing=True)
    seen_localized = False
    for r in rows:
        if seen_localized:
            assert r["verdict_spectral"] == LOCALIZED
        seen_localized |= r["verdict_spectral"] == LOCALIZED
    assert seen_localized


def test_phase_scan_process_pool_matches_serial():
    pts = [ScanPoint("binomial:sigma2=0.5", "single:j=0", a)
           for a in (0.0, 1.0)]
    kw = dict(L_max=128, deterministic_timing=True)
    assert phase_scan(pts, workers=2, **kw) == phase_scan(pts, **kw)


def test_phase_scan_empty_and_errors_in_row():
    assert phase_scan([]) == []
    rows = phase_scan([ScanPoint("binomial:sigma2=0.9", "single:j=0", 0.1)],
                      deterministic_timing=True)
    assert rows[0]["verdict_spectral"] == "error"
    assert "ParameterError" in rows[0]["error"]


def test_base_scale_formula(monkeypatch):
    assert base_scale(0, 0.5) == 16
    assert base_scale(2, 0.25) == math.ceil(8 * 9 / 0.25)
    # L_1 = C (j+1)^2 / sigma^2 reads the module's scale constant
    monkeypatch.setattr(certify, "SCALE_CONSTANT", 0.02)
    assert base_scale(10, 0.5) == math.ceil(0.02 * 121 / 0.5)


def test_certificates_work_on_geometric_kernel():
    from wetting_lab.kernels import make_sos
    from wetting_lab.spectral import localization_certificate

    k = make_sos(3.0)
    weak = make_family("single", j=0, amplitude=0.02 * k.sigma2)
    cert = delocalization_certificate(k, weak, b=rho(weak, k.sigma2).value,
                                      L_max=1024)
    assert cert.verdict == DELOCALIZED_EMPIRICAL
    strong = make_family("single", j=0, amplitude=0.5)
    assert localization_certificate(k, strong).verdict == LOCALIZED


K25 = make_binomial(0.25)


@pytest.mark.parametrize("kernel,pot,kw,verdict,note,checks", [
    (K5, make_family("single", j=0, amplitude=2.5), dict(b=1.0, L_max=128),
     UNDETERMINED, "rewards above log 2 cannot be delocalized", []),
    (K5, make_family("single", j=0, amplitude=0.01), dict(L_max=15),
     UNDETERMINED, "L_max=15 ends before the base scale L_1=16", []),
    (K5, make_family("power", delta=0.5, amplitude=0.05, sign="-"),
     dict(b=0.3), UNDETERMINED, "decoupling weights are unbounded", []),
    (K25, make_family("exp", delta=1.0, amplitude=0.0125),
     dict(b=0.01, L_max=256), UNDETERMINED, "decoupling weights exceed 1",
     ["decoupling_weight_sum"]),
    (K5, make_family("single", j=0, amplitude=0.01), dict(b=1.0, L_max=256),
     UNDETERMINED, "no feasible delta: base ratios need > 5.799",
     ["decoupling_weight_sum"]),
    (K1, make_family("single", j=0, amplitude=0.1),
     dict(delta=0.05, L_max=1024), UNDETERMINED,
     "first failing check: base_ratio[j=0] at scale 80",
     ["decoupling_weight_sum", "base_ratio", "recombined_ratio"]),
    (K25, make_family("exp", delta=1.0, amplitude=0.0125), dict(L_max=1024),
     DELOCALIZED_EMPIRICAL, "empirical: midpoint bound checked",
     ["decoupling_weight_sum", "base_ratio", "doubling",
      "recombined_ratio"]),
], ids=["log2", "below-base-scale", "unbounded-weights", "weights-above-1",
        "no-feasible-delta", "first-failing-check", "pass"])
def test_every_delocalization_exit(kernel, pot, kw, verdict, note, checks):
    cert = delocalization_certificate(kernel, pot, **kw)
    assert cert.verdict == verdict
    assert len(cert.notes) == 1 and cert.notes[0].startswith(note)
    assert list(dict.fromkeys(e.check.split("[")[0]
                              for e in cert.evidence)) == checks
    assert cert.valid_up_to == (kw.get("L_max", 4096)
                                if verdict == DELOCALIZED_EMPIRICAL else None)
    # b defaults to rho's upper bound; delta is set once a window exists
    assert cert.params["b"] == kw.get("b", rho(pot, kernel.sigma2).upper)
    assert ("delta" in cert.params) == (len(checks) > 1)
    if note.startswith("no feasible delta"):
        lo, hi = cert.params["delta_window"]
        assert lo == pytest.approx(5.7985, abs=1e-4) and lo >= hi - 1e-9
    else:
        assert "delta_window" not in cert.params
