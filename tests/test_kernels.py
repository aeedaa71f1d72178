import math

import pytest
from hypothesis import given, settings, strategies as st

from wetting_lab.errors import ParameterError
from wetting_lab.kernels import (
    kernel_from_table,
    make_binomial,
    make_sos,
    parse_kernel_spec,
    sos_normalizer,
    sos_sigma2,
)


def test_binomial_values():
    k = make_binomial(0.5)
    assert k.prob(0) == 0.5
    assert k.prob(1) == 0.25
    assert k.prob(-1) == 0.25
    assert k.max_step == 1
    assert k.truncation_defect == 0.0

    k = make_binomial(0.1)
    assert k.prob(0) == pytest.approx(0.9, abs=1e-15)
    assert k.prob(1) == pytest.approx(0.05, abs=1e-15)


@pytest.mark.parametrize("bad", [0.6, 0.0, -0.1, 1.0])
def test_binomial_range(bad):
    with pytest.raises(ParameterError):
        make_binomial(bad)


def test_sos_beta3_closed_forms():
    # evaluate the closed forms independently and compare
    x = math.exp(-3.0)
    sigma2 = 2 * x / (1 - x) ** 2
    z = (1 + x) / (1 - x)
    assert sigma2 == pytest.approx(0.110282, abs=1e-6)
    assert z == pytest.approx(1.1047914, abs=1e-6)
    assert sos_sigma2(3.0) == pytest.approx(sigma2, rel=1e-15)
    assert sos_normalizer(3.0) == pytest.approx(z, rel=1e-15)

    k = make_sos(3.0)
    assert k.sigma2 == pytest.approx(sigma2, abs=1e-10)
    assert k.truncation_defect < 1e-12


def test_sos_rejects_small_beta():
    # sigma2(1) = 2e^-1/(1-e^-1)^2 ~ 1.841 > 1/2
    assert sos_sigma2(1.0) == pytest.approx(1.841, abs=2e-3)
    with pytest.raises(ParameterError):
        make_sos(1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 800.0])
def test_sos_rejects_nonfinite_beta_and_zero_variance(beta):
    # exp(-800) underflows, which would leave a stuck walk with sigma2 = 0
    with pytest.raises(ParameterError):
        make_sos(beta)


def test_sos_sigma2_monotone_in_beta():
    assert sos_sigma2(4.0) < sos_sigma2(3.0) < sos_sigma2(2.0)


def test_sos_effective_sigma2_converges_with_tail_tol():
    target = sos_sigma2(3.0)
    errs = [abs(make_sos(3.0, tail_tol=t).sigma2 - target)
            for t in (1e-6, 1e-10, 1e-14)]
    assert errs[0] >= errs[1] >= errs[2]
    # the variance error carries a k^2 weight on the discarded tail
    assert errs[2] < 1e-11


def test_kernel_invariants_sos():
    k = make_sos(2.5, tail_tol=1e-10)
    assert sum(k.probs) == pytest.approx(1.0, abs=1e-12)
    for off in k.offsets:
        assert k.prob(off) == k.prob(-off)
    var = sum(o * o * p for o, p in zip(k.offsets, k.probs))
    assert var == pytest.approx(k.sigma2, abs=1e-10)


def _membership(kernel, c0=1.0):
    """Per-condition outcome of the class condition the kernels module
    states, and the third absolute moment."""
    s2 = kernel.sigma2
    m3 = sum(abs(k) ** 3 * p for k, p in zip(kernel.offsets, kernel.probs))
    ok = {
        "p1": kernel.prob(1) >= 0.5 * c0 * s2 - 1e-12,
        "third_moment": m3 <= s2 / c0 + 1e-12,
        "p0": kernel.prob(0) >= 1.0 - s2 - 1e-12,
        "symmetric": all(kernel.prob(k) == kernel.prob(-k)
                         for k in kernel.offsets),
        "normalized": abs(sum(kernel.probs) - 1.0) <= 1e-12,
    }
    return ok, m3


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-3, max_value=0.5))
def test_binomial_membership_grid(sigma2):
    ok, _ = _membership(make_binomial(sigma2))
    assert all(ok.values())


def test_membership_numbers_binomial_half():
    k = make_binomial(0.5)
    ok, m3 = _membership(k)
    # both inequalities hold with equality at sigma2 = 1/2, c0 = 1
    assert k.prob(1) == pytest.approx(0.25) == pytest.approx(0.5 * k.sigma2)
    assert m3 == pytest.approx(0.5) == pytest.approx(k.sigma2)
    assert all(ok.values())


def test_membership_sos():
    ok, _ = _membership(make_sos(3.0))
    assert ok["p0"] and ok["symmetric"] and ok["normalized"]


def test_gap_kernel_flagged(tmp_path):
    # mass at 0 and +-2 only: p(1)=0 breaks irreducibility/membership
    path = tmp_path / "k.txt"
    path.write_text("0 0.95\n2 0.025\n")
    ok, _ = _membership(kernel_from_table(str(path)))
    assert not ok["p1"]
    assert not all(ok.values())


def test_parse_kernel_specs(tmp_path):
    k = parse_kernel_spec("binomial:sigma2=0.5")
    assert k.family == "binomial" and k.sigma2 == 0.5
    k = parse_kernel_spec("sos:beta=3,tail_tol=1e-10")
    assert k.family == "sos"
    assert k.spec_string().startswith("sos:beta=3")
    path = tmp_path / "tab.txt"
    path.write_text("0 0.8\n1 0.1\n")
    k = parse_kernel_spec(f"table:{path}")
    assert k.family == "table"
    assert k.prob(-1) == k.prob(1) > 0
    with pytest.raises(ParameterError):
        parse_kernel_spec("nope:alpha=1")
    with pytest.raises(ParameterError):
        parse_kernel_spec("binomial")
