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
    validate_kernel,
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
    assert k.sigma2_analytic == pytest.approx(sigma2, rel=1e-15)
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


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-3, max_value=0.5))
def test_binomial_membership_grid(sigma2):
    rep = validate_kernel(make_binomial(sigma2), c0=1.0)
    assert rep.passed


def test_membership_numbers_binomial_half():
    rep = validate_kernel(make_binomial(0.5), c0=1.0)
    assert rep.p1 == pytest.approx(0.25)
    assert rep.p1_floor == pytest.approx(0.25)
    assert rep.third_moment == pytest.approx(0.5)
    assert rep.third_moment_cap == pytest.approx(0.5)
    assert rep.passed


def test_membership_sos():
    k = make_sos(3.0)
    rep = validate_kernel(k, c0=1.0)
    assert rep.p0 >= 1 - k.sigma2
    assert rep.symmetric and rep.normalized
    # p(1) vs the floor is reported either way
    assert rep.p1 == pytest.approx(k.prob(1))


def test_gap_kernel_flagged(tmp_path):
    # mass at 0 and +-2 only: p(1)=0 breaks irreducibility/membership
    path = tmp_path / "k.txt"
    path.write_text("0 0.95\n2 0.025\n")
    k = kernel_from_table(str(path))
    rep = validate_kernel(k, c0=1.0)
    assert not rep.p1_ok
    assert not rep.passed


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
