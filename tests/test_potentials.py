import math

import pytest
from hypothesis import given, settings, strategies as st

from wetting_lab import potentials
from wetting_lab.errors import ParameterError
from wetting_lab.potentials import (
    LOG2,
    decouple,
    make_family,
    parse_potential_spec,
    rho,
)


def test_single_level():
    pot = make_family("single", j=0, amplitude=0.05)
    assert pot.eps == (0.05,)
    assert pot.tail_bound == 0.0
    assert rho(pot, 0.5).value == pytest.approx(0.1)

    pot3 = make_family("single", j=3, amplitude=0.2)
    assert pot3.eps == (0.0, 0.0, 0.0, 0.2)
    assert pot3.support == (3,)


def test_zero_potential_rho():
    pot = make_family("list", values=[0.0, 0.0])
    assert rho(pot, 0.3).value == 0.0
    assert rho(pot, 0.3).upper == 0.0


def test_exponential_family_values_and_tail():
    pot = make_family("exp", delta=1.0, amplitude=1.0, weighted_tail_tol=1e-12)
    for j in range(min(6, pot.j_max + 1)):
        assert pot.eps[j] == pytest.approx(math.exp(-j), rel=1e-15)
    assert 0 < pot.tail_bound <= 1e-12
    # series vs closed form sum (j+1) e^-j = (1 - 1/e)^-2
    closed = 1.0 / (1.0 - math.exp(-1.0)) ** 2
    est = rho(pot, 1.0)
    assert est.value <= closed <= est.upper + 1e-15


def test_power_family_tail_bound_is_true_bound():
    pot = make_family("power", delta=1.0, amplitude=0.3, weighted_tail_tol=1e-4)
    # brute-force the discarded weighted tail well past j_max
    tail = sum(0.3 * (j + 1) ** (-3.0) * (j + 1)
               for j in range(pot.j_max + 1, pot.j_max + 200000))
    assert tail <= pot.tail_bound <= 1e-4


def test_power_family_meets_the_tolerance_at_the_cap():
    # the bound 1.99 / 2,000,001 meets 1e-6 only at the level cap itself,
    # past the last level of the search's 1.3x steps below it
    pot = make_family("power", delta=1.0, amplitude=1.99)
    assert pot.j_max == potentials._J_CAP
    assert pot.tail_bound <= 1e-6


def test_power_nonsummable_sign():
    pot = make_family("power", delta=0.5, amplitude=0.1, sign="-")
    assert math.isinf(pot.tail_bound)
    assert pot.eps[3] == pytest.approx(0.1 * 4 ** (-1.5))


@pytest.mark.parametrize("kwargs", [
    dict(family="power", delta=0.0, amplitude=1.0),
    dict(family="exp", delta=-1.0, amplitude=1.0),
    dict(family="single", j=0, amplitude=-0.2),
])
def test_parameter_errors(kwargs):
    with pytest.raises(ParameterError):
        make_family(**kwargs)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=0.0, max_value=50.0),
       st.lists(st.floats(min_value=0.0, max_value=0.4), min_size=1, max_size=6))
def test_rho_linear_in_amplitude(t, values):
    pot = make_family("list", values=values)
    assert rho(pot.scaled(t), 0.25).value == pytest.approx(
        t * rho(pot, 0.25).value, rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=6),
       st.floats(min_value=0.01, max_value=2.0))
def test_decouple_recombines_exactly(values, b):
    pot = make_family("list", values=values)
    dec = decouple(pot, b, 0.25)
    for lp in dec.levels:
        assert lp.rho_j * lp.kappa_j == pytest.approx(pot.eps[lp.j], rel=1e-12,
                                                      abs=1e-300)


def test_decouple_example_and_scaling():
    pot = make_family("single", j=0, amplitude=0.05)
    dec = decouple(pot, 0.1, 0.5)
    assert dec.levels[0].rho_j == pytest.approx(1.0)
    assert dec.levels[0].kappa_j == pytest.approx(0.05)
    assert dec.rho_sum == pytest.approx(1.0)
    # scaling by t multiplies the weights, leaves the strengths alone
    d2 = decouple(pot.scaled(3.0), 0.1, 0.5)
    assert d2.levels[0].rho_j == pytest.approx(3.0)
    assert d2.levels[0].kappa_j == pytest.approx(0.05)


def test_decouple_normalizing_amplitude():
    # choose the amplitude making the weights sum to 1 for the exp family
    b, sigma2 = 0.1, 0.5
    base = make_family("exp", delta=1.0, amplitude=1.0, weighted_tail_tol=1e-13)
    series = sum((j + 1) * e for j, e in enumerate(base.eps))
    amp = b * sigma2 / series
    dec = decouple(base.scaled(amp), b, sigma2)
    assert dec.rho_sum == pytest.approx(1.0, rel=1e-12)


def test_log2_flag_keeps_raw_values():
    pot = make_family("single", j=1, amplitude=2.5)
    assert pot.exceeds_log2
    assert pot.log2_excess == (1,)
    assert pot.eps[1] == 2.5  # raw value retained for the spectral engine
    assert not make_family("single", j=1, amplitude=LOG2).exceeds_log2


def test_parse_potential_specs(tmp_path):
    pot = parse_potential_spec("single:j=2,eps=0.3")
    assert pot.eps == (0.0, 0.0, 0.3)
    pot = parse_potential_spec("exp:delta=1,amp=0.5")
    assert pot.eps[0] == pytest.approx(0.5)
    pot = parse_potential_spec("power:delta=0.5,amp=0.2,sign=-")
    assert math.isinf(pot.tail_bound)
    # amplitude override for sweeps
    pot = parse_potential_spec("single:j=0,eps=1", amplitude=0.07)
    assert pot.eps == (0.07,)
    p = tmp_path / "eps.txt"
    p.write_text("0.1\n0.0\n0.25\n")
    pot = parse_potential_spec(f"list:{p}")
    assert pot.eps == (0.1, 0.0, 0.25)
    with pytest.raises(ParameterError):
        parse_potential_spec("quadratic:delta=1")
