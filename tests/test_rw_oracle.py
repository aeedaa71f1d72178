import csv
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from wetting_lab import rw_oracle
from wetting_lab.cli import main
from wetting_lab.errors import ParameterError, RefusalError
from wetting_lab.kernels import (
    kernel_from_table,
    make_binomial,
    make_sos,
    parse_kernel_spec,
)
from wetting_lab.potentials import make_family, parse_potential_spec
from wetting_lab.rw_oracle import max_enumerable_L, oracle_partition
from wetting_lab.transfer import clt_band, partition_profile

K5 = make_binomial(0.5)


def test_small_bridge_values():
    assert oracle_partition(K5, 2)[2] == pytest.approx(0.375, rel=1e-15)
    assert oracle_partition(K5, 2, wall=0)[2] == \
        pytest.approx(0.3125, rel=1e-15)
    for k in (K5, make_binomial(0.3)):
        assert oracle_partition(k, 1)[1] == pytest.approx(k.prob(0),
                                                          rel=1e-15)


def test_exact_fractions():
    # the exact reference below gives the hand-computed L = 2 values
    assert _exact_z(K5, 2, None, None) == Fraction(3, 8)
    assert _exact_z(K5, 2, 0, None) == Fraction(5, 16)


def _motzkin(n):
    m = [1, 1]
    for k in range(2, n + 1):
        m.append(m[-1] + sum(m[i] * m[k - 2 - i] for i in range(k - 1)))
    return m[n]


def test_walled_counts_are_motzkin():
    # the exact reference walks exactly the walled bridges
    for L in (2, 3, 4, 7, 9):
        assert _exact_z(K5, L, 0, None, unit=True) == _motzkin(L)
    assert [_motzkin(L) for L in (2, 3, 4)] == [2, 4, 9]


def test_refusal_beyond_cap():
    assert max_enumerable_L(K5) == 14
    with pytest.raises(RefusalError):
        oracle_partition(K5, max_enumerable_L(K5) + 1)
    sos = make_sos(3.0, tail_tol=1e-6)
    assert max_enumerable_L(sos) < max_enumerable_L(K5)
    with pytest.raises(RefusalError):
        oracle_partition(sos, max_enumerable_L(sos) + 1)


def test_refusal_beyond_the_float_range():
    # e^150 at level 4, paid at up to 7 interior times, overflows: the
    # oracle refuses instead of returning inf
    pot = parse_potential_spec("single:j=4,eps=150")
    k = make_binomial(0.25)
    assert np.isfinite(oracle_partition(k, 8, wall=0, pot=pot)).all()
    with pytest.raises(RefusalError, match="float range"):
        oracle_partition(k, 14, wall=0, pot=pot)


def test_clt_band_rows():
    rows = clt_band(K5, [1, 4, 64, 1024, 10000])
    vals = dict(rows)
    assert vals[1] == pytest.approx(math.sqrt(0.5) * 0.5, rel=1e-12)
    # large-L value sits in the stated window around 1/sqrt(2 pi)
    assert 0.349 <= vals[10000] <= 0.449
    # bounded above and away from zero on the whole grid
    assert 0.15 <= min(vals.values()) <= max(vals.values()) <= 0.75


# -- an exact reference --------------------------------------------------------

def _exact_z(kernel, L, wall, pot, unit=False):
    """Z_L by a height DP in exact rationals over the float kernel
    probabilities and the float e^eps factors (unit: every step weighs 1,
    zero-probability offsets included, so Z_L counts the bridges)."""
    steps = [(k, Fraction(1) if unit else Fraction(p))
             for k, p in zip(kernel.offsets, kernel.probs)]
    reward = {j: Fraction(math.exp(pot.eps[j])) for j in pot.support} \
        if pot is not None else {}
    z = {0: Fraction(1)}
    for t in range(1, L + 1):
        nxt = {}
        for h, w in z.items():
            for k, p in steps:
                g = h + k
                if abs(g) <= (L - t) * kernel.max_step and \
                        (wall is None or g >= -wall):
                    nxt[g] = nxt.get(g, 0) + w * p
        z = {g: w * reward.get(g, 1) if t < L else w for g, w in nxt.items()}
    return z.get(0, Fraction(0))


def _rel(value, exact):
    return abs(Fraction(value) - exact) / exact


def _oracle_check_variants():
    pinned = parse_potential_spec("single:j=0,eps=0.1")
    mixed = parse_potential_spec("exp:delta=1,amp=0.05")
    return [(f"{s2}-{name}", make_binomial(s2), wall, pot)
            for s2 in (0.1, 0.5)
            for name, wall, pot in (("free", None, None), ("wall0", 0, None),
                                    ("wall2", 2, None),
                                    ("pinned_wall0", 0, pinned),
                                    ("mixed_wall0", 0, mixed))]


@pytest.fixture(scope="module")
def gap_kernel(tmp_path_factory):
    # offsets -3..3 with no +-1 (a gap) and p(+-3) = 0 (a zero row)
    path = tmp_path_factory.mktemp("kernel") / "gap.txt"
    path.write_text("0 0.8\n2 0.05\n3 0\n")
    kernel = kernel_from_table(str(path))
    assert kernel.prob(3) == 0.0 and 1 not in kernel.offsets
    return kernel


def _cases(gap_kernel):
    sos = parse_kernel_spec("sos:beta=2.5")
    return _oracle_check_variants() + [
        ("sos-free", sos, None, None),
        ("sos-pinned_wall1", sos, 1, make_family("single", j=1, amplitude=0.2)),
        ("gap-free", gap_kernel, None, None),
        ("gap-pinned_wall0", gap_kernel, 0,
         make_family("list", values=[0.15, 0.0, 0.3])),
    ]


def test_oracle_is_the_exact_height_dp(gap_kernel):
    for name, kernel, wall, pot in _cases(gap_kernel):
        cap = max_enumerable_L(kernel)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            z = oracle_partition(kernel, cap, wall=wall, pot=pot)
        for L in range(1, cap + 1):
            assert _rel(z[L], _exact_z(kernel, L, wall, pot)) <= 1e-14, \
                (name, L)


def test_two_leg_profile_is_the_exact_height_dp(gap_kernel):
    # log Z read from half-length legs, at every length up to the cap (odd
    # and even), against the exact rational DP
    kernels = (K5, parse_kernel_spec("sos:beta=2.5"), gap_kernel)
    pots = (None, make_family("single", j=1, amplitude=0.4),
            make_family("exp", delta=1.0, amplitude=0.2))
    for kernel, wall, pot in itertools.product(kernels, (None, 0, 3), pots):
        cap = max_enumerable_L(kernel)
        prof = partition_profile(kernel, cap, wall=wall, pot=pot)
        for L in range(1, cap + 1):
            assert _rel(math.exp(prof[L]), _exact_z(kernel, L, wall, pot)) \
                <= 1e-13, (kernel.family, wall, pot, L)


def test_zero_weight_steps_are_not_expanded(gap_kernel, monkeypatch):
    # offsets +-3 carry weight 0: the forward half of L = 7 expands only
    # the steps -2, 0, 2 and so ends on the 9 even heights -8..8
    rows = []
    half_levels = rw_oracle._half_levels

    def recording(offs, pv, *args):
        rows.append((sorted(offs.tolist()), bool((pv > 0).all())))
        levels = half_levels(offs, pv, *args)
        rows.append(levels[-1][0].tolist())
        return levels

    monkeypatch.setattr(rw_oracle, "_half_levels", recording)
    oracle_partition(gap_kernel, 7)
    assert rows[0] == ([-2, 0, 2], True)
    assert rows[1] == list(range(-8, 9, 2))
    # so the cap counts the three positive-weight steps, as for binomial
    assert max_enumerable_L(gap_kernel) == max_enumerable_L(K5) == 14


def test_fraction_and_float_modes_agree():
    # the float oracle against the exact rational height DP, which replaced
    # the oracle's own fraction mode
    pot = make_family("list", values=[0.15, 0.0, 0.3])
    cap = max_enumerable_L(K5)
    z = oracle_partition(K5, cap, wall=0, pot=pot)
    for L in range(1, cap + 1):
        assert _rel(z[L], _exact_z(K5, L, 0, pot)) <= 1e-14, L


def test_errors_fire_with_a_warm_memo():
    # the oracle keeps no memo to warm: errors fire after calls at the cap
    # just as on a first call, and change no later value
    cap = max_enumerable_L(K5)
    warm = [oracle_partition(K5, cap, wall=w).tolist() for w in (None, 0)]
    with pytest.raises(ParameterError):
        oracle_partition(K5, 0)
    with pytest.raises(ParameterError):
        oracle_partition(K5, 3, wall=-1)
    with pytest.raises(RefusalError):
        oracle_partition(K5, cap + 1)
    assert [oracle_partition(K5, cap, wall=w).tolist()
            for w in (None, 0)] == warm


def _module_containers():
    return {name: len(v) for name, v in vars(rw_oracle).items()
            if isinstance(v, (dict, list, set))}


def test_memo_holds_values_only_and_stays_bounded():
    # every call expands its own two halves: no module-level container
    # grows, the order of the calls changes no value, and each value is a
    # float within 1e-14 of the exact DP
    before = _module_containers()
    calls = [(L, wall) for wall in range(20) for L in (3, 14, 8)]
    profiles = [oracle_partition(K5, L, wall=w) for L, w in calls]
    again = [oracle_partition(K5, L, wall=w)[L]
             for L, w in reversed(calls)]
    assert _module_containers() == before
    first = [z[L] for (L, _), z in zip(calls, profiles)]
    assert again[::-1] == first
    assert all(z.dtype == np.float64 and z.shape == (L + 1,)
               for (L, _), z in zip(calls, profiles))
    for (L, wall), z in zip(calls, first):
        assert _rel(z, _exact_z(K5, L, wall, None)) <= 1e-14


def test_clt_band_rows_are_exact():
    rows = clt_band(K5, [1, 2, 4, 8, 14, 64])
    assert [L for L, _ in rows] == [1, 2, 4, 8, 14, 64]
    for L, v in rows[:-1]:
        ref = math.sqrt(0.5 * L) * float(_exact_z(K5, L, None, None))
        assert v == pytest.approx(ref, rel=1e-14)


def test_clt_band_runs_no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("clt_band ran the oracle")

    monkeypatch.setattr(rw_oracle, "oracle_partition", refuse)
    monkeypatch.setattr(rw_oracle, "_meet", refuse)
    Ls = [1, 2, 4, 8, 14, 64, 1024]
    prof = partition_profile(K5, 1024)
    assert clt_band(K5, Ls) == [
        (L, math.sqrt(K5.sigma2 * L) * math.exp(prof[L])) for L in Ls]


def test_oracle_check_csv_matches_the_exact_dp(tmp_path):
    assert main(["oracle-check", "--L-max", "14",
                 "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "oracle_check.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    variants = _oracle_check_variants()
    assert len(rows) == len(variants)
    for row, (name, kernel, wall, pot) in zip(rows, variants):
        s2, variant = name.split("-")
        L_top = min(14, max_enumerable_L(kernel))
        assert (row["sigma2"], row["variant"], int(row["L_max"])) == \
            (s2, variant, L_top)
        # the transfer's error against the exact value; the oracle's own
        # error (<= 1e-14) is all that separates it from the csv's column
        prof = partition_profile(kernel, L_top, wall=wall, pot=pot)
        ref = max(_rel(math.exp(prof[L]), _exact_z(kernel, L, wall, pot))
                  for L in range(1, L_top + 1))
        assert abs(float(row["max_rel_err"]) - float(ref)) <= 1e-14
        assert float(row["max_rel_err"]) <= 1e-12
