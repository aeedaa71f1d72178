import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from wetting_lab import rw_oracle
from wetting_lab.cli import _write_csv, main
from wetting_lab.errors import ParameterError, RefusalError
from wetting_lab.kernels import (
    kernel_from_table,
    make_binomial,
    make_sos,
    parse_kernel_spec,
)
from wetting_lab.potentials import make_family, parse_potential_spec
from wetting_lab.rw_oracle import (
    _pot_factor_table,
    clt_band,
    is_dyadic,
    max_enumerable_L,
    oracle_contact_distribution,
    oracle_partition,
    oracle_partition_exact,
    oracle_path_count,
)
from wetting_lab.transfer import log_partition

K5 = make_binomial(0.5)


def test_small_bridge_values():
    assert oracle_partition(K5, 2) == pytest.approx(0.375, rel=1e-15)
    assert oracle_partition(K5, 2, wall=0) == pytest.approx(0.3125, rel=1e-15)
    for k in (K5, make_binomial(0.3)):
        assert oracle_partition(k, 1) == pytest.approx(k.prob(0), rel=1e-15)


def test_exact_fractions():
    assert oracle_partition_exact(K5, 2) == Fraction(3, 8)
    assert oracle_partition_exact(K5, 2, wall=0) == Fraction(5, 16)
    assert is_dyadic(K5)
    assert not is_dyadic(make_binomial(0.1))


def test_fraction_and_float_modes_agree():
    pot = make_family("list", values=[0.15, 0.0, 0.3])
    for L in (4, 7, 10):
        a = oracle_partition(K5, L, wall=0, pot=pot, mode="float")
        b = oracle_partition(K5, L, wall=0, pot=pot, mode="fraction")
        assert a == pytest.approx(b, rel=1e-14)


def _motzkin(n):
    m = [1, 1]
    for k in range(2, n + 1):
        m.append(m[-1] + sum(m[i] * m[k - 2 - i] for i in range(k - 1)))
    return m[n]


def test_walled_counts_are_motzkin():
    for L in (2, 3, 4, 7, 9):
        assert oracle_path_count(K5, L, wall=0) == _motzkin(L)
    assert (oracle_path_count(K5, 2, wall=0), oracle_path_count(K5, 3, wall=0),
            oracle_path_count(K5, 4, wall=0)) == (2, 4, 9)


def test_contact_distribution():
    pmf = oracle_contact_distribution(K5, 2, 0, 0)
    assert pmf == {0: pytest.approx(0.2), 1: pytest.approx(0.8)}
    # unreachable level
    pmf = oracle_contact_distribution(K5, 4, 0, 9)
    assert pmf == {0: pytest.approx(1.0)}
    # normalization on a bigger instance, both accumulators
    for mode in ("float", "fraction"):
        pmf = oracle_contact_distribution(K5, 9, 0, 1, mode=mode)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)


def test_contact_distribution_modes_agree():
    a = oracle_contact_distribution(K5, 8, 1, 0, mode="float")
    b = oracle_contact_distribution(K5, 8, 1, 0, mode="fraction")
    assert set(a) == set(b)
    for n in a:
        assert a[n] == pytest.approx(b[n], rel=1e-13)


def test_refusal_beyond_cap():
    with pytest.raises(RefusalError):
        oracle_partition(K5, max_enumerable_L(K5) + 1)
    sos = make_sos(3.0, tail_tol=1e-6)
    assert max_enumerable_L(sos) < max_enumerable_L(K5)
    with pytest.raises(RefusalError):
        oracle_partition(sos, max_enumerable_L(sos) + 1)


def test_clt_band_rows():
    rows = clt_band(K5, [1, 4, 64, 1024, 10000])
    vals = dict(rows)
    assert vals[1] == pytest.approx(math.sqrt(0.5) * 0.5, rel=1e-12)
    # large-L value sits in the stated window around 1/sqrt(2 pi)
    assert 0.349 <= vals[10000] <= 0.449
    # bounded above and away from zero on the whole grid
    assert 0.15 <= min(vals.values()) <= max(vals.values()) <= 0.75


# -- one expansion per (kernel, wall, potential) ------------------------------

def _per_length_rows(kernel, L, wall, pot, count_level=-1):
    """Reference: the length-L bridges from an expansion of their own, row
    per path, pruned for length L at every step."""
    offs, pv = np.array(kernel.offsets), np.array(kernel.probs)
    span = L * kernel.max_step
    factor = _pot_factor_table(pot, span)
    h, w, c = np.zeros(1, dtype=np.int64), np.ones(1), np.zeros(1, dtype=int)
    for t in range(L):
        if t >= 1:
            w = w * factor[h + span] if factor is not None else w
            c = c + (h == count_level)
        h = (h[:, None] + offs).reshape(-1)
        w = (w[:, None] * pv).reshape(-1)
        c = np.repeat(c, offs.size)
        keep = np.abs(h) <= (L - t - 1) * kernel.max_step
        if wall is not None:
            keep &= h >= -wall
        h, w, c = h[keep], w[keep], c[keep]
    return w, c


@functools.lru_cache(maxsize=None)
def _per_length_z(kernel, L, wall, pot):
    return float(_per_length_rows(kernel, L, wall, pot)[0].sum())


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


def test_one_expansion_is_bitwise_the_per_length_enumeration(gap_kernel):
    for name, kernel, wall, pot in _cases(gap_kernel):
        cap = max_enumerable_L(kernel)
        ref = [_per_length_z(kernel, L, wall, pot) for L in range(1, cap + 1)]
        rw_oracle._profiles.clear()
        cold = [oracle_partition(kernel, L, wall=wall, pot=pot, mode="float")
                for L in range(1, cap + 1)]  # each call expands to its own L
        rw_oracle._profiles.clear()
        oracle_partition(kernel, cap, wall=wall, pot=pot, mode="float")
        warm = [oracle_partition(kernel, L, wall=wall, pot=pot, mode="float")
                for L in range(1, cap + 1)]
        assert cold == ref, name
        assert warm == ref, name


def test_gap_kernel_keeps_zero_rows(gap_kernel):
    # the gathered last step keeps exactly the rows a full expansion keeps
    for L in range(1, max_enumerable_L(gap_kernel) + 1):
        *_, (w, _) = rw_oracle._bridge_rows(gap_kernel, L, None, None)
        ref, _ = _per_length_rows(gap_kernel, L, None, None)
        assert w.size == ref.size and np.array_equal(w, ref)
        assert oracle_path_count(gap_kernel, L) == ref.size
    assert (w == 0.0).any()


def test_float_contact_pmfs_are_bitwise_the_per_length_ones(gap_kernel):
    for kernel, L, wall, j in ((K5, 9, 0, 1), (K5, 14, None, 0),
                               (make_binomial(0.1), 11, 2, 0),
                               (gap_kernel, 6, 0, 2)):
        w, c = _per_length_rows(kernel, L, wall, None, count_level=j)
        total = float(w.sum())
        ref = {int(n): float(w[c == n].sum()) / total for n in np.unique(c)}
        got = oracle_contact_distribution(kernel, L, wall, j, mode="float")
        assert got == ref


def test_errors_fire_with_a_warm_memo():
    cap = max_enumerable_L(K5)
    rw_oracle._profiles.clear()
    oracle_partition(K5, cap, mode="float")
    oracle_partition(K5, cap, wall=0, mode="float")
    with pytest.raises(ParameterError):
        oracle_partition(K5, 0, mode="float")
    with pytest.raises(ParameterError):
        oracle_partition(K5, 3, wall=-1, mode="float")
    with pytest.raises(RefusalError):
        oracle_partition(K5, cap + 1, mode="float")


def test_memo_holds_values_only_and_stays_bounded():
    rw_oracle._profiles.clear()
    for k in range(rw_oracle._PROFILE_KEYS + 5):
        oracle_partition(K5, 3, wall=k, mode="float")
    oracle_partition(K5, 6, wall=rw_oracle._PROFILE_KEYS, mode="float")
    assert len(rw_oracle._profiles) == rw_oracle._PROFILE_KEYS
    for z in rw_oracle._profiles.values():
        assert all(type(v) is float for v in z)
        assert len(z) <= max_enumerable_L(K5) + 1


def test_clt_band_expands_once(monkeypatch):
    calls = []
    real = rw_oracle._bridge_rows

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(rw_oracle, "_bridge_rows", counting)
    rw_oracle._profiles.clear()
    rows = clt_band(K5, [1, 2, 4, 8, 14, 64])
    assert calls == [14]
    assert [L for L, _ in rows] == [1, 2, 4, 8, 14, 64]
    assert dict(rows)[8] == math.sqrt(0.5 * 8) * _per_length_z(K5, 8, None,
                                                                None)


def test_oracle_check_csv_is_the_per_length_one(tmp_path):
    assert main(["oracle-check", "--L-max", "14",
                 "--out-dir", str(tmp_path)]) == 0
    rows = []
    for name, kernel, wall, pot in _oracle_check_variants():
        s2, variant = name.split("-")
        L_top = min(14, max_enumerable_L(kernel))
        err = 0.0
        for L in range(1, L_top + 1):
            z_t = math.exp(log_partition(kernel, L, wall=wall, pot=pot))
            z_o = _per_length_z(kernel, L, wall, pot)
            err = max(err, abs(z_t - z_o) / z_o)
        rows.append({"sigma2": float(s2), "variant": variant, "L_max": L_top,
                     "max_rel_err": err})
    _write_csv(str(tmp_path / "ref.csv"),
               ("sigma2", "variant", "L_max", "max_rel_err"), rows)
    assert ((tmp_path / "oracle_check.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
