import itertools

import numpy as np
import pytest

from dickesynth.circuit import Circuit, asap_layering, compose, inverse
from dickesynth.encoding import u_minus, u_plus, u_uo, wave_schedule
from dickesynth.verify import simulate


def unary(ell, k):
    return (1 << ell) - 1


def onehot(ell, k):
    return 0 if ell == 0 else 1 << (ell - 1)


def basis(idx, n):
    v = np.zeros(1 << n, dtype=complex)
    v[idx] = 1.0
    return v


def peak(vec):
    j = int(np.argmax(np.abs(vec)))
    assert abs(vec[j]) > 1 - 1e-10
    return j


# --- unary <-> one-hot --------------------------------------------------------


def test_u_uo_zero_is_fixed_point():
    c = u_uo(range(4), num_qubits=4)
    assert peak(simulate(c, basis(0, 4))) == 0


def test_u_uo_maps_three():
    # |0111> (unary 3) -> |0100> (one-hot 3)
    c = u_uo(range(4), num_qubits=4)
    assert peak(simulate(c, basis(0b0111, 4))) == 0b0100


@pytest.mark.parametrize("k", range(1, 9))
def test_u_uo_exhaustive(k):
    c = u_uo(range(k), num_qubits=k)
    for ell in range(k + 1):
        out = peak(simulate(c, basis(unary(ell, k), k)))
        assert out == onehot(ell, k)


@pytest.mark.parametrize("k", range(2, 9))
def test_u_uo_roundtrip_identity(k):
    c = u_uo(range(k), num_qubits=k)
    both = compose(c, inverse(c))
    for ell in range(k + 1):
        assert peak(simulate(both, basis(unary(ell, k), k))) == unary(ell, k)


def test_u_uo_log_depth():
    for k in (8, 16, 32, 64):
        d = asap_layering(u_uo(range(k), num_qubits=k)).depth
        assert d <= 2 * int(np.ceil(np.log2(k))) + 2


# --- one-hot arithmetic -------------------------------------------------------


def arith_case(k, variant, i, t_val, n_anc=0):
    S = list(range(k))
    T = list(range(k, 2 * k))
    W = list(range(2 * k, 3 * k))
    anc = list(range(3 * k, 3 * k + n_anc))
    n = 3 * k + n_anc
    fn = u_minus if variant == "minus" else u_plus
    c = fn(S, T, W, ancilla=anc, num_qubits=n)
    idx = onehot(i, k) | (onehot(t_val, k) << k)
    out = peak(simulate(c, basis(idx, n)))
    assert out & ((1 << (2 * k)) - 1) == idx  # S, T unchanged
    assert out >> (3 * k) == 0  # ancilla restored
    return (out >> (2 * k)) & ((1 << k) - 1)


def test_u_minus_zero_result():
    assert arith_case(4, "minus", 3, 3) == onehot(0, 4)


def test_u_minus_example():
    # one-hot 3 minus one-hot 1 -> one-hot 2 = |0010>
    assert arith_case(4, "minus", 1, 3) == 0b0010


def test_u_plus_examples():
    assert arith_case(4, "plus", 0, 2) == onehot(2, 4)
    # 1 + 2 -> one-hot 3 = |0100>
    assert arith_case(4, "plus", 1, 2) == 0b0100


@pytest.mark.parametrize("k", range(2, 6))
def test_u_minus_exhaustive(k):
    for ell in range(k + 1):
        for i in range(ell + 1):
            assert arith_case(k, "minus", i, ell) == onehot(ell - i, k)


@pytest.mark.parametrize("k", range(2, 6))
def test_u_plus_exhaustive(k):
    for i in range(k + 1):
        for j in range(k + 1 - i):
            assert arith_case(k, "plus", i, j) == onehot(i + j, k)


@pytest.mark.parametrize("k", (2, 3))
def test_arith_ancilla_accelerated_path_matches(k):
    # N >= 3k switches on wave replication; results must be unchanged
    for ell in range(k + 1):
        for i in range(ell + 1):
            assert arith_case(k, "minus", i, ell, n_anc=3 * k) == \
                onehot(ell - i, k)


def test_arith_register_overlap_rejected():
    with pytest.raises(ValueError):
        u_minus(range(4), range(4), range(8, 12), num_qubits=12)


def test_arith_depth_linear_without_ancilla():
    ratios = []
    for k in range(4, 17, 4):
        c = u_minus(range(k), range(k, 2 * k), range(2 * k, 3 * k),
                    num_qubits=3 * k)
        ratios.append(asap_layering(c).depth / k)
    assert max(ratios) <= 2 * min(ratios) + 25


# --- wave schedule ------------------------------------------------------------


def test_wave_schedule_counts():
    assert len(wave_schedule(2)) == 1
    groups = wave_schedule(5)
    assert len(groups) == 7
    assert sum(len(g) for g in groups) == 10  # C(5,2) pairs


@pytest.mark.parametrize("variant", ("minus", "plus"))
@pytest.mark.parametrize("k", range(2, 21))
def test_wave_schedule_partition_and_disjoint(k, variant):
    groups = wave_schedule(k, variant)
    assert len(groups) == 2 * k - 3 if k >= 2 else 1
    seen = set()
    for g in groups:
        used = set()
        for trip in g:
            s, t, w = trip
            assert not {("s", s), ("t", t), ("w", w)} & used
            used.update([("s", s), ("t", t), ("w", w)])
            seen.add((s, t))
    assert len(seen) == k * (k - 1) // 2
