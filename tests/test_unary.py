import itertools
import math

import numpy as np
import pytest

from dickesynth.circuit import (Circuit, ConnectivityGraph, asap_layering,
                                validate_connectivity)
from dickesynth.unary import (DivideSpec, _divide_givens, _givens_block,
                              dicke_unitary_path, divide_unitary_path,
                              hyper_weights, unary_amplitude_prep)
from dickesynth.verify import _evolve, dicke_reference, fidelity, simulate


def unary_index(ell, n):
    return (1 << ell) - 1


# --- Dicke unitary on the path ------------------------------------------------


def test_dicke_path_bell():
    c = dicke_unitary_path(2, 1)
    out = simulate(c, unary_index(1, 2))
    target = np.zeros(4, dtype=complex)
    target[0b01] = target[0b10] = 1 / math.sqrt(2)
    assert fidelity(out, target) > 1 - 1e-10


def test_dicke_path_uniform_weight_two():
    c = dicke_unitary_path(4, 2)
    out = simulate(c, unary_index(2, 4))
    for idx in range(16):
        want = 1 / math.sqrt(6) if bin(idx).count("1") == 2 else 0.0
        assert abs(abs(out[idx]) - want) < 1e-9


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (9, 4), (12, 5)])
def test_dicke_path_all_weights(n, k):
    c = dicke_unitary_path(n, k)
    for ell in range(k + 1):
        out = simulate(c, unary_index(ell, n))
        assert fidelity(out, dicke_reference(n, ell)) > 1 - 1e-10


@pytest.mark.parametrize("n,k", [(6, 3), (9, 4)])
def test_dicke_path_weight_conservation(n, k):
    c = dicke_unitary_path(n, k)
    for ell in range(k + 1):
        out = simulate(c, unary_index(ell, n))
        for idx in range(1 << n):
            if bin(idx).count("1") != ell:
                assert abs(out[idx]) < 1e-12


def test_dicke_path_connectivity_and_depth():
    for n, k in [(8, 4), (12, 3), (16, 5)]:
        c = dicke_unitary_path(n, k)
        assert validate_connectivity(c, ConnectivityGraph.path(n)) == []
        assert asap_layering(c).depth <= 25 * n
        assert c.size <= 12 * n * k


def _cx_count(c):
    return sum(g.kind == "cx" for g in c.gates)


@pytest.mark.parametrize("theta", [0.3, -0.3, 1.1, -2.5, math.pi / 2, 3.0])
def test_givens_block_matches_controlled_ry_form(theta):
    # basis index x_lo | x_hi << 1 with lo = 0, hi = 1
    cx_hi_lo = np.eye(4)[:, [0, 1, 3, 2]]  # |x_hi, x_lo> -> |x_hi, x_lo ^ x_hi>
    cos, sin = math.cos(theta), math.sin(theta)
    cry = np.eye(4)  # Ry(2 theta) on hi when lo = 1
    cry[np.ix_([1, 3], [1, 3])] = [[cos, -sin], [sin, cos]]
    want = cx_hi_lo @ cry @ cx_hi_lo
    c = Circuit(2)
    _givens_block(c, 1, 0, None, theta)
    got = np.stack([simulate(c, x) for x in range(4)], axis=1)
    assert np.abs(got - want).max() < 1e-12  # global phase included


def test_givens_block_cx_counts():
    c = Circuit(3)
    _givens_block(c, 1, 0, None, 0.4)
    assert _cx_count(c) == 2
    c = Circuit(3)
    _givens_block(c, 1, 0, 2, 0.4)
    assert _cx_count(c) == 6


# CNOT counts of the gray-code multiplexor and the 2-CNOT Givens block,
# which every sweep's top block takes
LADDER_CX_MAX = {(64, 2): 498, (64, 32): 8868}


@pytest.mark.parametrize("n,k", list(LADDER_CX_MAX))
def test_dicke_path_cx_count(n, k):
    assert _cx_count(dicke_unitary_path(n, k)) <= LADDER_CX_MAX[(n, k)]


# ASAP depth of the ladder: each middle block's multiplexor reads its far
# control first, so consecutive sweeps overlap
LADDER_DEPTH_MAX = {(64, 8): 1051, (64, 32): 1291}


@pytest.mark.parametrize("n,k", list(LADDER_DEPTH_MAX))
def test_dicke_path_depth(n, k):
    depth = asap_layering(dicke_unitary_path(n, k)).depth
    assert depth <= LADDER_DEPTH_MAX[(n, k)]


def test_dicke_path_weight_one_is_givens_blocks():
    # at k = 1 every block is a sweep's top block: 2 CNOTs each
    for n in range(2, 41):
        assert _cx_count(dicke_unitary_path(n, 1)) == 2 * (n - 1)


def _unary_error(c, k, want):
    """Largest amplitude error of c over every unary input l <= k (ones on
    qubits 0..l-1), through the support-only kernel, so it runs above the
    dense simulator's cap. want(l) maps basis index -> amplitude."""
    worst = 0.0
    for ell in range(k + 1):
        idx, amp = _evolve(c, np.array([unary_index(ell, k)]),
                           np.array([1.0 + 0j]))
        got = dict(zip(idx.tolist(), amp))
        w = want(ell)
        worst = max(worst, max(abs(got.get(x, 0.0) - w.get(x, 0.0))
                               for x in got.keys() | w.keys()))
    return worst


def _dicke_amplitudes(n, ell):
    amp = 1.0 / math.sqrt(math.comb(n, ell))
    return {sum(1 << q for q in ones): amp
            for ones in itertools.combinations(range(n), ell)}


@pytest.mark.parametrize("n,k", [(40, 3), (36, 5), (33, 1)])
def test_dicke_path_exact_above_simulator_cap(n, k):
    c = dicke_unitary_path(n, k)
    assert _unary_error(c, k, lambda ell: _dicke_amplitudes(n, ell)) < 1e-12


def test_dicke_path_rejects_bad_k():
    with pytest.raises(ValueError):
        dicke_unitary_path(4, 5)


# --- divide unitary on the path -----------------------------------------------


def spec_for(n, m, k):
    return DivideSpec(n=n, m=m, k=k, left=list(range(k)),
                      right=list(range(k, 2 * k)))


def test_divide_path_zero_weight_fixed():
    c = divide_unitary_path(spec_for(4, 2, 2))
    out = simulate(c, 0)
    assert abs(abs(out[0]) - 1.0) < 1e-12


def test_divide_path_small_coefficients():
    # n=4, m=2, k=2, l=2: sqrt(1/6)|00>|11> + sqrt(4/6)|01>|01> + sqrt(1/6)|11>|00>
    c = divide_unitary_path(spec_for(4, 2, 2))
    out = simulate(c, unary_index(2, 2) << 2)
    # left register = qubits 0..1, right = qubits 2..3; |S1>|S2> basis index
    # packs S1 in the low bits
    assert abs(out[0b1100] - math.sqrt(1 / 6)) < 1e-10
    assert abs(out[0b0101] - math.sqrt(4 / 6)) < 1e-10
    assert abs(out[0b0011] - math.sqrt(1 / 6)) < 1e-10


def test_divide_path_nine_four():
    # n=9, m=4, k=2, l=1: sqrt(4/9)|01>|00> + sqrt(5/9)|00>|01>
    c = divide_unitary_path(spec_for(9, 4, 2))
    out = simulate(c, unary_index(1, 2) << 2)
    assert abs(out[0b0001] - math.sqrt(4 / 9)) < 1e-10
    assert abs(out[0b0100] - math.sqrt(5 / 9)) < 1e-10


def test_hyper_weights_match_binomials():
    for n in range(2, 13):
        for k in range(1, 5):
            for m in range(k, n - k + 1):
                for ell in range(k + 1):
                    w = hyper_weights(n, m, k, ell)
                    for i in range(ell + 1):
                        want = math.sqrt(math.comb(m, i)
                                         * math.comb(n - m, ell - i)
                                         / math.comb(n, ell))
                        assert abs(w[i] - want) < 1e-12


@pytest.mark.parametrize("n,m,k", [(4, 2, 2), (6, 3, 2), (8, 4, 3),
                                   (9, 4, 2), (12, 6, 4), (10, 4, 3)])
def test_divide_path_matches_hypergeometric(n, m, k):
    c = divide_unitary_path(spec_for(n, m, k))
    for ell in range(k + 1):
        out = simulate(c, unary_index(ell, k) << k)
        w = hyper_weights(n, m, k, ell)
        for i in range(ell + 1):
            idx = unary_index(i, k) | (unary_index(ell - i, k) << k)
            assert abs(out[idx] - w[i]) < 1e-10
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_divide_path_connectivity_depth_size():
    # path layout is S2 then S1, so the right register owns the low positions
    # depth pinned per case at its measured value, so a regression in the
    # meeting schedule shows here
    for n, m, k, depth in [(12, 6, 4, 148), (16, 8, 5, 221)]:
        c = divide_unitary_path(DivideSpec(n=n, m=m, k=k,
                                           left=list(range(k, 2 * k)),
                                           right=list(range(k))))
        assert validate_connectivity(c, ConnectivityGraph.path(2 * k)) == []
        assert asap_layering(c).depth <= depth
        assert c.size <= 32 * k * k


def test_divide_path_unitary_image_orthonormal():
    k = 2
    c = divide_unitary_path(spec_for(6, 3, k))
    images = [simulate(c, idx) for idx in range(1 << (2 * k))]
    gram = np.array([[np.vdot(a, b) for b in images] for a in images])
    assert np.allclose(gram, np.eye(1 << (2 * k)), atol=1e-9)


def _conveyor(n, m, k):
    """divide_unitary_path on path positions S2 = 0..k-1, S1 = k..2k-1."""
    return divide_unitary_path(DivideSpec(n=n, m=m, k=k,
                                          left=list(range(k, 2 * k)),
                                          right=list(range(k))))


def _conveyor_error(n, m, k):
    """_unary_error of the conveyor against the hypergeometric split: S2
    (positions 0..k-1) keeps l - i ones, S1 (k..2k-1) takes i."""
    def want(ell):
        w = hyper_weights(n, m, k, ell)
        return {unary_index(i, k) << k | unary_index(ell - i, k): w[i]
                for i in range(ell + 1)}
    return _unary_error(_conveyor(n, m, k), k, want)


def test_divide_path_above_simulator_cap():
    # 32 qubits
    assert _conveyor_error(40, 22, 16) < 1e-12


@pytest.mark.parametrize("k", range(1, 11))
def test_divide_path_exact_every_shape(k):
    # the pruned guards rely on no input holding more than k ones, so every
    # shape and every count l <= k is checked
    for n, m in [(2 * k, k), (3 * k, k), (3 * k, 2 * k), (4 * k + 1, 2 * k),
                 (5 * k, 3 * k)]:
        assert _conveyor_error(n, m, k) < 1e-12, (n, m)


@pytest.mark.parametrize("k", range(1, 11))
def test_divide_path_nearest_neighbour(k):
    c = _conveyor(4 * k, 2 * k, k)
    assert validate_connectivity(c, ConnectivityGraph.path(2 * k)) == []


@pytest.mark.parametrize("u,i,k,cx", [(1, 1, 3, 14), (2, 1, 3, 10),
                                      (1, 0, 3, 6), (3, 0, 3, 2)])
def test_divide_meeting_cx_count(u, i, k, cx):
    # S1 cell i - 1, S2 cell u - 1, S1 cell i, S2 cell u along the path;
    # guards s2[u] (while u + i < k) and s1[i - 1] (for i > 0)
    cells = [("s1", i - 1), ("s2", u - 1), ("s1", i), ("s2", u)]
    w2 = {ell: hyper_weights(4 * k, 2 * k, k, ell) ** 2
          for ell in range(k + 1)}
    c = Circuit(4)
    _divide_givens(c, cells, 1, u, i, k, w2)
    assert _cx_count(c) == cx
    assert all(abs(a - b) == 1 for g in c.gates if g.kind == "cx"
               for a, b in [g.qubits])


@pytest.mark.parametrize("u,i,k,cx", [(1, 1, 3, 13), (2, 1, 3, 9),
                                      (1, 0, 3, 7), (3, 0, 3, 5),
                                      (1, 1, 4, 15)])
def test_divide_meeting_merges_into_swap(u, i, k, cx):
    # a meeting followed by its pair's SWAP (3 CNOTs) merges its closing
    # CNOTs into it: the two take cx CNOTs, and the same unitary as the
    # whole meeting then the SWAP
    cells = [("s1", i - 1), ("s2", u - 1), ("s1", i), ("s2", u)]
    w2 = {ell: hyper_weights(4 * k, 2 * k, k, ell) ** 2
          for ell in range(k + 1)}
    whole = Circuit(4)
    _divide_givens(whole, cells, 1, u, i, k, w2)
    whole.swap(1, 2)
    c = Circuit(4)
    for a, b in _divide_givens(c, cells, 1, u, i, k, w2, swap=True):
        c.cx(a, b)
    assert _cx_count(c) == cx
    assert all(abs(a - b) == 1 for g in c.gates if g.kind == "cx"
               for a, b in [g.qubits])
    for x in range(16):
        assert np.abs(simulate(c, x) - simulate(whole, x)).max() < 1e-12


CONVEYOR_CX_MAX = {4: 156, 8: 692, 16: 2916}


@pytest.mark.parametrize("k", list(CONVEYOR_CX_MAX))
def test_divide_path_cx_count(k):
    assert _cx_count(_conveyor(4 * k, 2 * k, k)) <= CONVEYOR_CX_MAX[k]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_divide_path_emits_no_x_gates(k):
    c = _conveyor(4 * k, 2 * k, k)
    assert not any(g.params == (math.pi, 0.0, math.pi, 0.0) for g in c.gates)


def test_divide_spec_validation():
    with pytest.raises(ValueError):
        DivideSpec(n=4, m=1, k=2, left=[0, 1], right=[2, 3])
    with pytest.raises(ValueError):
        DivideSpec(n=6, m=3, k=2, left=[0, 1], right=[1, 2])


# --- unary amplitude preparation ------------------------------------------------


def test_unary_prep_trivial():
    c = unary_amplitude_prep(3, [1.0, 0.0, 0.0, 0.0])
    out = simulate(c, 0)
    assert abs(abs(out[0]) - 1.0) < 1e-10


def test_unary_prep_single_rotation():
    c = unary_amplitude_prep(1, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    out = simulate(c, 0)
    assert abs(out[0] - 1 / math.sqrt(2)) < 1e-9
    assert abs(out[1] - 1 / math.sqrt(2)) < 1e-9


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_unary_prep_random_amplitudes(k):
    rng = np.random.default_rng(k)
    for _ in range(5):
        a = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        a /= np.linalg.norm(a)
        c = unary_amplitude_prep(k, a)
        out = simulate(c, 0)
        target = np.zeros(1 << k, dtype=complex)
        for ell in range(k + 1):
            target[unary_index(ell, k)] = a[ell]
        assert fidelity(out, target) > 1 - 1e-9
        assert validate_connectivity(c, ConnectivityGraph.path(k)) == []


def test_unary_prep_depth_linear():
    for k in (8, 16, 32):
        d = asap_layering(unary_amplitude_prep(k, _point_mass(k))).depth
        assert d <= 8 * k


def _point_mass(k):
    a = np.zeros(k + 1)
    a[k] = 1.0
    return a


def test_unary_prep_rejects_unnormalized():
    with pytest.raises(ValueError):
        unary_amplitude_prep(2, [1.0, 1.0, 0.0])


def test_unary_prep_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        unary_amplitude_prep(2, [math.nan, 1.0, 0.0])
