import numpy as np
import pytest

from dickesynth.circuit import asap_layering, compose, inverse
from dickesynth.encoding import u_uo
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
    c = u_uo(range(4))
    assert peak(simulate(c, basis(0, 4))) == 0


def test_u_uo_maps_three():
    # |0111> (unary 3) -> |0100> (one-hot 3)
    c = u_uo(range(4))
    assert peak(simulate(c, basis(0b0111, 4))) == 0b0100


@pytest.mark.parametrize("k", range(1, 9))
def test_u_uo_exhaustive(k):
    c = u_uo(range(k))
    for ell in range(k + 1):
        out = peak(simulate(c, basis(unary(ell, k), k)))
        assert out == onehot(ell, k)


@pytest.mark.parametrize("k", range(2, 9))
def test_u_uo_roundtrip_identity(k):
    c = u_uo(range(k))
    both = compose(c, inverse(c))
    for ell in range(k + 1):
        assert peak(simulate(both, basis(unary(ell, k), k))) == unary(ell, k)


def test_u_uo_log_depth():
    for k in (8, 16, 32, 64):
        d = asap_layering(u_uo(range(k))).depth
        assert d <= 2 * int(np.ceil(np.log2(k))) + 2

