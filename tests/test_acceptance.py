"""End-to-end acceptance regression.

One test per shipped guarantee; every test finishes by printing a single
``criterion N (...): PASS`` line (visible with ``pytest -s`` and in the
captured output of any failure).  Functional criteria are checked against
independent analytic oracles; depth criteria are structural (no simulation)
over a fixed benchmark matrix.
"""

import itertools
import math

import numpy as np
import pytest

from dickesynth.circuit import (Circuit, ConnectivityGraph, asap_layering,
                                inverse, validate_connectivity)
from dickesynth.encoding import u_uo
from dickesynth.lightcone import audit_lower_bound
from dickesynth.synth import (divide_unitary_ancilla, prepare_symmetric,
                              synth_alltoall, synth_grid)
from dickesynth.unary import (DivideSpec, dicke_unitary_path,
                              divide_unitary_path)
from dickesynth.verify import (basis_state, dicke_reference, fidelity,
                               partial_trace, simulate,
                               two_qubit_separability)


def unary_index(ell, width=None):
    return (1 << ell) - 1


def onehot_index(ell):
    return 0 if ell == 0 else 1 << (ell - 1)


def report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


# --- 1. desk-scale functional correctness --------------------------------------


def _desk_scale_cases():
    for n in range(2, 15):
        yield "complete", None, n
        yield "path", None, n
    for n1, n2 in [(2, 3), (3, 4), (2, 7)]:
        yield "grid", (n1, n2), n1 * n2


def test_criterion_01_desk_scale_dicke_fidelity():
    worst = 1.0
    for topo, dims, n in _desk_scale_cases():
        for k in range(1, n // 2 + 1):
            if topo == "complete":
                c, _ = synth_alltoall(n, k)
            elif topo == "path":
                c = dicke_unitary_path(n, k)
            else:
                c, _ = synth_grid(dims[0], dims[1], k)
            for ell in range(k + 1):
                out = simulate(c, unary_index(ell))
                worst = min(worst, fidelity(out, dicke_reference(n, ell)))
    report(1, f"desk-scale fidelity, worst={worst:.3e}", worst >= 1 - 1e-8)


# --- 2. divide-unitary amplitude reproduction -----------------------------------


def _divide_entrywise_error(c, n, m, k):
    err = 0.0
    dim = 1 << (2 * k)
    for ell in range(k + 1):
        out = simulate(c, unary_index(ell) << k)
        # fold any ancilla back onto the two width-k registers
        out = out.reshape(-1, dim)[0]
        want = np.zeros(dim)
        for i in range(ell + 1):
            if i <= m and ell - i <= n - m:
                idx = unary_index(i) | (unary_index(ell - i) << k)
                want[idx] = math.sqrt(math.comb(m, i)
                                      * math.comb(n - m, ell - i)
                                      / math.comb(n, ell))
        err = max(err, float(np.max(np.abs(out - want))))
    return err


def _unary_divide_ancilla(spec, ancilla, nq):
    """The one-hot ancilla divide between unary <-> one-hot conversions:
    u_uo(S2), the divide, then inverse(u_uo) on S1 and on S2."""
    c = Circuit(nq)
    for part in (u_uo(spec.right),
                 divide_unitary_ancilla(spec, ancilla, num_qubits=nq),
                 inverse(u_uo(spec.left)), inverse(u_uo(spec.right))):
        c.extend(part)
    return c


def test_criterion_02_divide_unitary_coefficients():
    err = 0.0
    for k in range(1, 5):
        for n in range(2 * k, 13):
            for m in range(k, n - k + 1):
                spec = DivideSpec(n=n, m=m, k=k, left=list(range(k)),
                                  right=list(range(k, 2 * k)))
                err = max(err, _divide_entrywise_error(
                    divide_unitary_path(spec), n, m, k))
                nq = 2 * k + (2 * k + 2)   # accelerated branch, 2k + 2 ancilla
                c = _unary_divide_ancilla(spec, range(2 * k, nq), nq)
                err = max(err, _divide_entrywise_error(c, n, m, k))
    report(2, f"divide coefficients, max err={err:.3e}", err <= 1e-10)


# --- 3. encoding exhaustiveness -------------------------------------------------


def _peak(vec):
    j = int(np.argmax(np.abs(vec)))
    if abs(vec[j]) <= 1 - 1e-10:
        return -1  # not a clean basis state
    return j


def test_criterion_03_encoding_arithmetic_exhaustive():
    ok = True
    for k in range(1, 7):
        c = u_uo(range(k))
        for ell in range(k + 1):
            ok &= _peak(simulate(c, unary_index(ell))) == onehot_index(ell)
    report(3, "unary -> one-hot exhaustive k<=6", ok)


# --- 5/6/7. structural depth regressions + connectivity --------------------------


def test_criterion_05_alltoall_depth_regression():
    ratios = {}
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        for k in (2, 4, 8, 16, 32):
            if k > n // 2:
                continue
            c, _ = synth_alltoall(n, k)
            d = asap_layering(c).depth
            ratios[(n, k)] = d / (math.log2(k) * math.log2(n / k) + k)
    cap = 4 * ratios[(64, 2)]
    worst = max(ratios.values())
    report(5, f"all-to-all depth ratio, worst={worst:.1f} cap={cap:.1f}",
           worst <= cap)


GRID_CASE1 = [(n1, n2, k)
              for n1, n2 in [(4, 4), (8, 8), (8, 16), (16, 16), (16, 32),
                             (32, 32)]
              for k in (2, 4, 8) if k >= n2 / n1]
GRID_CASE2 = [(2, 16, 1), (2, 32, 1), (2, 64, 1), (2, 128, 1),
              (4, 32, 2), (4, 64, 2)]
PATH_BENCH = [(16, 2), (32, 2), (64, 4), (128, 4)]


def _bench_grid_circuits():
    for n1, n2, k in GRID_CASE1 + GRID_CASE2:
        c, _ = synth_grid(n1, n2, k)
        yield n1, n2, k, c


def test_criterion_06_grid_depth_regression():
    worst1 = worst2 = 0.0
    for n1, n2, k, c in _bench_grid_circuits():
        d = asap_layering(c).depth
        n = n1 * n2
        if k >= n2 / n1:
            worst1 = max(worst1, d / (k * math.log2(n / k) + n2))
        else:
            worst2 = max(worst2, d / n2)
    report(6, f"grid depth ratios, case1={worst1:.1f} (cap 120) "
              f"case2={worst2:.1f} (cap 60)",
           worst1 <= 120 and worst2 <= 60)


def test_criterion_07_bench_connectivity_clean():
    violations = 0
    for n1, n2, k, c in _bench_grid_circuits():
        violations += len(validate_connectivity(c, ConnectivityGraph.grid(n1, n2)))
    for n, k in PATH_BENCH:
        c = dicke_unitary_path(n, k)
        violations += len(validate_connectivity(c, ConnectivityGraph.path(n)))
    report(7, f"bench connectivity, violations={violations}", violations == 0)


# --- 8. reduced density matrix + separability verdict -----------------------------


def _comb0(s, t):
    return math.comb(s, t) if 0 <= t <= s else 0


def _rdm_reference(n, k):
    # two-qubit marginal of |D^n_k>: hypergeometric diagonal with a single
    # coherence between |01> and |10>
    a = _comb0(n - 2, k) / math.comb(n, k)
    b = _comb0(n - 2, k - 1) / math.comb(n, k)
    c = _comb0(n - 2, k - 2) / math.comb(n, k)   # C(n-2,-1)=0 when k=1
    rho = np.diag([a, b, b, c]).astype(complex)
    rho[1, 2] = rho[2, 1] = b
    return rho


def test_criterion_08_reduced_density_matrix():
    err, ok, k1_seen = 0.0, True, False
    for n in range(2, 15):
        for k in range(1, n // 2 + 1):
            rho = partial_trace(dicke_reference(n, k), (0, n - 1))
            err = max(err, float(np.max(np.abs(rho - _rdm_reference(n, k)))))
            ok &= two_qubit_separability(rho) == "entangled"
            k1_seen |= k == 1
    report(8, f"two-qubit marginal, max err={err:.3e}, all entangled",
           ok and k1_seen and err <= 1e-12)


# --- 9. light-cone audit floors ---------------------------------------------------


def test_criterion_09_lightcone_floors():
    ok = True
    for n in (8, 16, 32, 64):
        c, _ = synth_alltoall(n, 2)
        r = audit_lower_bound(c, ConnectivityGraph.complete(n))
        ok &= r.passed and r.growth_ok
        ok &= r.floor >= math.ceil(math.log2(n)) - 1   # depth >= log2(n) - c
        ok &= r.normalized_depth >= r.floor
    for n1, n2, k in [(2, 16, 1), (4, 8, 2), (2, 32, 1)]:
        c, _ = synth_grid(n1, n2, k)
        r = audit_lower_bound(c, ConnectivityGraph.grid(n1, n2))
        ok &= r.passed and r.growth_ok
        ok &= r.floor >= n2 / 2 and r.normalized_depth >= r.floor
    report(9, "light-cone floors: complete >= log2(n)-1, grid >= n2/2", ok)


# --- 10. symmetric-state preparation ----------------------------------------------


def test_criterion_10_symmetric_state_prep():
    rng = np.random.default_rng(7)
    cases = [(4, 2), (6, 3), (8, 4), (10, 3), (12, 4)]
    worst_fid, worst_unif = 1.0, 0.0
    for n, k in cases:
        for _ in range(4):                      # 20 random vectors total
            amps = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
            amps /= np.linalg.norm(amps)
            c = prepare_symmetric("complete", n, k, amps)
            out = simulate(c, 0)
            want = sum(a * dicke_reference(n, ell)
                       for ell, a in enumerate(amps))
            worst_fid = min(worst_fid, fidelity(out, want))
            for ell in range(k + 1):
                weights = [abs(out[idx]) for idx in range(1 << n)
                           if bin(idx).count("1") == ell]
                worst_unif = max(worst_unif, max(weights) - min(weights))
    report(10, f"symmetric prep, worst fid={worst_fid:.3e} "
               f"uniformity={worst_unif:.3e}",
           worst_fid >= 1 - 1e-8 and worst_unif <= 1e-9)
