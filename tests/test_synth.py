import hashlib
import math
import random

import numpy as np
import pytest

from dickesynth.circuit import (Circuit, ConnectivityGraph, Gate,
                                asap_layering, dumps, inverse, loads,
                                remap_qubits, validate_connectivity)
from dickesynth.encoding import u_uo
from dickesynth.synth import (SynthesisPlan, _conveyor_depth, _ladder_slope,
                              _pack_rows, _permute_on_path,
                              divide_unitary_ancilla,
                              prepare_dicke, prepare_symmetric,
                              synth_alltoall, synth_grid)
from dickesynth.unary import (DivideSpec, dicke_unitary_path,
                              divide_unitary_path, hyper_weights)
from dickesynth.verify import (_evolve, dicke_fidelities, dicke_reference,
                               fidelity, simulate)


def unary_index(ell, k):
    return (1 << ell) - 1


# --- ancilla-accelerated divide unitary ---------------------------------------


def aa_spec(n, m, k):
    return DivideSpec(n=n, m=m, k=k, left=list(range(k)),
                      right=list(range(k, 2 * k)))


def unary_divide(spec, ancilla, num_qubits):
    """The one-hot divide wrapped to take and leave the count in unary:
    u_uo(S2), the divide, then inverse(u_uo) on S1 and on S2."""
    c = Circuit(num_qubits)
    for part in (u_uo(spec.right),
                 divide_unitary_ancilla(spec, ancilla, num_qubits=num_qubits),
                 inverse(u_uo(spec.left)), inverse(u_uo(spec.right))):
        c.extend(part)
    return c


def test_divide_ancilla_zero_weight_identity():
    c = unary_divide(aa_spec(8, 4, 2), range(4, 12), num_qubits=12)
    out = simulate(c, 0)
    assert abs(abs(out[0]) - 1.0) < 1e-10


def test_divide_ancilla_eight_four_two():
    # amplitudes sqrt(C(4,i) C(4,2-i) / C(8,2)) = sqrt(6/28), sqrt(16/28), sqrt(6/28)
    k, N = 2, 8
    c = unary_divide(aa_spec(8, 4, k), range(2 * k, 2 * k + N),
                     num_qubits=2 * k + N)
    out = simulate(c, unary_index(2, k) << k)
    want = [math.sqrt(6 / 28), math.sqrt(16 / 28), math.sqrt(6 / 28)]
    for i, w in enumerate(want):
        idx = unary_index(i, k) | (unary_index(2 - i, k) << k)
        assert abs(out[idx] - w) < 1e-9
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


@pytest.mark.parametrize("n,m,k", [(6, 3, 2), (8, 4, 3), (10, 5, 3),
                                   (9, 6, 3), (10, 4, 2)])
def test_divide_ancilla_matches_path_variant(n, m, k):
    N = 3 * k + 2
    nq = 2 * k + N
    c_anc = unary_divide(aa_spec(n, m, k), range(2 * k, nq), num_qubits=nq)
    c_path = divide_unitary_path(aa_spec(n, m, k))
    for ell in range(k + 1):
        idx = unary_index(ell, k) << k
        a = simulate(c_anc, idx)
        p = simulate(c_path, idx)
        # ancilla must come back clean: all amplitude in the low 2k qubits
        folded = a.reshape(-1, 1 << (2 * k)).sum(axis=0)
        assert abs(np.linalg.norm(a.reshape(-1, 1 << (2 * k))[0]) - 1) < 1e-9
        assert fidelity(folded, p) > 1 - 1e-9


def _output_support(c, index):
    """{basis index: amplitude} of c applied to a basis input, from the
    simulator's support-only kernel, which builds no 2^n vector."""
    idx, amp = _evolve(c, np.array([index]), np.array([1.0 + 0j]))
    return dict(zip(idx.tolist(), amp))


def _unary_bits(reg, ell):
    """Basis index with ones on the first ell qubits of reg."""
    return sum(1 << q for q in reg[:ell])


def _ancilla_divide_error(c, spec):
    """Largest entrywise gap between c and the divide on every unary input
    l <= k on S2, with every other qubit required back at |0>."""
    k = spec.k
    err = 0.0
    for ell in range(k + 1):
        got = _output_support(c, _unary_bits(spec.right, ell))
        w = hyper_weights(spec.n, spec.m, k, ell)
        want = {_unary_bits(spec.left, i) | _unary_bits(spec.right, ell - i):
                w[i] for i in range(ell + 1)}
        err = max(err, max(abs(got.get(x, 0.0) - want.get(x, 0.0))
                           for x in got.keys() | want.keys()))
    return err


def _packing(spec, ancilla):
    """The divide's batches of rows (l, middle slots, the S1 and S2 its
    erase reads) on these ancilla."""
    return _pack_rows(spec.k, list(ancilla), list(spec.left),
                      list(spec.right))


def _batches(spec, ancilla):
    """Counts of each batch of rows the divide packs on these ancilla."""
    return [[row[0] for row in rows] for rows in _packing(spec, ancilla)]


def _rows_budget(k, p):
    """Ancilla count at which the p widest rows, l = k-p+1..k, fit one
    batch: the widest takes its k-1 middle slots, every other row l takes
    3(l-1) (its slots and two (l-1)-wide copies of S1 and S2). Narrower
    rows cost less, so every batch but the last then holds at least p
    rows. No divide takes fewer than max(k - 1, 1)."""
    return max(1, k - 1 + 3 * sum(ell - 1 for ell in range(k - p + 1, k)))


@pytest.mark.parametrize("k,p", [(k, p) for k in (1, 2, 3, 4, 5)
                                 for p in (1, 2, 3) if p <= k])
def test_divide_ancilla_one_hot_load_rows_per_batch(k, p):
    spec = aa_spec(4 * k + 1, 2 * k, k)
    nq = 2 * k + _rows_budget(k, p)
    assert all(len(b) >= p for b in _batches(spec, range(2 * k, nq))[:-1])
    c = unary_divide(spec, range(2 * k, nq), num_qubits=nq)
    assert _ancilla_divide_error(c, spec) < 1e-10


def _is_ry(g):
    return g.kind == "u" and g.params[0] != 0.0 and not any(g.params[1:])


def test_divide_ancilla_fault_in_one_row_is_caught():
    # on 2k ancilla the batches mix widths and the last one's slots wrap
    # around the pool
    k = 5
    spec = aa_spec(4 * k + 1, 2 * k, k)
    anc = range(2 * k, 4 * k)
    assert _batches(spec, anc) == [[1, 2, 3], [4], [5]]
    c = unary_divide(spec, anc, num_qubits=4 * k)
    assert _ancilla_divide_error(c, spec) < 1e-10
    rows = [row for rows in _packing(spec, anc) for row in rows]
    assert anc[0] in rows[-1][1]
    for ell, mid, _, _ in rows:
        # only row l's tree rotates its flag s2[l-1]; from its first such
        # rotation on, the next rotation on one of its middle slots is its
        # own (row 1 has none, so its flag's is taken)
        flag = spec.right[ell - 1]
        start = next(i for i, g in enumerate(c.gates)
                     if _is_ry(g) and g.qubits == (flag,))
        on = set(mid) or {flag}
        at = next(i for i in range(start, c.size)
                  if _is_ry(c.gates[i]) and c.gates[i].qubits[0] in on)
        # gate at is text line at + 1: U q theta phi lam gamma
        lines = dumps(c).splitlines()
        words = lines[at + 1].split()
        words[2] = repr(float(words[2]) + 1e-3)
        faulty = loads("\n".join([*lines[:at + 1], " ".join(words),
                                  *lines[at + 2:]]))
        assert _ancilla_divide_error(faulty, spec) > 1e-6, ell


def test_divide_ancilla_erase_phase_is_seen(monkeypatch):
    # the erase is a relative-phase Toffoli, exact only because its slot
    # holds 1 just where both controls do; a Z on the slot before it puts
    # -1 on that branch, and both the divide oracle and the Dicke check
    # must see it
    import dickesynth.synth as synth
    spec, _ = _top_spec(60, 10)
    assert _ancilla_divide_error(_top_divide(60, 10), spec) < 1e-12
    assert min(f for _, f in dicke_fidelities(
        synth_alltoall(16, 3)[0], range(4))) > 1 - 1e-10
    real = synth.build_rccx

    def phased(c, a, b, t):
        c.phase(t, math.pi)
        real(c, a, b, t)

    monkeypatch.setattr(synth, "build_rccx", phased)
    assert _ancilla_divide_error(_top_divide(60, 10), spec) > 0.1
    assert min(f for _, f in dicke_fidelities(
        synth_alltoall(16, 3)[0], range(4))) < 0.9


def _top_spec(nn, k):
    """Spec and idle qubits of the ancilla divide synth_alltoall places at
    the top of an nn-qubit block."""
    half = nn // 2
    spec = DivideSpec(n=nn, m=nn - half, k=k,
                      left=tuple(range(half, half + k)),
                      right=tuple(range(k)))
    return spec, tuple(range(k, half)) + tuple(range(half + k, nn))


def _top_divide(nn, k):
    """The ancilla divide synth_alltoall places at the top of an nn-qubit
    block, on the block's idle qubits, wrapped to take and leave the count
    in unary."""
    spec, idle = _top_spec(nn, k)
    return unary_divide(spec, idle, num_qubits=nn)


def test_divide_ancilla_sixty_qubits_mixed_widths():
    # above the dense simulator's cap: 40 idle qubits hold mixed-width
    # batches, checked on every count through the support-only kernel
    spec, idle = _top_spec(60, 10)
    assert _batches(spec, idle) == [[1, 2, 3, 4, 5, 6], [7, 8], [9, 10]]
    assert _ancilla_divide_error(_top_divide(60, 10), spec) < 1e-12


@pytest.mark.parametrize("nn,k,most", [(128, 32, 21), (64, 16, 10),
                                       (32, 8, 5)])
def test_divide_ancilla_batch_count(nn, k, most):
    # nn - 2k idle qubits; sizing every row for count k ran one row per
    # batch here, k batches
    spec, idle = _top_spec(nn, k)
    assert len(_batches(spec, idle)) <= most


# (depth, size) of the top-level ancilla divide when it loaded S1 in
# binary through gray-code multiplexors and converted it to one-hot
BINARY_LOAD_DEPTH_SIZE = {(1024, 8): (331, 5553), (4096, 32): (748, 68223)}


@pytest.mark.parametrize("nn,k", list(BINARY_LOAD_DEPTH_SIZE))
def test_divide_ancilla_no_deeper_or_larger_than_binary_load(nn, k):
    c = _top_divide(nn, k)
    depth, size = BINARY_LOAD_DEPTH_SIZE[(nn, k)]
    assert asap_layering(c).depth <= depth
    assert c.size <= size


def test_divide_ancilla_top_level_depth_target():
    assert asap_layering(_top_divide(4096, 32)).depth < 120


@pytest.mark.parametrize("nn,k,depth", [(128, 32, 445), (64, 16, 212),
                                        (32, 8, 97)])
def test_divide_ancilla_bottom_level_depth(nn, k, depth):
    # the blocks where few rows fit: rows packed by their own width, and
    # each batch's trees overlapping the last batch's erase
    assert asap_layering(_top_divide(nn, k)).depth <= depth


def test_alltoall_depth_target():
    # off powers of two, some blocks divide on fewer than 2k idle qubits
    for n, k, depth in [(1024, 8, 580), (512, 16, 1064), (768, 8, 559),
                        (96, 8, 442), (200, 30, 1751), (24, 8, 335)]:
        c, _ = synth_alltoall(n, k)
        assert asap_layering(c).depth <= depth, (n, k)


def test_divide_ancilla_small_budget_is_refused():
    # N < max(k - 1, 1) is refused; synth_alltoall gives such a block the
    # ladder
    for k in range(1, 9):
        floor = max(k - 1, 1)
        spec, idle = _top_spec(2 * k + floor, k)
        assert len(idle) == floor
        with pytest.raises(ValueError, match=f"need {floor} ancilla"):
            divide_unitary_ancilla(spec, idle[1:], num_qubits=2 * k + floor)


@pytest.mark.parametrize("k", range(1, 9))
def test_divide_ancilla_exact_at_floor(k):
    # the smallest block synth_alltoall divides: exactly max(k - 1, 1)
    # idle qubits, the fewest the divide takes
    floor = max(k - 1, 1)
    spec, idle = _top_spec(2 * k + floor, k)
    assert len(idle) == floor
    assert _ancilla_divide_error(_top_divide(2 * k + floor, k), spec) < 1e-12


# --- all-to-all synthesis ------------------------------------------------------


def test_alltoall_bell():
    c, _ = synth_alltoall(2, 1)
    out = simulate(c, 0b01)
    assert fidelity(out, dicke_reference(2, 1)) > 1 - 1e-10


@pytest.mark.parametrize("n,k", [(12, 2), (10, 3), (9, 4), (14, 2)])
def test_alltoall_all_weights(n, k):
    c, _ = synth_alltoall(n, k)
    for ell in range(k + 1):
        out = simulate(c, unary_index(ell, n))
        assert fidelity(out, dicke_reference(n, ell)) > 1 - 1e-8


def test_alltoall_plan_structure():
    n, k = 16, 2
    c, plan = synth_alltoall(n, k)
    assert isinstance(plan, SynthesisPlan)
    assert c.num_qubits == n  # only data qubits, idle ones double as ancilla
    per_layer = {}
    for node in plan.recursion_tree:
        per_layer.setdefault(node.layer, []).append(node)
        assert node.n_node // 2 >= k  # each half can hold the whole count
    for layer, nodes in per_layer.items():
        assert len(nodes) <= 2 ** (layer - 1)
    tails = sorted(q for unit in plan.tail_units for q in unit)
    assert tails == list(range(n))
    assert "plan topology=complete" in plan.report()


def test_plan_records_divide_variant_that_ran():
    # every all-to-all node is the ancilla divide; every grid node is a
    # conveyor
    for n, k in [(64, 2), (256, 2), (1024, 8)]:
        _, plan = synth_alltoall(n, k)
        assert plan.recursion_tree
        assert {node.variant for node in plan.recursion_tree} == {"ancilla"}
        assert "variant=ancilla" in plan.report()
    _, plan = synth_grid(4, 8, 2)
    assert plan.recursion_tree
    assert all(p.variant == "path" for p in plan.recursion_tree)


def _cx(c):
    return sum(1 for g in c.gates if g.kind == "cx")


@pytest.mark.parametrize("make", [lambda: synth_alltoall(256, 8),
                                  lambda: synth_alltoall(64, 2),
                                  lambda: synth_alltoall(1024, 8),
                                  lambda: synth_alltoall(23, 3),
                                  lambda: synth_grid(8, 16, 4),
                                  lambda: synth_grid(2, 32, 1)],
                         ids=["alltoall-256-8", "alltoall-64-2",
                              "alltoall-1024-8", "alltoall-23-3",
                              "grid-8x16-4", "grid-2x32-1"])
def test_plan_nodes_record_cx(make):
    # the circuit is its divide nodes, its count conversions and its tail
    # ladders laid end to end, so their CNOT counts and sizes must add up
    # to the circuit's
    c, plan = make()
    nodes = plan.recursion_tree
    assert nodes
    ladders = [dicke_unitary_path(len(u), min(plan.k, len(u)))
               for u in plan.tail_units]
    records = nodes + plan.conversions
    assert sum(r.cx for r in records) + sum(map(_cx, ladders)) == _cx(c)
    assert (sum(r.size for r in records) + sum(t.size for t in ladders)
            == c.size)
    report = plan.report()
    for node in plan.recursion_tree:
        assert 0 < node.cx < node.size
        assert node.line().endswith(f"size={node.size} cx={node.cx}")
        assert node.line() in report
    # on the complete graph: one u_uo at the (ancilla) root, and one
    # inverse(u_uo) on the count register of each half of an ancilla
    # divide that is no ancilla divide itself
    if plan.topology.topology_tag == "complete":
        conv = u_uo(range(plan.k))
        onehot = [node for node in nodes if node.variant == "ancilla"]
        assert onehot[0] is nodes[0]
        halves = [r for node in onehot for r in (node.s2, node.s1)]
        for node in onehot[1:]:
            halves.remove(node.s2)
        assert [r.name for r in plan.conversions] == (
            ["u_uo"] + ["inverse(u_uo)"] * len(halves))
        assert sorted(r.qubits for r in plan.conversions[1:]) == sorted(
            halves)
        for r in plan.conversions:
            assert (r.depth, r.size, r.cx) == (
                asap_layering(conv).depth, conv.size, _cx(conv))
            assert "  convert " + r.line() in report
    else:
        assert plan.conversions == []


def _alltoall_every_ladder(n, k):
    """Oracle for synth_alltoall: a depth-scored choice per block size,
    with the ladder built and scored at every size, the ancilla divide at
    every size whose idle qubits hold its max(k - 1, 1) ancilla, and the
    path conveyor at every size that can divide. synth_alltoall scores
    nothing and never places the conveyor, so matching this oracle shows
    that its two-way rule loses no depth to the conveyor."""
    chosen = {}

    def choose(nn):
        if nn not in chosen:
            half = nn // 2
            options = [(dicke_unitary_path(nn, k), 0, "ladder")]
            if half >= k:
                spec = DivideSpec(n=nn, m=nn - half, k=k,
                                  left=tuple(range(half, half + k)),
                                  right=tuple(range(k)))
                idle = tuple(range(k, half)) + tuple(range(half + k, nn))
                below = max(choose(half)[0], choose(nn - half)[0])
                if len(idle) >= max(k - 1, 1):
                    options.append((divide_unitary_ancilla(
                        spec, idle, num_qubits=nn), below, "ancilla"))
                options.append((divide_unitary_path(spec), below, "path"))
            scores = [asap_layering(t).depth + below
                      for t, below, _ in options]
            best = scores.index(min(scores))
            chosen[nn] = (scores[best], *options[best])
        return chosen[nn]

    c = Circuit(n)

    # the ancilla divide takes the count one-hot, the ladder and the path
    # conveyor in unary: u_uo or inverse(u_uo) converts it on the block's
    # first k qubits where it arrives in the other form
    def rec(base, nn, onehot):
        _, template, _, variant = choose(nn)
        block = Circuit(nn)
        if onehot and variant != "ancilla":
            block.extend(inverse(u_uo(range(k))))
        if not onehot and variant == "ancilla":
            block.extend(u_uo(range(k)))
        block.extend(template)
        c.extend(remap_qubits(block, range(base, base + nn), n))
        if variant != "ladder":
            rec(base, nn // 2, variant == "ancilla")
            rec(base + nn // 2, nn - nn // 2, variant == "ancilla")

    rec(0, n, False)
    return c


# for k >= 2, a block of 3k - 2 qubits falls just below the ancilla floor
# and one of 3k - 1 sits on it
ORACLE_POINTS = [(n, k) for k in (1, 2, 3, 4, 8, 16)
                 for n in sorted({2 * k, 2 * k + 1, 3 * k - 2, 3 * k - 1,
                                  3 * k + 1, 4 * k - 1, 4 * k, 4 * k + 1,
                                  5 * k + 2, 8 * k - 1, 8 * k, 16 * k + 3,
                                  100, 256})
                 if 2 * k <= n <= 256]


@pytest.mark.parametrize("n,k", ORACLE_POINTS)
def test_alltoall_matches_every_ladder_oracle(n, k):
    c, _ = synth_alltoall(n, k)
    assert dumps(c) == dumps(_alltoall_every_ladder(n, k))


# (depth, size) of synth_alltoall before the per-block-size choice, when
# k > n/4 took the ladder outright, blocks of <= 2k qubits always did, and
# every larger block divided
PRE_CHOICE_DEPTH_SIZE = {
    (14, 3): (404, 870), (16, 3): (410, 930), (64, 4): (1002, 7372),
    (64, 8): (2048, 14491), (128, 16): (4566, 44229),
    (256, 8): (2852, 72487), (512, 16): (5894, 224442),
    (1024, 8): (3514, 306583),
}


@pytest.mark.parametrize("n,k", list(PRE_CHOICE_DEPTH_SIZE))
def test_alltoall_no_deeper_or_larger_than_before(n, k):
    c, _ = synth_alltoall(n, k)
    depth, size = PRE_CHOICE_DEPTH_SIZE[(n, k)]
    assert asap_layering(c).depth <= depth
    assert c.size <= size


def _dicke_faults(c, n, k):
    """What is wrong with c as a Dicke unitary, checked on every unary
    input l <= k through the support-only kernel with uint64 indices (up
    to 64 qubits): a support other than C(n, l) strings, a string of
    weight other than l, or an amplitude off 1/sqrt(C(n, l)) by 1e-12."""
    faults = []
    for ell in range(k + 1):
        idx, amp = _evolve(c, np.array([(1 << ell) - 1], dtype=np.uint64),
                           np.array([1.0 + 0j]))
        size = math.comb(n, ell)
        if len(idx) != size:
            faults.append(f"l={ell}: support {len(idx)} != {size}")
        if {int(i).bit_count() for i in idx.tolist()} != {ell}:
            faults.append(f"l={ell}: a string of weight other than {ell}")
        gap = np.abs(amp - 1 / math.sqrt(size)).max()
        if not gap < 1e-12:
            faults.append(f"l={ell}: max |amp - 1/sqrt(C)| = {gap}")
    return faults


# (24,4) and (30,5) divide their n/2-qubit blocks on fewer than 2k idle
# qubits
@pytest.mark.parametrize("n,k", [(24, 3), (24, 4), (30, 5), (32, 2),
                                 (40, 4), (48, 3), (64, 2)])
def test_alltoall_exact_above_simulator_cap(n, k):
    c, plan = synth_alltoall(n, k)
    assert plan.recursion_tree
    assert _dicke_faults(c, n, k) == []


def test_alltoall_dropped_conversion_is_caught():
    # the root's u_uo and each tail's inverse(u_uo) are what keep the count
    # one-hot between levels; a circuit missing either is wrong
    n, k = 24, 3
    c, plan = synth_alltoall(n, k)
    # gate i is text line i + 1
    lines = dumps(c).splitlines()
    root = dumps(u_uo(range(k))).splitlines()[1:]
    conv = len(root)
    assert lines[1:conv + 1] == root
    no_root = loads("\n".join([lines[0], *lines[conv + 1:]]))
    # the last tail placed: its conversion, then its ladder
    tail = plan.tail_units[-1]
    at = c.size - dicke_unitary_path(len(tail), k).size - conv
    assert lines[at + 1:at + conv + 1] == dumps(remap_qubits(
        inverse(u_uo(range(k))), tail, n)).splitlines()[1:]
    no_tail = loads("\n".join([*lines[:at + 1], *lines[at + conv + 1:]]))
    assert _dicke_faults(no_root, n, k)
    assert _dicke_faults(no_tail, n, k)


@pytest.mark.parametrize("k", list(range(1, 13)) + [16, 32])
def test_conveyor_depth_is_the_emitted_depth(k):
    # the wide grid's balance rule prices the conveyor without building it
    for nn in sorted({2 * k, 2 * k + 1, 4 * k - 1} if k <= 12 else {2 * k}):
        spec = DivideSpec(n=nn, m=nn - nn // 2, k=k,
                          left=tuple(range(k, 2 * k)), right=tuple(range(k)))
        assert asap_layering(divide_unitary_path(spec)).depth == (
            _conveyor_depth(k)), nn


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 16, 32])
def test_ladder_slope_is_the_emitted_slope(k):
    def depth(nn):
        return asap_layering(dicke_unitary_path(nn, k)).depth

    for nn in sorted({k + 1, 2 * k, 64}):
        assert depth(nn + 1) - depth(nn) == _ladder_slope(k), nn


def test_alltoall_no_deeper_than_ladder():
    # every shape to n = 40: a divide is only worth its ancilla and its
    # tails where it beats the one ladder, or ties it with fewer gates
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            c, _ = synth_alltoall(n, k)
            ladder = dicke_unitary_path(n, k)
            depth = asap_layering(c).depth
            ladder_depth = asap_layering(ladder).depth
            assert depth <= ladder_depth, (n, k)
            if depth == ladder_depth:
                assert c.size <= ladder.size, (n, k)


def test_alltoall_ancilla_divides_above_floor():
    # blocks of 10 and 11 qubits at k = 3 hold the divide's 2 ancilla
    for n, depth in [(10, 93), (11, 100)]:
        c, plan = synth_alltoall(n, 3)
        assert [node.variant for node in plan.recursion_tree] == ["ancilla"]
        assert [(r.name, r.qubits) for r in plan.conversions] == [
            ("u_uo", (0, 1, 2)), ("inverse(u_uo)", (0, 1, 2)),
            ("inverse(u_uo)", (5, 6, 7))]
        assert asap_layering(c).depth <= depth
        assert _dicke_faults(c, n, 3) == []
    c, plan = synth_alltoall(23, 3)
    assert [(node.n_node, node.variant) for node in plan.recursion_tree] == [
        (23, "ancilla"), (11, "ancilla"), (12, "ancilla")]
    assert [(r.name, r.qubits) for r in plan.conversions] == [
        ("u_uo", (0, 1, 2)), ("inverse(u_uo)", (0, 1, 2)),
        ("inverse(u_uo)", (5, 6, 7)), ("inverse(u_uo)", (11, 12, 13)),
        ("inverse(u_uo)", (17, 18, 19))]
    assert asap_layering(c).depth <= 124
    assert _dicke_faults(c, 23, 3) == []


def test_alltoall_large_k_delegates_to_ladder():
    # 7 - 2k = 1 idle qubit holds no divide's k - 1 = 2 ancilla: only the
    # ladder fits
    c, plan = synth_alltoall(7, 3)
    assert plan.recursion_tree == []
    for ell in range(4):
        out = simulate(c, unary_index(ell, 7))
        assert fidelity(out, dicke_reference(7, ell)) > 1 - 1e-8


# (14,3) has blocks below the ancilla floor that take the ladder; (24,8),
# (16,3) and (23,3) divide blocks whose idle qubits are fewer than 2k
@pytest.mark.parametrize("n,k", [(1024, 8), (512, 16), (24, 8), (14, 3),
                                 (16, 3), (23, 3)])
def test_alltoall_builds_only_placed_templates(monkeypatch, n, k):
    import dickesynth.synth as synth
    ladders, divides, conveyors = [], [], []

    def recorded(log, build):
        def wrapper(*args, **kwargs):
            log.append(args[0])
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(synth, "dicke_unitary_path",
                        recorded(ladders, dicke_unitary_path))
    monkeypatch.setattr(synth, "divide_unitary_ancilla",
                        recorded(divides, divide_unitary_ancilla))
    monkeypatch.setattr(synth, "divide_unitary_path",
                        recorded(conveyors, divide_unitary_path))
    _, plan = synth_alltoall(n, k)
    # each template built is placed, and built once per block size; no
    # conveyor is built
    assert sorted(ladders) == sorted({len(u) for u in plan.tail_units})
    assert sorted(spec.n for spec in divides) == sorted(
        {node.n_node for node in plan.recursion_tree})
    assert conveyors == []


def test_alltoall_size_linear_in_nk():
    for n, k in [(64, 2), (128, 4), (256, 8)]:
        c, _ = synth_alltoall(n, k)
        assert c.size <= 600 * n * k


def test_alltoall_rejects_bad_k():
    with pytest.raises(ValueError):
        synth_alltoall(8, 5)
    with pytest.raises(ValueError):
        synth_alltoall(8, 0)


# --- grid synthesis -------------------------------------------------------------


def test_grid_smallest():
    c, _ = synth_grid(2, 2, 1)
    g = ConnectivityGraph.grid(2, 2)
    assert validate_connectivity(c, g) == []
    out = simulate(c, 0b0001)
    assert fidelity(out, dicke_reference(4, 1)) > 1 - 1e-8


# (3, 6, 2) anchors divides on odd columns 1 and 3; (4, 4, 1) takes
# _route_block's thin-slab branch
@pytest.mark.parametrize("n1,n2,k", [(3, 4, 2), (2, 3, 1), (2, 7, 3),
                                     (3, 6, 2), (4, 4, 1)])
def test_grid_case1_fidelity_and_connectivity(n1, n2, k):
    c, _ = synth_grid(n1, n2, k)
    g = ConnectivityGraph.grid(n1, n2)
    assert validate_connectivity(c, g) == []
    n = n1 * n2
    for ell in range(k + 1):
        out = simulate(c, unary_index(ell, n))
        assert fidelity(out, dicke_reference(n, ell)) > 1 - 1e-8


# tall grids past the 20-qubit dense cap: (8,8,1) and (8,8,2) take
# _route_block's thin-slab branch, (7,9,3) and (5,12,3) the odd-even sort
# of the double slab
@pytest.mark.parametrize("n1,n2,k", [(8, 8, 1), (8, 8, 2), (7, 9, 3),
                                     (5, 12, 3)])
def test_grid_tall_exact_above_simulator_cap(n1, n2, k):
    c, plan = synth_grid(n1, n2, k)
    assert plan.recursion_tree
    assert validate_connectivity(c, ConnectivityGraph.grid(n1, n2)) == []
    assert _dicke_faults(c, n1 * n2, k) == []


@pytest.mark.parametrize("length", range(1, 11))
def test_permute_on_path_moves_live_bits(length):
    # the routing emits CNOTs only, so run it on bit slices: bit a of
    # cell i's int is that cell's value under assignment a. For every live
    # mask and every assignment of the live cells, live content must land
    # on path[dest[i]] and every other cell must read 0
    rng = random.Random(length)
    every = [sum(1 << a for a in range(1 << length) if a >> i & 1)
             for i in range(length)]
    for _ in range(3):
        dest = rng.sample(range(length), length)
        path = rng.sample(range(2 * length), length)
        pos = {q: i for i, q in enumerate(path)}
        for mask in range(1 << length):
            live = [bool(mask >> i & 1) for i in range(length)]
            c = Circuit(2 * length)
            _permute_on_path(c, path, dest, live)
            if mask == 0:
                assert c.size == 0
            bits = {q: every[i] if live[i] else 0 for i, q in enumerate(path)}
            for g in c.gates:
                a, b = g.qubits
                assert g.kind == "cx" and abs(pos[a] - pos[b]) == 1
                bits[b] ^= bits[a]
            assert [bits[path[dest[i]]] for i in range(length)] == [
                every[i] if live[i] else 0 for i in range(length)]


@pytest.mark.parametrize("live,pairs", [
    ([False, False], []), ([True, False], [(5, 7), (7, 5)]),
    ([False, True], [(7, 5), (5, 7)]),
    ([True, True], [(5, 7), (7, 5), (5, 7)])])
def test_permute_on_path_transposition_gates(live, pairs):
    # SWAP between live cells, a 2-CNOT move into a zero cell, nothing
    # between zero cells
    c = Circuit(8)
    _permute_on_path(c, [5, 7], [1, 0], live)
    assert [g.qubits for g in c.gates] == pairs


def test_grid_case2_column_sweep():
    # k < n2/n1 exercises the serialized column sweep
    c, _ = synth_grid(2, 8, 1)
    g = ConnectivityGraph.grid(2, 8)
    assert validate_connectivity(c, g) == []
    for ell in (0, 1):
        out = simulate(c, unary_index(ell, 16))
        assert fidelity(out, dicke_reference(16, ell)) > 1 - 1e-8


def test_grid_case2_depth_linear_in_n2():
    depths = []
    for n2 in (8, 16, 32):
        c, _ = synth_grid(2, n2, 1)
        depths.append(asap_layering(c).depth / n2)
    assert max(depths) <= 1.5 * min(depths) + 10


def _group_widths(plan, n1, n2):
    """Column widths of a wide grid's groups, left to right, read off the
    plan's tail units; each unit must be a block of whole adjacent
    columns, and together they must cover the grid's n2 columns once."""
    widths, c0 = [], 0
    for unit in plan.tail_units:
        cols = sorted({q // n1 for q in unit})
        assert cols == list(range(c0, c0 + len(cols)))
        assert len(unit) == n1 * len(cols) == len(set(unit))
        widths.append(len(cols))
        c0 += len(cols)
    assert c0 == n2
    return widths


# (2,21,1) .. (4,14,2) split n2 into groups of two widths
@pytest.mark.parametrize("n1,n2,k,widths", [
    (2, 21, 1, [3, 3, 3, 4, 4, 4]), (3, 20, 1, [2] + [3] * 6),
    (2, 29, 1, [4] + [5] * 5), (3, 18, 2, [4, 4, 5, 5]),
    (4, 14, 2, [3, 3, 4, 4]), (2, 30, 1, [5] * 6), (2, 7, 3, [7])])
def test_grid_wide_exact_above_simulator_cap(n1, n2, k, widths):
    c, plan = synth_grid(n1, n2, k)
    assert _group_widths(plan, n1, n2) == widths
    assert validate_connectivity(c, ConnectivityGraph.grid(n1, n2)) == []
    assert _dicke_faults(c, n1 * n2, k) == []


def test_grid_wide_groups_cover_the_columns_evenly():
    # every wide shape up to 4 x 24: the groups tile the columns, their
    # widths differ by at most one with the wider last, and each holds the
    # slab register and the route
    for n1 in range(2, 5):
        for n2 in range(n1, 25):
            for k in range(1, -(-n2 // n1)):
                widths = _group_widths(synth_grid(n1, n2, k)[1], n1, n2)
                assert widths == sorted(widths)
                assert widths[-1] - widths[0] <= 1
                assert widths[0] >= max(k, 2 * math.ceil(k / n1))


# depths before the groups were sized by the balance rule: no wide grid
# may get deeper than these, including the small k = 1 grids on four and
# five rows where more groups of two widths cost more than they save, and
# (2,7,3), which stays one ladder
WIDE_DEPTH_CEILING = {(4, 8, 1): 68, (4, 16, 1): 120, (4, 18, 1): 133,
                      (5, 18, 1): 141, (5, 20, 1): 154, (5, 22, 1): 167,
                      (5, 24, 1): 180, (2, 5, 2): 99, (2, 7, 3): 212}


@pytest.mark.parametrize("dims", list(WIDE_DEPTH_CEILING),
                         ids=lambda d: "x".join(map(str, d)))
def test_grid_wide_nowhere_deeper(dims):
    c, _ = synth_grid(*dims)
    assert asap_layering(c).depth <= WIDE_DEPTH_CEILING[dims]


# least depth over every even split of the columns into g groups, found by
# building each g; the rule builds one and must land within 10 % of it
WIDE_DEPTH_OPTIMUM = {(2, 16, 1): 71, (2, 32, 1): 127, (2, 64, 1): 215,
                      (2, 128, 1): 385, (4, 32, 2): 522, (4, 64, 2): 766,
                      (2, 30, 1): 117, (4, 128, 2): 1194, (2, 256, 1): 695,
                      (8, 256, 4): 4855, (8, 128, 8): 5375}


@pytest.mark.parametrize("dims", list(WIDE_DEPTH_OPTIMUM),
                         ids=lambda d: "x".join(map(str, d)))
def test_grid_wide_depth_near_optimum(dims):
    c, _ = synth_grid(*dims)
    assert asap_layering(c).depth <= 1.1 * WIDE_DEPTH_OPTIMUM[dims]


def test_grid_builds_each_template_once_per_call(monkeypatch):
    import dickesynth.synth as synth
    built = {"ladder": 0, "divide": 0, "route": 0}

    def counted(name, build):
        def wrapper(*args):
            built[name] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(synth, "dicke_unitary_path",
                        counted("ladder", dicke_unitary_path))
    monkeypatch.setattr(synth, "divide_unitary_path",
                        counted("divide", divide_unitary_path))
    monkeypatch.setattr(synth, "_route_block",
                        counted("route", synth._route_block))
    for _ in range(2):  # a second call builds them again: no kept state
        built.update(ladder=0, divide=0, route=0)
        c, plan = synth_grid(16, 16, 4)
        assert built == {"ladder": 1, "divide": 4, "route": 4}
        assert len(plan.tail_units) == 16 and len(plan.recursion_tree) == 15
    # the wide sweep prices its groups without building a conveyor, so it
    # builds one per divide shape it places
    built.update(ladder=0, divide=0, route=0)
    c, plan = synth_grid(4, 64, 2)
    shapes = {(node.n_node, node.m_node) for node in plan.recursion_tree}
    assert built == {"ladder": len({len(u) for u in plan.tail_units}),
                     "divide": len(shapes), "route": len(shapes)}


def test_no_per_gate_objects_on_placement_or_text(monkeypatch):
    # placement gathers a template's columns and text I/O reads and writes
    # columns: neither builds a Gate per placed gate. The bound is the
    # summed size of the distinct templates, far below the gates placed.
    n, k = 1024, 8
    c, plan = synth_alltoall(n, k)
    templates = ({node.n_node: node.size for node in plan.recursion_tree}
                 | {("conv", conv.name): conv.size
                    for conv in plan.conversions}
                 | {("tail", len(unit)): dicke_unitary_path(len(unit), k).size
                    for unit in plan.tail_units})
    bound = sum(templates.values())
    assert bound < c.size // 10
    built = [0]
    new = Gate.__new__

    def counted(cls, *args):
        built[0] += 1
        return new(cls, *args)

    monkeypatch.setattr(Gate, "__new__", counted)
    again, _ = synth_alltoall(n, k)
    assert built[0] <= bound
    back = loads(dumps(again))
    assert built[0] <= bound
    assert back.gates == c.gates and again.gates == c.gates
    [c.gates[i] for i in range(3)]
    assert built[0] >= 3   # the counter sees the Gates a view builds


def test_path_topology_is_one_row_grid():
    c, _ = synth_grid(1, 8, 2)
    assert validate_connectivity(c, ConnectivityGraph.path(8)) == []
    for ell in range(3):
        out = simulate(c, unary_index(ell, 8))
        assert fidelity(out, dicke_reference(8, ell)) > 1 - 1e-8


# --- state preparation front ends -----------------------------------------------


def test_prepare_dicke_bell():
    c = prepare_dicke("complete", 2, 1)
    out = simulate(c, 0)
    assert fidelity(out, dicke_reference(2, 1)) > 1 - 1e-10


def test_prepare_dicke_ten_five():
    c = prepare_dicke("complete", 10, 5)
    out = simulate(c, 0)
    amp = 1 / math.sqrt(252)
    for idx in range(1 << 10):
        want = amp if bin(idx).count("1") == 5 else 0.0
        assert abs(abs(out[idx]) - want) < 1e-8


def test_prepare_dicke_grid_uniform():
    c = prepare_dicke("grid", (2, 3), 2)
    out = simulate(c, 0)
    amp = 1 / math.sqrt(15)
    for idx in range(1 << 6):
        want = amp if bin(idx).count("1") == 2 else 0.0
        assert abs(abs(out[idx]) - want) < 1e-8


def test_prepare_symmetric_point_mass_is_dicke():
    alpha = np.zeros(3)
    alpha[2] = 1.0
    c = prepare_symmetric("complete", 6, 2, alpha)
    out = simulate(c, 0)
    assert fidelity(out, dicke_reference(6, 2)) > 1 - 1e-8


def test_prepare_symmetric_three_term():
    alpha = np.full(3, 1 / math.sqrt(3))
    c = prepare_symmetric("complete", 6, 2, alpha)
    out = simulate(c, 0)
    target = sum(a * dicke_reference(6, ell) for ell, a in enumerate(alpha))
    assert fidelity(out, target) > 1 - 1e-8
    # permutation invariance: equal amplitude within each weight class
    for w in range(3):
        amps = [out[idx] for idx in range(64) if bin(idx).count("1") == w]
        assert max(abs(a - amps[0]) for a in amps) < 1e-9


@pytest.mark.parametrize("alpha", [[1.0], [1.0] + [0.0] * 33, [1.0] * 33,
                                   [math.nan] + [0.0] * 32])
def test_prepare_symmetric_refuses_before_synthesis(monkeypatch, alpha):
    # k = 32 takes 33 amplitudes: a vector of the wrong length, unnormalized
    # or non-finite is refused before the 1.77M-gate synthesis starts
    import dickesynth.synth as synth

    def unreachable(*args):
        raise AssertionError("synthesis ran on bad amplitudes")

    monkeypatch.setattr(synth, "_synthesize", unreachable)
    with pytest.raises(ValueError):
        prepare_symmetric("complete", 4096, 32, alpha)


def test_prepare_symmetric_rejects_unnormalized():
    with pytest.raises(ValueError):
        prepare_symmetric("complete", 6, 2, [1.0, 1.0, 0.0])


@pytest.mark.parametrize("alpha", [[math.nan, 1.0, 0.0],
                                   [0.0, complex(0.0, math.inf), 0.0],
                                   [math.inf, 0.0, 0.0]])
def test_prepare_symmetric_rejects_non_finite(alpha):
    with pytest.raises(ValueError, match="non-finite"):
        prepare_symmetric("complete", 6, 2, alpha)


# --- byte-identical output ----------------------------------------------------

# sha256 of dumps() for fixed cases; a change that keeps the algorithms must
# keep these digests
DUMPS_SHA256 = {
    "synth_alltoall(16,2)": (
        lambda: synth_alltoall(16, 2)[0],
        "94e40aae83552e9168ea2b325829ec60bf6669489d29e54eff9394ea6b2e5fb0"),
    "synth_alltoall(64,4)": (
        lambda: synth_alltoall(64, 4)[0],
        "7ee116f65882aff70e30bfb01f6873f38d4521e31feac2b925e37456b448d876"),
    "synth_alltoall(256,8)": (
        lambda: synth_alltoall(256, 8)[0],
        "bbac0bdc7953ed7f5855d09da30daaf4009ea8d59d9b9a4380009fffeb7257ec"),
    "synth_alltoall(128,16)": (
        lambda: synth_alltoall(128, 16)[0],
        "fff437469b86b3bf28a16984cb724f3a5f456f3115e1a5c5c21dcef4be075145"),
    "synth_grid(4,4,2)": (
        lambda: synth_grid(4, 4, 2)[0],
        "b8edaf17a1d44823202c830a47570ff2c6ee0c4bc3a12467186e788b354dd2f2"),
    "synth_grid(8,16,4)": (
        lambda: synth_grid(8, 16, 4)[0],
        "4c7d6aba0bad8102045265134a01bc82d938b487702a84f96a77bfd50e22aee6"),
    "synth_grid(2,32,1)": (
        lambda: synth_grid(2, 32, 1)[0],
        "911db73215af3e5a16d0b9e4b0851291a57c3d504259b9e24d245534399af2d0"),
    "synth_grid(16,16,8)": (
        lambda: synth_grid(16, 16, 8)[0],
        "01de7775811ab6936a3250d18b9b5cd388b782102222ba9014080a14e6d6dae3"),
    "synth_grid(16,16,2)": (
        lambda: synth_grid(16, 16, 2)[0],
        "17c96be518ef41186c847e2a07a5e37bc970dbd070576b48976330af39dc28e0"),
    "synth_grid(3,6,2)": (
        lambda: synth_grid(3, 6, 2)[0],
        "3aa239de8c4b44f763c90464ccaeef33a24e1cba664dd04a83376e825399bd47"),
    "synth_grid(4,64,2)": (
        lambda: synth_grid(4, 64, 2)[0],
        "1619f33d292bda7634670aa2f7164405ed3729cab948f6d41b4e4f3bfc6c7860"),
    "dicke_unitary_path(64,4)": (
        lambda: dicke_unitary_path(64, 4),
        "ec3d67fd2da5b2148844567a5808cf680ea901b02543ab3a52b5c098dcd04835"),
    "prepare_symmetric(complete,8,3)": (
        lambda: prepare_symmetric("complete", 8, 3, [0.5] * 4),
        "d66914b130731ea53773c1761af17d03bd1467afd9591541b9447c640dc7792c"),
    "prepare_dicke(grid,(2,4),2)": (
        lambda: prepare_dicke("grid", (2, 4), 2),
        "0c08cfdee67392766e4424dc0897332cf16bf90182dbff49fd68ecb154bf5b70"),
}


@pytest.mark.parametrize("case", list(DUMPS_SHA256))
def test_dumps_byte_identical(case):
    build, digest = DUMPS_SHA256[case]
    assert hashlib.sha256(dumps(build()).encode()).hexdigest() == digest


# sha256 of dumps() of the one-hot divide wrapped in unary conversions
UNARY_DIVIDE_SHA256 = {
    "aa_spec(8,4,2)": (
        lambda: unary_divide(aa_spec(8, 4, 2), range(4, 12), num_qubits=12),
        "f1740faf1625a88d00a75a0a93146c6c3c188a2caa4f2081d5b424511a8a3a69"),
    "_top_spec(60,10)": (
        lambda: _top_divide(60, 10),
        "e0a5df05f931d66fa6f6f7ec29c108c77687236a2cc344ec8a1b895681a4b2be"),
    "_top_spec(1024,8)": (
        lambda: _top_divide(1024, 8),
        "75ad216878989db7874596a5a453170b22b12a1d225e7aafcc7afb683aa55277"),
}


@pytest.mark.parametrize("case", list(UNARY_DIVIDE_SHA256))
def test_unary_divide_byte_identical(case):
    build, digest = UNARY_DIVIDE_SHA256[case]
    assert hashlib.sha256(dumps(build()).encode()).hexdigest() == digest


# sha256 of plan.report(): a grid node's depth, size and CNOT count are
# those of its divide-and-route template, and the .plan file shows them
PLAN_REPORT_SHA256 = {
    (16, 16, 8):
        "5ef6c9b8c19d0b9f18058eb1b308250a002b4e83f1befa125ef764a39730ce26",
    (16, 16, 2):
        "8986b00369a2bef904d4ad863d3d7d2a08e991f7a9338d63205d4e7060790943",
    (4, 64, 2):
        "f858c1144be085196e9b06661dadc68b661b2a63f45e642f628745707d859026",
    (3, 6, 2):
        "2f2a72f6228b9fdbaeaee1559095f8e28adb5df0ab45846c121bab88d47fe5d7",
}


@pytest.mark.parametrize("dims", list(PLAN_REPORT_SHA256),
                         ids=lambda d: "x".join(map(str, d)))
def test_grid_plan_report_pinned(dims):
    report = synth_grid(*dims)[1].report()
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == PLAN_REPORT_SHA256[dims]


# sha256 of plan.report() on the complete graph: a node's depth, size and
# CNOT count are those of the one-hot divide placed there (the root of
# (1024,8) reads depth=35 size=560 cx=338)
ALLTOALL_PLAN_REPORT_SHA256 = {
    (64, 2):
        "ab2cb81fe6b74a1108369a176afdac20207d829e325e59ed92bfc7102e7a4db8",
    (1024, 8):
        "2730c971595cac4fdf648161027a326f38f88b1aedbd4493baef362f0ffdc570",
}


@pytest.mark.parametrize("shape", list(ALLTOALL_PLAN_REPORT_SHA256),
                         ids=lambda s: "-".join(map(str, s)))
def test_alltoall_plan_report_pinned(shape):
    report = synth_alltoall(*shape)[1].report()
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == ALLTOALL_PLAN_REPORT_SHA256[shape]
