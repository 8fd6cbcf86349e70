import hashlib
import math
import random
from collections import Counter, deque
from itertools import accumulate

import pytest

from dickesynth.circuit import (Circuit, ConnectivityGraph, asap_layering,
                                grid_index)
from dickesynth.lightcone import (AuditReport, _shape_bounds,
                                  audit_lower_bound, build_lightcone,
                                  reachable)
from dickesynth.synth import prepare_dicke


# --- graph construction and reachable sets ------------------------------------


def test_single_qubit_circuit_cone_stays_put():
    c = Circuit(3)
    c.u(0, 0.3)
    c.u(1, 0.7)
    g = build_lightcone(c)
    for origin in range(3):
        r = reachable(g, origin)
        # cones only grow toward column 1, so the column-1 cone bounds all
        assert r.first_cone == {origin}
        assert r.cone_sizes == (1,) * (g.depth + 1)


def test_single_cnot_four_edge_rule():
    c = Circuit(2)
    c.cx(0, 1)
    g = build_lightcone(c)
    r = reachable(g, 0)
    # crossing the CNOT layer pulls both endpoints into the cone
    assert r.first_cone == {0, 1}
    assert r.cone_sizes == (2, 1)
    assert r.sizes == (2, 1)


def test_normalization_alternates_layers():
    c = Circuit(2)
    c.u(0, 0.1)
    c.cx(0, 1)
    c.u(1, 0.2)
    g = build_lightcone(c)
    assert tuple(g.kinds) == ("u", "cx", "u")
    assert g.depth >= g.raw_depth


def test_idle_wire_cone_never_shrinks():
    # pass-through edges keep an untouched qubit reachable at every column
    c = Circuit(3)
    c.cx(0, 1)
    c.u(0, 0.5)
    g = build_lightcone(c)
    r = reachable(g, 2)
    assert r.first_cone == {2}
    assert r.cone_sizes == (1,) * (g.depth + 1)
    # qubit 2 is touched by no gate, so it is in no S'_i below column d+1
    assert r.sizes == (0,) * g.depth + (1,)


def test_reachable_rejects_bad_origin():
    g = build_lightcone(Circuit(2))
    with pytest.raises(ValueError):
        reachable(g, 5)


def test_audit_arrays_span_the_touched_qubits_not_the_header():
    # qubits 2.. of the header are never touched: the audit reads as it
    # does on a 2-qubit circuit with the same gates
    small, huge = Circuit(2), Circuit(1 << 62)
    for c in (small, huge):
        c.cx(0, 1)
        c.u(1, 0.5)
        c.cx(1, 0)
        c.u(0, 0.5)
    assert asap_layering(huge).depth == asap_layering(small).depth == 4
    g, h = build_lightcone(small), build_lightcone(huge)
    assert h.kinds == g.kinds and (h.touched == g.touched).all()
    for origin in (0, 1):
        assert reachable(h, origin) == reachable(g, origin)
    # an origin past the touched qubits keeps its one-qubit cone
    r = reachable(h, 5)
    assert r.first_cone == {5} and r.sizes == (0,) * h.depth + (1,)


@pytest.mark.parametrize("n,k", [(8, 2), (16, 2), (12, 3)])
def test_alltoall_cone_doubling(n, k):
    c = prepare_dicke("complete", n, k)
    g = build_lightcone(c)
    for origin in (0, n - 1):
        r = reachable(g, origin)
        # the backward cone grows toward earlier columns and at most doubles
        # per layer (each CNOT replaces one reachable endpoint with two)
        sizes = r.cone_sizes
        for i in range(len(sizes) - 1):
            assert sizes[i + 1] <= sizes[i] <= 2 * sizes[i + 1]


def _reference_walk(c, origin):
    """Oracle: the set-based construction over Gate objects. Each ASAP
    layer splits into a one-qubit layer and a CNOT layer, adjacent
    one-qubit layers merge, and the backward walk adds both ends of every
    CNOT that touches the cone."""
    kinds, touched, pairs = [], [], []
    for layer in asap_layering(c).layers:
        gates = [c.gates[i] for i in layer]
        uq = {g.qubits[0] for g in gates if g.kind == "u"}
        cx = [g.qubits for g in gates if g.kind == "cx"]
        if uq and kinds and kinds[-1] == "u":
            touched[-1] |= uq
        elif uq:
            kinds.append("u")
            touched.append(uq)
            pairs.append([])
        if cx:
            kinds.append("cx")
            touched.append({q for pair in cx for q in pair})
            pairs.append(cx)
    d = len(kinds)
    cone, sizes, cone_sizes = {origin}, [1] * (d + 1), [1] * (d + 1)
    for i in range(d, 0, -1):
        for a, b in pairs[i - 1]:
            if a in cone or b in cone:
                cone |= {a, b}
        cone_sizes[i - 1] = len(cone)
        sizes[i - 1] = len(cone & touched[i - 1])
    return tuple(kinds), tuple(sizes), tuple(cone_sizes), cone


@pytest.mark.parametrize("seed", range(40))
def test_cone_walk_matches_set_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    c = Circuit(n)
    for _ in range(rng.randint(0, 60)):
        if n > 1 and rng.random() < 0.5:
            c.cx(*rng.sample(range(n), 2))
        else:
            c.u(rng.randrange(n), rng.random())
    g = build_lightcone(c)
    for origin in range(n):
        r = reachable(g, origin)
        assert (g.kinds, r.sizes, r.cone_sizes, r.first_cone) == \
            _reference_walk(c, origin)


@pytest.mark.parametrize("topology,dims,k", [("complete", 32, 3),
                                             ("grid", (4, 6), 2),
                                             ("path", 12, 3)])
def test_cone_walk_matches_set_oracle_on_dicke(topology, dims, k):
    c = prepare_dicke(topology, dims, k)
    g = build_lightcone(c)
    for origin in (0, c.num_qubits - 1):
        r = reachable(g, origin)
        assert (g.kinds, r.sizes, r.cone_sizes, r.first_cone) == \
            _reference_walk(c, origin)


# --- lower-bound audit ----------------------------------------------------------


def test_audit_two_qubit_dicke():
    c = prepare_dicke("complete", 2, 1)
    report = audit_lower_bound(c, ConnectivityGraph.complete(2))
    assert isinstance(report, AuditReport)
    assert report.cones_intersect
    assert report.passed
    assert "PASS" in report.text()


def test_audit_complete_sixteen():
    c = prepare_dicke("complete", 16, 2)
    report = audit_lower_bound(c, ConnectivityGraph.complete(16))
    assert report.floor >= math.ceil(math.log2(16)) - 1
    assert report.normalized_depth >= report.floor
    assert report.growth_ok
    assert report.passed


def test_audit_grid_two_by_four():
    c = prepare_dicke("grid", (2, 4), 1)
    report = audit_lower_bound(c, ConnectivityGraph.grid(2, 4))
    # extremal grid corners sit diameter = (2-1)+(4-1) = 4 apart
    assert report.floor >= 2
    assert report.normalized_depth >= report.floor
    assert report.passed


def test_audit_path():
    c = prepare_dicke("path", 8, 2)
    report = audit_lower_bound(c, ConnectivityGraph.path(8))
    assert report.floor >= 4  # ceil(7/2)
    assert report.passed


def test_audit_flags_disjoint_cones():
    # a do-nothing circuit cannot entangle extremal qubits: audit must fail
    c = Circuit(4)
    c.u(0, 0.2)
    report = audit_lower_bound(c, ConnectivityGraph.complete(4))
    assert not report.cones_intersect
    assert not report.passed
    assert "FAIL" in report.text()


@pytest.mark.parametrize("vertices", [3, 6])
def test_audit_rejects_topology_of_other_size(vertices):
    c = Circuit(4)
    c.cx(0, 1)
    with pytest.raises(ValueError):
        audit_lower_bound(c, ConnectivityGraph.path(vertices))


def test_audit_report_lists_cone_sizes():
    c = prepare_dicke("complete", 4, 1)
    report = audit_lower_bound(c, ConnectivityGraph.complete(4))
    txt = report.text()
    for origin in report.origins:
        assert f"origin {origin} " in txt


def test_audit_flags_broken_growth_cap():
    # S' sizes 4 2 1 on a path: two layers back from the output a cone holds
    # at most three vertices, so column 1 breaks the distance-ball cap
    c = Circuit(8)
    c.cx(7, 3)
    c.cx(0, 4)
    c.cx(7, 0)
    report = audit_lower_bound(c, ConnectivityGraph.path(8))
    assert report.origins == (7, 0)
    assert report.cone_sizes == {7: (4, 2, 1), 0: (4, 2, 1)}
    assert not report.growth_ok
    assert not report.passed
    assert "cone growth caps: VIOLATED" in report.text()


def _bfs(adj, start):
    dist = [-1] * len(adj)
    dist[start] = 0
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def _bfs_bounds(n1, n2):
    """Oracle: the audit's origins, caps and floor by double BFS over the
    grid's explicit adjacency lists."""
    adj = [[] for _ in range(n1 * n2)]
    for r in range(n1):
        for c in range(n2):
            adj[grid_index(r, c, n1)] = [
                grid_index(r + dr, c + dc, n1)
                for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0))
                if 0 <= r + dr < n1 and 0 <= c + dc < n2]
    dist0 = _bfs(adj, 0)
    far = max(range(len(adj)), key=lambda v: dist0[v])
    dist_far = _bfs(adj, far)
    other = max(range(len(adj)), key=lambda v: dist_far[v])
    caps = []
    for dist in (dist_far, _bfs(adj, other)):
        counts = Counter(dist)
        caps.append(list(accumulate(counts[s]
                                    for s in range(max(dist) + 1))))
    assert caps[0] == caps[1]
    return (far, other), caps[0], math.ceil(dist_far[other] / 2)


@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1 in range(1, 6)
                                   for n2 in range(n1, 9)]
                         + [(1, 16), (1, 17)])
def test_shape_bounds_match_bfs_oracle(n1, n2):
    expected = _bfs_bounds(n1, n2)
    assert _shape_bounds(ConnectivityGraph.grid(n1, n2)) == expected


@pytest.mark.parametrize("topology,dims,k", [("grid", (2, 4), 1),
                                             ("grid", (3, 5), 4),
                                             ("grid", (4, 4), 2),
                                             ("path", 9, 3)])
def test_audit_origins_and_floor_match_bfs_oracle(topology, dims, k):
    n1, n2 = dims if topology == "grid" else (1, dims)
    report = audit_lower_bound(prepare_dicke(topology, dims, k),
                               ConnectivityGraph.grid(n1, n2))
    origins, _, floor = _bfs_bounds(n1, n2)
    assert report.origins == origins
    assert report.floor == floor
    assert report.passed


def _hadamards(n):
    c = Circuit(n)
    for q in range(n):
        c.u(q, 1.5707963267948966, 0.0, 3.141592653589793)
    return c


# sha256 of the audit text: any rewrite of the audit must keep the report
# byte for byte
AUDIT_DIGESTS = [
    (lambda: prepare_dicke("complete", 64, 4), ConnectivityGraph.complete(64),
     "dd891170bdc01c0ad8c9ecd88f957351bb15591171c3448842938fd8c0f3c0c8"),
    (lambda: prepare_dicke("complete", 2, 1), ConnectivityGraph.complete(2),
     "6d25656f00d9c1d1ff34323ecdebb06c015cea2bcc1537f8b7132f295c8e359e"),
    (lambda: Circuit(1), ConnectivityGraph.complete(1),
     "80453a3e298dafc95c46c065516cd9cb47abe01a43f4a0c3ea58da4336064f58"),
    (lambda: prepare_dicke("grid", (8, 8), 4), ConnectivityGraph.grid(8, 8),
     "a1188bdce70b125153f5c18c984f237c98a60e2b0ebed06824d475e748f6a454"),
    (lambda: prepare_dicke("grid", (2, 16), 1), ConnectivityGraph.grid(2, 16),
     "1aaee71e9303bf0ad56b0ef86f65ead0dd0c6666cca513046f06dfd0d8b2c627"),
    (lambda: prepare_dicke("path", 16, 2), ConnectivityGraph.path(16),
     "8c4d934733ce4c9a8a5542bdcc0c2ecbe2bebf20379eb773bb845ce3a39a9fd3"),
    (lambda: _hadamards(16), ConnectivityGraph.complete(16),
     "d27ef54b92a8c254084b13a340ad6cd43996ad5bcf3cf9615084fe3bc563acb6"),
]


@pytest.mark.parametrize("make,topology,digest", AUDIT_DIGESTS,
                         ids=["complete-64-4", "complete-2-1", "complete-1",
                              "grid-8x8-4", "grid-2x16-1", "path-16-2",
                              "hadamards-16"])
def test_audit_text_pinned(make, topology, digest):
    text = audit_lower_bound(make(), topology).text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
