"""Structural guard: no template a synthesizer places holds two gates that
undo each other. Such a pair costs depth and gates for nothing, so the
emitters must not write it; the package has no pass that would remove it."""

import numpy as np
import pytest

import dickesynth.synth as synth
from dickesynth.circuit import Circuit, gate_matrix, remap_qubits


def inverse_pairs(c):
    """Index pairs (i, j), i < j, of gates on the same qubits (in the same
    roles) with no gate between them on any of those qubits, whose product
    is the identity within 1e-12."""
    last = {}
    pairs = []
    for j, g in enumerate(c.gates):
        before = {last.get(q) for q in g.qubits}
        i = before.pop()
        if not before and i is not None and c.gates[i].qubits == g.qubits:
            h = c.gates[i]
            if h.kind == g.kind == "cx" or (h.kind == g.kind == "u" and np.abs(
                    gate_matrix(g.params) @ gate_matrix(h.params) - np.eye(2)).max() < 1e-12):
                pairs.append((i, j))
        for q in g.qubits:
            last[q] = j
    return pairs


def placed_templates(monkeypatch, build):
    """Every distinct circuit that build() places through remap_qubits."""
    seen = {}

    def recorded(c, *args, **kwargs):
        seen[id(c)] = c
        return remap_qubits(c, *args, **kwargs)

    monkeypatch.setattr(synth, "remap_qubits", recorded)
    build()
    return list(seen.values())


@pytest.mark.parametrize("build", [
    lambda: synth.synth_alltoall(1024, 8),
    lambda: synth.synth_alltoall(512, 16),
    lambda: synth.synth_alltoall(256, 32),
    lambda: synth.synth_grid(16, 16, 8),
    lambda: synth.synth_grid(4, 64, 2),
    lambda: synth.synth_grid(2, 64, 1),
], ids=["alltoall-1024-8", "alltoall-512-16", "alltoall-256-32",
        "grid-16x16-8", "grid-4x64-2", "grid-2x64-1"])
def test_placed_templates_hold_no_inverse_pair(monkeypatch, build):
    templates = placed_templates(monkeypatch, build)
    assert templates
    found = {n: len(inverse_pairs(t)) for n, t in enumerate(templates)}
    assert {n: count for n, count in found.items() if count} == {}


def test_guard_sees_an_inverse_pair():
    c = Circuit(3)
    c.cx(0, 1)
    c.u(2, 0.3, 0.1, -0.2, 0.5)
    c.cx(0, 1)
    c.cx(1, 0)
    c.u(2, -0.3, 0.2, -0.1, -0.5)
    assert inverse_pairs(c) == [(0, 2), (1, 4)]
    c.cx(2, 1)
    c.cx(1, 0)
    assert inverse_pairs(c) == [(0, 2), (1, 4)]
