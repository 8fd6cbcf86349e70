"""Connectivity-aware circuit synthesis for Dicke and symmetric states.

Compiles (n,k)-Dicke-state and symmetric-state preparation into 1-qubit +
CNOT circuits for all-to-all, 2D-grid, and path qubit topologies, with a
sparse-support state-vector verifier and a light-cone depth-lower-bound
auditor.
"""

from .circuit import (
    Circuit,
    ConnectivityGraph,
    DepthReport,
    Gate,
    asap_layering,
    compose,
    dumps,
    inverse,
    loads,
    remap_qubits,
    validate_connectivity,
)
from .encoding import u_uo
from .lightcone import (
    AuditReport,
    LightConeGraph,
    ReachableSets,
    audit_lower_bound,
    build_lightcone,
    reachable,
)
from .primitives import fanout_copy
from .synth import (
    SynthesisPlan,
    divide_unitary_ancilla,
    prepare_dicke,
    prepare_symmetric,
    synth_alltoall,
    synth_grid,
)
from .unary import (
    DivideSpec,
    dicke_unitary_path,
    divide_unitary_path,
    hyper_weights,
    unary_amplitude_prep,
)
from .verify import (
    SIMULATOR_CAP,
    basis_state,
    dicke_reference,
    fidelity,
    partial_trace,
    simulate,
    two_qubit_separability,
)

__version__ = "0.1.0"
