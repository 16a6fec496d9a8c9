"""Two-qubit dense coding on a generalized amplitude-amplification
operator, with an NMR pulse-sequence realization layer."""

from .qstate import (
    BasisLabel,
    Ket4,
    Operator4,
    ReducedState,
    apply,
    compose,
    equal_up_to_phase,
    ket_from_basis,
    measure_basis,
    partial_trace,
    scaled,
    single_spin_rotation,
)
from .bell import BellVector, bell_state, from_bell_coords, rotate_epr, to_bell_coords
from .grover import UChoice, build_G, build_G_inverse, build_G_pair, build_U, preset, table1
from .coding import (
    AncillaMessage,
    ProtocolTrace,
    decode,
    encoder,
    encoder_set,
    run_ancilla_protocol,
    run_protocol,
    table2,
)
from .nmr import (
    DeviationMatrix,
    PhysicalConstants,
    PulseSequence,
    gate_library,
    parse_sequence,
    predict_spectrum,
    prepare_pseudo_pure,
    simulate_sequence,
    spectrum_fingerprint,
    verify_realization,
)

__version__ = "0.1.0"
