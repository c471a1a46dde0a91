"""Truncated-Fock-space simulation of entangled squeezed vacuum states."""

from .channels import bs_loss, phase_channel, thermal_channel
from .dynamics import JcSpec, entangling_power, jc_evolve_pair, jc_unitary
from .fock import (
    DensityMatrix,
    FockVector,
    ModeLayout,
    MomentIndex,
    TruncationError,
    TruncationWarning,
    apply_beamsplitter,
    apply_single_mode,
    basis_state,
    eigs_hermitian,
    fidelity,
    moment,
    partial_transpose,
    reduced_density,
    swap_modes,
    tail_mass,
    tensor,
    vacuum,
)
from .measures import eof_pure, log_negativity, two_qubit_negativity
from .protocols import (
    KerrSpec,
    QubitAmplitudes,
    controlled_phase,
    entanglement_swap,
    generate_scheme_a,
    generate_scheme_b,
    odd_odd_projector,
    teleport,
)
from .separability import (
    DUAN_SELECTOR,
    SIMON_SELECTOR,
    MinorSelector,
    canonical_indices,
    duan_det,
    esv_criterion_det,
    minor_determinant,
    moment_matrix_entry,
    multiindex_compare,
    simon_det,
)
from .states import (
    DisplacedSqueezedSpec,
    EsvSpec,
    SqueezeSpec,
    displaced_overlap,
    displaced_squeezed,
    esv_aligned,
    esv_generalized,
    esv_mixed,
    esv_pure,
    phi_basis,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)

__version__ = "0.1.0"
