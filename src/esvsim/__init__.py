"""Truncated-Fock-space simulation of entangled squeezed vacuum states."""

from .channels import bs_loss, phase_channel, thermal_channel
from .dynamics import entangling_power
from .fock import (
    DensityMatrix,
    FockVector,
    ModeLayout,
    TruncationWarning,
    fidelity,
    moment,
    partial_transpose,
    tail_mass,
)
from .measures import eof_pure, log_negativity
from .protocols import (
    KerrSpec,
    QubitAmplitudes,
    entanglement_swap,
    generate_scheme_a,
    generate_scheme_b,
    teleport,
)
from .separability import (
    DUAN_SELECTOR,
    SIMON_SELECTOR,
    MinorSelector,
    MomentIndex,
    canonical_indices,
    duan_det,
    esv_criterion_det,
    minor_determinant,
    simon_det,
)
from .states import (
    EsvSpec,
    SqueezeSpec,
    displaced_overlap,
    esv_mixed,
    esv_pure,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)

__version__ = "0.1.0"
