"""Heralded protocols: entanglement swapping, teleportation, and two
ancilla-assisted generation schemes for entangled squeezed vacua.

All protocols are simulated as circuits: beam splitters, diagonal
controlled-phase gates, projective measurements.  Beam splitters inside a
protocol act on zero-padded mode pairs (each target mode enlarged to hold
the full total-photon-number range of the pair), which makes the splitter
exact on every populated block; outputs are truncated back to the caller's
cutoff at the end.  Success probabilities are computed on the padded state,
before any truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    DensityMatrix,
    FockVector,
    ModeLayout,
    _apply_unitary,
    apply_beamsplitter,
    apply_single_mode,
    reduced_density,
    resize_mode,
    tensor,
)
from .states import EsvSpec, SqueezeSpec, _superpose, esv_aligned, esv_pure, squeezed_vacuum, two_mode_squeezed_vacuum

__all__ = [
    "QubitAmplitudes",
    "KerrSpec",
    "odd_odd_projector",
    "controlled_phase",
    "entanglement_swap",
    "teleport",
    "generate_scheme_a",
    "generate_scheme_b",
]


@dataclass(frozen=True)
class QubitAmplitudes:
    """Normalized pair of coefficients for an ancilla or input qubit."""

    a0: complex
    a1: complex

    def __post_init__(self):
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|a0|^2 + |a1|^2 = {norm:.14f} is not 1")


@dataclass(frozen=True)
class KerrSpec:
    """Cross-Kerr phase gamma of the controlled interaction e^{i gamma n q}."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


def odd_odd_projector(state: FockVector, modes: tuple[int, int]) -> tuple[FockVector, float]:
    """Project onto odd photon number in both selected modes.

    Returns the unnormalized projected vector and the outcome probability
    (its squared norm).
    """
    i, j = (state.layout.check_mode(m) for m in modes)
    if i == j:
        raise ValueError("projector needs two distinct modes")
    t = state.as_tensor().copy()
    for mode in (i, j):
        d = state.layout.dims[mode]
        mask = (np.arange(d) % 2).astype(float)
        shape = [1] * state.layout.nmodes
        shape[mode] = d
        t = t * mask.reshape(shape)
    proj = FockVector(state.layout, t.reshape(-1))
    return proj, float(proj.norm() ** 2)


def controlled_phase(state, mode: int, control: int, gamma: float, control_value: int = 1):
    """Diagonal gate e^{i gamma n_mode} applied when the control qubit is set.

    The control must be a two-level mode; control_value selects which of its
    basis states triggers the phase.
    """
    mode = state.layout.check_mode(mode)
    control = state.layout.check_mode(control)
    if state.layout.dims[control] != 2:
        raise ValueError("control mode must have dimension 2")
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    d = state.layout.dims[mode]
    phase = np.exp(1j * gamma * np.arange(d))
    diag = np.ones((d, 2), dtype=complex)
    diag[:, control_value] = phase
    u = np.diag(diag.reshape(-1))
    return _apply_unitary(state, [mode, control], [(slice(None), u)])


def _project_qubit(state: FockVector, mode: int, coeffs: np.ndarray) -> tuple[FockVector, float]:
    """Contract a two-level mode against <coeffs| and drop it."""
    mode = state.layout.check_mode(mode)
    t = np.moveaxis(state.as_tensor(), mode, -1)
    out = t @ coeffs.conj()
    dims = tuple(d for k, d in enumerate(state.layout.dims) if k != mode)
    vec = FockVector(ModeLayout(dims), out.reshape(-1))
    return vec, float(vec.norm() ** 2)


def _dm_overlap(rho: DensityMatrix, target: FockVector) -> float:
    """<target| rho |target>."""
    if rho.layout != target.layout:
        raise ValueError("layout mismatch")
    return float(np.real(np.vdot(target.amps, rho.mat @ target.amps)))


def _padded_balanced_bs(state: FockVector, mode_a: int, mode_b: int):
    """Balanced splitter on zero-padded modes; exact on all populated blocks."""
    da = state.layout.dims[mode_a]
    db = state.layout.dims[mode_b]
    big = da + db - 1
    state = resize_mode(state, mode_a, big)
    state = resize_mode(state, mode_b, big)
    return apply_beamsplitter(state, mode_a, mode_b, np.pi / 4)


def entanglement_swap(s: float, cutoff: int) -> tuple[float, float]:
    """Swap entanglement onto modes (1, 4) of a doubled squeezed resource.

    Resource: |Psi(pi)>_{12} (x) |Phi(pi)>_{34}; modes 2 and 3 interfere on
    a balanced splitter and are projected onto odd photon numbers.  Returns
    the heralding probability (1/4, independent of squeezing) and the
    fidelity of the conditional state of modes (1, 4) with |Phi(pi)>.
    """
    if s <= 0:
        raise ValueError("swap requires s > 0")
    resource = tensor(esv_pure(EsvSpec(s, np.pi, cutoff)),
                      esv_aligned(EsvSpec(s, np.pi, cutoff)))
    mixed = _padded_balanced_bs(resource, 1, 2)
    projected, prob = odd_odd_projector(mixed, (1, 2))
    rho = reduced_density(projected, keep=[0, 3])
    rho = DensityMatrix(rho.layout, rho.mat / prob)
    target = esv_aligned(EsvSpec(s, np.pi, cutoff))
    return prob, _dm_overlap(rho, target)


def teleport(inp: QubitAmplitudes, s: float, cutoff: int) -> tuple[float, float]:
    """Teleport (a0|s+> + a1|s->) through the |Phi(pi)> resource.

    The input mode and resource mode 1 interfere on a balanced splitter and
    are projected onto odd photon numbers; a pi/2 phase-space rotation on
    mode 2 then restores the input.  Returns (probability, output fidelity).
    """
    if s <= 0:
        raise ValueError("teleportation requires s > 0")
    plus = squeezed_vacuum(SqueezeSpec(s, cutoff))
    minus = squeezed_vacuum(SqueezeSpec(-s, cutoff))
    input_state = _superpose(inp.a0 * plus.amps, inp.a1 * minus.amps, (cutoff,),
                             1e-12, "input superposition is the zero vector")

    joint = tensor(input_state, esv_aligned(EsvSpec(s, np.pi, cutoff)))
    mixed = _padded_balanced_bs(joint, 0, 1)
    projected, prob = odd_odd_projector(mixed, (0, 1))
    rho = reduced_density(projected, keep=[2])
    rho = DensityMatrix(rho.layout, rho.mat / prob)
    rho = apply_single_mode(rho, 0, "phase", np.pi / 2)
    return prob, _dm_overlap(rho, input_state)


def _ancilla_vector(ancilla: QubitAmplitudes) -> FockVector:
    amps = np.array([ancilla.a0, ancilla.a1], dtype=complex)
    return FockVector(ModeLayout((2,)), amps)


_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def _measure_pm(state: FockVector, mode: int, outcome: str) -> tuple[FockVector, float]:
    if outcome not in ("+", "-"):
        raise ValueError("outcome must be '+' or '-'")
    coeffs = _PLUS if outcome == "+" else _MINUS
    vec, prob = _project_qubit(state, mode, coeffs)
    if prob < 1e-14:
        raise ValueError("conditional state is null for this outcome")
    return vec, prob


def generate_scheme_a(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int) -> tuple[FockVector, float]:
    """Two controlled phase-flips on a pair of identical squeezed vacua.

    The ancilla toggles a pi/2 phase rotation (cross-Kerr with gamma = pi/2)
    on mode b when it reads 0 and on mode a when it reads 1; measuring it in
    the |+->-basis leaves a0 |s+,s-> +- a1 |s-,s+> on the modes.
    """
    plus = squeezed_vacuum(SqueezeSpec(s, cutoff))
    state = tensor(tensor(plus, plus), _ancilla_vector(ancilla)).normalized()
    state = controlled_phase(state, 1, 2, np.pi / 2, control_value=0)
    state = controlled_phase(state, 0, 2, np.pi / 2, control_value=1)
    vec, prob = _measure_pm(state, 2, outcome)
    return vec.normalized(), prob


def generate_scheme_b(s: float, ancilla: QubitAmplitudes, outcome: str,
                      cutoff: int, kerr: KerrSpec = KerrSpec(np.pi)) -> tuple[FockVector, float]:
    """Single cross-Kerr gate on a two-mode squeezed vacuum, then a splitter.

    With gamma = pi the ancilla's |1> branch flips the sign of the two-mode
    squeezing; the balanced splitter then factors each branch into opposite
    single-mode squeezed vacua, reproducing scheme a's conditional states.
    """
    resource = two_mode_squeezed_vacuum(s, cutoff)
    state = tensor(resource, _ancilla_vector(ancilla)).normalized()
    state = controlled_phase(state, 1, 2, kerr.gamma, control_value=1)
    state = _padded_balanced_bs(state, 0, 1)
    vec, prob = _measure_pm(state, 2, outcome)
    vec = resize_mode(resize_mode(vec, 0, cutoff), 1, cutoff)
    return vec.normalized(), prob
