"""Resonant Jaynes-Cummings dynamics and the entangling-power test.

The qubit-mode pair evolves under the closed-form blocks of
H = g (sigma_+ a + sigma_- a†) at resonance, with tau = g t:

    |g,n>  ->  cos(tau sqrt(n)) |g,n>   - i sin(tau sqrt(n)) |e,n-1>
    |e,n>  ->  cos(tau sqrt(n+1)) |e,n> - i sin(tau sqrt(n+1)) |g,n+1>

The entangling-power test couples each mode of a two-mode state to its own
ground-state qubit for the same rescaled time, traces the modes out, and
reports the logarithmic negativity of the remaining two-qubit state, which
is contracted from each mode's Kraus operators <q|U|g> without a joint
qubit-mode state.  Any entanglement found this way lower-bounds the
entanglement of the modes.

A structural caveat worth knowing: if the two-mode input has definite
photon-number parity in each mode (squeezed vacua and their superpositions
all do), the qubit branches after the exchange coupling carry orthogonal
mode parities, every two-qubit coherence traces to zero exactly, and the
transferred entanglement is identically zero for all tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, FockVector, ModeLayout, _check_cutoff, _check_modes, _check_real
from .measures import log_negativity

__all__ = ["JcSpec", "jc_unitary", "entangling_power"]


@dataclass(frozen=True)
class JcSpec:
    """Rescaled interaction time tau = g*t and the mode cutoff, an integer >= 1."""

    tau: float
    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_real(self.tau, "tau", 0.0))
        object.__setattr__(self, "cutoff", _check_cutoff(self.cutoff, 1))


def jc_unitary(spec: JcSpec) -> np.ndarray:
    """Closed-form evolution on the (qubit, mode) space, qubit index first.

    Each excitation block {|g,n>, |e,n-1>} rotates independently; the
    top block whose partner lies beyond the cutoff is left untouched, so
    the matrix is exactly unitary at any truncation.
    """
    d = spec.cutoff
    n = np.arange(1, d)
    theta = spec.tau * np.sqrt(n)
    g, e = n, d + n - 1     # |g, n> and |e, n-1>
    u = np.eye(2 * d, dtype=complex)
    u[g, g] = u[e, e] = np.cos(theta)
    u[e, g] = u[g, e] = -1j * np.sin(theta)
    return u


def entangling_power(state: FockVector | DensityMatrix, tau: float) -> float:
    """Two-qubit log-negativity extracted from a two-mode state by local JC.

    Each mode couples to its own ground-state qubit for the same tau; with
    K[q] = <q|U|g> the Kraus operators of that coupling, the qubit state (mode 0's
    qubit first) is rho[pq, rs] = Tr[(K_p (x) K_q) rho (K_r (x) K_s)†], or M M†
    with M = (K_p (x) K_q) psi for a vector psi.
    """
    da, db = _check_modes(state.layout, 2, "entangling_power state")
    ka = jc_unitary(JcSpec(tau, da))[:, :da].reshape(2, da, da)
    kb = ka if db == da else jc_unitary(JcSpec(tau, db))[:, :db].reshape(2, db, db)
    if isinstance(state, FockVector):
        m = ((ka @ state.as_tensor())[:, None] @ kb.transpose(0, 2, 1)).reshape(4, -1)  # K_p psi K_qᵀ
        qubits = m @ m.conj().T
    else:
        rho = state.mat.reshape(state.layout.dims * 2)
        qubits = np.einsum("pij,qkl,jlmn,rim,skn->pqrs", ka, kb, rho, ka.conj(), kb.conj(),
                           optimize=True).reshape(4, 4)
    return log_negativity(DensityMatrix(ModeLayout((2, 2)), qubits), [1])
