"""Resonant Jaynes-Cummings dynamics and the entangling-power test.

The qubit-mode pair evolves under the closed-form blocks of
H = g (sigma_+ a + sigma_- a†) at resonance, with tau = g t:

    |g,n>  ->  cos(tau sqrt(n)) |g,n>   - i sin(tau sqrt(n)) |e,n-1>
    |e,n>  ->  cos(tau sqrt(n+1)) |e,n> - i sin(tau sqrt(n+1)) |g,n+1>

The entangling-power test couples each mode of a two-mode state to its own
ground-state qubit for the same rescaled time, traces the modes out, and
reports the logarithmic negativity of the remaining two-qubit state, which
is contracted from each mode's Kraus operators <q|U|g> without a joint
qubit-mode state or a unitary: at a whole array of times, as weighted
bilinear forms of the state's amplitudes.  Any entanglement found this way
lower-bounds the entanglement of the modes.

A structural caveat worth knowing: if the two-mode input has definite
photon-number parity in each mode (squeezed vacua and their superpositions
all do), the qubit branches after the exchange coupling carry orthogonal
mode parities, every two-qubit coherence traces to zero exactly, and the
transferred entanglement is identically zero for all tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .fock import DensityMatrix, FockVector, _check_cutoff, _check_modes, _check_real
from .measures import _log2_trace_norm

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


def _kraus_weights(tau: np.ndarray, d: int) -> np.ndarray:
    """w[..., p, r, i] = alpha_p[i] conj(alpha_r[i]) on the output levels i of a d-level
    mode, alpha_g[i] = cos(tau sqrt i) and alpha_e[i] = -i sin(tau sqrt(i + 1)): the
    diagonals of K_g and of K_e, which maps |i + 1> to |i>, at every tau."""
    root = np.sqrt(np.arange(d + 1))
    alpha = np.stack([np.cos(tau[..., None] * root[:d]), -1j * np.sin(tau[..., None] * root[1:])], axis=-2)
    return alpha[..., :, None, :] * alpha[..., None, :, :].conj()


def _shifted_products(state: FockVector | DensityMatrix, da: int, db: int) -> np.ndarray:
    """G[p, q, r, s, i, j] = rho[(i + p, j + q), (i + r, j + s)] over the levels (i, j) of
    the two modes, p, q, r, s in {0, 1} and zero beyond the cutoff: Psi[i + p, j + q]
    conj(Psi[i + r, j + s]) on a pure state."""
    if isinstance(state, FockVector):
        psi = np.zeros((da + 1, db + 1), dtype=complex)
        psi[:da, :db] = state.as_tensor()
        shifted = np.array([[psi[p:p + da, q:q + db] for q in (0, 1)] for p in (0, 1)])
        return shifted[:, :, None, None] * shifted.conj()
    rho = np.zeros((da + 1, db + 1) * 2, dtype=complex)
    rho[:da, :db, :da, :db] = state.mat.reshape(da, db, da, db)
    i, j = np.arange(da)[:, None], np.arange(db)
    return np.array([rho[i + p, j + q, i + r, j + s] for p, q, r, s in product((0, 1), repeat=4)]).reshape(
        (2,) * 4 + (da, db))


def _qubit_states(state: FockVector | DensityMatrix, tau) -> np.ndarray:
    """The two-qubit states of `entangling_power`, of shape ``tau.shape + (4, 4)``."""
    da, db = _check_modes(state.layout, 2, "entangling_power state")
    tau = np.asarray(_check_real(tau, "tau", 0.0))
    wa, wb = (_kraus_weights(tau.reshape(-1), d) for d in (da, db))
    # sum_j G[p, q, r, s, i, j] wb[t, q, s, j] as one matrix product per (p, q, r, s), then the sum over i
    half = _shifted_products(state, da, db) @ wb.transpose(1, 2, 3, 0)[None, :, None]
    qubits = np.einsum("tpri,pqrsit->tpqrs", wa, half).reshape(tau.shape + (4, 4))
    return 0.5 * (qubits + qubits.conj().swapaxes(-1, -2))


def entangling_power(state: FockVector | DensityMatrix, tau):
    """Two-qubit log-negativity extracted from a two-mode state by local JC.

    Each mode couples to its own ground-state qubit for the same tau; with
    K[q] = <q|U|g> the Kraus operators of that coupling, the qubit state (mode 0's
    qubit first) is rho[pq, rs] = Tr[(K_p (x) K_q) rho (K_r (x) K_s)†].
    K_g = diag cos(tau sqrt n) and K_e = -i sin(tau sqrt n) |n - 1><n| (g = 0, e = 1):
    K_p maps level i + p to level i with weight alpha_p[i].  On the output levels
    (i, j), rho[pq, rs] = sum_ij wa_pr[i] G_pq,rs[i, j] wb_qs[j], bilinear forms in
    w = alpha_p conj(alpha_r) (`_kraus_weights`) of the tau-free products G of the
    state's shifted amplitudes (`_shifted_products`); no unitary is built.  tau is
    a float or an array: G is formed once, all tau share one stacked eigensolve,
    and the log-negativity, that of `measures.log_negativity` on the partial
    transpose of the second qubit, has tau's shape.
    """
    qubits = _qubit_states(state, tau)
    trace = np.trace(qubits, axis1=-2, axis2=-1).real.ravel()
    if (np.abs(trace - 1.0) > 1e-6).any():
        raise ValueError(f"state trace {trace[0]:.8f} is not 1")
    pt = qubits.reshape(qubits.shape[:-2] + (2,) * 4).swapaxes(-3, -1).reshape(qubits.shape)
    spectra = np.linalg.eigvalsh(pt).reshape(-1, 4)
    return np.array([_log2_trace_norm(ev) for ev in spectra]).reshape(qubits.shape[:-2])[()]
