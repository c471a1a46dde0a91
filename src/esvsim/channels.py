"""Single-mode impurity models: thermal displacement noise, phase diffusion,
and beam-splitter loss.

The two diffusive channels are Gaussian-weighted averages of unitary orbits,

    thermal:  rho -> Int d^2a  e^{-|a|^2/sigma} / (pi sigma)   D(a) rho D†(a)
    phase:    rho -> Int dphi  e^{-phi^2/(2 sigma)} / sqrt(2 pi sigma)
                               R(phi) rho R†(phi)

evaluated by Gauss-Hermite quadrature (sigma is a variance in both cases).
Every quadrature term conjugates by an exactly unitary truncated gate, so
the trace is preserved to rounding; the node count is raised automatically
if the trace bound is ever missed, up to a hard cap.  The thermal average is
exactly parity-covariant: a parity-definite input (no odd-offset coherence)
gives an output with exactly zero odd-offset entries.

Loss mixes the mode with an ancillary vacuum on a beam splitter of
transmissivity cos^2(theta) and traces the ancilla out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .fock import (
    DensityMatrix,
    FockVector,
    ModeLayout,
    apply_beamsplitter,
    displace_matrix,
    reduced_density,
    tensor,
    vacuum,
)

__all__ = ["NoiseSpec", "thermal_channel", "phase_channel", "bs_loss"]

TRACE_TOL = 1e-6
NODE_CAP = 64
DEFAULT_THERMAL_NODES = 24
DEFAULT_PHASE_NODES = 32


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of one noise model; only the active kind's fields are read."""

    kind: str                      # "thermal" | "phase"
    sigma_tn: float = 0.0          # thermal weight variance, photon-number units
    sigma_pn: float = 0.0          # phase weight variance, radians^2
    nodes: int | None = None       # quadrature nodes per axis

    def __post_init__(self):
        if self.kind not in ("thermal", "phase"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma_tn < 0 or self.sigma_pn < 0:
            raise ValueError("noise variances must be non-negative")
        if self.nodes is not None and self.nodes < 8:
            raise ValueError("at least 8 quadrature nodes required")


def _node_ladder(start: int) -> list[int]:
    ladder = [start] + [n for n in (32, 48, NODE_CAP) if n > start]
    return ladder


def _single_mode(rho: DensityMatrix) -> int:
    if rho.layout.nmodes != 1:
        raise ValueError("channel acts on a single-mode density matrix")
    return rho.layout.dims[0]


def thermal_channel(rho: DensityMatrix, spec: NoiseSpec) -> DensityMatrix:
    """Random-displacement (phase-insensitive) Gaussian noise of variance sigma_tn.

    Each quadrature of the output gains +sigma_tn of variance and the mean
    photon number grows by sigma_tn.  The channel commutes with parity
    (D(-a) = P D(a) P and the nodes are symmetric), so when every
    odd-offset input coherence (n - m odd) is exactly zero the output's
    odd-offset entries are set to exact zeros instead of rounding residue.
    """
    d = _single_mode(rho)
    sigma = spec.sigma_tn
    if sigma == 0.0:
        return rho
    start = spec.nodes if spec.nodes is not None else DEFAULT_THERMAL_NODES
    target = rho.trace()
    n = np.arange(d)
    odd = (n[:, None] - n[None, :]) % 2 == 1
    parity_definite = not rho.mat[odd].any()
    for nodes in _node_ladder(start):
        t, w = hermgauss(nodes)
        out = np.zeros_like(rho.mat)
        for i in range(nodes):
            for j in range(nodes):
                # one exponential serves the whole sign quadrant:
                # D(conj(a)) = conj D(a) flips Im, D(a)^T = D(-conj(a)) flips Re
                alpha = np.sqrt(sigma) * (abs(t[i]) + 1j * abs(t[j]))
                dmat = displace_matrix(d, complex(alpha))
                if t[j] < 0:
                    dmat = dmat.conj()
                if t[i] < 0:
                    dmat = dmat.T
                out += (w[i] * w[j] / np.pi) * (dmat @ rho.mat @ dmat.conj().T)
        if abs(float(np.trace(out).real) - target) <= TRACE_TOL:
            if parity_definite:
                out[odd] = 0.0
            return DensityMatrix(rho.layout, 0.5 * (out + out.conj().T))
    raise ValueError(
        f"trace bound {TRACE_TOL:.0e} not met with {NODE_CAP} quadrature nodes"
    )


def phase_channel(rho: DensityMatrix, spec: NoiseSpec) -> DensityMatrix:
    """Gaussian phase diffusion of variance sigma_pn.

    Populations are preserved exactly; the (n, m) coherence is damped by
    (the quadrature approximation of) exp(-sigma_pn (n-m)^2 / 2).
    """
    d = _single_mode(rho)
    sigma = spec.sigma_pn
    if sigma == 0.0:
        return rho
    start = spec.nodes if spec.nodes is not None else DEFAULT_PHASE_NODES
    target = rho.trace()
    n = np.arange(d)
    for nodes in _node_ladder(start):
        t, w = hermgauss(nodes)
        # damping[k] approximates exp(-sigma k^2 / 2) for level difference k
        phases = np.exp(1j * np.outer(np.sqrt(2.0 * sigma) * t, n))   # (nodes, d)
        out = np.zeros_like(rho.mat)
        for i in range(nodes):
            out += (w[i] / np.sqrt(np.pi)) * (phases[i, :, None] * rho.mat * phases[i, None, :].conj())
        if abs(float(np.trace(out).real) - target) <= TRACE_TOL:
            return DensityMatrix(rho.layout, 0.5 * (out + out.conj().T))
    raise ValueError(
        f"trace bound {TRACE_TOL:.0e} not met with {NODE_CAP} quadrature nodes"
    )


def bs_loss(state: FockVector | DensityMatrix, transmissivity: float) -> DensityMatrix:
    """Pure loss: mix with a vacuum ancilla at transmissivity cos^2(theta).

    Returns a density matrix; transmissivity 1 is the identity and 0 maps
    every input to vacuum.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    rho = state.density() if isinstance(state, FockVector) else state
    d = _single_mode(rho)
    if transmissivity == 1.0:
        return rho
    theta = float(np.arccos(np.sqrt(transmissivity)))
    ancilla = vacuum(ModeLayout((d,))).density()
    joint = tensor(rho, ancilla)
    mixed = apply_beamsplitter(joint, 0, 1, theta)
    return reduced_density(mixed, keep=[0])
