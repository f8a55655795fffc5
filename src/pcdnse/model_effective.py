"""Reduced site dynamics of the chain after cavity elimination.

The general form propagates any lattice Hamiltonian through its Wirtinger
gradient G_l = dH/db_l*:

    i db_l/dt = G_l + delta_g |b_l|^2 b_l + gamma Im(b_l* G_l) b_l

For the hopping chain, with the Laplacian D_n = b_{n-1} - 2 b_n + b_{n+1}
and the net nonlinearity g, this becomes

    i db_n/dt = g |b_n|^2 b_n - J D_n - J gamma Im(b_n* D_n) b_n

because the on-site quartic term contributes nothing to Im(b* G).  The
chain form is integrated by :func:`make_chain_ode`; it is the dx = 1 member
of the continuum flow of :mod:`pcdnse.model_continuum`, and both come from
one kernel.  :func:`general_effective_rhs` is kept as the independent
oracle for it.  The dissipative term conserves the total occupation
sum(|b_n|^2) exactly while draining the chain energy at the rate returned
by :func:`energy_decay_rate`.

Boundary conventions: every stencil takes its ghost sites from one rule,
:func:`_ghosted`.  ``periodic`` ghosts wrap; ``open`` ghosts are zero (so
edge sites see a hard wall), and the bond energy includes the bonds to them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .params import OPEN, PERIODIC, EffectiveParams

__all__ = [
    "HamiltonianGradient",
    "lattice_laplacian",
    "chain_hamiltonian_gradient",
    "general_effective_rhs",
    "energy_decay_rate",
    "chain_energy",
    "make_chain_ode",
]

#: A lattice Hamiltonian enters only through its gradient db -> dH/db*.
HamiltonianGradient = Callable[[np.ndarray], np.ndarray]


def _ghosted(b: np.ndarray, boundary: str) -> np.ndarray:
    """b with a ghost site beyond each end: wrapped if periodic, 0 if open."""
    if boundary == PERIODIC:
        return np.concatenate([b[-1:], b, b[:1]])
    if boundary == OPEN:
        return np.concatenate([[0.0], b, [0.0]])
    raise ValueError(f"unknown boundary {boundary!r}")


def _neighbour_sum(b: np.ndarray, boundary: str) -> np.ndarray:
    """b_{n-1} + b_{n+1}, the ghosts of :func:`_ghosted` beyond the ends."""
    g = _ghosted(b, boundary)
    return g[:-2] + g[2:]


def lattice_laplacian(b: np.ndarray, boundary: str = PERIODIC) -> np.ndarray:
    """Discrete Laplacian b_{n-1} - 2 b_n + b_{n+1} with ghost zeros if open."""
    return _neighbour_sum(b, boundary) - 2.0 * b


def chain_hamiltonian_gradient(
    hopping: float, nonlinearity: float, boundary: str = PERIODIC
) -> HamiltonianGradient:
    """Gradient of the chain Hamiltonian sum(J |b_{n+1}-b_n|^2 + (a/2)|b_n|^4).

    Returns the map b -> -J D(b) + a |b|^2 b, the Wirtinger derivative
    dH/db* of the scalar above (for ``open``, the edge bonds to the zero
    ghost sites are included, matching the clamped Laplacian).
    """
    def grad(b: np.ndarray) -> np.ndarray:
        return (-hopping * lattice_laplacian(b, boundary)
                + nonlinearity * np.abs(b) ** 2 * b)

    return grad


def general_effective_rhs(
    b: np.ndarray, grad: HamiltonianGradient, eff: EffectiveParams
) -> np.ndarray:
    """Time derivative of the lattice state under an arbitrary Hamiltonian."""
    g_vec = grad(b)
    if g_vec.shape != b.shape:
        raise ValueError("gradient must return an array matching the state")
    diss = np.imag(np.conj(b) * g_vec)
    return -1j * (g_vec + eff.delta_g * np.abs(b) ** 2 * b + eff.gamma * diss * b)


def _phase_rate(psi: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """Im(psi* lap), the rate of the gamma-term iJ gamma Im(psi* lap) psi."""
    return np.imag(np.conj(psi) * lap)


def _make_flow(
    eff: EffectiveParams, inv_dx2: float, boundary: str
) -> Callable[[float, np.ndarray], np.ndarray]:
    """The chain flow with the Laplacian scaled by 1/dx^2 (1 on the lattice)."""
    j = eff.hopping
    g = eff.g
    jg = j * eff.gamma

    def rhs(t: float, psi: np.ndarray) -> np.ndarray:
        lap = lattice_laplacian(psi, boundary) * inv_dx2
        rate = _phase_rate(psi, lap)
        return -1j * (np.abs(psi) ** 2 * psi * g - j * lap - jg * rate * psi)

    return rhs


def energy_decay_rate(
    b: np.ndarray, grad: HamiltonianGradient, eff: EffectiveParams
) -> float:
    """Instantaneous dE/dt = -2 gamma sum_l Im(b_l* G_l)^2 along the flow.

    The chain rule dE/dt = 2 Re sum(G_l* db_l/dt) doubles the projection;
    this is the exact slope of :func:`chain_energy` under the effective
    dynamics, not an estimate.
    """
    diss = np.imag(np.conj(b) * grad(b))
    return -2.0 * eff.gamma * float(np.sum(diss**2))


def _bond_energy(
    b: np.ndarray, eff: EffectiveParams, dx: float, boundary: str
) -> float:
    """dx (J sum |b_{n+1}-b_n|^2 / dx^2 + (g/2) sum |b_n|^4) over every bond
    the Laplacian couples: the wrap bond if periodic, the ghost bonds if open.
    """
    ext = _ghosted(b, boundary)
    if boundary == PERIODIC:     # both ghosts end the one wrap bond
        ext = ext[:-1]
    bonds = np.abs(np.diff(ext)) ** 2
    return float(dx * (eff.hopping * np.sum(bonds) / dx**2
                       + 0.5 * eff.g * np.sum(np.abs(b) ** 4)))


def chain_energy(
    b: np.ndarray, eff: EffectiveParams, boundary: str = PERIODIC
) -> float:
    """Chain energy sum(J |b_{n+1}-b_n|^2 + (g/2)|b_n|^4).

    Uses the net nonlinearity g of the reduced dynamics.  Periodic chains
    include the wrap-around bond; open chains include the bonds to the zero
    ghost sites, so this is the functional the flow conserves at gamma = 0.
    """
    return _bond_energy(b, eff, 1.0, boundary)


def make_chain_ode(
    eff: EffectiveParams, boundary: str = PERIODIC
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Integrator-ready closure over the chain flow."""
    return _make_flow(eff, 1.0, boundary)
