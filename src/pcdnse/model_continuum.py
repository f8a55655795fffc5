"""Continuum limit of the chain: the particle-conserving dissipative NLSE.

For sites much wider than the lattice spacing the chain dynamics go over to

    i dPsi/dt = g |Psi|^2 Psi - J Psi_xx - J gamma Im(Psi* Psi_xx) Psi

discretized here by the method of lines with second-order central
differences.  With unit grid spacing the discretization reproduces the
lattice equations exactly, so lattice runs are the dx = 1 member of the
same family, and both are integrated by the same kernel.

The dissipative term conserves the particle number dx sum(|Psi_n|^2)
exactly while removing the bond energy at an exact rate, on periodic and
open grids alike, which makes those two functionals the standard run
diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .collective import SolitonCoords
from .integrate import LinearPart
from .model_effective import (
    _bond_energy,
    _ghosted,
    _make_flow,
    _phase_rate,
    lattice_laplacian,
)
from .params import OPEN, PERIODIC, EffectiveParams

__all__ = [
    "FieldState",
    "ContainmentWarning",
    "sech",
    "make_soliton_field",
    "particle_number",
    "field_momentum",
    "mean_velocity",
    "field_energy",
    "field_energy_decay_rate",
    "make_pcdnse_ode",
    "dispersion_part",
]


class ContainmentWarning(UserWarning):
    """A generated field has non-negligible amplitude at the domain edge."""


def sech(x: np.ndarray | float) -> np.ndarray | float:
    """Overflow-safe hyperbolic secant."""
    a = np.abs(x)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


@dataclass
class FieldState:
    """A complex field sampled on a uniform one-dimensional grid.

    For ``periodic`` boundaries the grid covers [0, L) with spacing
    dx = L / n_points (the right endpoint is identified with x = 0); for
    ``open`` boundaries it covers [0, L] inclusive with dx = L/(n_points-1).
    """

    psi: np.ndarray
    domain_length: float
    boundary: str = PERIODIC

    def __post_init__(self) -> None:
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.ndim != 1:
            raise ValueError("psi must be one-dimensional")
        if len(self.psi) < 16:
            raise ValueError("grid too coarse: need at least 16 points")
        self.domain_length = float(self.domain_length)
        if not (self.domain_length > 0 and np.isfinite(self.domain_length)):
            raise ValueError("domain_length must be positive and finite")
        if self.boundary not in (PERIODIC, OPEN):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def n_points(self) -> int:
        return len(self.psi)

    @property
    def dx(self) -> float:
        if self.boundary == PERIODIC:
            return self.domain_length / self.n_points
        return self.domain_length / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    def with_psi(self, psi: np.ndarray) -> "FieldState":
        return FieldState(psi, self.domain_length, self.boundary)


def _soliton_terms(x: np.ndarray, psi: float, x0: float, v: float, w: float,
                   d: float, phi: float
                   ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The soliton ansatz on the points ``x`` and its two factors:

        Psi(x) = psi sech(u/|w|) e^{i Phi},  Phi = u v + u^2 d + phi,

    with u = x - x0, returned as (Psi, (sech(u/|w|), e^{i Phi})).
    """
    u = x - x0
    envelope = sech(u / abs(w))
    carrier = np.exp(1j * (u * v + u * u * d + phi))
    return psi * envelope * carrier, (envelope, carrier)


def make_soliton_field(
    coords: SolitonCoords,
    domain_length: float,
    n_points: int,
    boundary: str = PERIODIC,
    containment_tol: float = 1e-8,
) -> FieldState:
    """Sample the six-parameter soliton ansatz on a grid.

    The ansatz is

        Psi(x) = psi exp(i[(x-x0) v + (x-x0)^2 d + phi]) sech((x-x0)/w)

    A :class:`ContainmentWarning` is emitted when the envelope at the domain
    edge exceeds ``containment_tol`` times the peak amplitude, since poorly
    contained fields interact with their periodic images (or the hard wall).
    """
    probe = FieldState(np.zeros(n_points, dtype=complex), domain_length, boundary)
    psi, (envelope, _) = _soliton_terms(
        probe.x, coords.psi, coords.x0, coords.v, coords.w, coords.d,
        coords.phi)
    state = probe.with_psi(psi)

    # psi >= 0 and rounding is monotone: the largest psi sech(u/w)
    peak = coords.psi * float(np.max(envelope))
    edge = max(abs(psi[0]), abs(psi[-1]))
    if peak > 0 and edge > containment_tol * peak:
        warnings.warn(
            f"soliton tail at domain edge is {edge / peak:.2e} of the peak "
            f"(tolerance {containment_tol:.1e})",
            ContainmentWarning,
            stacklevel=2,
        )
    return state


def particle_number(field: FieldState) -> float:
    """integral(|Psi|^2 dx) as the plain sum times dx, on both boundaries.

    This is the quantity the flow conserves exactly: the ghost zeros of an
    open grid carry no particles.
    """
    return float(np.sum(np.abs(field.psi) ** 2) * field.dx)


def field_momentum(field: FieldState) -> float:
    """Field momentum integral(Im(Psi* Psi_x) dx).

    Periodic grids differentiate spectrally: sech-like fields are band
    limited to machine precision there, so the momentum of an ansatz field
    equals N*v essentially exactly.  Open grids use central differences
    with the ghost zeros of the flow's stencil.
    """
    psi = field.psi
    if field.boundary == PERIODIC:
        k = 2.0 * np.pi * np.fft.fftfreq(field.n_points, d=field.dx)
        grad = np.fft.ifft(1j * k * np.fft.fft(psi))
    else:
        g = _ghosted(psi, OPEN)
        grad = (g[2:] - g[:-2]) / (2.0 * field.dx)
    return float(np.sum(np.imag(np.conj(psi) * grad)) * field.dx)


def mean_velocity(field: FieldState) -> float:
    """Momentum per particle, P/N: the phase-slope v of an ansatz field."""
    n = particle_number(field)
    if n == 0:
        raise ValueError("empty field has no mean velocity")
    return field_momentum(field) / n


def field_energy(field: FieldState, eff: EffectiveParams) -> float:
    """Bond energy dx (J sum |Psi_{n+1}-Psi_n|^2 / dx^2 + (g/2) sum |Psi|^4).

    The discrete counterpart of integral(J |Psi_x|^2 + (g/2) |Psi|^4) dx
    that the flow conserves at gamma = 0 and dissipates at exactly the rate
    :func:`field_energy_decay_rate`; at dx = 1 it is :func:`chain_energy`.
    """
    return _bond_energy(field.psi, eff, field.dx, field.boundary)


def field_energy_decay_rate(field: FieldState, eff: EffectiveParams) -> float:
    """Instantaneous dE/dt = -2 gamma J^2 integral(Im(Psi* Psi_xx)^2 dx).

    Exact slope of :func:`field_energy` along the flow (the chain rule
    contributes the 2, as in the lattice counterpart).
    """
    lap = lattice_laplacian(field.psi, field.boundary) / field.dx**2
    rate = _phase_rate(field.psi, lap)
    return (-2.0 * eff.gamma * eff.hopping**2
            * float(np.sum(rate**2) * field.dx))


def make_pcdnse_ode(
    template: FieldState, eff: EffectiveParams
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Integrator-ready closure; the template fixes grid and boundary."""
    return _make_flow(eff, 1.0 / template.dx**2, template.boundary)


def dispersion_part(template: FieldState, eff: EffectiveParams
                    ) -> LinearPart | None:
    """The dispersion J Psi_xx of the flow as a diagonal linear part.

    On a periodic grid the finite-difference Laplacian is diagonal in the
    unitary discrete Fourier basis, with eigenvalues -(4/dx^2) sin^2(pi k/n),
    so i J Psi_xx has lam_k = -i (4J/dx^2) sin^2(pi k/n).  They are taken at
    min(k, n - k), so the pairs lam_k = lam_{n-k} are equal exactly and the
    solver exponentiates each value once.  Open grids get ``None`` and take
    plain steps.  Their Laplacian is diagonalised by a DST-I, one FFT of
    2(n + 1) points, so its cost depends on the factors of n + 1: at the
    reference n = 4000, n + 1 = 4001 is prime and the FFT runs through
    Bluestein's algorithm.  A DST-I through ``numpy.fft`` (numpy 2.4, one
    Xeon core) took 1.4 ms at n = 4000 and 0.11 ms at n = 4095.
    """
    if template.boundary != PERIODIC:
        return None
    n = template.n_points
    k = np.arange(n)
    s = np.sin(np.pi * np.minimum(k, n - k) / n)
    lam = -1j * (4.0 * eff.hopping / template.dx**2) * s * s
    return LinearPart(lam, partial(np.fft.fft, norm="ortho"),
                      partial(np.fft.ifft, norm="ortho"))
