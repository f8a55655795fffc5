"""Collective-coordinate reduction of the dissipative soliton.

A bright soliton of the dissipative NLSE is parameterized by six collective
coordinates: amplitude ``psi``, center ``x0``, velocity ``v`` (phase
gradient), width ``w``, chirp ``d`` and global phase ``phi``, through the
ansatz

    Psi(x) = psi exp(i[(x-x0) v + (x-x0)^2 d + phi]) sech((x-x0)/w)

Averaging the field equations over this family yields closed equations of
motion for the six coordinates; they conserve the particle number
N = 2 psi^2 w identically and, for attractive interactions (g < 0), possess
a one-parameter family of stable solitons psi^2 w^2 = -2J/g on which only
the velocity relaxes.  On that manifold the dynamics collapse to three
coordinates with a linear friction law dv/dt = -Gamma J v,
Gamma = gamma (-g^3/J^3) N^4 / 240.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import EffectiveParams

__all__ = [
    "SolitonCoords",
    "StableSoliton",
    "WidthCollapseError",
    "RepulsiveInteractionError",
    "COORD_ORDER",
    "collective_rhs",
    "make_collective_ode",
    "stable_soliton",
    "stable_rhs",
    "make_stable_ode",
    "stable_closed_form",
    "ansatz_energy",
]

#: Packing order of the coordinate vector used by the ODE closures.
COORD_ORDER = ("psi", "x0", "v", "w", "d", "phi")

#: Below this width the averaged equations are meaningless (the ansatz
#: collapses); the right-hand side refuses to continue.
WIDTH_FLOOR = 1e-6


class WidthCollapseError(ValueError):
    """Soliton width fell below the collapse floor during evolution."""


class RepulsiveInteractionError(ValueError):
    """Stable solitons require attractive interactions (g < 0)."""


@dataclass(frozen=True)
class SolitonCoords:
    """The six collective coordinates of the soliton ansatz."""

    psi: float
    x0: float
    v: float
    w: float
    d: float
    phi: float

    def __post_init__(self) -> None:
        for name in COORD_ORDER:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.psi < 0:
            raise ValueError("psi must be non-negative")
        if self.w <= 0:
            raise ValueError("w must be positive")

    @property
    def particle_number(self) -> float:
        """N = 2 psi^2 w, conserved by the collective flow.

        ``psi * psi``, unlike a scalar ``psi**2`` (libm's pow), is correctly
        rounded, like numpy's ``psi**2`` of an array.
        """
        return 2.0 * (self.psi * self.psi) * self.w

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in COORD_ORDER])


def collective_rhs(coords: np.ndarray, eff: EffectiveParams) -> np.ndarray:
    """Time derivatives of the six coordinates, an array ``coords`` in
    :data:`COORD_ORDER`, in the same order.

    Raises :class:`WidthCollapseError` if the width is at or below
    :data:`WIDTH_FLOOR`.
    """
    psi, x0, v, w, d, phi = map(float, coords)
    if w <= WIDTH_FLOOR:
        raise WidthCollapseError(
            f"soliton width {w!r} at or below collapse floor {WIDTH_FLOOR!r}")

    j = eff.hopping
    g = eff.g
    gamma = eff.gamma
    pi2 = math.pi**2
    shape_drag = 8.0 * j * gamma * psi**2 / (15.0 * w**2)

    dpsi = -2.0 * j * psi * d
    dx0 = 2.0 * j * v
    dv = -shape_drag * v
    dw = 4.0 * j * d * w
    dd = (-shape_drag * d - 4.0 * j * d**2
          + 4.0 * j / (pi2 * w**4) + 2.0 * g * psi**2 / (pi2 * w**2))
    dphi = (2.0 * pi2 * j * gamma * psi**2 * d / 45.0
            + 2.0 * j * gamma * psi**2 * d / 3.0
            + j * v**2 - 2.0 * j / (3.0 * w**2) - 5.0 * g * psi**2 / 6.0)
    return np.array([dpsi, dx0, dv, dw, dd, dphi])


def make_collective_ode(
    eff: EffectiveParams,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Integrator-ready closure over :func:`collective_rhs`."""
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return collective_rhs(y, eff)

    return rhs


@dataclass(frozen=True)
class StableSoliton:
    """The stable soliton of given particle number and its friction rate.

    ``width * amplitude**2 = -2J/g`` fixes the shape; ``damping_rate`` is the
    dimensionless Gamma in dv/dt = -Gamma J v.
    """

    particle_number: float
    width: float
    amplitude: float
    damping_rate: float
    g: float
    hopping: float

    def energy(self, v: float = 0.0) -> float:
        """Energy of the stable soliton moving at velocity v."""
        n = self.particle_number
        return (self.hopping * v**2 * n
                - n**3 * self.g**2 / (48.0 * self.hopping))

    def coords(self, x0: float = 0.0, v: float = 0.0,
               phi: float = 0.0) -> SolitonCoords:
        """Collective coordinates of this soliton (chirp-free)."""
        return SolitonCoords(psi=self.amplitude, x0=x0, v=v,
                             w=self.width, d=0.0, phi=phi)


def stable_soliton(n_particles: float, eff: EffectiveParams) -> StableSoliton:
    """Construct the stable soliton carrying ``n_particles``.

    Raises :class:`RepulsiveInteractionError` for g >= 0, where no bright
    soliton exists.
    """
    if not (n_particles > 0 and math.isfinite(n_particles)):
        raise ValueError("n_particles must be positive and finite")
    g = eff.g
    j = eff.hopping
    if g >= 0:
        raise RepulsiveInteractionError(
            f"stable solitons require g < 0, got g = {g!r}")
    width = -4.0 * j / (g * n_particles)
    amplitude = math.sqrt(-g / (2.0 * j)) * n_particles / 2.0
    damping_rate = eff.gamma * (-(g / j) ** 3) * n_particles**4 / 240.0
    return StableSoliton(
        particle_number=float(n_particles),
        width=width,
        amplitude=amplitude,
        damping_rate=damping_rate,
        g=g,
        hopping=j,
    )


def stable_rhs(
    x0: float, v: float, phi: float, ss: StableSoliton
) -> tuple[float, float, float]:
    """Reduced flow on the stable manifold: (dx0/dt, dv/dt, dphi/dt)."""
    j = ss.hopping
    dx0 = 2.0 * j * v
    dv = -ss.damping_rate * j * v
    dphi = j * v**2 + ss.g**2 * ss.particle_number**2 / (16.0 * j)
    return dx0, dv, dphi


def make_stable_ode(ss: StableSoliton) -> Callable[[float, np.ndarray], np.ndarray]:
    """Integrator-ready closure over :func:`stable_rhs` for (x0, v, phi)."""
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.array(stable_rhs(y[0], y[1], y[2], ss))

    return rhs


def stable_closed_form(
    times: np.ndarray, x0: float, v0: float, phi0: float, ss: StableSoliton
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact solution of :func:`stable_rhs` at the given times.

    v(t) decays exponentially at rate Gamma J; x0 and phi follow by
    quadrature, through ``expm1`` so that no digit is lost at small Gamma.
    Works for Gamma of either sign; Gamma = 0 reduces to free motion.  A
    value that is not finite raises :class:`FloatingPointError`.
    """
    t = np.asarray(times, dtype=float)
    j = ss.hopping
    rate = ss.damping_rate * j
    rotation = ss.g**2 * ss.particle_number**2 / (16.0 * j)
    v = v0 * np.exp(-rate * t)
    if abs(ss.damping_rate) < np.finfo(float).tiny:   # zero or subnormal
        x = x0 + 2.0 * j * v0 * t
        phi = phi0 + (j * v0**2 + rotation) * t
    else:
        x = x0 + 2.0 * v0 * -np.expm1(-rate * t) / ss.damping_rate
        phi = (phi0 + rotation * t
               + v0**2 * -np.expm1(-2.0 * rate * t) / (2.0 * ss.damping_rate))
    if not np.isfinite([x, v, phi]).all():
        raise FloatingPointError(f"trajectory not finite by t = {t.max()}")
    return x, v, phi


def ansatz_energy(coords: SolitonCoords, eff: EffectiveParams) -> float:
    """Field energy of the ansatz, evaluated in closed form.

    E = 2 J psi^2 v^2 w + (2 pi^2/3) J psi^2 d^2 w^3
        + (2/3) J psi^2 / w + (2/3) g psi^4 w
    """
    j = eff.hopping
    psi2 = coords.psi**2
    w = coords.w
    return (2.0 * j * psi2 * coords.v**2 * w
            + (2.0 * math.pi**2 / 3.0) * j * psi2 * coords.d**2 * w**3
            + (2.0 / 3.0) * j * psi2 / w
            + (2.0 / 3.0) * eff.g * psi2**2 * w)
