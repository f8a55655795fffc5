"""Microscopic dynamics of the chain with its driven auxiliary cavities.

Site n couples cross-Kerr-wise to cavity n, which is coherently driven and
lossy.  In the frame rotating at the drive the classical amplitudes obey

    dA_n/dt = (i delta - kappa/2) A_n + eta - i chi |B_n|^2 A_n
    dB_n/dt = -i chi |A_n|^2 B_n - i alpha |B_n|^2 B_n + i J (B_{n-1} + B_{n+1})

The cavities relax toward A_ss = eta / (kappa/2 - i delta) at rate kappa/2
and, once eliminated, endow the sites with the effective constants of
:mod:`pcdnse.params`.  Comparisons against the reduced models are made in
the effective frame, reached by the time-dependent (site-independent) gauge

    b_n(t) = exp(i chi eta^2 t / (delta^2 + kappa^2/4)) exp(-2 i J t) B_n(t)

which removes the static cavity-induced frequency shift and re-centers the
hopping band; it leaves all occupations |B_n|^2 untouched.

The linear part of the flow, the cavity pole (i delta - kappa/2) A_n and the
hopping i J (B_{n-1} + B_{n+1}), is diagonal on a periodic chain: the
cavities are already uncoupled and the hopping is diagonal in the discrete
Fourier basis of the sites.  :func:`hopping_part` hands it to the solver,
which then steps it exactly in integrating-factor (Lawson) form, so the
step no longer has to resolve the phase rotation of the hopping band.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .integrate import LinearPart, TimeSeries
from .model_effective import _neighbour_sum
from .params import PERIODIC, ChainParams, ReservoirParams

__all__ = [
    "steady_state_cavities",
    "make_full_ode",
    "hopping_part",
    "rotating_frame_to_effective",
]


def steady_state_cavities(res: ReservoirParams, sites: int) -> np.ndarray:
    """Cavity amplitudes with undisturbed sites: eta / (kappa/2 - i delta)."""
    return np.full(sites, res.eta / (res.kappa / 2.0 - 1j * res.delta),
                   dtype=complex)


def make_full_ode(res: ReservoirParams,
                  chain: ChainParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Integrator-ready closure over packed states [cavities A_n, sites B_n]."""
    half = chain.sites
    boundary = chain.boundary
    chi = res.chi
    eta = res.eta
    pole = 1j * res.delta - res.kappa / 2.0
    alpha = chain.anharmonicity
    j = chain.hopping

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a = y[:half]
        b = y[half:]
        b2 = np.abs(b) ** 2
        out = np.empty_like(y)
        np.subtract(pole * a + eta, 1j * chi * b2 * a, out=out[:half])
        np.add(-1j * chi * np.abs(a) ** 2 * b - 1j * alpha * b2 * b,
               1j * j * _neighbour_sum(b, boundary), out=out[half:])
        return out

    return rhs


def hopping_part(res: ReservoirParams, chain: ChainParams) -> LinearPart | None:
    """The linear part of the packed flow [A_n, B_n], for Lawson stepping.

    T is the identity on the cavity half, where the eigenvalue is the pole
    i delta - kappa/2, and the unitary DFT on the site half, where the
    hopping i J (B_{n-1} + B_{n+1}) has the eigenvalues 2 i J cos(2 pi k/n).
    These are taken at min(k, n - k), so the pairs lam_k = lam_{n-k} are
    equal exactly and the solver exponentiates each value once.  Each
    transform fills one new array: the cavity half is copied and the site
    half is transformed straight into it.  Open chains get ``None``.
    """
    if chain.boundary != PERIODIC:
        return None
    half = chain.sites
    k = np.arange(half)
    lam = np.empty(2 * half, dtype=complex)
    lam[:half] = 1j * res.delta - res.kappa / 2.0
    lam[half:] = 2j * chain.hopping * np.cos(
        2.0 * np.pi * np.minimum(k, half - k) / half)

    def on_sites(transform):
        def apply(y: np.ndarray) -> np.ndarray:
            out = np.empty(2 * half, dtype=complex)
            out[:half] = y[:half]
            transform(y[half:], norm="ortho", out=out[half:])
            return out
        return apply

    return LinearPart(lam, on_sites(np.fft.fft), on_sites(np.fft.ifft))


def rotating_frame_to_effective(series: TimeSeries, res: ReservoirParams,
                                chain: ChainParams) -> TimeSeries:
    """Map a packed full-model trajectory to effective-frame site amplitudes.

    Applies the global gauge phase to the site half of each packed state;
    occupations are unchanged, so cross-model occupation comparisons may use
    either frame.
    """
    shift = res.chi * res.eta**2 / (res.delta**2 + res.kappa**2 / 4.0)
    states = np.asarray(series.states)
    if states.ndim != 2 or states.shape[1] % 2:
        raise ValueError("series must hold packed full states")
    half = states.shape[1] // 2
    phases = np.exp(1j * (shift - 2.0 * chain.hopping) * series.times)
    return TimeSeries(series.times.copy(),
                      states[:, half:] * phases[:, None],
                      series.stats)
