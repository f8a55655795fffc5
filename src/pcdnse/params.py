"""Parameter algebra for the reservoir-engineered bosonic chain.

Each lattice site is a classical anharmonic oscillator coupled off-resonantly
to a driven, lossy auxiliary cavity.  Adiabatic elimination of the cavities
leaves three constants that govern the reduced site dynamics: the net
nonlinearity ``g``, the reservoir-induced shift ``delta_g`` it contains, and a
dimensionless dissipation rate ``gamma``.  This module holds the closed-form
maps between the microscopic constants and the effective ones, the inverse
map used to hit a requested ``(g, gamma)`` working point, and the ratios that
monitor validity of the elimination.

All rates are measured in units of the hopping ``J`` (hbar = 1), so only
ratios matter; the functions still carry ``hopping`` explicitly to keep the
dimensions honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PERIODIC = "periodic"
OPEN = "open"
_BOUNDARIES = (PERIODIC, OPEN)

#: Advisory ceiling for the weak-coupling ratios.  Below it the adiabatic
#: elimination is trustworthy; the caller decides what to do above it.
WEAK_COUPLING_ADVISORY = 0.1


class DegenerateDenominatorError(ValueError):
    """Cavity response denominator kappa**2/4 + delta**2, cubed, underflowed
    to zero."""


class UnsolvableSignError(ValueError):
    """No real coupling chi produces the requested dissipation rate.

    The sign of gamma is locked to the detuning: red detuning (delta < 0)
    gives gamma > 0, blue detuning gives gamma < 0.  Asking for the wrong
    sign, or for gamma != 0 with a vanishing drive, detuning, or linewidth,
    has no solution.
    """


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ReservoirParams:
    """Microscopic constants of the driven auxiliary cavities.

    Parameters
    ----------
    chi : float
        Cross-Kerr coupling between each site and its cavity.  Non-negative
        by convention; only chi**2 enters the effective constants.
    eta : float
        Coherent drive amplitude, >= 0.
    kappa : float
        Cavity linewidth, >= 0.
    delta : float
        Drive detuning from cavity resonance.  Negative (red) detuning
        produces positive effective dissipation.

    Raises
    ------
    DegenerateDenominatorError
        If (kappa**2/4 + delta**2)**3 is zero (kappa = delta = 0, or both
        so small that the cube underflows): the cavity response is
        singular.
    """

    chi: float
    eta: float
    kappa: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("chi", "eta", "kappa", "delta"):
            _check_finite(name, getattr(self, name))
        if self.chi < 0:
            raise ValueError("chi must be non-negative (sign convention)")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        # effective_params divides by den**2 and den**3; below 1 the cube
        # is the smaller, so it underflows first (and above 1 it could
        # overflow, which float ** raises on)
        den = self.delta**2 + self.kappa**2 / 4.0
        if den < 1.0 and den**3 == 0.0:
            raise DegenerateDenominatorError(
                "kappa and delta both vanish, or so nearly that "
                "(kappa**2/4 + delta**2)**3 underflows to zero; cavity "
                "response is singular")


@dataclass(frozen=True)
class ChainParams:
    """Bare chain constants: hopping, on-site anharmonicity, geometry."""

    hopping: float
    anharmonicity: float
    sites: int
    boundary: str = PERIODIC

    def __post_init__(self) -> None:
        _check_finite("hopping", self.hopping)
        _check_finite("anharmonicity", self.anharmonicity)
        if self.hopping <= 0:
            raise ValueError("hopping must be positive (gauge-fixed convention)")
        if int(self.sites) != self.sites or self.sites < 2:
            raise ValueError("sites must be an integer >= 2")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")


@dataclass(frozen=True)
class EffectiveParams:
    """Constants of the reduced site dynamics after cavity elimination.

    ``g`` is the net nonlinearity (bare anharmonicity plus ``delta_g``),
    ``gamma`` the dimensionless dissipation rate.  ``delta_g`` is carried for
    bookkeeping only; the equations of motion depend on ``g`` and ``gamma``.
    """

    g: float
    delta_g: float = 0.0
    gamma: float = 0.0
    hopping: float = 1.0

    def __post_init__(self) -> None:
        for name in ("g", "delta_g", "gamma", "hopping"):
            _check_finite(name, getattr(self, name))
        if self.hopping <= 0:
            raise ValueError("hopping must be positive")


def effective_params(res: ReservoirParams, chain: ChainParams) -> EffectiveParams:
    """Eliminate the cavities and return the effective constants.

    The reservoir shifts the nonlinearity by

        delta_g = 2 chi**2 eta**2 delta / (kappa**2/4 + delta**2)**2

    and produces the dimensionless dissipation rate

        gamma = -4 chi**2 eta**2 delta kappa / (delta**2 + kappa**2/4)**3

    so the net nonlinearity is g = anharmonicity + delta_g.
    """
    den = res.delta**2 + res.kappa**2 / 4.0
    chi2_eta2 = res.chi**2 * res.eta**2
    delta_g = 2.0 * chi2_eta2 * res.delta / den**2
    gamma = -4.0 * chi2_eta2 * res.delta * res.kappa / den**3
    return EffectiveParams(
        g=chain.anharmonicity + delta_g,
        delta_g=delta_g,
        gamma=gamma,
        hopping=chain.hopping,
    )


def invert_for_chi_alpha(
    target_g: float,
    target_gamma: float,
    eta: float,
    kappa: float,
    delta: float,
) -> tuple[float, float]:
    """Solve for (chi, alpha) that realize a requested (g, gamma).

    Inverts the dissipation formula for chi**2 and then removes the induced
    shift from the target nonlinearity:

        chi**2 = gamma (delta**2 + kappa**2/4)**3 / (-4 eta**2 delta kappa)
        alpha  = g - delta_g(chi)

    Returns the non-negative root for chi.  ``target_gamma = 0`` is always
    solvable with chi = 0, alpha = g.

    Raises
    ------
    UnsolvableSignError
        If ``target_gamma * (-delta * kappa) <= 0`` with nonzero
        ``target_gamma`` (wrong detuning sign, or vanishing kappa/delta),
        or if the drive ``eta`` is zero.
    """
    target_g = _check_finite("target_g", target_g)
    target_gamma = _check_finite("target_gamma", target_gamma)
    eta = _check_finite("eta", eta)
    kappa = _check_finite("kappa", kappa)
    delta = _check_finite("delta", delta)

    if target_gamma == 0.0:
        return 0.0, target_g
    if eta == 0.0:
        raise UnsolvableSignError("eta = 0 cannot produce nonzero gamma")
    if target_gamma * (-delta * kappa) <= 0.0:
        raise UnsolvableSignError(
            f"gamma = {target_gamma} is unreachable at delta = {delta}, "
            f"kappa = {kappa}; sign(gamma) must equal sign(-delta*kappa)"
        )
    den = delta**2 + kappa**2 / 4.0
    chi_sq = target_gamma * den**3 / (-4.0 * eta**2 * delta * kappa)
    chi = math.sqrt(chi_sq)
    delta_g = 2.0 * chi_sq * eta**2 * delta / den**2
    return chi, target_g - delta_g


def weak_coupling_ratios(
    res: ReservoirParams, chain: ChainParams, b_max: float
) -> tuple[float, float]:
    """Dimensionless ratios controlling validity of the cavity elimination.

    For peak site amplitude ``b_max`` the elimination assumes

        r1 = chi b_max**2 / |i delta + kappa/2|      << 1
        r2 = chi J b_max**2 / |i delta + kappa/2|**2 << 1

    Returns ``(r1, r2)``; compare against :data:`WEAK_COUPLING_ADVISORY`.
    """
    b_max = _check_finite("b_max", b_max)
    if b_max < 0:
        raise ValueError("b_max must be non-negative")
    scale = math.hypot(res.delta, res.kappa / 2.0)
    r1 = res.chi * b_max**2 / scale
    r2 = res.chi * chain.hopping * b_max**2 / scale**2
    return r1, r2
