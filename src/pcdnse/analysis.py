"""Estimators that reduce simulated fields to soliton observables.

The central tool is a nonlinear least-squares fit of the six-parameter
soliton ansatz to a complex field snapshot: a Levenberg-Marquardt iteration
written in numpy, on the analytic Jacobian of the ansatz, over the window
of points the soliton occupies.  On top of it sit the velocity
damping estimator, which returns the relative rate of the momentum
velocity's finite-difference slope between two snapshots (gated by
endpoint fits), and the windowed envelope deviation, which returns the
window centres and per-window maxima used to monitor shape relaxation in
long runs.  A direct profile comparator returns the largest pointwise
distance between occupation profiles from different models, relative to
the larger peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import SolitonCoords
from .model_continuum import FieldState, _soliton_terms, mean_velocity
from .params import PERIODIC

__all__ = [
    "FitResult",
    "NoPeakError",
    "fit_soliton",
    "velocity_damping_estimate",
    "envelope_deviation",
    "compare_profiles",
]

#: RMS occupancy misfit (relative to the peak) above which a fit is not
#: considered a faithful single-soliton description.
FIT_RESIDUAL_THRESHOLD = 1e-3
#: The looser threshold that ``velocity_damping_estimate`` gates its two
#: fits on (its docstring says why).
DAMPING_RESIDUAL_THRESHOLD = 1e-2

#: Points with |Psi|^2 at or below this fraction of the peak lie outside
#: the window the fit iterates on.
_WINDOW_FLOOR = 1e-16
#: Scaled step, relative to the scaled parameters, below which the fit has
#: converged.
_FIT_TOL = 1e-10
#: Levenberg-Marquardt iterations (accepted or rejected steps) before giving
#: up; the snapshots of the canned experiments and the benchmark need 3-16.
_FIT_MAX_ITERATIONS = 200
#: Initial Levenberg-Marquardt damping, relative to the scaling D^2.
_LM_LAMBDA0 = 1e-3


class NoPeakError(ValueError):
    """The field has no localized peak to fit (peak <= 10x median)."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of a soliton fit.

    ``residual`` is the RMS misfit of |Psi|^2 relative to the peak
    occupation, over the whole grid (radiation outside the fitted window
    counts).  ``converged`` requires that the Levenberg-Marquardt iteration
    stopped on its step tolerance, not on its iteration cap, and that the
    residual is below the threshold.
    """

    coords: SolitonCoords
    residual: float
    converged: bool


def _model_jacobian(x: np.ndarray, theta: np.ndarray,
                    factors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Derivatives of the ansatz by (A, x0, v, w, d, phi), (n, 6), from the
    ``factors`` that ``_soliton_terms(x, *theta)`` returns.

    With m = A sech(s) e^{i Phi}, s = (x - x0)/|w| and
    Phi = u v + u^2 d + phi (u = x - x0).
    """
    amp, x0, v, w, d, phi = theta
    envelope, phase = factors
    u = x - x0
    wa = abs(w)
    s = u / wa
    carrier = envelope * phase
    m = amp * carrier
    tanh = np.tanh(s)
    jac = np.empty((len(x), 6), dtype=complex)
    jac[:, 0] = carrier
    jac[:, 1] = m * (tanh / wa - 1j * (v + 2.0 * d * u))
    jac[:, 2] = 1j * u * m
    jac[:, 3] = m * tanh * s * (np.sign(w) / wa)
    jac[:, 4] = 1j * u * u * m
    jac[:, 5] = 1j * m
    return jac


def _run_around(mask: np.ndarray, j: int) -> slice:
    """The run of consecutive True entries of ``mask`` that holds ``j``."""
    gaps = np.flatnonzero(~mask)
    k = int(np.searchsorted(gaps, j))
    lo = int(gaps[k - 1]) + 1 if k > 0 else 0
    hi = int(gaps[k]) if k < len(gaps) else len(mask)
    return slice(lo, hi)


def _initial_guess(x: np.ndarray, psi: np.ndarray, dx: float) -> np.ndarray:
    occ = np.abs(psi) ** 2
    j_peak = int(np.argmax(occ))
    peak = occ[j_peak]
    amp = math.sqrt(peak)
    x0 = x[j_peak]

    # Width from the FWHM of |Psi|^2; sech^2 falls to half at
    # arcsech(1/sqrt(2)) = ln(1 + sqrt(2)) widths from the center.
    above_half = _run_around(occ > peak / 2.0, j_peak)
    fwhm = max(above_half.stop - 1 - above_half.start, 1) * dx
    w = fwhm / (2.0 * math.log(1.0 + math.sqrt(2.0)))

    # Velocity and chirp from a quadratic fit of the unwrapped phase near
    # the peak, weighted by occupation.
    sl = _run_around(occ > 1e-6 * peak, j_peak)
    u = x[sl] - x0
    phase = np.unwrap(np.angle(psi[sl]))
    if len(u) >= 3:
        c2, c1, c0 = np.polyfit(u, phase, 2, w=occ[sl])
    else:
        c2, c1, c0 = 0.0, 0.0, float(np.angle(psi[j_peak]))
    return np.array([amp, x0, c1, w, c2, c0])


def _wrap_phase(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def _levenberg_marquardt(x: np.ndarray, psi: np.ndarray,
                         theta: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least-squares fit of the ansatz to ``psi``, started at ``theta``.

    Levenberg-Marquardt on the normal equations Re(J^H J), scaled by
    D^2, the running maximum of diag(Re(J^H J)) (Marquardt 1963; More
    1978).  The damping lambda is divided by 10 after an accepted step and
    multiplied by 10 after a rejected one.  The iteration stops after a
    trial step, accepted or not, with |D step| <= ``_FIT_TOL`` |D theta|.
    The step, not the cost decrease, decides: near the minimum the cost
    changes by rounding error while the parameters still move.  Returns the
    parameters and whether that test stopped the iteration (False: the
    iteration cap did).
    """
    # The Jacobian at an accepted point reuses the factors of its trial.
    m, factors = _soliton_terms(x, *theta)
    r = m - psi
    cost = float(np.vdot(r, r).real)
    lam = _LM_LAMBDA0
    d2 = np.zeros(6)
    fresh = True
    for _ in range(_FIT_MAX_ITERATIONS):
        if fresh:
            jac = _model_jacobian(x, theta, factors)
            a = (jac.conj().T @ jac).real
            grad = (jac.conj().T @ r).real
            d2 = np.maximum(d2, np.diag(a))
            scale = np.where(d2 > 0.0, d2, 1.0)
        step = np.linalg.solve(a + lam * np.diag(scale), -grad)
        small = (math.sqrt(float(scale @ step**2))
                 <= _FIT_TOL * math.sqrt(float(scale @ theta**2)))
        trial = theta + step
        m_trial, factors_trial = _soliton_terms(x, *trial)
        r_trial = m_trial - psi
        cost_trial = float(np.vdot(r_trial, r_trial).real)
        fresh = cost_trial < cost
        if fresh:
            theta, r, cost = trial, r_trial, cost_trial
            factors = factors_trial
            lam /= 10.0
        else:
            lam *= 10.0
        if small:
            return theta, True
    return theta, False


def fit_soliton(
    field: FieldState,
    residual_threshold: float = FIT_RESIDUAL_THRESHOLD,
) -> FitResult:
    """Fit the soliton ansatz to a field snapshot.

    The complex field (not just its modulus) is fitted, so velocity and
    chirp are recovered from the phase profile.  Periodic fields are rolled
    to center the peak first, which makes the fit insensitive to solitons
    near the seam; the fitted center is mapped back to [0, L).  The
    Levenberg-Marquardt iteration (``_levenberg_marquardt``) sees only the
    run of points around the peak where |Psi|^2 exceeds 1e-16 of the peak;
    the reported residual is taken over the whole grid.

    Raises
    ------
    ValueError
        If the field holds a non-finite value.
    FloatingPointError
        If |Psi| overflows.
    NoPeakError
        If the occupation has no localized peak (peak <= 10x median).
    """
    if not np.all(np.isfinite(field.psi)):
        raise ValueError("field holds a non-finite value")
    # A field far from unit amplitude is fitted scaled, exactly, by a power
    # of 2^256 that takes its peak amplitude within 2^128 of 1, so that its
    # squares and those of the misfit stay normal doubles; a field within
    # that range is fitted as given.
    amplitude = float(np.max(np.abs(field.psi)))
    if amplitude == math.inf:
        raise FloatingPointError("|psi| exceeds the largest double")
    exp = 256 * round(math.frexp(amplitude)[1] / 256)
    psi = np.ldexp(np.ascontiguousarray(field.psi).view(float),
                   -exp).view(complex)
    occ = np.abs(psi) ** 2
    peak = float(np.max(occ))
    if peak <= 10.0 * float(np.median(occ)):
        raise NoPeakError(
            "occupation peak does not stand out from the background")

    x = field.x
    dx = field.dx
    shift = 0
    if field.boundary == PERIODIC:
        shift = field.n_points // 2 - int(np.argmax(occ))
        psi = np.roll(psi, shift)
        occ = np.roll(occ, shift)

    theta0 = _initial_guess(x, psi, dx)
    win = _run_around(occ > _WINDOW_FLOOR * peak, int(np.argmax(occ)))
    theta, stopped = _levenberg_marquardt(x[win], psi[win], theta0)

    amp, x0, v, w, d, phi = theta
    if amp < 0:
        amp, phi = -amp, phi + math.pi
    w = abs(w)
    if field.boundary == PERIODIC:
        x0 = (x0 - shift * dx) % field.domain_length

    model_occ = np.abs(_soliton_terms(x, *theta)[0]) ** 2
    residual = float(np.sqrt(np.mean((model_occ - occ) ** 2))) / peak

    coords = SolitonCoords(psi=math.ldexp(amp, exp), x0=float(x0), v=float(v),
                           w=float(w), d=float(d), phi=_wrap_phase(phi))
    converged = stopped and residual < residual_threshold
    return FitResult(coords=coords, residual=residual, converged=converged)


def velocity_damping_estimate(
    start: FieldState,
    end: FieldState,
    t_start: float,
    t_end: float,
    hopping: float = 1.0,
) -> float:
    """Relative velocity-damping rate between ``start`` and ``end``.

    Returns vdot/(v_mean J): the finite-difference slope vdot of the
    velocity between the snapshot at ``t_start`` and the later one at
    ``t_end``, over the mean v_mean of the two velocities times the
    hopping J.

    The velocity observable is momentum per particle (P/N).  It coincides
    with the ansatz phase slope v on the soliton manifold, but a fitted
    phase slope lags the momentum by an order-one transient while the
    soliton develops its dissipative dressing, which over short horizons
    would understate the rate by ~20%; the momentum velocity settles at
    the damped rate immediately.  Soliton fits still run at both
    endpoints, as shape gates only: a non-converged fit raises, since the
    slope is meaningless once the pulse loses its shape.  The gate,
    ``DAMPING_RESIDUAL_THRESHOLD``, is looser than the breakup default:
    the dissipative dressing alone contributes an O(gamma) residual
    (~1.5e-3 at gamma = 0.1) that must not count as shape loss.
    """
    t_start, t_end = float(t_start), float(t_end)
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")

    fit0 = fit_soliton(start, residual_threshold=DAMPING_RESIDUAL_THRESHOLD)
    fit1 = fit_soliton(end, residual_threshold=DAMPING_RESIDUAL_THRESHOLD)
    if not (fit0.converged and fit1.converged):
        raise ValueError(
            "endpoint snapshot is not a clean single soliton; residuals "
            f"{fit0.residual:.2e} and {fit1.residual:.2e}")
    v0 = mean_velocity(start)
    v1 = mean_velocity(end)
    vdot = (v1 - v0) / (t_end - t_start)
    v_mean = 0.5 * (v1 + v0)
    if v_mean == 0:
        raise ValueError("mean velocity vanishes; relative rate undefined")
    return vdot / (v_mean * hopping)


def envelope_deviation(
    times: np.ndarray,
    values: np.ndarray,
    reference: float,
    window_length: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed maxima of |values/reference - 1|.

    Partitions the time span into consecutive windows of ``window_length``
    starting at times[0]; a trailing partial window is dropped.  Returns
    the window centres and the maximum deviation in each window.  Useful for
    deciding whether a slowly damped oscillation is actually contracting:
    with the window at least one oscillation period long, the series is
    non-increasing exactly when the envelope is.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be matching 1-d arrays")
    if reference == 0:
        raise ValueError("reference must be nonzero")
    if window_length <= 0:
        raise ValueError("window_length must be positive")
    span = times[-1] - times[0]
    if span < window_length:
        raise ValueError("series shorter than one window")

    deviation = np.abs(values / reference - 1.0)
    n_windows = int(math.floor(span / window_length + 1e-9))
    centers = []
    maxima = []
    for i in range(n_windows):
        left = times[0] + i * window_length
        right = left + window_length
        if i == n_windows - 1:
            mask = (times >= left) & (times <= right + 1e-9 * window_length)
        else:
            mask = (times >= left) & (times < right)
        if not np.any(mask):
            raise ValueError(f"window [{left}, {right}) contains no samples")
        centers.append(left + window_length / 2.0)
        maxima.append(float(np.max(deviation[mask])))
    return np.array(centers), np.array(maxima)


def compare_profiles(
    x_a: np.ndarray, occ_a: np.ndarray,
    x_b: np.ndarray, occ_b: np.ndarray,
) -> float:
    """Relative distance between two occupation profiles on a shared axis.

    Returns max|occ_a - occ_b| over the comparison grid, divided by the
    larger of the two profile peaks.  The finer-sampled profile is
    linearly interpolated onto the coarser grid, so models with different
    resolutions (lattice sites versus a fine field grid) compare directly.
    Both profiles must cover essentially the same coordinate range.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    occ_a = np.asarray(occ_a, dtype=float)
    occ_b = np.asarray(occ_b, dtype=float)
    if x_a.shape != occ_a.shape or x_b.shape != occ_b.shape:
        raise ValueError("each profile needs matching x and occupation arrays")

    if len(x_a) <= len(x_b):
        grid, base, other_x, other_occ = x_a, occ_a, x_b, occ_b
    else:
        grid, base, other_x, other_occ = x_b, occ_b, x_a, occ_a
    resampled = np.interp(grid, other_x, other_occ)

    diff = base - resampled
    peak = float(max(np.max(occ_a), np.max(occ_b)))
    if peak <= 0:
        raise ValueError("profiles are identically zero")
    return float(np.max(np.abs(diff))) / peak
