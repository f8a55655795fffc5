"""Estimators: soliton fits, the velocity damping slope, envelope windows
and profile comparison.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcdnse import analysis
from pcdnse.analysis import (
    NoPeakError,
    compare_profiles,
    envelope_deviation,
    fit_soliton,
    velocity_damping_estimate,
)
from pcdnse.collective import SolitonCoords
from pcdnse.integrate import SOLVER_PRESETS, OdeProblem, solve
from pcdnse.model_continuum import (
    FieldState,
    _soliton_terms,
    make_pcdnse_ode,
    make_soliton_field,
)
from pcdnse.params import OPEN, EffectiveParams


def test_fit_roundtrip_recovers_all_six_coordinates():
    truth = SolitonCoords(psi=0.8, x0=70.0, v=0.3, w=5.0, d=0.01, phi=1.2)
    field = make_soliton_field(truth, 200.0, 2000, containment_tol=1e-4)
    fit = fit_soliton(field)
    assert fit.converged
    assert fit.residual < 1e-6
    got = fit.coords
    assert_allclose(got.psi, truth.psi, rtol=1e-6)
    assert_allclose(got.x0, truth.x0, rtol=1e-6)
    assert_allclose(got.v, truth.v, rtol=1e-5)
    assert_allclose(got.w, truth.w, rtol=1e-6)
    assert_allclose(got.d, truth.d, rtol=1e-5)
    assert_allclose(got.phi, truth.phi, atol=1e-6)


def test_fit_model_at_the_start_coordinates_is_the_start_field():
    # one ansatz: the fit's model reproduces a generated field bit for bit
    for truth in (SolitonCoords(psi=0.8, x0=70.0, v=0.3, w=5.0, d=0.01,
                                phi=1.2),
                  SolitonCoords(psi=1e-3, x0=13.7, v=-2.1, w=0.3, d=-0.2,
                                phi=-4.0)):
        field = make_soliton_field(truth, 200.0, 2000, containment_tol=1.0)
        model = _soliton_terms(field.x, *truth.to_array())[0]
        assert np.array_equal(model, field.psi)


def test_fit_handles_soliton_straddling_the_seam():
    # periodic translate of a contained soliton, peak rolled to x = 1.0:
    # smooth across the seam, exactly what a moving soliton produces
    centered = make_soliton_field(
        SolitonCoords(psi=1.0, x0=100.0, v=-0.2, w=5.0, d=0.0, phi=0.0),
        200.0, 2000, containment_tol=1e-4)
    field = FieldState(np.roll(centered.psi, -990), 200.0)
    fit = fit_soliton(field)
    assert fit.converged
    assert_allclose(fit.coords.x0 % 200.0, 1.0, atol=1e-5)
    assert_allclose(fit.coords.v, -0.2, rtol=1e-5)


def test_fit_open_boundary_field():
    truth = SolitonCoords(psi=0.6, x0=90.0, v=0.1, w=4.0, d=0.0, phi=-0.5)
    field = make_soliton_field(truth, 200.0, 2001, OPEN)
    fit = fit_soliton(field)
    assert fit.converged
    assert_allclose(fit.coords.x0, 90.0, rtol=1e-6)
    assert_allclose(fit.coords.w, 4.0, rtol=1e-6)


@pytest.mark.parametrize("theta", [
    (0.8, 3.0, 0.3, 2.0, 0.01, 1.2),
    (1.3, -2.0, -0.4, -1.5, -0.03, -2.5),    # w < 0
    (0.5, 0.7, 0.0, 3.0, 0.2, 0.0),
])
def test_model_jacobian_matches_central_differences(theta):
    x = np.linspace(-20.0, 20.0, 801)
    theta = np.array(theta)
    jac = analysis._model_jacobian(x, theta, _soliton_terms(x, *theta)[1])
    for j in range(6):
        h = 1e-6 * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        fd = (_soliton_terms(x, *up)[0]
              - _soliton_terms(x, *down)[0]) / (2.0 * h)
        err = np.linalg.norm(jac[:, j] - fd) / np.linalg.norm(jac[:, j])
        assert err < 1e-6, (j, err)     # measured <= 2.9e-9


def _dressed_soliton() -> FieldState:
    """A soliton after Jt = 2 of dissipative flow (gamma = 0.1), which
    dresses it away from the ansatz."""
    field0 = make_soliton_field(
        SolitonCoords(psi=1.0, x0=20.0, v=0.3, w=1.0, d=0.0, phi=0.4),
        40.0, 400)
    eff = EffectiveParams(g=-2.0, gamma=0.1)
    series = solve(OdeProblem(make_pcdnse_ode(field0, eff), [0.0, 2.0],
                              field0.psi), SOLVER_PRESETS["pcdnse"])
    return field0.with_psi(series.states[-1])


def _central_difference_jacobian(x, theta, factors):
    jac = np.empty((len(x), 6), dtype=complex)
    for j in range(6):
        h = 1e-6 * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        jac[:, j] = (_soliton_terms(x, *up)[0]
                     - _soliton_terms(x, *down)[0]) / (2.0 * h)
    return jac


def _clean_soliton() -> FieldState:
    return make_soliton_field(
        SolitonCoords(psi=0.8, x0=70.0, v=0.3, w=5.0, d=0.01, phi=1.2),
        200.0, 2000, containment_tol=1e-4)


def _fit_vector(fit) -> np.ndarray:
    return np.array(list(vars(fit.coords).values()) + [fit.residual])


@pytest.mark.parametrize("dressed", [False, True])
def test_fit_agrees_with_a_finite_difference_jacobian_fit(monkeypatch,
                                                           dressed):
    field = _dressed_soliton() if dressed else _clean_soliton()
    fit = fit_soliton(field)
    monkeypatch.setattr(analysis, "_model_jacobian",
                        _central_difference_jacobian)
    reference = fit_soliton(field)
    # measured: 0 clean, 2.2e-11 dressed
    assert (np.max(np.abs(_fit_vector(fit) - _fit_vector(reference)))
            < (5e-10 if dressed else 1e-12))
    assert fit.converged == reference.converged


def _breathing_soliton() -> FieldState:
    """An open-grid pulse launched at 1.5 times the amplitude that its width
    holds stationary (w = sqrt(2 J / -g)), after Jt = 4 of conservative
    flow."""
    field0 = make_soliton_field(
        SolitonCoords(psi=1.5, x0=30.0, v=0.2, w=math.sqrt(2.0), d=0.0,
                      phi=0.0), 60.0, 601, OPEN)
    eff = EffectiveParams(g=-1.0, gamma=0.0)
    series = solve(OdeProblem(make_pcdnse_ode(field0, eff), [0.0, 4.0],
                              field0.psi), SOLVER_PRESETS["pcdnse"])
    return field0.with_psi(series.states[-1])


def _straddling_soliton() -> FieldState:
    centered = make_soliton_field(
        SolitonCoords(psi=1.0, x0=100.0, v=-0.2, w=5.0, d=0.003, phi=0.7),
        200.0, 2000, containment_tol=1e-4)
    return FieldState(np.roll(centered.psi, -990), 200.0)


def _least_squares_fit(field: FieldState) -> np.ndarray:
    """The fitted (A, x0, v, w, d, phi) of MINPACK's Levenberg-Marquardt
    over the whole grid, from the same start as ``fit_soliton``."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    x, psi, shift = field.x, field.psi, 0
    if field.boundary != OPEN:
        shift = field.n_points // 2 - int(np.argmax(np.abs(psi)))
        psi = np.roll(psi, shift)

    def residuals(theta):
        r = _soliton_terms(x, *theta)[0] - psi
        return np.concatenate([r.real, r.imag])

    def jacobian(theta):
        j = analysis._model_jacobian(x, theta, _soliton_terms(x, *theta)[1])
        return np.concatenate([j.real, j.imag])

    theta = least_squares(
        residuals, analysis._initial_guess(x, psi, field.dx), jac=jacobian,
        method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15).x
    if theta[0] < 0:
        theta[0], theta[5] = -theta[0], theta[5] + math.pi
    theta[3] = abs(theta[3])
    theta[1] = theta[1] - shift * field.dx
    return theta


@pytest.mark.parametrize("make_field", [
    _clean_soliton, _dressed_soliton, _breathing_soliton,
    _straddling_soliton,
])
def test_windowed_fit_agrees_with_a_full_grid_least_squares_fit(make_field):
    field = make_field()
    fit = fit_soliton(field)
    want = _least_squares_fit(field)
    got = np.array(list(vars(fit.coords).values()))
    got[1] = want[1] + ((got[1] - want[1] + 100.0) % 200.0 - 100.0)
    got[5] = want[5] + analysis._wrap_phase(got[5] - want[5])
    # measured: 1.3e-10, 2.1e-11, 1.5e-9 and 6.8e-14
    assert np.max(np.abs(got - want)) < 1e-8


def test_fit_stopped_by_the_iteration_cap_is_not_converged(monkeypatch):
    field = _dressed_soliton()
    assert fit_soliton(field, residual_threshold=1e-2).converged
    monkeypatch.setattr(analysis, "_FIT_MAX_ITERATIONS", 2)
    capped = fit_soliton(field, residual_threshold=1e-2)
    # the residual passes; only the cap tells the fit apart
    assert capped.residual < 1e-2
    assert not capped.converged


def test_radiation_outside_the_window_counts_against_convergence():
    truth = SolitonCoords(psi=1.0, x0=60.0, v=0.2, w=2.0, d=0.0, phi=0.5)
    soliton = make_soliton_field(truth, 200.0, 2000)
    x = soliton.x
    # a radiation burst 90 widths away, with |psi|^2 < 1e-16 of the peak
    # between the two
    burst = 0.3 * np.exp(-((x - 150.0) / 3.0) ** 2 + 2j * x)
    field = soliton.with_psi(soliton.psi + burst)
    fit = fit_soliton(field)
    # the iteration never sees the burst, so the soliton is recovered
    got = np.array(list(vars(fit.coords).values()))
    want = np.array(list(vars(truth).values()))
    assert np.max(np.abs(got - want)) < 1e-9
    # but the residual over the whole grid does
    assert fit.residual > 1e-2
    assert not fit.converged


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_fit_rejects_a_non_finite_field(value):
    field = _clean_soliton()
    psi = field.psi.copy()
    psi[700] = value
    with pytest.raises(ValueError, match="non-finite"):
        fit_soliton(field.with_psi(psi))


def test_fit_rejects_featureless_field():
    flat = FieldState(np.ones(256, dtype=complex), 256.0)
    with pytest.raises(NoPeakError):
        fit_soliton(flat)


def test_fit_flags_a_two_soliton_field_without_raising():
    a = make_soliton_field(
        SolitonCoords(psi=1.0, x0=60.0, v=0.0, w=5.0, d=0.0, phi=0.0),
        200.0, 2000, containment_tol=1e-4)
    b = make_soliton_field(
        SolitonCoords(psi=1.0, x0=140.0, v=0.0, w=5.0, d=0.0, phi=0.0),
        200.0, 2000, containment_tol=1e-4)
    both = FieldState(a.psi + b.psi, 200.0)
    fit = fit_soliton(both)
    assert not fit.converged
    assert fit.residual > 1e-2


def _decaying_sequence(rate, times, v0=0.5):
    fields = []
    for t in times:
        coords = SolitonCoords(psi=0.8, x0=100.0, v=v0 * math.exp(-rate * t),
                               w=4.0, d=0.0, phi=0.0)
        fields.append(make_soliton_field(coords, 200.0, 2000,
                                         containment_tol=1e-4))
    return fields


def test_velocity_damping_on_exponential_sequence():
    # v(t) = v0 exp(-r t) sampled at the endpoints of a horizon dt gives
    # the secant slope: relative rate -2 tanh(r dt / 2) / dt, not -r itself
    rate, dt = 0.05, 4.0
    start, end = _decaying_sequence(rate, [0.0, dt])
    relative_rate = velocity_damping_estimate(start, end, 0.0, dt)
    expected = -2.0 * math.tanh(rate * dt / 2.0) / dt
    assert_allclose(relative_rate, expected, rtol=1e-3)


def test_velocity_damping_snapshot_gates():
    start, end = _decaying_sequence(0.05, [0.0, 4.0])
    for t_end in (0.0, -4.0):
        with pytest.raises(ValueError, match="t_end must exceed t_start"):
            velocity_damping_estimate(start, end, 0.0, t_end)


def test_velocity_damping_rejects_broken_endpoint():
    times = [0.0, 4.0]
    fields = _decaying_sequence(0.05, times)
    a = make_soliton_field(
        SolitonCoords(psi=1.0, x0=60.0, v=0.0, w=5.0, d=0.0, phi=0.0),
        200.0, 2000, containment_tol=1e-4)
    b = make_soliton_field(
        SolitonCoords(psi=1.0, x0=140.0, v=0.0, w=5.0, d=0.0, phi=0.0),
        200.0, 2000, containment_tol=1e-4)
    broken = FieldState(a.psi + b.psi, 200.0)
    with pytest.raises(ValueError, match="single soliton"):
        velocity_damping_estimate(fields[0], broken, 0.0, 4.0)


def test_velocity_damping_needs_nonzero_velocity():
    # a resting soliton on an open grid is exactly real, so the
    # central-difference momentum vanishes identically
    still = make_soliton_field(
        SolitonCoords(psi=0.8, x0=100.0, v=0.0, w=4.0, d=0.0, phi=0.0),
        200.0, 2001, OPEN, containment_tol=1e-4)
    with pytest.raises(ValueError, match="vanishes"):
        velocity_damping_estimate(still, still, 0.0, 4.0)


def test_envelope_deviation_tracks_a_decaying_oscillation():
    times = np.linspace(0.0, 10.5, 1051)
    ref = 2.0
    values = ref * (1.0 + 0.1 * np.exp(-times / 5.0) * np.cos(np.pi * times))
    centers, maxima = envelope_deviation(times, values, ref,
                                         window_length=2.0)
    assert len(centers) == 5                # trailing half-window dropped
    assert_allclose(centers, [1.0, 3.0, 5.0, 7.0, 9.0], rtol=1e-12)
    # each window starts where |cos| = 1, so the maxima are the envelope
    assert_allclose(maxima, 0.1 * np.exp(-np.arange(0, 10, 2) / 5.0),
                    rtol=1e-12)
    assert np.all(np.diff(maxima) < 0)


def test_envelope_deviation_validation():
    t = np.linspace(0.0, 4.0, 41)
    v = np.ones_like(t)
    with pytest.raises(ValueError, match="matching"):
        envelope_deviation(t, v[:-1], 1.0, 1.0)
    with pytest.raises(ValueError, match="reference"):
        envelope_deviation(t, v, 0.0, 1.0)
    with pytest.raises(ValueError, match="window_length"):
        envelope_deviation(t, v, 1.0, -1.0)
    with pytest.raises(ValueError, match="shorter"):
        envelope_deviation(t, v, 1.0, 8.0)


def test_compare_profiles_resamples_fine_onto_coarse():
    x_coarse = np.linspace(0.0, 10.0, 11)
    x_fine = np.linspace(0.0, 10.0, 101)
    assert compare_profiles(x_coarse, x_coarse, x_fine, x_fine) == 0.0

    bumped = x_coarse.copy()
    bumped[5] += 0.5
    linf_rel = compare_profiles(x_coarse, bumped, x_fine, x_fine)
    # the linear profile interpolates exactly, so only the bump survives,
    # relative to the larger peak, 10
    assert_allclose(linf_rel, 0.5 / 10.0, rtol=1e-12)
    # argument order must not matter beyond which grid hosts the diff
    flipped = compare_profiles(x_fine, x_fine, x_coarse, bumped)
    assert_allclose(flipped, linf_rel, rtol=1e-12)


def test_compare_profiles_validation():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="matching"):
        compare_profiles(x, x[:-1], x, x)
    with pytest.raises(ValueError, match="zero"):
        compare_profiles(x, np.zeros(5), x, np.zeros(5))
