"""Adaptive Runge-Kutta driver: accuracy, snapshots, determinism, failure
modes.  Analytic solutions (exponential decay, phase rotation, pure
dispersion in Fourier space) serve as oracles throughout.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcdnse.collective import SolitonCoords
from pcdnse.integrate import (
    SOLVER_PRESETS,
    LinearPart,
    MaxStepsExceededError,
    OdeProblem,
    SolverConfig,
    StepUnderflowError,
    solve,
    solve_fixed_grid,
    solver_preset,
)
from pcdnse.model_continuum import (
    dispersion_part,
    make_pcdnse_ode,
    make_soliton_field,
)
from pcdnse.params import EffectiveParams


def decay(t, y):
    return -y


def rotation(t, y):
    return 1j * y


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_exponential_decay_matches_closed_form(method):
    problem = OdeProblem(decay, 0.0, 5.0, np.array([1.0]))
    series = solve(problem, SolverConfig(method=method, rtol=1e-10,
                                         atol=1e-12))
    assert series.times[0] == 0.0
    assert series.times[-1] == 5.0
    assert_allclose(series.states[-1, 0], math.exp(-5.0), rtol=1e-8)
    # every accepted step recorded in free-running mode
    assert len(series.times) == series.stats.n_accepted + 1


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_complex_rotation_preserves_modulus(method):
    y0 = np.array([1.0 + 0.0j, 0.3 - 0.4j])
    t1 = 4.0 * math.pi
    series = solve(OdeProblem(rotation, 0.0, t1, y0),
                   SolverConfig(method=method, rtol=1e-10, atol=1e-12))
    assert_allclose(series.states[-1], y0 * np.exp(1j * t1), rtol=1e-8)
    assert_allclose(np.abs(series.states[-1]), np.abs(y0), rtol=1e-9)


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_tightening_tolerances_buys_accuracy(method):
    problem = OdeProblem(decay, 0.0, 3.0, np.array([1.0]))
    exact = math.exp(-3.0)
    errors = []
    for rtol in (1e-5, 1e-9):
        series = solve(problem, SolverConfig(method=method, rtol=rtol,
                                             atol=rtol * 1e-2))
        errors.append(abs(series.states[-1, 0] - exact))
    assert errors[1] < errors[0] / 100.0


def test_identical_inputs_give_bit_identical_output():
    times = np.linspace(0.0, 2.0, 9)

    def run():
        return solve(OdeProblem(rotation, 0.0, 2.0,
                                np.array([1.0 + 0.5j])),
                     SolverConfig(snapshot_times=times))

    a, b = run(), run()
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.stats.n_rhs == b.stats.n_rhs
    assert a.stats.n_accepted == b.stats.n_accepted


def test_snapshot_times_are_hit_exactly():
    requested = np.array([0.0, 0.7, 1.1, math.pi, 4.0])
    series = solve(OdeProblem(decay, 0.0, 4.0, np.array([1.0])),
                   SolverConfig(snapshot_times=requested))
    assert np.array_equal(series.times, requested)   # no interpolation slack
    assert_allclose(series.states[:, 0], np.exp(-requested), rtol=1e-6)


def test_snapshots_need_not_reach_the_horizon():
    series = solve(OdeProblem(decay, 0.0, 10.0, np.array([1.0])),
                   SolverConfig(snapshot_times=[2.0, 3.0]))
    assert series.times[-1] == 3.0   # integration stops at the last snapshot


def test_solve_fixed_grid_spans_inclusive_range():
    series = solve_fixed_grid(OdeProblem(decay, 0.0, 1.0, np.array([1.0])),
                              SolverConfig(), n_outputs=5)
    assert_allclose(series.times, np.linspace(0.0, 1.0, 5), rtol=0, atol=0)
    with pytest.raises(ValueError):
        solve_fixed_grid(OdeProblem(decay, 0.0, 1.0, np.array([1.0])),
                         SolverConfig(), n_outputs=1)


def test_rejections_are_counted():
    # a stiff-ish kick forces at least one rejected trial step
    def kicked(t, y):
        return -y + 50.0 * math.exp(-50.0 * (t - 1.0) ** 2)

    series = solve(OdeProblem(kicked, 0.0, 2.0, np.array([1.0])),
                   SolverConfig(rtol=1e-10, atol=1e-12))
    stats = series.stats
    assert stats.n_rejected >= 1
    assert stats.n_rhs > stats.n_accepted


def test_max_steps_exceeded():
    problem = OdeProblem(rotation, 0.0, 1000.0, np.array([1.0 + 0j]))
    with pytest.raises(MaxStepsExceededError) as excinfo:
        solve(problem, SolverConfig(max_steps=5))
    assert "max_steps=5" in str(excinfo.value)


def test_step_underflow_on_defective_rhs():
    # rhs turns NaN past t=0.5; error control backs off until the step
    # drops below time resolution
    def broken(t, y):
        return np.array([math.nan if t > 0.5 else 1.0])

    with pytest.raises(StepUnderflowError):
        solve(OdeProblem(broken, 0.0, 1.0, np.array([0.0])), SolverConfig())


def test_problem_and_config_validation():
    with pytest.raises(ValueError):
        OdeProblem(decay, 1.0, 1.0, np.array([1.0]))       # empty interval
    with pytest.raises(ValueError):
        solve(OdeProblem(decay, 0.0, 1.0, np.zeros((2, 2))),
              SolverConfig())                               # not 1-d
    two_modes = LinearPart(np.zeros(2), np.fft.fft, np.fft.ifft)
    with pytest.raises(ValueError):
        solve(OdeProblem(rotation, 0.0, 1.0, np.ones(3, dtype=complex),
                         linear=two_modes), SolverConfig())  # 3 components
    with pytest.raises(ValueError):
        SolverConfig(method="euler")
    with pytest.raises(ValueError):
        SolverConfig(rtol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(atol=-1e-9)
    for tolerances in ({"rtol": math.nan}, {"rtol": math.inf},
                       {"atol": math.nan}, {"atol": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(**tolerances)
    for bad in ([], [2.0, 1.0], [-1.0, 0.5], [0.5, 99.0]):
        with pytest.raises(ValueError):
            solve(OdeProblem(decay, 0.0, 1.0, np.array([1.0])),
                  SolverConfig(snapshot_times=bad))


def test_method_aliases_resolve():
    a = solve(OdeProblem(decay, 0.0, 1.0, np.array([1.0])),
              SolverConfig(method="rk45_tsitouras"))
    b = solve(OdeProblem(decay, 0.0, 1.0, np.array([1.0])),
              SolverConfig(method="tsit5"))
    assert np.array_equal(a.states, b.states)


def test_preset_table_frozen():
    assert set(SOLVER_PRESETS) == {"pcdnse", "pcdnse_tight", "langevin",
                                   "collective", "two_soliton"}
    tight = solver_preset("pcdnse_tight")
    assert (tight.method, tight.rtol, tight.atol) == ("tsit5", 1e-13, 1e-12)
    assert solver_preset("langevin").method == "rkf78"
    loose = solver_preset("pcdnse", rtol=1e-4)
    assert loose.rtol == 1e-4                       # override wins
    with pytest.raises(KeyError) as excinfo:
        solver_preset("dormand")
    assert "pcdnse" in str(excinfo.value)           # lists valid names


def test_time_series_validates_ordering():
    from pcdnse.integrate import SolveStats, TimeSeries
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0]), np.zeros((2, 1)), SolveStats())


# ---------------------------------------------------------------------------
# integrating-factor (Lawson) stepping


def small_field(g, gamma, length, n_points, v=0.5, w=2.0):
    """A moving soliton in the middle of a periodic box, and its parameters."""
    eff = EffectiveParams(g=g, gamma=gamma, hopping=1.0)
    coords = SolitonCoords(psi=1.0, x0=length / 2.0, v=v, w=w, d=0.0,
                           phi=0.0)
    field = make_soliton_field(coords, length, n_points,
                               containment_tol=1e-3)
    return field, eff


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_lawson_steps_pure_dispersion_exactly(method):
    # g = gamma = 0: the flow is its linear part, so the exact solution is
    # T^-1 exp(lam t) T psi0 and only round-off is left for error control
    field, eff = small_field(0.0, 0.0, 64.0, 640)        # dx = 0.1
    linear = dispersion_part(field, eff)
    t1 = 2.0
    exact = linear.inverse(np.exp(linear.eigenvalues * t1)
                           * linear.forward(field.psi))
    problem = OdeProblem(make_pcdnse_ode(field, eff), 0.0, t1, field.psi,
                         linear=linear)
    lawson = solve(problem, SolverConfig(method=method))
    assert_allclose(lawson.states[-1], exact,
                    rtol=0, atol=1e-12 * np.max(np.abs(exact)))
    assert lawson.stats.n_accepted <= 6
    # the plain stepper is held to the stability limit of the dispersion
    plain = solve(replace(problem, linear=None), SolverConfig(method=method))
    assert plain.stats.n_accepted > 40 * lawson.stats.n_accepted


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_lawson_calls_rhs_once_per_counted_evaluation(method):
    field, eff = small_field(-0.1, 0.05, 32.0, 64)
    flow = make_pcdnse_ode(field, eff)
    calls = []

    def kicked(t, y):
        # a sharp phase kick at t = 1 forces rejected trial steps
        calls.append(t)
        return flow(t, y) + 20j * math.exp(-2000.0 * (t - 1.0) ** 2) * y

    times = np.linspace(0.0, 2.0, 9)                    # clipped steps
    series = solve(OdeProblem(kicked, 0.0, 2.0, field.psi,
                              linear=dispersion_part(field, eff)),
                   SolverConfig(method=method, rtol=1e-10, atol=1e-12,
                                snapshot_times=times))
    assert np.array_equal(series.times, times)
    assert series.stats.n_rejected >= 1
    assert len(calls) == series.stats.n_rhs


def test_lawson_output_is_bit_identical_run_to_run():
    field, eff = small_field(-0.1, 0.05, 32.0, 64)
    problem = OdeProblem(make_pcdnse_ode(field, eff), 0.0, 2.0, field.psi,
                         linear=dispersion_part(field, eff))
    config = SolverConfig(snapshot_times=np.linspace(0.0, 2.0, 5))
    a, b = solve(problem, config), solve(problem, config)
    assert np.array_equal(a.states, b.states)
    assert a.stats == b.stats


def test_lawson_agrees_with_a_tight_plain_solve():
    # L = 96, dx = 0.2, a moving dissipative soliton over Jt = 5.  Measured
    # at the default tolerances: 1.25e-7 of the largest amplitude.
    field, eff = small_field(-0.1, 0.05, 96.0, 480, v=0.48,
                             w=math.sqrt(20.0))
    times = np.linspace(0.0, 5.0, 11)
    problem = OdeProblem(make_pcdnse_ode(field, eff), 0.0, 5.0, field.psi,
                         linear=dispersion_part(field, eff))
    lawson = solve(problem, SolverConfig(snapshot_times=times))
    tight = solve(replace(problem, linear=None),
                  SolverConfig(rtol=1e-12, atol=1e-12, snapshot_times=times))
    deviation = (np.max(np.abs(lawson.states - tight.states))
                 / np.max(np.abs(tight.states)))
    assert deviation < 5e-7
