"""Adaptive Runge-Kutta driver: accuracy, snapshots, determinism, failure
modes.  Analytic solutions (exponential decay, phase rotation, pure
dispersion in Fourier space) serve as oracles throughout.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pcdnse.collective import (
    SolitonCoords,
    make_collective_ode,
    stable_soliton,
)
from pcdnse.integrate import (
    SOLVER_PRESETS,
    LinearPart,
    MaxStepsExceededError,
    OdeProblem,
    SolverConfig,
    StepUnderflowError,
    solve,
    solve_fixed_grid,
    _TABLEAUS,
)
from pcdnse.model_continuum import (
    dispersion_part,
    make_pcdnse_ode,
    make_soliton_field,
    particle_number,
)
from pcdnse.params import EffectiveParams


def decay(t, y):
    return -y


def rotation(t, y):
    return 1j * y


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_exponential_decay_matches_closed_form(method):
    problem = OdeProblem(decay, [0.0, 5.0], np.array([1.0]))
    series = solve(problem, SolverConfig(method=method, rtol=1e-10,
                                         atol=1e-12))
    assert series.times[0] == 0.0
    assert series.times[-1] == 5.0
    assert_allclose(series.states[-1, 0], math.exp(-5.0), rtol=1e-8)


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_complex_rotation_preserves_modulus(method):
    y0 = np.array([1.0 + 0.0j, 0.3 - 0.4j])
    t1 = 4.0 * math.pi
    series = solve(OdeProblem(rotation, [0.0, t1], y0),
                   SolverConfig(method=method, rtol=1e-10, atol=1e-12))
    assert_allclose(series.states[-1], y0 * np.exp(1j * t1), rtol=1e-8)
    assert_allclose(np.abs(series.states[-1]), np.abs(y0), rtol=1e-9)


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_tightening_tolerances_buys_accuracy(method):
    problem = OdeProblem(decay, [0.0, 3.0], np.array([1.0]))
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
        return solve(OdeProblem(rotation, times, np.array([1.0 + 0.5j])),
                     SolverConfig())

    a, b = run(), run()
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.stats.n_rhs == b.stats.n_rhs
    assert a.stats.n_accepted == b.stats.n_accepted


def nonlinear_rotation(t, y):
    return 1j * (1.0 + np.abs(y) ** 2) * y


def test_grid_times_are_hit_exactly():
    requested = np.array([0.0, 0.7, 1.1, math.pi, 4.0])
    series = solve(OdeProblem(decay, requested, np.array([1.0])),
                   SolverConfig())
    assert np.array_equal(series.times, requested)   # no interpolation slack
    assert_allclose(series.states[:, 0], np.exp(-requested), rtol=1e-6)


@pytest.mark.parametrize("kind", ["tsit5", "lawson", "rkf78"])
def test_snapshots_within_the_t0_slack_keep_their_own_times(kind):
    # entries 1e-13 apart are each stepped to and recorded at their own time
    requested = np.array([0.0, 1e-13, 2e-13])
    y0 = np.array([1.0 + 0.5j, 0.2 - 0.1j])
    linear = None
    if kind == "lawson":
        linear = LinearPart(np.array([0.5j, -1j]), lambda y: y, lambda y: y)
    method = "rkf78" if kind == "rkf78" else "tsit5"
    series = solve(OdeProblem(rotation, requested, y0, linear=linear),
                   SolverConfig(method=method))
    assert np.array_equal(series.times, requested)
    assert_allclose(series.states, y0 * np.exp(1j * requested)[:, None],
                    rtol=1e-15)


def test_solve_fixed_grid_spans_inclusive_range():
    problem = OdeProblem(decay, [0.0, 0.5, 1.0], np.array([1.0]))
    series = solve_fixed_grid(problem, SolverConfig(), n_outputs=5)
    assert_allclose(series.times, np.linspace(0.0, 1.0, 5), rtol=0, atol=0)
    with pytest.raises(ValueError):
        solve_fixed_grid(problem, SolverConfig(), n_outputs=1)


def test_rejections_are_counted():
    # a stiff-ish kick forces at least one rejected trial step
    def kicked(t, y):
        return -y + 50.0 * math.exp(-50.0 * (t - 1.0) ** 2)

    series = solve(OdeProblem(kicked, [0.0, 2.0], np.array([1.0])),
                   SolverConfig(rtol=1e-10, atol=1e-12))
    stats = series.stats
    assert stats.n_rejected >= 1
    assert stats.n_rhs > stats.n_accepted


def test_max_steps_exceeded():
    problem = OdeProblem(rotation, [0.0, 1000.0], np.array([1.0 + 0j]))
    with pytest.raises(MaxStepsExceededError) as excinfo:
        solve(problem, SolverConfig(max_steps=5))
    assert "max_steps=5" in str(excinfo.value)


def test_step_underflow_on_defective_rhs():
    # rhs turns NaN past t=0.5; the first trial step that reaches it has a
    # NaN error estimate, which no shorter step is known to mend
    def broken(t, y):
        return np.array([math.nan if t > 0.5 else 1.0])

    with pytest.raises(StepUnderflowError):
        solve(OdeProblem(broken, [0.0, 1.0], np.array([0.0])), SolverConfig())


@pytest.mark.parametrize("method", ["tsit5", "rkf78"])
def test_a_non_finite_error_estimate_ends_the_solve(method):
    def broken(t, y):
        return np.array([math.nan if t > 0.5 else 1.0])

    with pytest.raises(StepUnderflowError, match="error estimate nan") as exc:
        solve(OdeProblem(broken, [0.0, 1.0], np.array([0.0])),
              SolverConfig(method=method, max_steps=2000))
    # the steps below t = 0.5 are taken, the first one past it is the last
    assert exc.value.stats.n_rejected == 1
    assert exc.value.stats.n_accepted >= 1


@pytest.mark.parametrize("linear", [False, True], ids=["plain", "lawson"])
def test_a_first_step_that_is_not_finite_ends_the_solve(linear):
    # a NaN slope at the start gives a NaN first step size
    problem = OdeProblem(lambda t, y: np.full_like(y, math.nan), [0.0, 1.0],
                         np.ones(4, dtype=complex),
                         linear=LinearPart(np.zeros(4), np.fft.fft,
                                           np.fft.ifft) if linear else None)
    with pytest.raises(StepUnderflowError, match="initial step size") as exc:
        solve(problem, SolverConfig(max_steps=2000))
    stats = exc.value.stats
    assert (stats.n_accepted, stats.n_rejected, stats.n_rhs) == (0, 0, 1)


def test_problem_and_config_validation():
    with pytest.raises(ValueError):
        solve(OdeProblem(decay, [0.0, 1.0], np.zeros((2, 2))),
              SolverConfig())                               # not 1-d
    two_modes = LinearPart(np.zeros(2), np.fft.fft, np.fft.ifft)
    with pytest.raises(ValueError):
        solve(OdeProblem(rotation, [0.0, 1.0], np.ones(3, dtype=complex),
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


@pytest.mark.parametrize("times", [
    [[0.0, 1.0]], np.zeros((2, 2)),                     # not 1-d
    [], [0.0],                                          # fewer than two
    [0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0],  # not finite
    [1.0, 1.0], [0.0, 1.0, 1.0], [2.0, 1.0],            # not increasing
])
def test_problem_rejects_a_time_grid_it_cannot_step(times):
    with pytest.raises(ValueError, match="times must be"):
        OdeProblem(decay, times, np.array([1.0]))


def _tsit5_step_ends(y0, t_end):
    """The end times of the accepted steps of a plain tsit5 solve of
    nonlinear_rotation over [0, t_end]."""
    calls = []

    def recorded(t, y):
        calls.append(t)
        return nonlinear_rotation(t, y)

    series = solve(OdeProblem(recorded, [0.0, t_end], y0), SolverConfig())
    # Two calls start the solve; then each step makes six, the last at its
    # end (see test_interpolated_snapshots_are_as_accurate_as_the_steps).
    assert series.stats.n_rejected == 0
    return calls[7::6]


@pytest.mark.parametrize("kind", ["tsit5", "lawson", "rkf78"])
def test_solve_records_exactly_the_problem_times(kind):
    # One entry inside the first step of a free tsit5 run, one on the end
    # of its second: plain tsit5 interpolates the one and records the other
    # from the step, rkf78 and Lawson steps are clipped at both.
    y0 = np.array([1.0 + 0.5j, 0.2 - 0.1j])
    first, second = _tsit5_step_ends(y0, 3.0)[:2]
    times = np.array([0.0, 0.5 * first, second, 3.0])
    linear = None
    if kind == "lawson":
        linear = LinearPart(np.full(2, 1j), lambda y: y, lambda y: y)
    problem = OdeProblem(nonlinear_rotation, times, y0, linear=linear)
    series = solve(problem, SolverConfig(
        method="rkf78" if kind == "rkf78" else "tsit5"))
    assert np.array_equal(series.times, problem.times)
    assert series.states.shape == (len(times), len(y0))
    # |y| is conserved, so each component turns at its own fixed rate
    exact = y0 * np.exp(1j * (1.0 + np.abs(y0) ** 2) * times[:, None])
    assert_allclose(series.states, exact, rtol=0, atol=1e-6)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_solve_rejects_a_non_finite_initial_state(value):
    # max_steps keeps a solver that accepts the state from stepping long:
    # a NaN state rejects every trial step until the cap
    with pytest.raises(ValueError, match="initial_state must be finite"):
        solve(OdeProblem(decay, [0.0, 1.0], np.array([value, 1.0])),
              SolverConfig(max_steps=1000))


def test_a_method_has_one_name():
    # each pair is named by its key in the tableau table and nothing else
    assert sorted(_TABLEAUS) == ["rkf78", "tsit5"]
    for other_name in ("rk45_tsitouras", "rk_high_order"):
        with pytest.raises(ValueError,
                           match=re.escape("['rkf78', 'tsit5']")):
            SolverConfig(method=other_name)


def test_preset_table_frozen():
    assert set(SOLVER_PRESETS) == {"pcdnse", "pcdnse_tight", "langevin",
                                   "collective", "two_soliton"}
    tight = SOLVER_PRESETS["pcdnse_tight"]
    assert (tight.method, tight.rtol, tight.atol) == ("rkf78", 1e-13, 1e-12)
    assert SOLVER_PRESETS["langevin"].method == "rkf78"


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
    problem = OdeProblem(make_pcdnse_ode(field, eff), [0.0, t1], field.psi,
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
    series = solve(OdeProblem(kicked, times, field.psi,
                              linear=dispersion_part(field, eff)),
                   SolverConfig(method=method, rtol=1e-10, atol=1e-12))
    assert np.array_equal(series.times, times)
    assert series.stats.n_rejected >= 1
    assert len(calls) == series.stats.n_rhs


def test_lawson_output_is_bit_identical_run_to_run():
    field, eff = small_field(-0.1, 0.05, 32.0, 64)
    problem = OdeProblem(make_pcdnse_ode(field, eff),
                         np.linspace(0.0, 2.0, 5), field.psi,
                         linear=dispersion_part(field, eff))
    a, b = solve(problem, SolverConfig()), solve(problem, SolverConfig())
    assert np.array_equal(a.states, b.states)
    assert a.stats == b.stats


def test_lawson_agrees_with_a_tight_plain_solve():
    # L = 96, dx = 0.2, a moving dissipative soliton over Jt = 5.  Measured
    # at the default tolerances: 1.25e-7 of the largest amplitude.
    field, eff = small_field(-0.1, 0.05, 96.0, 480, v=0.48,
                             w=math.sqrt(20.0))
    times = np.linspace(0.0, 5.0, 11)
    problem = OdeProblem(make_pcdnse_ode(field, eff), times, field.psi,
                         linear=dispersion_part(field, eff))
    lawson = solve(problem, SolverConfig())
    tight = solve(replace(problem, linear=None),
                  SolverConfig(rtol=1e-12, atol=1e-12))
    deviation = (np.max(np.abs(lawson.states - tight.states))
                 / np.max(np.abs(tight.states)))
    assert deviation < 5e-7


def test_tight_preset_steps_an_anti_damped_soliton_in_fewer_evaluations():
    # fig4's anti-damped run scaled down: gamma < 0 and dx = 0.1, on a box
    # (L = 160) that holds the soliton's tails.  Measured: 31 Fehlberg
    # steps (404 evaluations) against 207 Tsitouras steps (1244); the two
    # differ by 4.6e-9 of the largest amplitude, where an rtol = atol =
    # 1e-15 solve puts the Fehlberg one 2.3e-10 off and the Tsitouras one
    # 4.4e-9; particle drift 4.4e-16.
    field, eff = small_field(-0.1, -0.0125, 160.0, 1600, v=0.48,
                             w=math.sqrt(20.0))
    problem = OdeProblem(make_pcdnse_ode(field, eff),
                         np.linspace(0.0, 4.0, 9), field.psi,
                         linear=dispersion_part(field, eff))
    tight = SOLVER_PRESETS["pcdnse_tight"]
    fehlberg = solve(problem, tight)
    tsitouras = solve(problem, replace(tight, method="tsit5"))
    n0 = particle_number(field)
    drift = max(abs(particle_number(field.with_psi(psi)) / n0 - 1.0)
                for psi in fehlberg.states)
    assert drift <= 1e-12
    deviation = (np.max(np.abs(fehlberg.states - tsitouras.states))
                 / np.max(np.abs(tsitouras.states)))
    assert deviation < 1e-8
    assert fehlberg.stats.n_rhs < tsitouras.stats.n_rhs


def test_tight_preset_steps_a_damped_soliton_closer_in_fewer_evaluations():
    # fig4's damped runs scaled down, recorded at the two times fig4 reads.
    # Measured: the tight preset takes 663 evaluations against the pcdnse
    # preset's 1166, and lies 3.0e-10 of the largest amplitude from an
    # rtol = atol = 1e-15 solve against 6.6e-7; particle drift 4.4e-16.
    field, eff = small_field(-0.1, 0.05, 160.0, 1600, v=0.48,
                             w=math.sqrt(20.0))
    problem = OdeProblem(make_pcdnse_ode(field, eff), [0.0, 4.0], field.psi,
                         linear=dispersion_part(field, eff))
    tight = solve(problem, SOLVER_PRESETS["pcdnse_tight"])
    default = solve(problem, SOLVER_PRESETS["pcdnse"])
    reference = solve(problem, SolverConfig(method="rkf78", rtol=1e-15,
                                            atol=1e-15))
    n0 = particle_number(field)
    drift = max(abs(particle_number(field.with_psi(psi)) / n0 - 1.0)
                for psi in tight.states)
    assert drift <= 1e-12
    scale = np.max(np.abs(reference.states[-1]))
    tight_dev, default_dev = (
        np.max(np.abs(series.states[-1] - reference.states[-1])) / scale
        for series in (tight, default))
    assert tight_dev < 1e-9 < default_dev
    assert tight.stats.n_rhs < default.stats.n_rhs


# ---------------------------------------------------------------------------
# continuous extension (dense output) of plain Tsit5 steps


@pytest.mark.parametrize("theta", [0.1, 0.37, 0.5, 0.9])
def test_tsit5_continuous_extension_meets_the_order_conditions(theta):
    tab = _TABLEAUS["tsit5"]
    assert_allclose(tab.dense.sum(axis=1), tab.b, rtol=0, atol=1e-14)
    b = tab.dense @ theta ** np.arange(1, 5)          # b_i(theta)
    a, c = tab.a, tab.c
    conditions = [
        (b.sum(), theta),
        (b @ c, theta**2 / 2),
        (b @ c**2, theta**3 / 3),
        (b @ (a @ c), theta**3 / 6),
        (b @ c**3, theta**4 / 4),
        (b @ (c * (a @ c)), theta**4 / 8),
        (b @ (a @ c**2), theta**4 / 12),
        (b @ (a @ (a @ c)), theta**4 / 24),
    ]
    for got, want in conditions:
        assert abs(got - want) < 1e-14


FIG5_TIMES = np.arange(0.0, 2e4 + 1e-9, 5.0)


def fig5_collective_problem(delta, times=FIG5_TIMES):
    """fig5's long collective run: a stable soliton's amplitude kicked by
    delta, over Jt = 2e4 (see experiments._fig5_single_delta)."""
    eff = EffectiveParams(g=-0.1, gamma=0.1, hopping=1.0)
    ss = stable_soliton(1.0, eff)
    psi0 = (1.0 + delta) * ss.amplitude
    w0 = ss.particle_number / (2.0 * psi0**2)
    domain = 10.0 * max(ss.width, w0)
    coords = SolitonCoords(psi=psi0, x0=domain / 2.0, v=0.0, w=w0, d=0.0,
                           phi=0.0)
    return OdeProblem(make_collective_ode(eff), times, coords.to_array())


def test_plain_tsit5_steps_do_not_depend_on_the_snapshots():
    # Measured: 133 accepted steps and 800 RHS calls either way; clipped at
    # every snapshot the run took 4003 steps and 24 020 calls.
    dense = solve(fig5_collective_problem(0.01), SOLVER_PRESETS["collective"])
    ends = solve(fig5_collective_problem(0.01, [0.0, 2e4]),
                 SOLVER_PRESETS["collective"])
    assert np.array_equal(dense.times, FIG5_TIMES)
    assert dense.stats == ends.stats
    assert dense.stats.n_accepted < 200
    assert np.array_equal(dense.states[-1], ends.states[-1])


@pytest.mark.parametrize("delta", [-0.1, 0.01])
def test_interpolated_collective_run_matches_a_tight_reference(delta):
    # Measured: 1.3e-10 at delta = -0.1 and 4.1e-11 at delta = 0.01.
    problem = fig5_collective_problem(delta)
    config = SOLVER_PRESETS["collective"]
    series = solve(problem, config)
    assert series.stats.n_accepted < 250       # 4001 snapshots interpolated
    reference = solve(problem, replace(config, rtol=1e-13, atol=1e-13))
    deviation = series.states.real[:, 0] - reference.states.real[:, 0]
    assert np.max(np.abs(deviation)) < config.atol


def test_interpolated_snapshots_are_as_accurate_as_the_steps():
    # y' = i y against exp(i t): 206 steps record 401 snapshots.  Measured
    # at rtol = atol = 1e-8: 8.8e-9 at the step points, 9.1e-9 between.
    y0 = np.array([1.0 + 0.0j, 0.3 - 0.4j])
    calls = []

    def recorded(t, y):
        calls.append((t, y.copy()))
        return rotation(t, y)

    config = SolverConfig(rtol=1e-8, atol=1e-8)
    times = np.linspace(0.0, 20.0, 401)
    dense = solve(OdeProblem(recorded, times, y0), config)
    ends = solve(OdeProblem(rotation, [0.0, 20.0], y0), config)
    assert dense.stats == ends.stats
    assert dense.stats.n_accepted < len(times) / 1.5
    # Two calls start the solve (rhs at t0 and the starting-step probe);
    # then each accepted step makes six, the last at its end point: Tsit5
    # is first-same-as-last, so that stage's state is the step's result.
    assert dense.stats.n_rejected == 0
    assert len(calls) == 2 + 6 * dense.stats.n_accepted
    step_times = np.array([t for t, _ in calls[7::6]])
    step_states = np.array([y for _, y in calls[7::6]])
    assert step_times[-1] == 20.0

    def error(times, states):
        exact = np.exp(1j * times)[:, None] * y0
        return np.max(np.abs(states - exact))

    at_steps = error(step_times, step_states)
    assert error(dense.times, dense.states) < 1.5 * at_steps
    assert error(dense.times, dense.states) < 2e-8


@pytest.mark.parametrize("kind", ["rkf78", "lawson"])
def test_clipped_solves_still_record_genuine_step_points(kind):
    field, eff = small_field(-0.1, 0.05, 32.0, 64)
    linear = dispersion_part(field, eff) if kind == "lawson" else None
    method = "rkf78" if kind == "rkf78" else "tsit5"
    problem = OdeProblem(make_pcdnse_ode(field, eff), [0.0, 0.7, 2.0],
                         field.psi, linear=linear)
    config = SolverConfig(method=method)
    both = solve(problem, config)
    first = solve(replace(problem, times=[0.0, 0.7]), config)
    assert np.array_equal(both.states[1], first.states[-1])


def test_plain_tsit5_calls_rhs_once_per_counted_evaluation():
    field, eff = small_field(-0.1, 0.05, 32.0, 64)
    flow = make_pcdnse_ode(field, eff)
    calls = []

    def kicked(t, y):
        # a sharp phase kick at t = 1 forces rejected trial steps
        calls.append(t)
        return flow(t, y) + 20j * math.exp(-2000.0 * (t - 1.0) ** 2) * y

    times = np.linspace(0.0, 2.0, 801)                  # interpolated
    series = solve(OdeProblem(kicked, times, field.psi),
                   SolverConfig(rtol=1e-10, atol=1e-12))
    assert np.array_equal(series.times, times)
    assert series.stats.n_rejected >= 1
    assert series.stats.n_accepted < len(times)
    assert len(calls) == series.stats.n_rhs


@pytest.mark.parametrize("kind", ["tsit5", "rkf78", "lawson"])
def test_record_sees_each_entry_once_in_order_with_the_stored_bits(kind):
    # plain tsit5 interpolates about four entries per step here; rkf78 and
    # Lawson steps are clipped at each
    field, eff = small_field(-0.1, 0.05, 32.0, 64)
    linear = dispersion_part(field, eff) if kind == "lawson" else None
    times = np.linspace(0.0, 2.0, 201)
    problem = OdeProblem(make_pcdnse_ode(field, eff), times, field.psi,
                         linear=linear)
    config = SolverConfig(method="rkf78" if kind == "rkf78" else "tsit5")
    stored = solve(problem, config)
    seen = []
    streamed = solve(problem, config,
                     lambda i, y: seen.append((i, y.copy())))
    if kind == "tsit5":
        assert stored.stats.n_accepted < len(times) // 2
    assert [i for i, _ in seen] == list(range(len(times)))
    assert np.stack([y for _, y in seen]).tobytes() == stored.states.tobytes()
    assert streamed.states is None
    assert np.array_equal(streamed.times, stored.times)
    assert streamed.stats == stored.stats


def test_an_exception_raised_in_record_ends_the_solve():
    class Stop(Exception):
        pass

    seen = []

    def record(i, y):
        seen.append(i)
        if i == 3:
            raise Stop

    with pytest.raises(Stop):
        solve(OdeProblem(decay, np.linspace(0.0, 1.0, 11), np.array([1.0])),
              SolverConfig(), record)
    assert seen == [0, 1, 2, 3]
