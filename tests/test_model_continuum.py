"""Continuum field dynamics: grid conventions, conserved quantities, the
standing-soliton oracle, and agreement with the lattice at dx = 1.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_complex
from pcdnse.collective import SolitonCoords, ansatz_energy
from pcdnse.integrate import OdeProblem, SolverConfig, solve
from pcdnse.model_continuum import (
    ContainmentWarning,
    FieldState,
    dispersion_part,
    field_energy,
    field_energy_decay_rate,
    field_momentum,
    make_pcdnse_ode,
    make_soliton_field,
    mean_velocity,
    particle_number,
    sech,
)
from pcdnse.model_effective import make_chain_ode
from pcdnse.params import OPEN, PERIODIC, EffectiveParams

EFF = EffectiveParams(g=-0.1, gamma=0.05, hopping=1.0)


def random_field(rng, boundary, dx, n=64):
    length = dx * n if boundary == PERIODIC else dx * (n - 1)
    return FieldState(random_complex(rng, n, scale=0.5), length, boundary)


def soliton(psi=1.0, x0=100.0, v=0.0, w=math.sqrt(20.0), d=0.0, phi=0.0):
    return SolitonCoords(psi=psi, x0=x0, v=v, w=w, d=d, phi=phi)


def test_sech_is_even_bounded_and_overflow_safe():
    assert sech(0.0) == 1.0
    assert_allclose(sech(3.0), 1.0 / math.cosh(3.0), rtol=1e-15)
    assert sech(-4.2) == sech(4.2)
    assert sech(1e4) == 0.0 or sech(1e4) < 1e-300   # no overflow warning


def test_grid_conventions():
    psi = np.zeros(20, dtype=complex)
    per = FieldState(psi, 10.0, PERIODIC)
    assert per.dx == 0.5
    assert per.x[0] == 0.0 and per.x[-1] == 9.5     # right edge excluded
    opn = FieldState(psi, 9.5, OPEN)
    assert opn.dx == 0.5
    assert opn.x[-1] == 9.5                          # right edge included


def test_field_state_validation():
    with pytest.raises(ValueError):
        FieldState(np.zeros(8, dtype=complex), 10.0)         # too coarse
    with pytest.raises(ValueError):
        FieldState(np.zeros((4, 4), dtype=complex), 10.0)
    with pytest.raises(ValueError):
        FieldState(np.zeros(16, dtype=complex), -1.0)
    with pytest.raises(ValueError):
        FieldState(np.zeros(16, dtype=complex), 10.0, "wall")
    field = FieldState(np.zeros(16, dtype=complex), 10.0)
    with pytest.raises(ValueError):
        mean_velocity(field)                                  # empty field


def test_quadrature_conventions():
    # open boundary: plain sum, i.e. the trapezoid integral of a linear
    # density plus half of the two end samples (1 and 4)
    x = FieldState(np.zeros(21, dtype=complex), 10.0, OPEN).x
    field = FieldState(np.sqrt(0.3 * x + 1.0).astype(complex), 10.0, OPEN)
    assert_allclose(particle_number(field),
                    0.3 * 50.0 + 10.0 + 0.5 * 0.5 * (1.0 + 4.0), rtol=1e-14)
    # periodic: rectangle rule, exact on a constant
    const = FieldState(np.full(20, 0.5 + 0.5j), 10.0, PERIODIC)
    assert_allclose(particle_number(const), 0.5 * 10.0, rtol=1e-14)


def test_dx_one_reduces_to_the_lattice(rng):
    b = random_complex(rng, 32, scale=0.6)
    for field in (FieldState(b, 32.0, PERIODIC), FieldState(b, 31.0, OPEN)):
        assert field.dx == 1.0
        assert np.array_equal(make_pcdnse_ode(field, EFF)(0.0, b),
                              make_chain_ode(EFF, field.boundary)(0.0, b))


def _written_out_rhs(psi, eff, inv_dx2, boundary):
    """The flow written out: neighbours by np.roll on a periodic grid and
    by explicit zero padding on an open one, in the kernel's operand order."""
    if boundary == PERIODIC:
        left, right = np.roll(psi, 1), np.roll(psi, -1)
    else:
        left, right = np.insert(psi[:-1], 0, 0.0), np.append(psi[1:], 0.0)
    lap = (left + right - 2.0 * psi) * inv_dx2
    rate = np.imag(np.conj(psi) * lap)
    return -1j * (np.abs(psi) ** 2 * psi * eff.g - eff.hopping * lap
                  - eff.hopping * eff.gamma * rate * psi)


@pytest.mark.parametrize("dx", [0.1, 1.0])
@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
def test_flow_is_the_written_out_formula_bit_for_bit(rng, boundary, dx):
    # a split of the flow into parts must keep every bit of its RHS
    eff = EffectiveParams(g=-0.3, gamma=0.2, hopping=0.7)
    field = random_field(rng, boundary, dx)
    psi = field.psi
    assert np.array_equal(
        make_pcdnse_ode(field, eff)(0.0, psi),
        _written_out_rhs(psi, eff, 1.0 / field.dx**2, boundary))
    assert np.array_equal(make_chain_ode(eff, boundary)(0.0, psi),
                          _written_out_rhs(psi, eff, 1.0, boundary))


def test_ansatz_particle_number():
    field = make_soliton_field(soliton(psi=0.8, w=5.0), 200.0, 2000)
    assert_allclose(particle_number(field), 2.0 * 0.64 * 5.0, rtol=1e-10)


def test_momentum_reads_off_the_velocity():
    for v, d in [(0.37, 0.0), (0.37, 0.02), (-0.2, -0.01)]:
        field = make_soliton_field(soliton(x0=120.0, v=v, d=d), 240.0, 2400)
        n = particle_number(field)
        assert_allclose(field_momentum(field), n * v, rtol=1e-9)
        assert_allclose(mean_velocity(field), v, rtol=1e-9)


def test_momentum_open_boundary_contained_soliton():
    field = make_soliton_field(soliton(x0=120.0, v=0.25), 240.0, 2401, OPEN)
    # central differences, not spectral: O(dx^2) accuracy
    assert_allclose(mean_velocity(field), 0.25, rtol=1e-3)


def test_open_momentum_is_the_ghost_zero_central_difference(rng):
    # O(1) values up to the edges, so the two wall rows count
    field = FieldState(random_complex(rng, 33), 8.0, OPEN)
    psi, dx = field.psi, field.dx
    ahead, behind = np.append(psi[1:], 0.0), np.insert(psi[:-1], 0, 0.0)
    grad = (ahead - behind) / (2.0 * dx)
    expected = float(np.sum(np.imag(np.conj(psi) * grad)) * dx)
    assert field_momentum(field) == expected
    wrapped = (np.roll(psi, -1) - np.roll(psi, 1)) / (2.0 * dx)
    assert abs(float(np.sum(np.imag(np.conj(psi) * wrapped)) * dx)
               - expected) > 0.1


def test_standing_soliton_only_rotates_its_phase():
    """Conservative bright soliton: |psi| frozen, phase at rate -g psi^2/2.

    The shape error budget is the O(dx^2) discreteness of the Laplacian.
    """
    g = -0.1
    eff = EffectiveParams(g=g, gamma=0.0, hopping=1.0)
    coords = soliton(psi=1.0, x0=60.0, w=math.sqrt(-2.0 / g))
    # tails at 3e-6 of peak: harmless here, below the shape error budget
    field0 = make_soliton_field(coords, 120.0, 1200, containment_tol=1e-5)
    t_end = 2.0
    series = solve(OdeProblem(make_pcdnse_ode(field0, eff), [0.0, t_end],
                              field0.psi),
                   SolverConfig(rtol=1e-11, atol=1e-12))
    final = series.states[-1]
    assert np.max(np.abs(np.abs(final) - np.abs(field0.psi))) < 2e-4
    peak = np.argmax(np.abs(field0.psi))
    measured_phase = np.angle(final[peak] / field0.psi[peak])
    assert_allclose(measured_phase, -g * t_end / 2.0, atol=1e-3)


def test_flow_conserves_particle_number_with_dissipation_on():
    coords = soliton(v=0.3)
    field0 = make_soliton_field(coords, 200.0, 1000)
    series = solve(OdeProblem(make_pcdnse_ode(field0, EFF),
                              np.linspace(0.0, 5.0, 6), field0.psi),
                   SolverConfig(rtol=1e-10, atol=1e-12))
    n = [particle_number(field0.with_psi(s)) for s in series.states]
    assert np.max(np.abs(np.asarray(n) / n[0] - 1.0)) < 1e-9


def test_field_energy_converges_to_the_ansatz_closed_form():
    coords = soliton(psi=0.8, x0=80.0, v=0.3, w=4.0, d=0.01, phi=0.5)
    exact = ansatz_energy(coords, EFF)
    errors = []
    for n_points in (1600, 3200):
        field = make_soliton_field(coords, 160.0, n_points)
        errors.append(abs(field_energy(field, EFF) - exact))
    assert errors[1] < errors[0] / 3.5          # second order in dx
    assert errors[1] < 5e-4 * abs(exact)


@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
def test_flow_leaves_particle_number_unchanged_on_random_states(rng, boundary):
    # N is quadratic, so the central difference along the flow is its exact
    # directional derivative; compare it with the size of its summands
    field = random_field(rng, boundary, dx=0.1)
    v = make_pcdnse_ode(field, EFF)(0.0, field.psi)
    h = np.linalg.norm(field.psi) / np.linalg.norm(v)
    slope = (particle_number(field.with_psi(field.psi + h * v))
             - particle_number(field.with_psi(field.psi - h * v))) / (2 * h)
    scale = 2.0 * field.dx * np.sum(np.abs(field.psi) * np.abs(v))
    assert abs(slope) < 1e-12 * scale


@pytest.mark.parametrize("dx", [0.1, 1.0])
@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
def test_energy_decay_rate_is_the_slope_of_the_energy(rng, boundary, dx):
    # five-point derivative of field_energy along the RHS, O(h^4) accurate
    field = random_field(rng, boundary, dx)
    v = make_pcdnse_ode(field, EFF)(0.0, field.psi)
    h = 1e-3 * np.linalg.norm(field.psi) / np.linalg.norm(v)
    slope = sum(
        c * field_energy(field.with_psi(field.psi + k * h * v), EFF)
        for k, c in [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]
    ) / (12.0 * h)
    assert_allclose(slope, field_energy_decay_rate(field, EFF), rtol=1e-6)


def test_energy_decay_rate_tracks_the_energy_slope():
    # the same identity along solved trajectories of a moving soliton; the
    # bound is the finite-difference and solver error, not the grid
    h = 1e-3
    for n_points in (1000, 2000):
        field0 = make_soliton_field(soliton(v=0.4), 200.0, n_points)
        series = solve(OdeProblem(make_pcdnse_ode(field0, EFF),
                                  [0.0, h, 2 * h], field0.psi),
                       SolverConfig(rtol=1e-12, atol=1e-13))
        energies = [field_energy(field0.with_psi(s), EFF)
                    for s in series.states]
        slope = (energies[2] - energies[0]) / (2 * h)
        rate = field_energy_decay_rate(field0.with_psi(series.states[1]),
                                       EFF)
        assert rate < 0 and slope < 0
        assert abs(slope / rate - 1.0) < 1e-8


def test_containment_warning_fires_only_for_fat_tails():
    with pytest.warns(ContainmentWarning):
        make_soliton_field(soliton(x0=20.0, w=10.0), 40.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_soliton_field(soliton(x0=100.0, w=4.0), 200.0, 2000)


def test_rhs_open_boundary_clamps_edges(rng):
    # same psi and same dx=1 on both grids (periodic L=n, open L=n-1):
    # only the stencil rows touching the wall may differ
    b = random_complex(rng, 32, scale=0.5)
    opn = FieldState(b, 31.0, OPEN)
    per = FieldState(b, 32.0, PERIODIC)
    assert opn.dx == per.dx == 1.0
    rhs_open = make_pcdnse_ode(opn, EFF)(0.0, b)
    rhs_per = make_pcdnse_ode(per, EFF)(0.0, b)
    assert not np.allclose(rhs_open[0], rhs_per[0])
    assert not np.allclose(rhs_open[-1], rhs_per[-1])
    # the dissipative projection is pointwise and both boundaries share the
    # interior stencil, so interior rows agree exactly
    assert np.array_equal(rhs_open[1:-1], rhs_per[1:-1])


@pytest.mark.parametrize("dx", [0.1, 1.0])
def test_dispersion_part_is_the_linear_flow(rng, dx):
    # at g = gamma = 0 the flow is the dispersion alone; the FFT route
    # differs from the stencil only by round-off of the largest eigenvalue
    field = random_field(rng, PERIODIC, dx)
    eff = EffectiveParams(g=0.0, gamma=0.0, hopping=0.7)
    linear = dispersion_part(field, eff)
    stencil = make_pcdnse_ode(field, eff)(0.0, field.psi)
    spectral = linear.inverse(linear.eigenvalues * linear.forward(field.psi))
    assert_allclose(spectral, stencil, rtol=0,
                    atol=1e-13 * np.max(np.abs(stencil)))
    assert np.all(linear.eigenvalues.real == 0.0)
