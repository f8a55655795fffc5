"""Collective-coordinate flow: fixed points, conservation laws, the stable
manifold and its closed-form solution.
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pcdnse.collective import (
    COORD_ORDER,
    RepulsiveInteractionError,
    SolitonCoords,
    WIDTH_FLOOR,
    WidthCollapseError,
    ansatz_energy,
    collective_rhs,
    make_collective_ode,
    make_stable_ode,
    stable_closed_form,
    stable_rhs,
    stable_soliton,
)
from pcdnse.integrate import OdeProblem, SolverConfig, solve
from pcdnse.params import EffectiveParams

EFF = EffectiveParams(g=-0.1, gamma=0.05, hopping=1.0)


def test_stable_soliton_frozen_values():
    # hand-evaluated for g = -0.1, J = 1, gamma = 0.05, N = 1:
    # w = -4J/(gN), psi = sqrt(-g/2J) N/2, Gamma = gamma (-g/J)^3 N^4 / 240
    ss = stable_soliton(1.0, EFF)
    assert_allclose(ss.width, 40.0, rtol=1e-15)
    assert_allclose(ss.amplitude, 0.11180339887498948, rtol=1e-15)
    assert_allclose(ss.damping_rate, 2.0833333333333333e-07, rtol=1e-15)
    assert_allclose(ss.energy(), -0.00020833333333333335, rtol=1e-15)

    # the acceptance-scale soliton: N = 2 sqrt(20), psi = 1, w = sqrt(20)
    n = 2.0 * math.sqrt(20.0)
    big = stable_soliton(n, EFF)
    assert_allclose(big.amplitude, 1.0, rtol=1e-14)
    assert_allclose(big.width, math.sqrt(20.0), rtol=1e-14)
    assert_allclose(big.damping_rate, 0.0013333333333333335, rtol=1e-13)


def test_damping_rate_scales_as_fourth_power_of_n():
    r1 = stable_soliton(0.7, EFF).damping_rate
    r2 = stable_soliton(1.4, EFF).damping_rate
    assert_allclose(r2 / r1, 16.0, rtol=1e-12)


def test_stable_coords_are_a_fixed_point_up_to_phase():
    ss = stable_soliton(2.0, EFF)
    deriv = collective_rhs(ss.coords(), EFF)
    rates = dict(zip(COORD_ORDER, deriv))
    for name in ("psi", "x0", "v", "w", "d"):
        assert abs(rates[name]) < 1e-15, name
    # the soliton still rotates: phi' = g^2 N^2 / 16 J
    _, _, dphi = stable_rhs(0.0, 0.0, 0.0, ss)
    assert_allclose(rates["phi"], dphi, rtol=1e-13)
    assert_allclose(dphi, EFF.g**2 * 4.0 / 16.0, rtol=1e-13)


@given(
    psi=st.floats(0.05, 3.0),
    w=st.floats(0.5, 60.0),
    v=st.floats(-2.0, 2.0),
    d=st.floats(-1.0, 1.0),
    g=st.floats(-0.5, 0.5),
    gamma=st.floats(0.0, 0.3),
)
@settings(max_examples=200, deadline=None)
def test_particle_number_is_pointwise_invariant(psi, w, v, d, g, gamma):
    # dN/dt = 2(2 psi psi' w + psi^2 w') must vanish identically,
    # whatever the parameters
    eff = EffectiveParams(g=g, gamma=gamma, hopping=1.0)
    coords = SolitonCoords(psi=psi, x0=0.3, v=v, w=w, d=d, phi=-0.2)
    dpsi, _, _, dw, _, _ = collective_rhs(coords, eff)
    rate = 2.0 * (2.0 * psi * dpsi * w + psi**2 * dw)
    scale = max(1.0, abs(4.0 * psi**2 * d * w))
    assert abs(rate) <= 1e-13 * scale


def test_particle_number_conserved_along_flow():
    # generic breathing initial condition, nowhere near the stable manifold
    coords = SolitonCoords(psi=0.9, x0=0.0, v=0.4, w=6.0, d=0.02, phi=0.0)
    n0 = coords.particle_number
    series = solve(
        OdeProblem(make_collective_ode(EFF), [0.0, 5.0, 20.0],
                   coords.to_array()),
        SolverConfig(rtol=1e-11, atol=1e-13),
    )
    for state in series.states:
        n = SolitonCoords.from_array(state).particle_number
        assert abs(n / n0 - 1.0) < 1e-10


def test_collective_flow_reduces_to_stable_rhs_on_the_manifold():
    ss = stable_soliton(2.0 * math.sqrt(20.0), EFF)
    v0 = 0.5
    series = solve(
        OdeProblem(make_collective_ode(EFF), np.linspace(0.0, 10.0, 6),
                   ss.coords(x0=1.0, v=v0, phi=0.3).to_array()),
        SolverConfig(rtol=1e-12, atol=1e-13),
    )
    x_ref, v_ref, phi_ref = stable_closed_form(
        series.times, 1.0, v0, 0.3, ss)
    got = np.array([SolitonCoords.from_array(s).to_array()
                    for s in series.states])
    assert_allclose(got[:, 1], x_ref, rtol=1e-8)
    assert_allclose(got[:, 2], v_ref, rtol=1e-8)
    assert_allclose(got[:, 5], phi_ref, rtol=1e-8)
    # shape coordinates never leave the manifold
    assert_allclose(got[:, 0], ss.amplitude, rtol=1e-9)
    assert_allclose(got[:, 3], ss.width, rtol=1e-9)
    assert np.max(np.abs(got[:, 4])) < 1e-9


def test_stable_closed_form_matches_its_own_ode():
    ss = stable_soliton(3.0, EffectiveParams(g=-0.2, gamma=0.1, hopping=1.0))
    times = [0.0, 2.5, 10.0, 25.0]
    series = solve(
        OdeProblem(make_stable_ode(ss), times, np.array([-4.0, 0.7, 0.1])),
        SolverConfig(rtol=1e-12, atol=1e-14),
    )
    x_ref, v_ref, phi_ref = stable_closed_form(
        np.array(times), -4.0, 0.7, 0.1, ss)
    got = np.array(series.states)
    assert_allclose(got[:, 0], x_ref, rtol=1e-9)
    assert_allclose(got[:, 1], v_ref, rtol=1e-9)
    assert_allclose(got[:, 2], phi_ref, rtol=1e-9)


def test_stable_closed_form_frictionless_branch():
    ss = stable_soliton(3.0, EffectiveParams(g=-0.2, gamma=0.0, hopping=1.0))
    assert ss.damping_rate == 0.0
    t = np.array([0.0, 1.0, 4.0])
    x, v, phi = stable_closed_form(t, 1.0, 0.5, 0.0, ss)
    assert_allclose(x, 1.0 + 2.0 * 0.5 * t, rtol=1e-15)
    assert np.all(v == 0.5)
    rotation = ss.g**2 * ss.particle_number**2 / 16.0
    assert_allclose(phi, (0.25 + rotation) * t, rtol=1e-15)


def _stable_reference(t, x0, v0, phi0, ss):
    """The exact solution of stable_rhs in 50-digit decimal arithmetic,
    from the exact values of the soliton's floats."""
    with decimal.localcontext(decimal.Context(prec=50)):
        dec = decimal.Decimal
        j, rate, t = dec(ss.hopping), dec(ss.damping_rate), dec(t)
        rotation = dec(ss.g) ** 2 * dec(ss.particle_number) ** 2 / (16 * j)
        v = dec(v0) * (-rate * j * t).exp()
        x = dec(x0) + 2 * dec(v0) * (1 - (-rate * j * t).exp()) / rate
        phi = (dec(phi0) + rotation * t
               + dec(v0) ** 2 * (1 - (-2 * rate * j * t).exp()) / (2 * rate))
        return float(x), float(v), float(phi)


@pytest.mark.parametrize("gamma", [1e-12, -1e-12, 1e-8, -1e-8, 0.05])
def test_stable_closed_form_is_exact_to_rounding(gamma):
    # 1 - exp(-Gamma J t) cancels at small Gamma; at gamma = 1e-12 it would
    # cost x and phi about 8e-4 of their value
    ss = stable_soliton(2.0, EffectiveParams(g=-0.1, gamma=gamma,
                                             hopping=1.0))
    times = np.array([0.0, 0.5, 2.5, 10.0])
    got = stable_closed_form(times, 0.0, 0.5, 0.0, ss)
    want = np.array([_stable_reference(t, 0.0, 0.5, 0.0, ss)
                     for t in times]).T
    for name, value, exact in zip(("x0", "v", "phi"), got, want):
        assert np.all(np.abs(value - exact) <= 1e-14 * np.abs(exact)), name


def test_stable_closed_form_refuses_an_overflowing_trajectory():
    # anti-damped: exp(Gamma J t) overflows long before Jt = 100
    ss = stable_soliton(10.0, EffectiveParams(g=-1.0, gamma=-1.0,
                                              hopping=1.0))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                   match="not finite"):
        stable_closed_form(np.array([0.0, 100.0]), 0.0, 0.5, 0.0, ss)


def test_ansatz_energy_agrees_with_stable_energy():
    for n, v in [(1.0, 0.0), (2.0, 0.3), (5.0, -0.7)]:
        ss = stable_soliton(n, EFF)
        assert_allclose(ansatz_energy(ss.coords(v=v), EFF), ss.energy(v),
                        rtol=1e-12)


def test_phase_velocity_identity_on_random_states():
    # v x0' - phi' equals dE/dN at fixed v; E is cubic in N so a five-point
    # stencil differentiates it exactly (up to rounding)
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.uniform(0.5, 4.0)
        v = rng.uniform(0.3, 1.0)
        ss = stable_soliton(n, EFF)
        dx0, _, dphi = stable_rhs(0.0, v, 0.0, ss)
        h = 1e-3 * n
        stencil = sum(
            c * stable_soliton(n + k * h, EFF).energy(v)
            for k, c in [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]
        ) / (12.0 * h)
        assert_allclose(v * dx0 - dphi, stencil, rtol=1e-10)


def test_width_collapse_raises():
    bad = SolitonCoords(psi=1.0, x0=0.0, v=0.0, w=1e-7, d=0.0, phi=0.0)
    with pytest.raises(WidthCollapseError):
        collective_rhs(bad, EFF)
    # raw-array form takes the same guard
    with pytest.raises(WidthCollapseError):
        collective_rhs(np.array([1.0, 0.0, 0.0, 1e-9, 0.0, 0.0]), EFF)
    # the floor itself is refused, a width just above it admitted
    with pytest.raises(WidthCollapseError):
        collective_rhs(np.array([1.0, 0.0, 0.0, WIDTH_FLOOR, 0.0, 0.0]), EFF)
    collective_rhs(np.array([1.0, 0.0, 0.0, np.nextafter(WIDTH_FLOOR, 1.0),
                             0.0, 0.0]), EFF)


def test_stable_soliton_rejects_bad_inputs():
    with pytest.raises(RepulsiveInteractionError):
        stable_soliton(1.0, EffectiveParams(g=0.1, gamma=0.05, hopping=1.0))
    with pytest.raises(RepulsiveInteractionError):
        stable_soliton(1.0, EffectiveParams(g=0.0, gamma=0.05, hopping=1.0))
    with pytest.raises(ValueError):
        stable_soliton(0.0, EFF)
    with pytest.raises(ValueError):
        stable_soliton(math.inf, EFF)


def test_coords_roundtrip_and_validation():
    coords = SolitonCoords(psi=0.8, x0=-3.0, v=0.2, w=5.0, d=0.01, phi=1.1)
    again = SolitonCoords.from_array(coords.to_array())
    assert again == coords
    assert_allclose(coords.particle_number, 2.0 * 0.64 * 5.0, rtol=1e-15)
    with pytest.raises(ValueError):
        SolitonCoords.from_array(np.zeros(5))
    with pytest.raises(ValueError):
        SolitonCoords(psi=-0.1, x0=0.0, v=0.0, w=1.0, d=0.0, phi=0.0)
    with pytest.raises(ValueError):
        SolitonCoords(psi=0.1, x0=0.0, v=0.0, w=0.0, d=0.0, phi=0.0)
    with pytest.raises(ValueError):
        SolitonCoords(psi=0.1, x0=math.nan, v=0.0, w=1.0, d=0.0, phi=0.0)


def test_rhs_accepts_coords_and_array_alike():
    coords = SolitonCoords(psi=0.8, x0=-3.0, v=0.2, w=5.0, d=0.01, phi=1.1)
    a = collective_rhs(coords, EFF)
    b = collective_rhs(coords.to_array(), EFF)
    assert np.array_equal(a, b)
