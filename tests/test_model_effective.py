"""Effective lattice dynamics: discrete conventions, conservation laws,
and two analytic oracles (plane waves, the two-site hopping cycle).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_complex
from pcdnse.integrate import OdeProblem, SolverConfig, solve
from pcdnse.model_effective import (
    chain_energy,
    chain_hamiltonian_gradient,
    energy_decay_rate,
    general_effective_rhs,
    lattice_laplacian,
    make_chain_ode,
)
from pcdnse.params import OPEN, PERIODIC, EffectiveParams


def test_laplacian_conventions():
    b = np.array([1.0, 2.0, 4.0], dtype=complex)
    # periodic: neighbours wrap
    assert_allclose(lattice_laplacian(b, PERIODIC),
                    [2 + 4 - 2, 1 + 4 - 4, 2 + 1 - 8])
    # open: missing neighbours enter as zeros (hard-wall ghosts)
    assert_allclose(lattice_laplacian(b, OPEN), [2 - 2, 1 + 4 - 4, 2 - 8])


def test_laplacian_matches_the_roll_stencil(rng):
    # reference: np.roll on rings, and ghost-zero accumulation on open
    # chains, whose different summation order costs at most an ulp or two
    for n in (2, 3, 16, 800, 4000):
        b = random_complex(rng, n)
        ring = np.roll(b, 1) + np.roll(b, -1) - 2.0 * b
        assert np.array_equal(lattice_laplacian(b, PERIODIC), ring)
        wall = -2.0 * b
        wall[1:] += b[:-1]
        wall[:-1] += b[1:]
        err = np.max(np.abs(lattice_laplacian(b, OPEN) - wall))
        assert err <= 1e-15 * np.max(np.abs(wall))


def test_gradient_matches_laplacian_plus_onsite(rng):
    b = random_complex(rng, 12)
    grad = chain_hamiltonian_gradient(hopping=0.7, nonlinearity=0.3,
                                      boundary=PERIODIC)
    expected = -0.7 * lattice_laplacian(b, PERIODIC) + 0.3 * np.abs(b)**2 * b
    assert_allclose(grad(b), expected, rtol=1e-15)


@pytest.mark.parametrize("boundary", [PERIODIC, OPEN])
def test_generic_rhs_equals_specialized_chain_rhs(rng, boundary):
    # splitting g into bare anharmonicity + reservoir shift must not change
    # the flow: the on-site term drops out of the dissipative projection
    eff = EffectiveParams(g=-0.1, delta_g=-0.0065, gamma=0.05, hopping=1.0)
    grad = chain_hamiltonian_gradient(eff.hopping, eff.g - eff.delta_g,
                                      boundary)
    for _ in range(50):
        b = random_complex(rng, 16)
        assert_allclose(general_effective_rhs(b, grad, eff),
                        make_chain_ode(eff, boundary)(0.0, b),
                        rtol=0, atol=1e-14)


def test_plane_waves_are_rhs_eigenvectors():
    # b_n = c e^{ikn}: the dissipative term vanishes and
    # i db/dt = (g|c|^2 + 4 J sin^2(k/2)) b exactly
    eff = EffectiveParams(g=-0.1, gamma=0.05, hopping=1.3)
    n = np.arange(16)
    for m in (0, 1, 3, 7):
        k = 2.0 * np.pi * m / 16
        b = 0.8 * np.exp(1j * k * n)
        omega = eff.g * 0.64 + 4.0 * eff.hopping * np.sin(k / 2.0) ** 2
        assert_allclose(1j * make_chain_ode(eff, PERIODIC)(0.0, b),
                        omega * b, rtol=0, atol=1e-10)


def test_two_site_hopping_cycle():
    # g=0, periodic pair: both neighbours are the same site, so the
    # occupation oscillates as cos^2(2Jt)
    eff = EffectiveParams(g=0.0, gamma=0.0, hopping=1.0)
    times = np.linspace(0.0, 2.0, 21)
    series = solve(OdeProblem(make_chain_ode(eff, PERIODIC), times,
                              np.array([1.0 + 0j, 0.0 + 0j])),
                   SolverConfig(rtol=1e-12, atol=1e-12))
    occ0 = np.abs(series.states[:, 0]) ** 2
    assert_allclose(occ0, np.cos(2.0 * times) ** 2, atol=1e-8)


def test_flow_conserves_total_occupation(rng):
    eff = EffectiveParams(g=-0.1, gamma=0.05, hopping=1.0)
    b0 = random_complex(rng, 24, scale=0.4)
    series = solve(OdeProblem(make_chain_ode(eff, PERIODIC),
                              np.linspace(0.0, 5.0, 501), b0),
                   SolverConfig(rtol=1e-10, atol=1e-12))
    norms = np.sum(np.abs(series.states) ** 2, axis=1)
    assert np.max(np.abs(norms / norms[0] - 1.0)) < 1e-10


@pytest.mark.parametrize("gamma,sign", [(0.05, -1.0), (-0.05, +1.0)])
def test_energy_flows_downhill_for_positive_gamma(rng, gamma, sign):
    eff = EffectiveParams(g=-0.1, gamma=gamma, hopping=1.0)
    b0 = random_complex(rng, 24, scale=0.6)
    times = np.linspace(0.0, 4.0, 41)
    series = solve(OdeProblem(make_chain_ode(eff, PERIODIC), times, b0),
                   SolverConfig(rtol=1e-11, atol=1e-13))
    energies = np.array([chain_energy(b, eff, PERIODIC)
                         for b in series.states])
    steps = np.diff(energies)
    assert np.all(sign * steps > 0.0)


def test_decay_rate_matches_energy_slope(rng):
    eff = EffectiveParams(g=-0.1, gamma=0.08, hopping=1.0)
    b0 = random_complex(rng, 20, scale=0.5)
    h = 1e-3
    series = solve(OdeProblem(make_chain_ode(eff, PERIODIC),
                              [0.0, h, 2 * h], b0),
                   SolverConfig(rtol=1e-12, atol=1e-14))
    energies = [chain_energy(b, eff, PERIODIC) for b in series.states]
    slope = (energies[2] - energies[0]) / (2 * h)
    grad = chain_hamiltonian_gradient(eff.hopping, eff.g, PERIODIC)
    mid = series.states[1]
    assert_allclose(slope, energy_decay_rate(mid, grad, eff), rtol=1e-4)
    assert slope < 0.0


def test_chain_energy_small_cases():
    eff = EffectiveParams(g=-2.0, gamma=0.0, hopping=1.0)
    b = np.array([1.0, 1.0j], dtype=complex)
    # periodic two-site ring: bonds (0,1) and (1,0) both count
    # bond energy J|b_{n+1}-b_n|^2 summed, plus (g/2) sum |b|^4
    expected = 2.0 * abs(1.0j - 1.0) ** 2 + 0.5 * (-2.0) * 2.0
    assert_allclose(chain_energy(b, eff, PERIODIC), expected, rtol=1e-15)
    # open pair: bond (0,1) plus the bonds to the ghost zeros, |b_0|^2+|b_1|^2
    expected_open = abs(1.0j - 1.0) ** 2 + 1.0 + 1.0 + 0.5 * (-2.0) * 2.0
    assert_allclose(chain_energy(b, eff, OPEN), expected_open, rtol=1e-15)


def test_uniform_ring_is_stationary_apart_from_phase():
    # zero laplacian: pure on-site phase rotation, no dissipation
    eff = EffectiveParams(g=-0.1, gamma=0.5, hopping=1.0)
    b = 0.7 * np.ones(8, dtype=complex)
    rhs = make_chain_ode(eff, PERIODIC)(0.0, b)
    assert_allclose(rhs, -1j * eff.g * 0.49 * b, rtol=0, atol=1e-16)


def test_an_unknown_boundary_is_one_value_error_naming_it(rng):
    eff = EffectiveParams(g=-0.1, gamma=0.05, hopping=1.0)
    b = random_complex(rng, 8)
    rhs = make_chain_ode(eff, "ring")
    for call in (lambda: lattice_laplacian(b, "ring"),
                 lambda: chain_energy(b, eff, "ring"),
                 lambda: rhs(0.0, b)):
        with pytest.raises(ValueError, match="'ring'"):
            call()


def test_rhs_shape_mismatch_rejected(rng):
    eff = EffectiveParams(g=-0.1)
    b = random_complex(rng, 8)
    with pytest.raises(ValueError):
        general_effective_rhs(b, lambda _: np.zeros(7, dtype=complex), eff)
