"""Coupled cavity-site dynamics and the gauge into the effective frame."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_complex
from pcdnse.integrate import (
    SOLVER_PRESETS,
    OdeProblem,
    SolveStats,
    SolverConfig,
    TimeSeries,
    solve,
)
from pcdnse.model_full import (
    hopping_part,
    make_full_ode,
    rotating_frame_to_effective,
    steady_state_cavities,
)
from pcdnse.params import (
    OPEN,
    PERIODIC,
    ChainParams,
    DegenerateDenominatorError,
    ReservoirParams,
)

RES = ReservoirParams(chi=0.05, eta=1.0, kappa=1.0, delta=-0.1)


def make_chain(sites: int = 8) -> ChainParams:
    return ChainParams(hopping=1.0, anharmonicity=-0.1, sites=sites)


def test_steady_state_cavity_frozen_value():
    # eta/(kappa/2 - i delta) = 1/(0.5 + 0.1i) = (0.5 - 0.1i)/0.26
    a = steady_state_cavities(RES, 5)
    assert a.shape == (5,)
    assert_allclose(a, 1.923076923076923 - 0.38461538461538464j, rtol=1e-15)
    with pytest.raises(DegenerateDenominatorError):
        steady_state_cavities(ReservoirParams(0.1, 1.0, 0.0, 0.0), 5)


def test_uncoupled_cavity_relaxes_at_half_kappa(rng):
    # chi=0 decouples: dA/dt = (i delta - kappa/2) A + eta, solvable exactly
    res = ReservoirParams(chi=0.0, eta=1.0, kappa=1.0, delta=-0.1)
    chain = make_chain(4)
    a0 = random_complex(rng, 4, scale=0.5)
    b0 = random_complex(rng, 4, scale=0.3)
    y0 = np.concatenate([a0, b0])
    times = np.linspace(0.0, 6.0, 7)
    series = solve(OdeProblem(make_full_ode(res, chain), times, y0),
                   SolverConfig(method="rkf78", rtol=1e-12, atol=1e-12))
    a_ss = steady_state_cavities(res, 4)
    pole = 1j * res.delta - res.kappa / 2.0
    for t, y in zip(series.times, series.states):
        expected = a_ss + (a0 - a_ss) * np.exp(pole * t)
        assert_allclose(y[:4], expected, rtol=1e-9,
                        atol=1e-12)


def test_site_occupation_is_conserved_despite_cavity_drive(rng):
    # the cross-Kerr coupling shifts site phases only; sum|B|^2 is an
    # invariant of the full model, cavities included
    chain = make_chain(8)
    a0 = steady_state_cavities(RES, 8)
    b0 = random_complex(rng, 8, scale=0.4)
    y0 = np.concatenate([a0, b0])
    series = solve(OdeProblem(make_full_ode(RES, chain),
                              np.linspace(0.0, 10.0, 101), y0),
                   SolverConfig(method="rkf78", rtol=1e-11, atol=1e-12))
    occ = np.sum(np.abs(series.states[:, 8:]) ** 2, axis=1)
    assert np.max(np.abs(occ / occ[0] - 1.0)) < 1e-10


def test_full_rhs_matches_packed_closure(rng):
    # site by site from the equations of motion in the module docstring
    a = random_complex(rng, 5)
    b = random_complex(rng, 5)
    for boundary in (PERIODIC, OPEN):
        chain = ChainParams(hopping=0.7, anharmonicity=-0.1, sites=5,
                            boundary=boundary)
        packed = make_full_ode(RES, chain)(0.0, np.concatenate([a, b]))
        for n in range(5):
            if boundary == PERIODIC:
                left, right = b[(n - 1) % 5], b[(n + 1) % 5]
            else:
                left = b[n - 1] if n > 0 else 0.0
                right = b[n + 1] if n < 4 else 0.0
            da = ((1j * RES.delta - RES.kappa / 2.0) * a[n] + RES.eta
                  - 1j * RES.chi * abs(b[n]) ** 2 * a[n])
            db = (-1j * RES.chi * abs(a[n]) ** 2 * b[n]
                  - 1j * chain.anharmonicity * abs(b[n]) ** 2 * b[n]
                  + 1j * chain.hopping * (left + right))
            assert_allclose(packed[n], da, rtol=1e-15)
            assert_allclose(packed[5 + n], db, rtol=1e-15)


def test_rotating_frame_is_a_pure_phase(rng):
    chain = make_chain(4)
    b = random_complex(rng, 4)
    a = steady_state_cavities(RES, 4)
    times = np.array([0.0, 0.4, 1.7])
    packed = np.tile(np.concatenate([a, b]), (3, 1))
    series = TimeSeries(times, packed, SolveStats())
    out = rotating_frame_to_effective(series, RES, chain)
    assert out.states.shape == (3, 4)
    assert_allclose(np.abs(out.states),
                    np.broadcast_to(np.abs(b), (3, 4)), rtol=1e-14)
    shift = RES.chi * RES.eta**2 / (RES.delta**2 + RES.kappa**2 / 4.0)
    expected = np.exp(1j * (shift - 2.0 * chain.hopping) * times)
    assert_allclose(out.states / b[None, :],
                    np.broadcast_to(expected[:, None], (3, 4)), rtol=1e-13)
    # identity at t=0
    assert_allclose(out.states[0], b, rtol=1e-15)


def test_elimination_reproduces_site_dynamics_weak_coupling(rng):
    """Full model vs reduced chain at a weakly coupled working point.

    chi is inverted for (g=-0.05, gamma=0.02); at site amplitudes ~0.3 the
    validity ratios are ~1e-2, so occupations should track at the percent
    level over a couple of hopping times.
    """
    from pcdnse.model_effective import make_chain_ode
    from pcdnse.params import (
        EffectiveParams,
        invert_for_chi_alpha,
        weak_coupling_ratios,
    )

    sites = 16
    chi, alpha = invert_for_chi_alpha(-0.05, 0.02, eta=1.0, kappa=1.0,
                                      delta=-0.1)
    res = ReservoirParams(chi=chi, eta=1.0, kappa=1.0, delta=-0.1)
    chain = ChainParams(hopping=1.0, anharmonicity=alpha, sites=sites)
    eff = EffectiveParams(g=-0.05, gamma=0.02, hopping=1.0)

    n = np.arange(sites)
    b0 = (0.3 * np.exp(-0.5 * ((n - 8.0) / 3.0) ** 2)
          * np.exp(0.4j * n)).astype(complex)
    r1, r2 = weak_coupling_ratios(res, chain, float(np.max(np.abs(b0))))
    assert max(r1, r2) < 0.1

    y0 = np.concatenate([steady_state_cavities(res, sites), b0])
    times = np.linspace(0.0, 2.0, 5)
    full = solve(OdeProblem(make_full_ode(res, chain), times, y0),
                 SolverConfig(method="rkf78", rtol=1e-12, atol=1e-12))
    reduced = solve(OdeProblem(make_chain_ode(eff), times, b0),
                    SolverConfig(rtol=1e-11, atol=1e-13))
    occ_full = np.abs(rotating_frame_to_effective(full, res, chain).states)**2
    occ_red = np.abs(reduced.states) ** 2
    peak = occ_red.max()
    assert np.max(np.abs(occ_full - occ_red)) < 0.01 * peak


@pytest.mark.parametrize("sites", [7, 8, 33])
def test_hopping_part_is_the_linear_flow(rng, sites):
    # with chi = eta = alpha = 0 the packed flow is its linear part alone
    res = ReservoirParams(chi=0.0, eta=0.0, kappa=0.8, delta=-0.3)
    chain = ChainParams(hopping=0.7, anharmonicity=0.0, sites=sites)
    rhs = make_full_ode(res, chain)
    linear = hopping_part(res, chain)
    assert linear.eigenvalues.shape == (2 * sites,)
    for _ in range(3):
        y = random_complex(rng, 2 * sites)
        flow = rhs(0.0, y)
        via_basis = linear.inverse(linear.eigenvalues * linear.forward(y))
        assert np.max(np.abs(via_basis - flow)) <= 1e-13 * np.max(np.abs(flow))
        assert_allclose(linear.inverse(linear.forward(y)), y, rtol=0,
                        atol=1e-14 * np.max(np.abs(y)))
    # the cavity half is left as it is; the pairs k, n - k are equal exactly
    y = random_complex(rng, 2 * sites)
    assert np.array_equal(linear.forward(y)[:sites], y[:sites])
    lam = linear.eigenvalues[sites:]
    assert np.array_equal(lam[1:], lam[1:][::-1])
    assert hopping_part(res, ChainParams(hopping=0.7, anharmonicity=0.0,
                                         sites=sites, boundary=OPEN)) is None


def test_lawson_langevin_solve_matches_a_tight_plain_solve():
    # measured: 3.3e-13 of the largest amplitude in 33 Lawson steps; the
    # plain solve at the same preset takes 118 steps and is off by 4.1e-13
    sites, t_final = 48, 10.0
    chain = ChainParams(hopping=1.0, anharmonicity=-0.1, sites=sites)
    n = np.arange(sites)
    b0 = 0.5 / np.cosh((n - 24.0) / 3.0) * np.exp(0.3j * n)
    y0 = np.concatenate([steady_state_cavities(RES, sites), b0])
    times = np.linspace(0.0, t_final, 5)
    rhs = make_full_ode(RES, chain)
    lawson = solve(OdeProblem(rhs, times, y0,
                              linear=hopping_part(RES, chain)),
                   SOLVER_PRESETS["langevin"])
    plain = solve(OdeProblem(rhs, times, y0), SOLVER_PRESETS["langevin"])
    tight = solve(OdeProblem(rhs, times, y0),
                  SolverConfig(method="rkf78", rtol=1e-13, atol=1e-13))
    scale = np.max(np.abs(tight.states))
    assert np.max(np.abs(lawson.states - tight.states)) < 1.5e-12 * scale
    assert lawson.stats.n_accepted < plain.stats.n_accepted / 2
