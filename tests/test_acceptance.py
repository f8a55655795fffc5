"""Acceptance gate: one test per release criterion, tolerances pinned.

Run ``pytest -v tests/test_acceptance.py`` for a one-line pass/fail report
per criterion; add ``-rA -s`` to see the measured numbers next to their
bounds.  Expensive simulations are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from conftest import random_complex
from pcdnse.analysis import fit_soliton
from pcdnse.collective import (
    SolitonCoords,
    make_collective_ode,
    stable_closed_form,
    stable_rhs,
    stable_soliton,
)
from pcdnse.experiments import ExperimentConfig, run_experiment
from pcdnse.integrate import OdeProblem, SolverConfig, solve, solver_preset
from pcdnse.model_continuum import (
    dispersion_part,
    field_energy,
    field_energy_decay_rate,
    make_pcdnse_ode,
    make_soliton_field,
    particle_number,
)
from pcdnse.model_effective import (
    chain_hamiltonian_gradient,
    general_effective_rhs,
    make_chain_ode,
)
from pcdnse.params import PERIODIC, EffectiveParams

EFF = EffectiveParams(g=-0.1, gamma=0.05, hopping=1.0)


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def reference_field_run():
    """Moving soliton on the benchmark grid: L = 400, dx = 0.1, Jt = 50,
    with the dispersion stepped exactly, at the preset of fig3a's copy of
    this solve."""
    coords = SolitonCoords(psi=1.0, x0=100.0, v=0.48, w=math.sqrt(20.0),
                           d=0.0, phi=0.0)
    field0 = make_soliton_field(coords, 400.0, 4000, PERIODIC)
    times = np.linspace(0.0, 50.0, 201)
    series = solve(
        OdeProblem(make_pcdnse_ode(field0, EFF), times, field0.psi,
                   linear=dispersion_part(field0, EFF)),
        solver_preset("pcdnse_tight"))
    fields = [field0.with_psi(s) for s in series.states]
    return series.times, fields


def _experiment(tmp_path_factory, figure):
    return run_experiment(ExperimentConfig(
        figure=figure, out_dir=tmp_path_factory.mktemp(figure)))


@pytest.fixture(scope="module")
def damping_report(tmp_path_factory):
    return _experiment(tmp_path_factory, "fig4")


@pytest.fixture(scope="module")
def cross_model_report(tmp_path_factory):
    return _experiment(tmp_path_factory, "fig3b")


@pytest.fixture(scope="module")
def stabilization_report(tmp_path_factory):
    return _experiment(tmp_path_factory, "fig5")


@pytest.fixture(scope="module")
def two_soliton_report(tmp_path_factory):
    return _experiment(tmp_path_factory, "fig6")


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_field_particle_conservation(reference_field_run):
    _, fields = reference_field_run
    n = np.array([particle_number(f) for f in fields])
    drift = float(np.max(np.abs(n / n[0] - 1.0)))
    print(f"criterion 1: max |N(t)/N(0) - 1| = {drift:.3e}  (bound 1e-6)")
    assert drift < 1e-6


def test_criterion_02_lattice_occupation_conservation():
    # L = 800 member of the scaling family (peak 0.5, width 2 sqrt(20))
    coords = SolitonCoords(psi=0.5, x0=200.0, v=0.24, w=2.0 * math.sqrt(20.0),
                           d=0.0, phi=0.0)
    field0 = make_soliton_field(coords, 800.0, 800, PERIODIC)
    times = np.linspace(0.0, 50.0, 11)
    series = solve(
        OdeProblem(make_chain_ode(EFF, PERIODIC), times, field0.psi),
        solver_preset("pcdnse"))
    occ = np.array([float(np.sum(np.abs(s) ** 2)) for s in series.states])
    drift = float(np.max(np.abs(occ / occ[0] - 1.0)))
    print(f"criterion 2: max |sum|b|^2 drift| = {drift:.3e}  (bound 1e-6)")
    assert drift < 1e-6


def test_criterion_03_energy_monotonic_and_rate_exact(reference_field_run):
    times, fields = reference_field_run
    e = np.array([field_energy(f, EFF) for f in fields])
    max_increment = float(np.max(np.diff(e)))
    bound = 1e-8 * abs(e[0])
    print(f"criterion 3: max energy increment = {max_increment:.3e}  "
          f"(bound {bound:.3e})")
    assert max_increment < bound

    rate = np.array([field_energy_decay_rate(f, EFF) for f in fields])
    h = times[1] - times[0]
    fd_slope = (e[2:] - e[:-2]) / (2.0 * h)
    mid = rate[1:-1]
    mask = np.abs(mid) > 1e-8
    assert mask.any()
    rel = np.max(np.abs(fd_slope[mask] - mid[mask]) / np.abs(mid[mask]))
    print(f"criterion 3: max |rate - dE/dt|/|rate| = {rel:.3e}  (bound 1e-3)")
    assert rel < 1e-3


def test_criterion_04_velocity_damping_law(damping_report):
    rows = sorted(damping_report["rows"], key=lambda r: r["gamma"])
    assert not damping_report["failures"]
    assert len(rows) == 5
    for row in rows:
        assert row["method"] == "rkf78"
        tol = 0.10 if row["gamma"] < 0 else 0.05
        print(f"criterion 4: gamma={row['gamma']:+.4f}  "
              f"predicted={row['predicted_rate']:+.4e}  "
              f"measured={row['measured_rate']:+.4e}  "
              f"rel.err={row['relative_error']:.3f}  (bound {tol})")
        assert row["relative_error"] < tol
    blue = rows[0]
    assert blue["gamma"] == -0.0125
    assert blue["measured_rate"] < 0          # energy pumped in: v grows
    assert all(damping_report["checks"].values())


def test_criterion_05_stable_soliton_fixed_point():
    ss = stable_soliton(2.0 * math.sqrt(20.0), EFF)
    times = np.linspace(0.0, 100.0, 21)
    series = solve(
        OdeProblem(make_collective_ode(EFF), times, ss.coords().to_array()),
        SolverConfig(rtol=1e-11, atol=1e-13))
    psi = series.states.real[:, 0]
    w = series.states.real[:, 3]
    psi_dev = float(np.max(np.abs(psi / ss.amplitude - 1.0)))
    n = 2.0 * psi**2 * w
    n_drift = float(np.max(np.abs(n / n[0] - 1.0)))
    print(f"criterion 5: max |psi/psi_ss - 1| = {psi_dev:.3e}  (bound 1e-8); "
          f"max N drift = {n_drift:.3e}  (bound 1e-10)")
    assert psi_dev < 1e-8
    assert n_drift < 1e-10


def test_criterion_06_reduction_consistency():
    ss = stable_soliton(2.0 * math.sqrt(20.0), EFF)
    v0, x00 = 0.49, 100.0
    times = np.linspace(0.0, 50.0, 11)
    series = solve(
        OdeProblem(make_collective_ode(EFF), times,
                   ss.coords(x0=x00, v=v0).to_array()),
        SolverConfig(rtol=1e-12, atol=1e-14))
    x_ref, v_ref, _ = stable_closed_form(series.times, x00, v0, 0.0, ss)
    x_err = float(np.max(np.abs(series.states.real[:, 1] / x_ref - 1.0)))
    v_err = float(np.max(np.abs(series.states.real[:, 2] / v_ref - 1.0)))
    print(f"criterion 6: max rel err x0 = {x_err:.3e}, v = {v_err:.3e}  "
          f"(bound 1e-8)")
    assert x_err < 1e-8
    assert v_err < 1e-8

    # phase-velocity identity: v x0' - phi' = dE/dN at fixed v; the energy
    # is cubic in N, so the five-point stencil below is exact
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(100):
        n = rng.uniform(0.5, 4.0)
        v = rng.uniform(0.3, 1.0)
        sn = stable_soliton(n, EFF)
        dx0, _, dphi = stable_rhs(0.0, v, 0.0, sn)
        h = 0.05 * n
        dedn = sum(
            c * stable_soliton(n + k * h, EFF).energy(v)
            for k, c in [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]
        ) / (12.0 * h)
        worst = max(worst, abs((v * dx0 - dphi) / dedn - 1.0))
    print(f"criterion 6: max identity violation = {worst:.3e}  (bound 1e-12)")
    assert worst < 1e-12


def test_criterion_07_cross_model_agreement(cross_model_report):
    assert not cross_model_report["failures"]
    for row in sorted(cross_model_report["rows"], key=lambda r: r["delta"]):
        print(f"criterion 7: delta={row['delta']:+.1f} L={row['sites']}  "
              f"linf_rel={row['linf_rel_langevin_vs_lattice']:.4f}  "
              f"r1={row['r1']:.3f} r2={row['r2']:.3f}")
    checks = cross_model_report["checks"]
    assert checks["weak_detuning_agrees"]           # < 5% of peak
    assert checks["weak_detuning_within_advisory"]
    assert checks["strong_detuning_disagrees"]      # > 5% at delta = -2J
    assert checks["strong_detuning_flagged"]        # ratio advisory fires


def test_criterion_08_shape_stabilization(stabilization_report):
    assert not stabilization_report["failures"]
    for row in stabilization_report["rows"]:
        print(f"criterion 8: delta={row['delta']:+.2f}  "
              f"max_peak_deviation={row['max_peak_deviation']:.4f}  "
              f"breakup_time={row['breakup_time']}")
    checks = stabilization_report["checks"]
    assert checks["small_perturbation_bounded"]         # <= 2|delta| psi_ss
    assert checks["small_perturbation_envelope_contracts"]
    assert checks["large_perturbation_breaks_up"]       # within Jt <= 200
    assert checks["negative_perturbation_survives"]


def test_criterion_09_two_soliton_dissipation(two_soliton_report):
    assert not two_soliton_report["failures"]
    for row in two_soliton_report["rows"]:
        print(f"criterion 9: gamma={row['gamma']:.3f}  "
              f"pre-collision band={row['pre_collision_band']:.4f}  "
              f"final ratio={row['final_ratio']:.4f}")
    checks = two_soliton_report["checks"]
    assert checks["conservative_ratio_within_band"]     # 1 +- 0.01 at gamma=0
    assert checks["dissipative_pre_collision_within_band"]
    assert checks["collision_enhances_dissipation"]


def test_criterion_10_micro_oracles():
    rng = np.random.default_rng(20260816)

    # generic flow == specialized chain flow, 1000 random states, L = 16
    eff = EffectiveParams(g=-0.1, delta_g=-0.0065, gamma=0.05, hopping=1.0)
    grad = chain_hamiltonian_gradient(eff.hopping, eff.g - eff.delta_g,
                                      PERIODIC)
    chain_rhs = make_chain_ode(eff, PERIODIC)
    worst = 0.0
    for _ in range(1000):
        b = random_complex(rng, 16)
        diff = np.abs(general_effective_rhs(b, grad, eff) - chain_rhs(0.0, b))
        worst = max(worst, float(np.max(diff)))
    print(f"criterion 10: generic vs specialized max diff = {worst:.3e}  "
          f"(bound 1e-14)")
    assert worst < 1e-14

    # two-site ring at g = 0: occupation swings as cos^2(2Jt)
    times = np.linspace(0.0, 5.0, 26)
    series = solve(
        OdeProblem(make_chain_ode(EffectiveParams(g=0.0, hopping=1.0),
                                  PERIODIC),
                   times, np.array([1.0 + 0j, 0.0 + 0j])),
        SolverConfig(rtol=1e-12, atol=1e-12))
    occ_err = float(np.max(np.abs(np.abs(series.states[:, 0]) ** 2
                                  - np.cos(2.0 * times) ** 2)))
    print(f"criterion 10: two-site max error = {occ_err:.3e}  (bound 1e-8)")
    assert occ_err < 1e-8

    # plane waves are eigenvectors: i db/dt = (g|c|^2 + 4J sin^2(k/2)) b
    sites = np.arange(16)
    disp_err = 0.0
    for m in (1, 3, 5, 7):
        k = 2.0 * np.pi * m / 16
        b = 0.8 * np.exp(1j * k * sites)
        omega = EFF.g * 0.64 + 4.0 * EFF.hopping * np.sin(k / 2.0) ** 2
        diff = np.abs(1j * make_chain_ode(EFF, PERIODIC)(0.0, b) - omega * b)
        disp_err = max(disp_err, float(np.max(diff)))
    print(f"criterion 10: dispersion max residual = {disp_err:.3e}  "
          f"(bound 1e-10)")
    assert disp_err < 1e-10

    # fit round-trip on the benchmark grid: every coordinate within 1e-6
    truth = SolitonCoords(psi=1.0, x0=200.0, v=0.3, w=math.sqrt(20.0),
                          d=0.005, phi=0.7)
    fit = fit_soliton(make_soliton_field(truth, 400.0, 4000))
    errs = {name: abs(getattr(fit.coords, name) - getattr(truth, name))
            for name in ("psi", "x0", "v", "w", "d", "phi")}
    print(f"criterion 10: fit round-trip max coordinate error = "
          f"{max(errs.values()):.3e}  (bound 1e-6)")
    assert fit.converged
    assert all(err < 1e-6 for err in errs.values()), errs
