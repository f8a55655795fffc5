"""Closed-form effective constants, the inverse map, and validity ratios.

Frozen values below were computed by hand from the adiabatic-elimination
formulas (rational arithmetic where the decimals terminate).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pcdnse.params import (
    OPEN,
    PERIODIC,
    WEAK_COUPLING_ADVISORY,
    ChainParams,
    DegenerateDenominatorError,
    EffectiveParams,
    ReservoirParams,
    UnsolvableSignError,
    effective_params,
    invert_for_chi_alpha,
    weak_coupling_ratios,
)


def chain(alpha: float = -0.1, sites: int = 16, **kw) -> ChainParams:
    return ChainParams(hopping=1.0, anharmonicity=alpha, sites=sites, **kw)


# ---------------------------------------------------------------------------
# forward map


def test_forward_constants_frozen_values():
    # chi=0.05, eta=kappa=1, delta=-0.1:
    #   delta_g = 2 chi^2 delta / 0.26^2 = -0.0005/0.0676
    #   gamma   = 0.4 chi^2 / 0.26^3     =  0.001/0.017576
    res = ReservoirParams(chi=0.05, eta=1.0, kappa=1.0, delta=-0.1)
    eff = effective_params(res, chain())
    assert_allclose(eff.delta_g, -0.0073964497041420114, rtol=1e-13)
    assert_allclose(eff.gamma, 0.05689576695493855, rtol=1e-13)
    assert_allclose(eff.g, -0.1 + eff.delta_g, rtol=0, atol=0)
    assert eff.hopping == 1.0


def test_red_detuning_damps_blue_antidamps():
    red = effective_params(ReservoirParams(0.05, 1.0, 1.0, -0.3), chain())
    blue = effective_params(ReservoirParams(0.05, 1.0, 1.0, +0.3), chain())
    assert red.gamma > 0 > blue.gamma


def test_zero_coupling_leaves_bare_chain():
    eff = effective_params(ReservoirParams(0.0, 1.0, 1.0, -0.5), chain(-0.2))
    assert eff.delta_g == 0.0
    assert eff.gamma == 0.0
    assert eff.g == -0.2


def test_degenerate_cavity_response_rejected():
    with pytest.raises(DegenerateDenominatorError):
        res = ReservoirParams(chi=0.1, eta=1.0, kappa=0.0, delta=0.0)
        effective_params(res, chain())


@pytest.mark.parametrize("kappa, delta", [
    (0.0, 0.0), (0.0, -1e-200), (1e-170, 1e-170),
    (0.0, -1e-60), (0.0, -1e-160), (1e-60, 0.0), (1e-110, 0.0)])
def test_degenerate_reservoir_is_rejected_when_built(kappa, delta):
    # kappa**2/4 + delta**2 underflows to zero in the second and third; in
    # the last four only its cube does, which effective_params divides by
    with pytest.raises(DegenerateDenominatorError, match="singular"):
        ReservoirParams(chi=0.1, eta=1.0, kappa=kappa, delta=delta)


@given(chi=st.floats(1e-3, 1.0), eta=st.floats(0.1, 3.0),
       kappa=st.floats(0.1, 5.0), delta=st.floats(-4.0, 4.0))
def test_shift_and_rate_are_odd_in_detuning(chi, eta, kappa, delta):
    here = effective_params(ReservoirParams(chi, eta, kappa, delta), chain())
    mirror = effective_params(ReservoirParams(chi, eta, kappa, -delta),
                              chain())
    assert_allclose(mirror.delta_g, -here.delta_g, rtol=1e-14, atol=1e-300)
    assert_allclose(mirror.gamma, -here.gamma, rtol=1e-14, atol=1e-300)


@given(chi=st.floats(1e-3, 1.0), eta=st.floats(0.1, 3.0),
       kappa=st.floats(0.1, 5.0), delta=st.floats(-4.0, 4.0))
def test_rate_ties_to_shift_through_cavity_response(chi, eta, kappa, delta):
    # gamma (delta^2 + kappa^2/4) = -2 kappa delta_g, independent of drive
    eff = effective_params(ReservoirParams(chi, eta, kappa, delta), chain())
    lhs = eff.gamma * (delta**2 + kappa**2 / 4.0)
    assert_allclose(lhs, -2.0 * kappa * eff.delta_g, rtol=1e-13, atol=1e-300)


def test_rate_extremum_sits_at_kappa_over_root20():
    import numpy as np

    kappa = 1.3
    deltas = -np.linspace(1e-3, 1.5, 4001)
    gam = [effective_params(ReservoirParams(0.05, 1.0, kappa, d),
                            chain()).gamma for d in deltas]
    best = deltas[int(np.argmax(gam))]
    assert_allclose(-best, kappa / math.sqrt(20.0), atol=2e-3)


# ---------------------------------------------------------------------------
# inverse map


def test_inversion_frozen_working_point():
    # g=-0.1, gamma=0.05 at eta=kappa=1, delta=-0.1:
    #   chi^2 = 0.05 * 0.26^3 / 0.4 = 0.002197, delta_g = -0.0065 exactly
    chi, alpha = invert_for_chi_alpha(-0.1, 0.05, eta=1.0, kappa=1.0,
                                      delta=-0.1)
    assert_allclose(chi**2, 0.002197, rtol=1e-13)
    assert_allclose(chi, 0.04687216658103186, rtol=1e-13)
    assert_allclose(alpha, -0.0935, rtol=1e-13)


def test_inversion_strong_detuning_flips_anharmonicity_sign():
    chi, alpha = invert_for_chi_alpha(-0.1, 0.05, eta=1.0, kappa=1.0,
                                      delta=-2.0)
    assert_allclose(chi, 0.6926652555527815, rtol=1e-13)
    # the induced shift (-0.10625) overshoots the target g
    assert_allclose(alpha, 0.00625, rtol=1e-12)


@given(g=st.floats(-0.5, 0.5), gamma=st.floats(1e-4, 0.5),
       eta=st.floats(0.2, 2.0), kappa=st.floats(0.2, 3.0),
       delta=st.floats(-3.0, -0.05))
@settings(max_examples=200)
def test_inversion_round_trips(g, gamma, eta, kappa, delta):
    chi, alpha = invert_for_chi_alpha(g, gamma, eta=eta, kappa=kappa,
                                      delta=delta)
    eff = effective_params(ReservoirParams(chi, eta, kappa, delta),
                           chain(alpha))
    assert_allclose(eff.g, g, rtol=1e-12, atol=1e-14)
    assert_allclose(eff.gamma, gamma, rtol=1e-12)


def test_inversion_zero_rate_shorts_to_bare_chain():
    chi, alpha = invert_for_chi_alpha(-0.3, 0.0, eta=1.0, kappa=1.0,
                                      delta=-0.1)
    assert chi == 0.0
    assert alpha == -0.3


def test_drive_and_coupling_trade_off():
    # only the product chi*eta enters, so doubling the drive halves chi
    chi1, alpha1 = invert_for_chi_alpha(-0.1, 0.05, eta=1.0, kappa=1.0,
                                        delta=-0.1)
    chi2, alpha2 = invert_for_chi_alpha(-0.1, 0.05, eta=2.0, kappa=1.0,
                                        delta=-0.1)
    assert_allclose(chi2, chi1 / 2.0, rtol=1e-13)
    assert_allclose(alpha2, alpha1, rtol=1e-13)


def test_inversion_wrong_sign_has_no_solution():
    # positive rate needs red detuning
    with pytest.raises(UnsolvableSignError):
        invert_for_chi_alpha(-0.1, 0.05, eta=1.0, kappa=1.0, delta=+0.1)
    # anti-damping needs blue
    with pytest.raises(UnsolvableSignError):
        invert_for_chi_alpha(-0.1, -0.05, eta=1.0, kappa=1.0, delta=-0.1)
    with pytest.raises(UnsolvableSignError):
        invert_for_chi_alpha(-0.1, 0.05, eta=0.0, kappa=1.0, delta=-0.1)


# ---------------------------------------------------------------------------
# weak-coupling ratios


def test_ratio_frozen_values_weak_and_strong():
    ch = chain()
    weak = ReservoirParams(0.04687216658103186, 1.0, 1.0, -0.1)
    r1, r2 = weak_coupling_ratios(weak, ch, b_max=1.0)
    assert_allclose(r1, 0.09192388155425117, rtol=1e-12)
    assert_allclose(r2, 0.18027756377319945, rtol=1e-12)
    assert max(r1, r2) > WEAK_COUPLING_ADVISORY  # unit amplitude: marginal

    strong = ReservoirParams(0.6926652555527815, 1.0, 1.0, -2.0)
    r1, r2 = weak_coupling_ratios(strong, ch, b_max=1.0)
    assert_allclose(r1, 0.3359920013928903, rtol=1e-12)
    assert_allclose(r2, 0.16298006013006622, rtol=1e-12)
    assert max(r1, r2) > WEAK_COUPLING_ADVISORY


def test_ratios_scale_with_square_of_amplitude():
    res = ReservoirParams(0.05, 1.0, 1.0, -0.1)
    r1, r2 = weak_coupling_ratios(res, chain(), b_max=1.0)
    r1h, r2h = weak_coupling_ratios(res, chain(), b_max=0.5)
    assert_allclose((r1h, r2h), (r1 / 4.0, r2 / 4.0), rtol=1e-14)


def test_ratios_reject_degenerate_response_and_negative_amplitude():
    ch = chain()
    with pytest.raises(DegenerateDenominatorError):
        weak_coupling_ratios(ReservoirParams(0.1, 1.0, 0.0, 0.0), ch, 1.0)
    with pytest.raises(ValueError):
        weak_coupling_ratios(ReservoirParams(0.1, 1.0, 1.0, -0.1), ch, -1.0)


# ---------------------------------------------------------------------------
# validation


def test_reservoir_params_validation():
    with pytest.raises(ValueError):
        ReservoirParams(chi=-0.1, eta=1.0, kappa=1.0, delta=-0.1)
    with pytest.raises(ValueError):
        ReservoirParams(chi=0.1, eta=-1.0, kappa=1.0, delta=-0.1)
    with pytest.raises(ValueError):
        ReservoirParams(chi=0.1, eta=1.0, kappa=-1.0, delta=-0.1)
    with pytest.raises(ValueError):
        ReservoirParams(chi=0.1, eta=1.0, kappa=1.0, delta=math.nan)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(hopping=0.0, anharmonicity=0.0, sites=4)
    with pytest.raises(ValueError):
        ChainParams(hopping=1.0, anharmonicity=0.0, sites=1)
    with pytest.raises(ValueError):
        ChainParams(hopping=1.0, anharmonicity=0.0, sites=4, boundary="ring")
    assert ChainParams(1.0, 0.0, 2, OPEN).boundary == OPEN
    assert ChainParams(1.0, 0.0, 2).boundary == PERIODIC


def test_effective_params_validation():
    with pytest.raises(ValueError):
        EffectiveParams(g=-0.1, hopping=0.0)
    with pytest.raises(ValueError):
        EffectiveParams(g=math.inf)
    eff = EffectiveParams(g=-0.1)
    assert eff.gamma == 0.0 and eff.delta_g == 0.0 and eff.hopping == 1.0
