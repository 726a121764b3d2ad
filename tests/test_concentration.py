import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from orlicz4d import concentration as conc
from orlicz4d.bubbles import eta_callables

PI2 = np.pi ** 2


def test_split_sums_to_totals():
    rep = conc.pair_concentration(30.0, conc.gaussian_test)
    assert abs(rep.pairing_lap - sum(rep.split["lap"].values())) <= 1e-12
    assert abs(rep.pairing_exp - sum(rep.split["exp"].values())) \
        <= 1e-10 * abs(rep.pairing_exp)


def test_zero_test_function():
    rep = conc.pair_concentration(25.0, lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    assert rep.pairing_lap == 0.0
    assert rep.pairing_exp == 0.0
    assert rep.phi_at_zero == 0.0


def test_plateau_lap_pairing_alpha50():
    rep = conc.pair_concentration(50.0, conc.plateau_test)
    assert rep.phi_at_zero == 1.0
    assert abs(rep.pairing_lap - 1.0) <= 0.03
    # exterior region invisible to a bump supported in r < 1
    assert rep.split["lap"]["outer"] == 0.0
    assert rep.split["exp"]["outer"] == 0.0


def test_gaussian_pairings_alpha80():
    rep = conc.pair_concentration(80.0, conc.gaussian_test)
    assert abs(rep.pairing_lap - 1.0) <= 0.03
    assert abs(rep.pairing_exp - conc.EXP_TOTAL_LIMIT) <= 0.10 * conc.EXP_TOTAL_LIMIT
    assert abs(rep.split["exp"]["inner"] - conc.EXP_INNER_LIMIT) \
        <= 0.10 * conc.EXP_INNER_LIMIT
    assert abs(rep.split["exp"]["annulus"] - conc.EXP_ANNULUS_LIMIT) \
        <= 0.10 * conc.EXP_ANNULUS_LIMIT


def test_limit_constants():
    assert abs(conc.EXP_TOTAL_LIMIT - 35.5294) <= 1e-4
    assert abs(conc.EXP_INNER_LIMIT - 30.5946) <= 1e-4
    assert abs(conc.EXP_ANNULUS_LIMIT - 4.9348) <= 1e-4


def test_report_dict_fields():
    rep = conc.pair_concentration(20.0, conc.gaussian_test)
    d = rep.to_dict()
    assert set(d) == {"alpha", "pairing_lap", "pairing_exp", "split", "split_error",
                      "phi_at_zero"}
    for key in ("split", "split_error"):
        assert set(d[key]) == {"lap", "exp"}
        assert set(d[key]["lap"]) == {"inner", "annulus", "outer"}
        assert set(d[key]["exp"]) == {"inner", "annulus", "outer"}


def test_alpha_floor():
    with pytest.raises(ValueError):
        conc.pair_concentration(1.0, conc.gaussian_test)


def test_huge_alpha_pairings_at_their_limits():
    # the annulus is integrated at u and alpha - u for u <= alpha/2, so no
    # panel edge rounds to alpha and no exponent overflows (warnings fail)
    for a in (1e10, 1e100, 1e300):
        rep = conc.pair_concentration(a, conc.gaussian_test)
        assert abs(rep.pairing_exp - conc.EXP_TOTAL_LIMIT) <= 1e-8 * conc.EXP_TOTAL_LIMIT
        assert abs(rep.pairing_lap - 1.0) <= 1e-8


def _quad_oracle(a: float, phi) -> dict:
    """The six split terms by scalar adaptive quadrature at tight tolerances,
    on the same substitutions and breakpoints as the pairings."""
    ea = np.exp(-a)
    eta, _, _, lap_eta = eta_callables(a)
    phi1 = lambda r: float(phi(np.array([r]))[0])
    ev = lambda fn, r: float(fn(np.array([r]))[0])

    def q(fn, lo, hi, pts=None):
        with warnings.catch_warnings():
            # at these tolerances quad reports that rounding limits it
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(fn, lo, hi, points=pts, epsabs=1e-15, epsrel=1e-14, limit=2000)[0]

    def exp_inner(t):
        z = 1.0 - t * t
        return (np.exp(4.0 * z + z * z / a) - np.exp(-4.0 * a)) * phi1(t * ea) * t ** 3

    return {
        "lap": {
            "inner": (4.0 / a) * q(lambda t: phi1(t * ea) * t ** 3, 0.0, 1.0),
            "annulus": (1.0 / a) * q(lambda u: phi1(np.exp(-u)), 0.0, a, [min(2.0, a / 2)]),
            "outer": 2.0 * PI2 * q(lambda r: ev(lap_eta, r) ** 2 * phi1(r) * r ** 3,
                                   1.0, 2.0, [1.3, 1.7, 1.95]),
        },
        "exp": {
            "inner": 2.0 * PI2 * q(exp_inner, 0.0, 1.0),
            "annulus": 2.0 * PI2 * q(
                lambda u: (np.exp(4.0 * u * u / a - 4.0 * u) - np.exp(-4.0 * u))
                * phi1(np.exp(-u)), 0.0, a, [a / 4, a / 2, 3 * a / 4]),
            "outer": 2.0 * PI2 * q(
                lambda r: np.expm1(32.0 * PI2 * ev(eta, r) ** 2) * phi1(r) * r ** 3,
                1.0, 2.0, [1.3, 1.7]),
        },
    }


@pytest.mark.parametrize("name", ["gaussian", "plateau"])
def test_split_terms_match_tight_quad_oracle(name):
    phi = conc.TEST_FUNCTIONS[name]
    sizes = []

    def recording_phi(r):
        assert isinstance(r, np.ndarray) and r.ndim == 1
        sizes.append(r.size)
        return phi(r)

    for a in (2, 5, 20, 80, 200, 500):
        rep = conc.pair_concentration(a, recording_phi)
        want = _quad_oracle(float(a), phi)
        for kind in ("lap", "exp"):
            for region in ("inner", "annulus", "outer"):
                got, est = rep.split[kind][region], rep.split_error[kind][region]
                ref = want[kind][region]
                where = f"{name} alpha={a} {kind} {region}"
                assert abs(got - ref) <= 1e-10 * abs(ref), where
                assert est >= abs(got - ref), where
        if name == "plateau":
            # supported in r < 1: the exterior terms are exactly zero
            assert rep.split["lap"]["outer"] == 0.0 and rep.split["exp"]["outer"] == 0.0
    # per call: one array of nodes per region, and phi(0)
    assert len(sizes) == 6 * 4 and min(sizes) == 1
