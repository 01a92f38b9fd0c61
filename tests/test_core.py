"""Closed-form primitives: validation, prices, taxes, savings, thresholds."""

import warnings

import numpy as np
import pytest

from joneses import (
    factor_prices,
    gamma_hat,
    gamma_star,
    nu_for_gamma,
    savings_rate,
    steady_capital,
    tax_rates,
    validate_params,
)
from joneses.errors import (
    AssumptionZeroViolated,
    DomainError,
    EnvyBoundWarning,
    NuOutOfBounds,
)
from support import BASELINE, TOL_IDENTITY, random_nu, random_params


class TestValidateParams:
    def test_baseline_derived_quantities(self):
        p = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=4)
        assert p.xi == pytest.approx(2.0, rel=1e-15)
        assert p.nu_lower == pytest.approx(0.7, abs=1e-15)
        assert p.nu_upper == pytest.approx(1 / 0.85, rel=1e-15)

    def test_spending_share_too_large_for_capital_share(self):
        with pytest.raises(AssumptionZeroViolated):
            validate_params(alpha=1 / 3, delta=1.0, phi=0.4, n_agents=4)

    def test_zero_spending_collapses_nu_segment(self):
        p = validate_params(alpha=0.5, delta=2.0, phi=0.0, n_agents=2)
        assert p.nu_lower == 1.0 == p.nu_upper
        t = tax_rates(1.0, p)
        assert t.tau_w == 0.0 and t.tau_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, delta=1.0, phi=0.1, n_agents=4),
            dict(alpha=1.0, delta=1.0, phi=0.1, n_agents=4),
            dict(alpha=0.5, delta=0.0, phi=0.1, n_agents=4),
            dict(alpha=0.5, delta=-1.0, phi=0.1, n_agents=4),
            dict(alpha=0.5, delta=1.0, phi=-0.1, n_agents=4),
            dict(alpha=0.5, delta=1.0, phi=1.0, n_agents=4),
            dict(alpha=0.5, delta=1.0, phi=0.1, n_agents=1),
            dict(alpha=0.5, delta=1.0, phi=0.1, n_agents=4.0),
            dict(alpha=0.5, delta=float("inf"), phi=0.1, n_agents=4),
            dict(alpha=0.5, delta=float("nan"), phi=0.1, n_agents=4),
        ],
    )
    def test_domain_rejections(self, kwargs):
        with pytest.raises(DomainError):
            validate_params(**kwargs)


class TestFactorPrices:
    def test_unit_capital(self):
        fp = factor_prices(1.0, BASELINE)
        assert fp.gross_return == pytest.approx(1 / 3, rel=1e-15)
        assert fp.wage == pytest.approx(2 / 3, rel=1e-15)

    def test_low_capital(self):
        fp = factor_prices(0.1, BASELINE)
        assert fp.gross_return == pytest.approx(1.5471962778709263, rel=1e-14)
        assert fp.wage == pytest.approx(0.3094392555741853, rel=1e-14)

    def test_wage_identity(self):
        rng = np.random.default_rng(7)
        for k in rng.uniform(0.01, 10.0, size=50):
            fp = factor_prices(k, BASELINE)
            assert fp.wage == pytest.approx(
                BASELINE.xi * fp.gross_return * k, rel=1e-12
            )

    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_nonpositive_capital_rejected(self, k):
        with pytest.raises(DomainError):
            factor_prices(k, BASELINE)


class TestTaxRates:
    def test_neutral_tilt(self):
        t = tax_rates(1.0, BASELINE)
        assert t.tau_w == pytest.approx(0.1, abs=1e-15)
        assert t.tau_s == pytest.approx(0.1, abs=1e-15)

    def test_upper_bound_zeroes_capital_tax(self):
        t = tax_rates(BASELINE.nu_upper, BASELINE)
        assert t.tau_w == pytest.approx(0.15, rel=1e-14)
        assert t.tau_s == pytest.approx(0.0, abs=1e-15)

    def test_lower_bound_zeroes_labour_tax(self):
        t = tax_rates(BASELINE.nu_lower, BASELINE)
        assert t.tau_w == pytest.approx(0.0, abs=1e-15)
        assert t.tau_s == pytest.approx(0.3, rel=1e-14)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(NuOutOfBounds):
            tax_rates(0.5, BASELINE)
        with pytest.raises(NuOutOfBounds):
            tax_rates(1.2, BASELINE)

    def test_balanced_budget_on_dense_grid(self):
        for nu in np.linspace(BASELINE.nu_lower, BASELINE.nu_upper, 1000):
            t = tax_rates(float(nu), BASELINE)
            lhs = BASELINE.alpha * t.tau_s + (1 - BASELINE.alpha) * t.tau_w
            assert abs(lhs - BASELINE.phi) < TOL_IDENTITY


class TestSavingsRate:
    def test_no_envy_full_saver_share(self):
        assert savings_rate(0.0, 1.0, 1.0, BASELINE) == pytest.approx(0.225, rel=1e-15)

    def test_threshold_identity(self):
        # at gamma_star the rate equals the benchmark that no longer depends on m
        gamma = gamma_star(1.0, BASELINE)
        benchmark = (
            (1 - BASELINE.phi)
            / (BASELINE.alpha + (1 - BASELINE.alpha) / 1.0)
            * BASELINE.alpha
            * BASELINE.delta
            / (1 + BASELINE.delta)
        )
        for m in (0.25, 0.5, 1.0):
            assert savings_rate(gamma, m, 1.0, BASELINE) == pytest.approx(
                benchmark, rel=1e-14
            )
        assert benchmark == pytest.approx(0.15, rel=1e-14)

    def test_polarised_rate(self):
        assert savings_rate(0.75, 0.25, 1.0, BASELINE) == pytest.approx(
            0.14776119402985075, rel=1e-14
        )

    @pytest.mark.parametrize("m", [0.0, -0.5, 1.5])
    def test_saver_share_domain(self, m):
        with pytest.raises(DomainError):
            savings_rate(0.0, m, 1.0, BASELINE)

    def test_negative_envy_rejected(self):
        with pytest.raises(DomainError):
            savings_rate(-0.1, 1.0, 1.0, BASELINE)

    @pytest.mark.parametrize(
        "gamma, nu",
        [(np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf), (0.0, np.nan), (0.0, 0.0), (0.0, -1.0)],
    )
    def test_envy_and_tilt_domain(self, gamma, nu):
        with pytest.raises(DomainError):
            savings_rate(gamma, 1.0, nu, BASELINE)

    def test_warns_at_existence_ceiling(self):
        with pytest.warns(EnvyBoundWarning):
            savings_rate(gamma_hat(1.0, BASELINE) + 0.1, 1.0, 1.0, BASELINE)

    def test_strictly_decreasing_in_gamma(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_params(rng)
            nu = random_nu(rng, p)
            m = rng.uniform(0.05, 1.0)
            cap = 0.95 * gamma_hat(nu, p)
            g1, g2 = sorted(rng.uniform(0.0, cap, size=2))
            if g1 == g2:
                continue
            assert savings_rate(g1, m, nu, p) > savings_rate(g2, m, nu, p)

    def test_strictly_increasing_in_nu(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 200:
            p = random_params(rng)
            if p.phi == 0.0 or p.nu_upper - p.nu_lower < 1e-9:
                continue
            n1, n2 = sorted(rng.uniform(p.nu_lower, p.nu_upper, size=2))
            if n1 == n2:
                continue
            m = rng.uniform(0.05, 1.0)
            gamma = rng.uniform(0.0, 0.9 * gamma_hat(p.nu_upper, p))
            assert savings_rate(gamma, m, n1, p) < savings_rate(gamma, m, n2, p)
            checked += 1

    def test_sign_agrees_with_threshold_gap(self):
        # s(gamma, m, nu) sits above/below the benchmark exactly as gamma
        # sits below/above gamma_star(nu), for every saver share
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            p = random_params(rng)
            nu = random_nu(rng, p)
            m = rng.uniform(0.05, 1.0)
            gamma = rng.uniform(0.0, 0.95 * gamma_hat(nu, p))
            star = gamma_star(nu, p)
            if abs(gamma - star) < 1e-9:
                continue
            benchmark = (
                (1 - p.phi)
                / (p.alpha + (1 - p.alpha) / nu)
                * p.alpha
                * p.delta
                / (1 + p.delta)
            )
            gap = savings_rate(gamma, m, nu, p) - benchmark
            assert np.sign(gap) == np.sign(star - gamma)
            checked += 1


class TestSteadyCapital:
    def test_closed_forms(self):
        assert steady_capital(0.0, 1.0, 1.0, BASELINE) == pytest.approx(
            0.225**1.5, rel=1e-13
        )
        assert steady_capital(0.75, 0.25, 1.0, BASELINE) == pytest.approx(
            0.14776119402985075**1.5, rel=1e-13
        )

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = random_params(rng)
            nu = random_nu(rng, p)
            gamma = rng.uniform(0.0, 0.9 * gamma_hat(nu, p))
            m = rng.uniform(0.05, 1.0)
            k = steady_capital(gamma, m, nu, p)
            s = savings_rate(gamma, m, nu, p)
            assert abs(k - s * k**p.alpha) < TOL_IDENTITY


class TestThresholds:
    def test_gamma_star_values(self):
        assert gamma_star(1.0, BASELINE) == pytest.approx(2 / 3, rel=1e-14)
        assert gamma_star(0.7, BASELINE) == pytest.approx(2 / 2.7, rel=1e-14)

    def test_gamma_star_decreasing(self):
        assert (
            gamma_star(0.7, BASELINE)
            > gamma_star(1.0, BASELINE)
            > gamma_star(1.17647, BASELINE)
        )

    def test_gamma_hat_values(self):
        assert gamma_hat(1.0, BASELINE) == pytest.approx(8 / 3, rel=1e-14)
        assert gamma_hat(1 / 0.85, BASELINE) == pytest.approx(
            1.7 * 3.7 / 2.7, rel=1e-13
        )

    def test_gamma_hat_minimal_at_upper_bound(self):
        grid = np.linspace(BASELINE.nu_lower, BASELINE.nu_upper, 200)
        ceiling = gamma_hat(BASELINE.nu_upper, BASELINE)
        assert all(gamma_hat(float(nu), BASELINE) >= ceiling for nu in grid)

    def test_star_below_hat_with_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_params(rng)
            nu = random_nu(rng, p)
            star, hat = gamma_star(nu, p), gamma_hat(nu, p)
            assert star < hat
            assert hat == pytest.approx(p.xi / nu + star, rel=1e-12)

    def test_gamma_hat_divides_first_where_the_product_overflows(self):
        # at N = 2 and the largest admitted delta, x * (x + 1 + delta) overflows on the
        # segment where the ceiling x + gamma_star(nu) does not; a numpy tilt used to warn
        p = validate_params(alpha=1 / 3, delta=8.98e307, phi=0.1, n_agents=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu in (p.nu_lower, 1.0, np.float64(p.nu_lower), np.float64(p.nu_upper)):
                hat = gamma_hat(nu, p)
                assert hat == pytest.approx(p.xi / nu + gamma_star(nu, p), rel=1e-15)
        # where the product is finite it goes first, as it always did
        for nu in (BASELINE.nu_lower, 1.0, np.float64(BASELINE.nu_upper)):
            x = BASELINE.xi / nu
            assert gamma_hat(nu, BASELINE) == x * (x + 1.0 + BASELINE.delta) / (x + 1.0)

    @pytest.mark.parametrize("fn", [gamma_star, gamma_hat])
    def test_nonpositive_nu_rejected(self, fn):
        with pytest.raises(DomainError):
            fn(0.0, BASELINE)


class TestNuForGamma:
    def test_inverse_of_threshold(self):
        res = nu_for_gamma(2 / 3, BASELINE)
        assert res.nu == pytest.approx(1.0, abs=TOL_IDENTITY)
        assert not res.clamped

    def test_bound_round_trip_unflagged(self):
        target = gamma_star(BASELINE.nu_lower, BASELINE)
        res = nu_for_gamma(target, BASELINE)
        assert res.nu == pytest.approx(BASELINE.nu_lower, abs=TOL_IDENTITY)
        assert not res.clamped

    def test_tiny_envy_clamps_to_upper(self):
        res = nu_for_gamma(0.01, BASELINE)
        assert res.raw == pytest.approx(198.0, rel=1e-12)
        assert res.clamped and res.nu == BASELINE.nu_upper

    def test_huge_envy_clamps_to_lower(self):
        res = nu_for_gamma(50.0, BASELINE)
        assert res.clamped and res.nu == BASELINE.nu_lower

    def test_round_trip_property(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = random_params(rng)
            nu = random_nu(rng, p)
            res = nu_for_gamma(gamma_star(nu, p), p)
            assert not res.clamped
            assert abs(res.nu - nu) < TOL_IDENTITY * max(1.0, nu)
            gamma = rng.uniform(
                gamma_star(p.nu_upper, p), gamma_star(p.nu_lower, p)
            )
            back = nu_for_gamma(gamma, p)
            if not back.clamped:
                assert gamma_star(back.nu, p) == pytest.approx(gamma, abs=TOL_IDENTITY)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(DomainError):
            nu_for_gamma(0.0, BASELINE)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan, -np.inf])
    def test_non_finite_target_rejected(self, gamma):
        with pytest.raises(DomainError):
            nu_for_gamma(gamma, BASELINE)
