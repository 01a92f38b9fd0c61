"""Closed-form primitives of the overlapping-generations economy.

Production is Cobb-Douglas with full depreciation, so with capital
intensity ``k`` the factor prices are::

    1 + r = alpha * k**(alpha - 1)        w = (1 - alpha) * k**alpha

and ``w = xi * (1 + r) * k`` with ``xi = (1 - alpha) / alpha``.

The government spends a share ``phi`` of output, financed by a labour
income tax ``tau_w`` and a tax ``tau_s`` on gross capital income
(inherited wealth plus its return).  A balanced budget forces::

    alpha * tau_s + (1 - alpha) * tau_w = phi

so, given ``phi``, both rates are pinned down by the single tilt ratio
``nu = (1 - tau_s) / (1 - tau_w)``.  Keeping both rates in [0, 1)
confines ``nu`` to ``[nu_lower, nu_upper]`` where
``nu_lower = 1 - phi/alpha`` and ``nu_upper = 1 / (1 - phi/(1-alpha))``;
these bounds are meaningful only under ``phi/alpha < 1`` and
``phi/(1-alpha) < 1``, which parameter validation enforces.

The long-run savings rate of an economy whose savers hold envy weight
``gamma`` and make up a population share ``m`` is the closed form
implemented by :func:`savings_rate`; capital intensity in the matching
steady state is the positive root of ``k = s * k**alpha``, i.e.
``s**(1/(1-alpha))``.  The envy threshold ``gamma_star(nu)`` separates
the regime where everybody saves from the regime where the poor stop
saving, and ``gamma_hat(nu)`` is the ceiling on the envy weight under
which a temporary equilibrium is guaranteed to exist.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    AltruismOverflow,
    AssumptionZeroViolated,
    DomainError,
    EnvyBoundWarning,
    ModelError,
    NuOutOfBounds,
)

#: Absolute tolerance for algebraic identities (budget balance, fixed-point
#: residuals of closed forms).
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class EconomyParams:
    """Technology, preference and government primitives.

    alpha     capital share of output, in (0, 1)
    delta     parental altruism weight, > 0, with n_agents * (1 + delta) finite
    phi       government spending share of output, in [0, 1)
    n_agents  number of dynasties, integer >= 2
    """

    alpha: float
    delta: float
    phi: float
    n_agents: int

    def __post_init__(self):
        if not isinstance(self.n_agents, int) or isinstance(self.n_agents, bool):
            raise DomainError(f"n_agents must be an integer, got {self.n_agents!r}")
        if self.n_agents < 2:
            raise DomainError(f"n_agents must be >= 2, got {self.n_agents}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.delta < float("inf"):
            raise DomainError(f"delta must be finite and > 0, got {self.delta}")
        # the period solver's products of delta with parameters alone, N*(1 + delta) and the
        # smaller a*delta*z (a <= N, z < 1) and 2*(1 + delta), are then finite; more dynasties
        # than any array holds never reach it, and are rejected where a start is built
        if self.n_agents <= sys.maxsize and not self.n_agents * (1.0 + self.delta) < float("inf"):
            raise AltruismOverflow(
                f"delta={self.delta} overflows n_agents * (1 + delta), the period "
                f"solver's denominator, at n_agents={self.n_agents}"
            )
        if not 0.0 <= self.phi < 1.0:
            raise DomainError(f"phi must lie in [0, 1), got {self.phi}")
        if self.phi >= self.alpha or self.phi >= 1.0 - self.alpha:
            raise AssumptionZeroViolated(
                f"phi={self.phi} needs phi/alpha < 1 and phi/(1-alpha) < 1 "
                f"(alpha={self.alpha}); the implied maximal tax rate would "
                "reach or exceed 100%"
            )

    @property
    def xi(self) -> float:
        """Labour-to-capital income ratio (1 - alpha) / alpha."""
        return (1.0 - self.alpha) / self.alpha

    @property
    def tau_w_max(self) -> float:
        """Labour tax rate at which the capital tax hits zero."""
        return self.phi / (1.0 - self.alpha)

    @property
    def tau_s_max(self) -> float:
        """Capital tax rate at which the labour tax hits zero."""
        return self.phi / self.alpha

    @property
    def nu_lower(self) -> float:
        return 1.0 - self.tau_s_max

    @property
    def nu_upper(self) -> float:
        return 1.0 / (1.0 - self.tau_w_max)


def validate_params(
    alpha: float, delta: float, phi: float, n_agents: int
) -> EconomyParams:
    """Build :class:`EconomyParams`, rejecting any invalid combination."""
    return EconomyParams(alpha=alpha, delta=delta, phi=phi, n_agents=n_agents)


@dataclass(frozen=True)
class TaxRates:
    """Balanced-budget tax pair and the tilt ratio that generated it."""

    tau_w: float
    tau_s: float
    nu: float


@dataclass(frozen=True)
class FactorPrices:
    """Competitive factor prices at a given capital intensity."""

    gross_return: float  # 1 + r, output units per unit of capital
    wage: float  # w, output units per unit of labour


def gross_return(k: float, alpha: float) -> float:
    """Marginal product of capital 1 + r = alpha*k**(alpha-1), for a float k > 0.

    Raises :class:`ModelError` where the power leaves the float range, as a
    tiny ``k`` under a small ``alpha`` can make it.
    """
    try:
        return alpha * k ** (alpha - 1.0)
    except OverflowError:
        msg = f"gross return alpha*k**(alpha-1) overflows at k={k}, alpha={alpha}"
        raise ModelError(msg) from None


def factor_prices(k: float, params: EconomyParams) -> FactorPrices:
    """Marginal-product prices: 1 + r = alpha*k**(alpha-1), w = (1-alpha)*k**alpha."""
    if not k > 0.0:
        raise DomainError(f"capital intensity must be > 0, got {k}")
    a = params.alpha
    return FactorPrices(gross_return=gross_return(k, a), wage=(1.0 - a) * k**a)


def tax_rates(nu: float, params: EconomyParams) -> TaxRates:
    """Tax rates implied by the tilt ratio nu under a balanced budget.

    tau_w = 1 - (1-phi) / (alpha*nu + 1-alpha)
    tau_s = 1 - nu*(1-phi) / (alpha*nu + 1-alpha)
    """
    if not params.nu_lower <= nu <= params.nu_upper:
        raise NuOutOfBounds(
            f"nu={nu} outside [{params.nu_lower}, {params.nu_upper}] "
            f"(phi={params.phi}, alpha={params.alpha})"
        )
    q = params.alpha * nu + 1.0 - params.alpha
    net_w = (1.0 - params.phi) / q
    return TaxRates(tau_w=1.0 - net_w, tau_s=1.0 - nu * net_w, nu=nu)


def savings_rate(gamma: float, m: float, nu: float, params: EconomyParams) -> float:
    """Long-run savings rate of an economy with saver share m and envy gamma.

        s = (1-phi)/(alpha + (1-alpha)/nu)
            * alpha*delta*(1 + m*xi/nu + gamma*(1-m))
            / ((1 + delta + m*xi/nu)*(1+gamma) - m*delta*gamma)

    Strictly decreasing in gamma, strictly increasing in nu (for phi > 0).
    Emits :class:`EnvyBoundWarning` when gamma reaches the existence
    ceiling gamma_hat(nu): the value is still well defined but no
    temporary equilibrium is guaranteed there.
    """
    if not 0.0 < m <= 1.0:
        raise DomainError(f"saver share m must lie in (0, 1], got {m}")
    if not 0.0 <= gamma < float("inf"):
        raise DomainError(f"envy weight must be finite and >= 0, got {gamma}")
    if not 0.0 < nu < float("inf"):
        raise DomainError(f"nu must be finite and > 0, got {nu}")
    if gamma >= gamma_hat(nu, params):
        warnings.warn(
            f"gamma={gamma} >= gamma_hat(nu)={gamma_hat(nu, params)}; "
            "no temporary equilibrium is guaranteed at this envy weight",
            EnvyBoundWarning,
            stacklevel=2,
        )
    a, d = params.alpha, params.delta
    x = params.xi / nu
    prefactor = (1.0 - params.phi) / (a + (1.0 - a) / nu)
    numerator = a * d * (1.0 + m * x + gamma * (1.0 - m))
    denominator = (1.0 + d + m * x) * (1.0 + gamma) - m * d * gamma
    return prefactor * numerator / denominator


def steady_capital(gamma: float, m: float, nu: float, params: EconomyParams) -> float:
    """Unique positive root of k = s(gamma, m, nu) * k**alpha; DomainError if it underflows."""
    s = savings_rate(gamma, m, nu, params)
    k = s ** (1.0 / (1.0 - params.alpha))
    if not 0.0 < k < float("inf"):
        raise DomainError(f"steady-state capital {k} is not finite and > 0 at gamma={gamma}")
    return k


def gamma_star(nu: float, params: EconomyParams) -> float:
    """Envy threshold delta*xi/(xi + nu), decreasing in nu.

    Below it every dynasty keeps saving; above it the poor stop.
    """
    if not nu > 0.0:
        raise DomainError(f"nu must be > 0, got {nu}")
    return params.delta * params.xi / (params.xi + nu)


def gamma_hat(nu: float, params: EconomyParams) -> float:
    """Existence ceiling for the envy weight at tilt nu.

    With x = xi/nu this is x*(x + 1 + delta)/(x + 1), equivalently
    x + gamma_star(nu); decreasing in nu, so its minimum over the
    admissible segment sits at nu_upper.  Where ``x * (x + 1 + delta)``
    overflows (``delta`` near the float maximum) it divides first.
    """
    if not nu > 0.0:
        raise DomainError(f"nu must be > 0, got {nu}")
    x = params.xi / nu
    lift = x + 1.0 + params.delta
    if float(x) * float(lift) < float("inf"):  # Python floats overflow without a warning
        return x * lift / (x + 1.0)
    return x * (lift / (x + 1.0))


class NuForGamma(NamedTuple):
    nu: float
    clamped: bool
    raw: float


def nu_for_gamma(gamma_target: float, params: EconomyParams) -> NuForGamma:
    """Invert gamma_star: the tilt at which the envy threshold equals gamma_target.

    The algebraic solution is delta*xi/gamma - xi.  Values outside the
    admissible segment are clamped to the nearest bound and flagged;
    values within 1e-12 of a bound snap to it unflagged, so that exact
    round trips are not spuriously reported as clamps.
    """
    if not 0.0 < gamma_target < float("inf"):
        raise DomainError(f"gamma_target must be finite and > 0, got {gamma_target}")
    raw = params.delta * params.xi / gamma_target - params.xi
    lo, hi = params.nu_lower, params.nu_upper
    for bound in (lo, hi):
        if abs(raw - bound) <= 1e-12 * max(1.0, abs(bound)):
            return NuForGamma(nu=bound, clamped=False, raw=raw)
    if raw < lo:
        return NuForGamma(nu=lo, clamped=True, raw=raw)
    if raw > hi:
        return NuForGamma(nu=hi, clamped=True, raw=raw)
    return NuForGamma(nu=raw, clamped=False, raw=raw)
