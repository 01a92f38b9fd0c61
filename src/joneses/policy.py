"""Fiscal schedules, budget verification and the two-stage reform planner.

The government fixes the spending share ``phi`` and steers the economy
through the tilt ratio ``nu`` alone.  A schedule is piecewise-constant
in ``nu``; announcements are honoured one period ahead automatically,
because the path iterator looks up (nu_t, nu_{t+1}) for every period.

The reform planner removes the long-run trade-off between equality and
output: run a low tilt (heavy capital taxation) until inequality no
longer threatens egalitarian convergence under the high tilt, then
switch to the high tilt permanently, which yields a higher steady-state
capital stock.
"""

from __future__ import annotations

import bisect
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EconomyParams, gamma_star, steady_capital, tax_rates
from .envy import EnvySpec, as_distribution, gamma_uniform_top
from .equilibrium import TemporaryEquilibrium, _solve_one
from .errors import (
    BudgetViolation,
    DomainError,
    Infeasible,
    NonMonotoneSegments,
    ScheduleTooShort,
    ValidationError,
)

BUDGET_REL_TOL = 1e-10


@dataclass(frozen=True)
class FiscalSchedule:
    """Piecewise-constant tilt policy; the last segment extends forever."""

    phi: float
    segments: tuple[tuple[int, float], ...]  # (start_period, nu)

    @property
    def starts(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.segments)

    def nu_at(self, t: int) -> float:
        if t < 0:
            raise DomainError(f"period must be >= 0, got {t}")
        idx = bisect.bisect_right(self.starts, t) - 1
        return self.segments[idx][1]


def build_schedule(
    phi: float,
    segments: Sequence[tuple[int, float]],
    params: EconomyParams,
) -> FiscalSchedule:
    """Validate segment starts (integral numbers) and tilts (every tilt must price taxes)."""
    if phi != params.phi:
        raise ValidationError(
            "schedule.phi", f"spending share {phi} differs from params.phi={params.phi}"
        )
    segs = tuple((_start(s), float(nu)) for s, nu in segments)
    if not segs:
        raise ScheduleTooShort("schedule needs at least one segment")
    if segs[0][0] != 0:
        raise ScheduleTooShort(
            f"first segment must start at period 0, got {segs[0][0]}"
        )
    starts = [s for s, _ in segs]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise NonMonotoneSegments(f"segment starts must strictly increase: {starts}")
    for _, nu in segs:
        tax_rates(nu, params)  # raises NuOutOfBounds
    return FiscalSchedule(phi=phi, segments=segs)


def _start(value) -> int:
    """A segment start as an int; integral floats and numpy integers included."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise DomainError(f"segment start must be an integer, got {value!r}")
    return int(value)


def constant_schedule(nu: float, params: EconomyParams) -> FiscalSchedule:
    return build_schedule(params.phi, [(0, nu)], params)


@dataclass(frozen=True)
class BudgetReport:
    """Per-period government accounts: revenue vs. mandated spending."""

    revenue: float
    spending: float
    residual: float
    rel_residual: float


def budget_check(eq: TemporaryEquilibrium, params: EconomyParams) -> BudgetReport:
    """Verify tau_w*w*N + tau_s*(1+r)*K = phi*Y for an equilibrium record.

    Raises :class:`BudgetViolation` beyond a relative tolerance of 1e-10
    (absolute when spending is zero); a failure here means the tax
    algebra or the solver is broken, not the inputs.
    """
    n = params.n_agents
    capital = n * eq.k
    output = n * eq.output
    revenue = (
        eq.taxes.tau_w * eq.prices.wage * n
        + eq.taxes.tau_s * eq.prices.gross_return * capital
    )
    spending = params.phi * output
    residual = revenue - spending
    rel = residual / abs(spending) if spending != 0.0 else residual
    if abs(rel) > BUDGET_REL_TOL:
        raise BudgetViolation(
            f"government budget off by {residual} ({rel} relative) at nu={eq.taxes.nu}"
        )
    return BudgetReport(
        revenue=revenue, spending=spending, residual=residual, rel_residual=rel
    )


@dataclass(frozen=True)
class ReformPlan:
    """Two-stage tilt policy with a computed switch date."""

    stage1_nu: float
    stage2_nu: float
    margin: float
    trigger_period: int
    gamma_at_trigger: float
    projected_limit_k: float


def plan_reform(
    initial: Sequence[float] | np.ndarray,
    params: EconomyParams,
    envy: EnvySpec,
    stage1_nu: float,
    stage2_nu: float,
    margin: float = 0.01,
    max_horizon: int = 10_000,
) -> ReformPlan:
    """Find the first period at which switching to stage 2 is safely egalitarian.

    Stage 1 must itself point the economy at the egalitarian regime
    (initial envy weight below gamma_star(stage1_nu)), otherwise
    inequality would grow and no switch date exists.  The economy is
    then simulated under the constant stage-1 tilt until the envy weight
    that will govern the next period drops below
    gamma_star(stage2_nu) - margin; that period is the trigger, and
    ``gamma_at_trigger`` is the envy weight there on this stage-1-only
    path.  The schedule from :func:`compose_reform_schedule` announces
    stage 2 one period early, so its realised weight at the trigger
    differs (the test suite checks it also lies below the target).  The
    projected long-run capital is the egalitarian steady state under
    stage 2.  A stage-1 path that reaches its exact fixed point with the
    weight still at or above the target would repeat that period up to
    ``max_horizon``, so it raises :class:`Infeasible` there.
    ``max_horizon`` must be an integer >= 0.
    """
    integral = isinstance(max_horizon, numbers.Integral) and not isinstance(max_horizon, bool)
    if not (integral and max_horizon >= 0):
        raise DomainError(f"max_horizon must be an integer >= 0, got {max_horizon!r}")
    if not 0.0 < margin < np.inf:
        raise DomainError(f"margin must be finite and > 0, got {margin}")
    if stage2_nu < stage1_nu:
        raise ValidationError(
            "stage2_nu", f"reform must not lower the tilt ({stage2_nu} < {stage1_nu})"
        )
    tax_rates(stage1_nu, params)  # bounds check
    tax_rates(stage2_nu, params)
    beq = as_distribution(initial, params.n_agents)
    order = np.argsort(beq, kind="stable")
    gamma0 = float(envy.weight(beq[order]))
    stage1_threshold = gamma_star(stage1_nu, params)
    if not gamma0 < stage1_threshold:
        raise Infeasible(
            f"initial envy weight {gamma0} is not below the stage-1 threshold "
            f"{stage1_threshold}; stage 1 would not reduce inequality"
        )
    target = gamma_star(stage2_nu, params) - margin
    trigger = None
    gamma_t = gamma0
    for t in range(max_horizon + 1):
        if gamma_t < target:
            trigger = t
            break
        eq = _solve_one(beq, order, stage1_nu, stage1_nu, params, envy)
        beq = eq.bequests_next
        if eq.stationary:
            break  # an exact fixed point: every later period repeats this one
        gamma_t = float(envy.weight(beq[order]))
    if trigger is None:
        raise Infeasible(
            f"envy weight did not fall below {target} within {max_horizon} periods"
        )
    n = params.n_agents
    limit = steady_capital(gamma_uniform_top(envy, n, n), 1.0, stage2_nu, params)
    return ReformPlan(
        stage1_nu=stage1_nu,
        stage2_nu=stage2_nu,
        margin=margin,
        trigger_period=trigger,
        gamma_at_trigger=gamma_t,
        projected_limit_k=limit,
    )


def compose_reform_schedule(
    plan: ReformPlan, phi: float, params: EconomyParams
) -> FiscalSchedule:
    """Materialise a plan as a schedule: stage 1 up to the trigger, stage 2 after."""
    if plan.trigger_period == 0 or plan.stage1_nu == plan.stage2_nu:
        return build_schedule(phi, [(0, plan.stage2_nu)], params)
    return build_schedule(
        phi,
        [(0, plan.stage1_nu), (plan.trigger_period, plan.stage2_nu)],
        params,
    )
