"""Temporary equilibria, equilibrium paths, steady states, regime classification.

One period works as follows.  Dynasties inherit bequests ``s_prev`` with
mean ``k > 0``; the envy weight ``gamma`` is read off the inherited
distribution; factor prices and taxes are evaluated at ``k`` and the
current tilt ``nu``.  Each dynasty splits its disposable income

    I_j = (1 - tau_s) * (1 + r) * (xi/nu * k + s_prev_j)

between consumption and a bequest.  With log preferences the optimal
bequest has the closed form

    s_j = max(0, [delta*I_j - delta*z*cbar - (xi/nu_next)*k_next] / (1 + delta))

where ``z = gamma / (1 + gamma)`` and average consumption satisfies
``cbar = C - k_next`` with ``C = (1 - tau_s)(1 + r)(xi/nu + 1) k``
(everything not bequeathed is consumed).  Substituting ``cbar`` out
makes ``k_next = mean_j s_j`` the root of a piecewise-linear map whose
slopes are all below one, so the root is unique.  It is found exactly
by scanning candidate active sets (the top-``a`` incomes) in vectorised
blocks for the first consistent one; a bisection fallback covers
degenerate ties.  Richer parents leave weakly richer heirs, so
:func:`simulate` validates and sorts the initial vector once and then
only checks that order, in O(N), each period.

In floating point a path does not just approach its steady state: from
some period on it sits on it exactly, ``bequests_next`` equal to
``bequests`` byte for byte.  The period solver is a pure function of the
bytes of the inherited vector and of the two tilts, so once a period
maps its state onto itself and the tilt holds, every later period would
recompute the same record.  :func:`simulate` appends that record again
instead, and resumes solving when the schedule changes the tilt.  This
is exact, not a tolerance.

An economy run under a constant tilt settles, depending on whether the
initial envy weight sits below or above the threshold ``gamma_star(nu)``,
into the egalitarian steady state (everybody holds the mean bequest) or
a polarised one (the initially-richest class holds everything).  Both
are constructed in closed form here and are exact fixed points of the
period solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EconomyParams,
    FactorPrices,
    IDENTITY_TOL,
    TaxRates,
    factor_prices,
    gamma_star,
    savings_rate,
    steady_capital,
    tax_rates,
)
from .envy import EnvyFunctional, as_distribution, gamma_uniform_top, gini
from .errors import (
    DomainError,
    EnvyTooStrong,
    ModelError,
    NoPositiveRoot,
    NotSustainable,
    ScheduleTooShort,
)


@dataclass(frozen=True)
class WealthState:
    """Inherited bequest vector at the start of a period."""

    period: int
    bequests: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bequests", as_distribution(self.bequests))
        if self.period < 0:
            raise DomainError(f"period must be >= 0, got {self.period}")

    @property
    def capital_intensity(self) -> float:
        return float(self.bequests.mean())


@dataclass(frozen=True)
class TemporaryEquilibrium:
    """One period's market-clearing allocation and its diagnostics."""

    k: float  # inherited capital intensity
    output: float  # k**alpha
    gamma: float  # envy weight governing the period
    gini: float  # Gini of the inherited distribution
    bequests: np.ndarray  # inherited s_prev
    consumptions: np.ndarray
    bequests_next: np.ndarray
    k_next: float
    avg_consumption: float
    prices: FactorPrices
    taxes: TaxRates
    nu_next: float
    m_count: int  # dynasties leaving positive bequests

    @property
    def savings_realized(self) -> float:
        """Realized savings rate k_next / k**alpha."""
        return self.k_next / self.output

    @property
    def stationary(self) -> bool:
        """True when the period hands on exactly the bequests it inherited.

        Exact: ``k`` is compared first, then the bytes of the vectors.
        """
        return (
            self.k_next == self.k
            and self.bequests_next.tobytes() == self.bequests.tobytes()
        )


def fixed_point_active_set(
    income: np.ndarray, z: float, total: float, delta: float, xi_over_nu_next: float
) -> float | None:
    """Exact root of the bequest fixed point by active-set enumeration.

    Candidate active sets are prefixes of the dynasties sorted by income
    (optimal bequests are increasing in income, so the saver set is
    always a top segment).  For an active count ``a`` the fixed point is
    linear in k_next with the closed-form root

        kappa = (delta * sum_active(I) - a*delta*z*total)
                / (N*(1+delta) - a*(delta*z - xi/nu_next))

    accepted iff it lies in (0, total), the poorest active dynasty
    saves and the richest inactive one does not.  ``income`` may come in
    any order (descending input skips the sort).  Candidates are scanned in
    vectorised blocks of 16, 128, 1024, ... incomes, extending the running
    sum block by block; the first consistent ``a`` wins.  Returns None when
    no candidate is consistent (degenerate ties); callers fall back to bisection.
    """
    inc = income if (income[:-1] >= income[1:]).all() else np.sort(income)[::-1]
    n = inc.size
    run, lo, size = 0.0, 0, 16
    while lo < n:
        hi = min(lo + size, n)
        # continue the running sum: a block-local cumsum plus offset rounds differently
        csum = np.cumsum(np.concatenate(((run,), inc[lo:hi])))[1:]
        a = np.arange(lo + 1.0, hi + 1.0)
        denom = n * (1.0 + delta) - a * (delta * z - xi_over_nu_next)
        kappa = (delta * csum - a * delta * z * total) / denom
        # bequest numerator of dynasty j is delta*I_j - tail; positive iff saving
        tail = delta * z * (total - kappa) + xi_over_nu_next * kappa
        heads = delta * inc[lo : hi + 1]
        ok = (0.0 < kappa) & (kappa < total) & (heads[: hi - lo] > tail)
        ok[: heads.size - 1] &= ~(heads[1:] > tail[: heads.size - 1])
        first = int(ok.argmax())
        if ok[first]:
            return float(kappa[first])
        run, lo, size = csum[-1], hi, 8 * size
    return None


def fixed_point_bisection(
    income: np.ndarray,
    z: float,
    total: float,
    delta: float,
    xi_over_nu_next: float,
) -> float:
    """Bisection root of the bequest fixed point on (0, total).

    The residual mean_j max(0, .)/(1+delta) - kappa is strictly
    decreasing; it is negative at kappa = total (average consumption
    must stay positive), so a root exists iff the residual at 0 is
    positive.  Independent of the active-set path: used as fallback and
    as a cross-check oracle.
    """
    n = income.size

    def residual(kappa: float) -> float:
        heads = delta * income - delta * z * (total - kappa) - xi_over_nu_next * kappa
        return float(np.maximum(0.0, heads).sum() / ((1.0 + delta) * n)) - kappa

    if not residual(0.0) > 0.0:
        raise NoPositiveRoot(
            "no dynasty saves even at zero next-period capital; the economy "
            "exits the model domain"
        )
    lo, hi = 0.0, total
    width_tol = 1e-12 * max(1.0, total)
    for _ in range(200):
        if hi - lo < width_tol:
            break
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_temporary(
    state: WealthState,
    nu_t: float,
    nu_next: float,
    params: EconomyParams,
    envy: EnvyFunctional,
) -> TemporaryEquilibrium:
    """Solve the unique temporary equilibrium for one period.

    ``nu_t`` prices the period's taxes; ``nu_next`` is the announced
    next-period tilt entering the bequest motive.  The caller is
    responsible for having validated ``envy`` against the existence
    bound; the realized floor condition (every dynasty can consume above
    z times average consumption) is guarded here regardless and raises
    :class:`EnvyTooStrong` when violated.
    """
    if isinstance(state, _PathState):
        return _solve_period(state.bequests, state.order, nu_t, nu_next, params, envy)
    beq = as_distribution(state.bequests, params.n_agents)
    return _solve_period(beq, np.argsort(beq, kind="stable"), nu_t, nu_next, params, envy)


@dataclass(frozen=True)
class _PathState(WealthState):
    """A period of :func:`simulate`, carrying the ascending order of ``bequests``."""

    order: np.ndarray

    def __post_init__(self):
        pass  # simulate validated the start; later states come from the kernel


def _solve_period(beq, order, nu_t, nu_next, params, envy) -> TemporaryEquilibrium:
    """:func:`solve_temporary` on a validated ``beq`` that ``order`` should sort
    ascending.  The order is checked in O(N); a stale one is overwritten in place
    by a stable argsort, so a caller carrying it from period to period stays valid.
    """
    asc = beq[order]
    if not (asc[:-1] <= asc[1:]).all():
        order[:] = np.argsort(beq, kind="stable")
        asc = beq[order]
    k = float(beq.mean())
    g = gini(asc)
    gamma = float(envy.weight(asc))
    z = gamma / (1.0 + gamma)
    prices = factor_prices(k, params)
    taxes = tax_rates(nu_t, params)
    if not nu_next > 0.0:
        raise DomainError(f"nu_next must be > 0, got {nu_next}")

    net_return = (1.0 - taxes.tau_s) * prices.gross_return
    income = net_return * (params.xi / nu_t * k + beq)
    total = net_return * (params.xi / nu_t + 1.0) * k  # = (1-phi) * k**alpha
    xnn = params.xi / nu_next

    kappa = fixed_point_active_set(income[order][::-1], z, total, params.delta, xnn)
    if kappa is None:
        kappa = fixed_point_bisection(income, z, total, params.delta, xnn)

    heads = params.delta * income - params.delta * z * (total - kappa) - xnn * kappa
    bequests_next = np.maximum(0.0, heads) / (1.0 + params.delta)
    k_next = float(bequests_next.mean())
    if not k_next > 0.0:
        raise NoPositiveRoot("next-period capital intensity is not positive")
    consumptions = income - bequests_next
    avg_consumption = float(consumptions.mean())

    floor = z * avg_consumption
    if not (income > floor).all():
        raise EnvyTooStrong(
            f"envy weight {gamma} leaves a dynasty with income "
            f"{income.min()} at or below the consumption floor {floor}"
        )

    return TemporaryEquilibrium(
        k=k,
        output=k**params.alpha,
        gamma=gamma,
        gini=g,
        bequests=beq,
        consumptions=consumptions,
        bequests_next=bequests_next,
        k_next=k_next,
        avg_consumption=avg_consumption,
        prices=prices,
        taxes=taxes,
        nu_next=nu_next,
        m_count=int(np.count_nonzero(bequests_next > 0.0)),
    )


@dataclass(frozen=True)
class Trajectory:
    """Ordered sequence of temporary equilibria along one policy path.

    ``records`` may hold the same object several times in a row: the
    periods of a path that sits at its exact fixed point share one record.
    """

    records: tuple[TemporaryEquilibrium, ...]

    @property
    def horizon(self) -> int:
        return len(self.records)

    @property
    def gamma_path(self) -> np.ndarray:
        return np.array([r.gamma for r in self.records])

    @property
    def m_counts(self) -> np.ndarray:
        return np.array([r.m_count for r in self.records])

    @property
    def final_bequests(self) -> np.ndarray:
        return self.records[-1].bequests_next

    @property
    def final_k(self) -> float:
        return self.records[-1].k_next


def _nu_lookup(schedule, horizon: int):
    """Accept a FiscalSchedule-like object or an explicit per-period sequence."""
    if hasattr(schedule, "nu_at"):
        return schedule.nu_at
    seq = list(schedule)
    if len(seq) < horizon + 1:
        raise ScheduleTooShort(
            f"need nu for periods 0..{horizon} (one period ahead), "
            f"got {len(seq)} values"
        )
    return lambda t: seq[t]


def simulate(
    initial: Sequence[float] | np.ndarray,
    schedule,
    horizon: int,
    params: EconomyParams,
    envy: EnvyFunctional,
) -> Trajectory:
    """Iterate the period solver from an initial bequest vector.

    ``schedule`` is either a FiscalSchedule or an explicit sequence of
    per-period tilt values covering periods 0..horizon (the solver for
    period t needs the period t+1 announcement).

    A solved period whose tilt equals the announced one and whose record
    is stationary (``k_next == k`` and ``bequests_next`` byte-equal to
    ``bequests``) is repeated, the same object, for as long as the tilt
    stays unchanged: the next period would get byte-identical inputs and
    so return an identical record.  The scalar ``k_next == k`` is compared
    first, so a path that is still moving pays one float comparison per
    period for it.  Tilts are equal when they compare equal and have the
    same type (a float32 tilt prices taxes in float32).
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    nu_at = _nu_lookup(schedule, horizon)
    beq = as_distribution(initial, params.n_agents)
    order = np.argsort(beq, kind="stable")
    records = []
    repeat = None  # a stationary record, while its tilt holds
    nu_t = nu_at(0)
    for t in range(horizon):
        nu_next = nu_at(t + 1)
        tilt_holds = nu_next == nu_t and type(nu_next) is type(nu_t)
        if repeat is None or not tilt_holds:
            eq = solve_temporary(_PathState(t, beq, order), nu_t, nu_next, params, envy)
            beq = eq.bequests_next
            repeat = eq if tilt_holds and eq.stationary else None
        records.append(eq)
        nu_t = nu_next
    return Trajectory(records=tuple(records))


@dataclass(frozen=True)
class SteadyState:
    """Stationary allocation: either egalitarian or a rich/poor split."""

    kind: str  # "egalitarian" | "polarised"
    rich_count: int
    k: float
    savings_rate: float
    gamma: float
    bequests: np.ndarray  # rich dynasties listed first
    consumptions: np.ndarray


def egalitarian_steady(
    params: EconomyParams, nu: float, envy: EnvyFunctional
) -> SteadyState:
    """Steady state where every dynasty bequeaths the capital intensity k.

    k solves k = s(G_N, 1, nu) k**alpha with G_N the envy weight of the
    equal distribution; consumption is (1 - phi) k**alpha - k.
    """
    n = params.n_agents
    gamma_eq = gamma_uniform_top(envy, n, n)
    rate = savings_rate(gamma_eq, 1.0, nu, params)
    k = rate ** (1.0 / (1.0 - params.alpha))
    consumption = (1.0 - params.phi) * k**params.alpha - k
    if not consumption > 0.0:
        raise ModelError(
            f"egalitarian consumption {consumption} is not positive; "
            "steady-state construction is inconsistent"
        )
    return SteadyState(
        kind="egalitarian",
        rich_count=n,
        k=k,
        savings_rate=rate,
        gamma=gamma_eq,
        bequests=np.full(n, k),
        consumptions=np.full(n, consumption),
    )


def polarised_steady(
    params: EconomyParams, nu: float, envy: EnvyFunctional, rich_count: int
) -> SteadyState:
    """Steady state where ``rich_count`` dynasties hold all wealth.

    Sustainable only when the envy weight of that split, G_J, exceeds
    the threshold gamma_star(nu) (otherwise the poor would resume
    saving).  The rich each bequeath (N/J) k; their consumption follows
    from the household budget
    c = (1 - tau_s)(1 + r)(xi/nu * k + s) - s, and the poor consume
    their net wage.
    """
    n = params.n_agents
    if not isinstance(rich_count, int) or isinstance(rich_count, bool):
        raise DomainError(f"rich_count must be an integer, got {rich_count!r}")
    if not 1 <= rich_count <= n - 1:
        raise DomainError(f"rich_count must lie in 1..{n - 1}, got {rich_count}")
    gamma_pol = gamma_uniform_top(envy, rich_count, n)
    threshold = gamma_star(nu, params)
    if not gamma_pol > threshold:
        raise NotSustainable(
            f"envy weight {gamma_pol} of a {rich_count}-rich split does not "
            f"exceed the threshold {threshold}; the poor would keep saving"
        )
    m = rich_count / n
    rate = savings_rate(gamma_pol, m, nu, params)
    k = rate ** (1.0 / (1.0 - params.alpha))
    taxes = tax_rates(nu, params)
    prices = factor_prices(k, params)
    s_rich = (n / rich_count) * k
    net_return = (1.0 - taxes.tau_s) * prices.gross_return
    c_rich = net_return * (params.xi / nu * k + s_rich) - s_rich
    c_poor = (1.0 - params.alpha) * (1.0 - taxes.tau_w) * k**params.alpha
    if not c_rich > 0.0:
        raise ModelError(
            f"rich consumption {c_rich} is not positive; steady-state "
            "construction is inconsistent"
        )
    bequests = np.zeros(n)
    bequests[:rich_count] = s_rich
    consumptions = np.full(n, c_poor)
    consumptions[:rich_count] = c_rich
    return SteadyState(
        kind="polarised",
        rich_count=rich_count,
        k=k,
        savings_rate=rate,
        gamma=gamma_pol,
        bequests=bequests,
        consumptions=consumptions,
    )


@dataclass(frozen=True)
class Regime:
    """Long-run classification of a starting distribution under constant policy."""

    kind: str  # "egalitarian" | "polarised" | "boundary"
    limit_k: float | None
    rich_count: int | None
    gamma0: float
    gamma_threshold: float


def classify(
    initial: Sequence[float] | np.ndarray,
    nu: float,
    params: EconomyParams,
    envy: EnvyFunctional,
) -> Regime:
    """Compare the initial envy weight with the threshold gamma_star(nu).

    Below: convergence to the egalitarian steady state.  Above: the
    dynasties tied at the highest initial bequest (counted by exact
    value equality) end up holding everything.  Within 1e-12 of the
    threshold the long-run limit is not claimed ("boundary").
    """
    beq = as_distribution(initial, params.n_agents)
    gamma0 = float(envy.weight(beq))
    threshold = gamma_star(nu, params)
    n = params.n_agents
    if abs(gamma0 - threshold) < IDENTITY_TOL:
        kind, limit, top = "boundary", None, None
    elif gamma0 < threshold:
        kind, top = "egalitarian", None
        limit = steady_capital(gamma_uniform_top(envy, n, n), 1.0, nu, params)
    else:
        kind, top = "polarised", int(np.count_nonzero(beq == beq.max()))
        limit = steady_capital(gamma_uniform_top(envy, top, n), top / n, nu, params)
    return Regime(
        kind=kind, limit_k=limit, rich_count=top, gamma0=gamma0, gamma_threshold=threshold
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """First period from whose start the path no longer moves beyond tol."""

    period: int
    k: float  # terminal capital intensity of the trajectory
    bequests: np.ndarray  # terminal bequest vector
    reentered: bool  # True if step deltas dipped below tol and rose again


def detect_convergence(traj: Trajectory, tol: float) -> ConvergenceReport | None:
    """Scan step deltas max(|k_next - k|, max_j |s_next_j - s_j|) against tol.

    Returns the first period T such that every delta from T-1 onwards is
    below tol (entering period T the state is stationary to tol), or
    None if the final delta still exceeds tol.  ``reentered`` flags the
    anomaly of deltas dropping below tol and later rising above it,
    which this model's dynamics should never produce.
    """
    if not traj.records:
        raise DomainError("trajectory is empty")
    deltas = np.empty(len(traj.records))
    last = None
    for t, r in enumerate(traj.records):
        if r is not last:  # a repeated record has the delta it had the period before
            d = max(abs(r.k_next - r.k), float(np.abs(r.bequests_next - r.bequests).max()))
            last = r
        deltas[t] = d
    below = deltas < tol
    if not below[-1]:
        return None
    violations = np.nonzero(~below)[0]
    first_stable = 0 if violations.size == 0 else int(violations[-1]) + 1
    first_below = int(np.nonzero(below)[0][0])
    return ConvergenceReport(
        period=first_stable + 1,
        k=traj.final_k,
        bequests=traj.final_bequests,
        reentered=first_below < first_stable,
    )
