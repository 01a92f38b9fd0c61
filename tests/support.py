"""Shared fixtures and oracles for the test suite.

The oracles here are deliberately independent of the package's solution
paths: the Gini oracle is the O(N^2) pairwise sum, utility optimality is
checked by brute-force grid search on the budget line, one period is
solved by the scalar one-vector solver the lockstep kernel replaced, and
equilibrium paths are audited against the conservation laws and
monotonicity statements recomputed from raw quantities.
"""

from __future__ import annotations

import numpy as np

from joneses import (
    ConvergenceReport,
    EconomyParams,
    EnvySpec,
    TemporaryEquilibrium,
    budget_check,
    gamma_hat,
    gamma_star,
    gini,
    savings_rate,
    validate_params,
)
from joneses.core import factor_prices, tax_rates
from joneses.equilibrium import fixed_point_active_set, fixed_point_bisection
from joneses.errors import DomainError, EnvyTooStrong, JonesesError, NoPositiveRoot

BASELINE = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=4)
UNIT_ENVY = EnvySpec(base=0.0, scale=1.0)

# Tolerances pinned once for the whole suite.
TOL_IDENTITY = 1e-12  # algebraic identities
TOL_SOLVER = 1e-10  # conservation laws, solver agreement, fixed points
TOL_LIMIT = 1e-8  # iterative limits at horizon 200
TOL_STRICT = 1e-12  # relative slack when asserting strict inequalities
TOL_UTILITY = 1e-9  # grid-search utility may not beat the solver beyond this


def gini_pairwise(values) -> float:
    """Mean-absolute-difference Gini, the O(N^2) oracle."""
    x = np.asarray(values, dtype=float)
    n = x.size
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


def active_set_oracle(income, z, total, delta, xi_over_nu_next):
    """Scalar candidate loop over income-prefix active sets, the solver's oracle.

    Tries a = 1..N in turn and returns the root of the first consistent
    candidate, or None when none is; ``fixed_point_active_set`` must
    agree with it exactly.
    """
    n = income.size
    inc = np.sort(income)[::-1]
    csum = np.cumsum(inc)
    for a in range(1, n + 1):
        denom = n * (1.0 + delta) - a * (delta * z - xi_over_nu_next)
        kappa = (delta * csum[a - 1] - a * delta * z * total) / denom
        if not 0.0 < kappa < total:
            continue
        tail = delta * z * (total - kappa) + xi_over_nu_next * kappa
        if not delta * inc[a - 1] > tail:
            continue
        if a < n and delta * inc[a] > tail:
            continue
        return float(kappa)
    return None


def period_oracle(beq, order, nu_t, nu_next, params, envy) -> TemporaryEquilibrium:
    """The scalar period solver, one bequest vector at a time: the kernel's oracle.

    ``beq`` is validated and ``order`` should sort it ascending.  The
    order is checked in O(N); a stale one is overwritten in place by a
    stable argsort, so a caller carrying it from period to period stays
    valid.  Each row of the lockstep kernel must equal this record bit
    for bit, and raise where it raises with the same message.
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


def chained_oracle(initial, nus, horizon, params, envy):
    """A path as ``period_oracle`` calls, every period solved afresh.

    Returns ``(records, error)``: the records of the periods solved before
    the first :class:`JonesesError`, and that error (None if none).
    """
    beq = np.asarray(initial, dtype=float)
    order = np.argsort(beq, kind="stable")
    records = []
    for t in range(horizon):
        try:
            records.append(period_oracle(beq, order, nus[t], nus[t + 1], params, envy))
        except JonesesError as exc:
            return records, exc
        beq = records[-1].bequests_next
    return records, None


def convergence_oracle(traj, tol):
    """detect_convergence with a step delta computed for every record.

    The package computes one delta per distinct record and reuses it for
    the periods that repeat that record; the report must be the same.
    """
    deltas = [
        max(abs(r.k_next - r.k), float(np.abs(r.bequests_next - r.bequests).max()))
        for r in traj.records
    ]
    below = [d < tol for d in deltas]
    if not below[-1]:
        return None
    first_stable = len(below)
    while first_stable and below[first_stable - 1]:
        first_stable -= 1
    return ConvergenceReport(
        period=first_stable + 1,
        k=traj.final_k,
        bequests=traj.final_bequests,
        reentered=below.index(True) < first_stable,
    )


def random_params(rng: np.random.Generator, max_agents: int = 16) -> EconomyParams:
    alpha = rng.uniform(0.2, 0.65)
    delta = rng.uniform(0.4, 3.0)
    phi = rng.uniform(0.0, 0.9 * min(alpha, 1.0 - alpha))
    n = int(rng.integers(2, max_agents + 1))
    return validate_params(alpha=alpha, delta=delta, phi=phi, n_agents=n)


def random_envy(rng: np.random.Generator, params: EconomyParams) -> EnvySpec:
    """Envy functional guaranteed to clear the existence ceiling with margin."""
    ceiling = 0.95 * gamma_hat(params.nu_upper, params)
    base = rng.uniform(0.0, 0.3) * ceiling
    n = params.n_agents
    scale = rng.uniform(0.0, 1.0) * (ceiling - base) * n / (n - 1)
    return EnvySpec(base=base, scale=scale)


def random_initial(rng: np.random.Generator, params: EconomyParams) -> np.ndarray:
    """Skewed bequest vector with a random zero fraction and positive total."""
    n = params.n_agents
    while True:
        values = rng.lognormal(mean=0.0, sigma=1.2, size=n)
        values[rng.random(n) < rng.uniform(0.0, 0.6)] = 0.0
        if values.sum() > 0.0:
            break
    k0 = rng.uniform(0.05, 3.0)
    return values * (n * k0 / values.sum())


def random_nu(rng: np.random.Generator, params: EconomyParams) -> float:
    return float(rng.uniform(params.nu_lower, params.nu_upper))


def household_utility(c, s, gamma, cbar, delta, xi_over_nu_next, k_next):
    """Objective of one dynasty's choice problem, vectorised over (c, s).

    ln(c + gamma*(c - cbar)) + delta * ln(xi/nu_next * k_next + s),
    with -inf where the first argument is not positive.
    """
    arg1 = np.asarray(c + gamma * (c - cbar), dtype=float)
    arg2 = np.asarray(xi_over_nu_next * k_next + s, dtype=float)
    out = np.full(arg1.shape, -np.inf)
    ok = (arg1 > 0.0) & (arg2 > 0.0)
    out[ok] = np.log(arg1[ok]) + delta * np.log(arg2[ok])
    return out


def grid_search_best_utility(
    income_j, gamma, cbar, delta, xi_over_nu_next, k_next, resolution=1e-6
):
    """Best utility over a budget-line grid with the given relative resolution."""
    s = np.linspace(0.0, income_j, int(round(1.0 / resolution)) + 1)
    u = household_utility(
        income_j - s, s, gamma, cbar, delta, xi_over_nu_next, k_next
    )
    return float(u.max())


def solver_utility(eq, agent, params, nu_t, nu_next):
    c = eq.consumptions[agent]
    s = eq.bequests_next[agent]
    return float(
        household_utility(
            c,
            s,
            eq.gamma,
            eq.avg_consumption,
            params.delta,
            params.xi / nu_next,
            eq.k_next,
        )
    )


def check_path_invariants(traj, nu, params, envy, envy_weight=None):
    """Audit a constant-tilt trajectory against the model's dynamic laws.

    Checks, for every period: per-agent budgets, aggregate and government
    budget conservation, the mean identity for next capital, the
    consumption floor, order preservation, the saver-count rules, the
    bequest-ratio laws and envy-weight monotonicity.
    Raises AssertionError with period context on the first violation.
    """
    weight = envy.weight if envy_weight is None else envy_weight
    threshold = gamma_star(nu, params)
    xi_over_nu = params.xi / nu
    prev_m = int(np.count_nonzero(np.asarray(traj.records[0].bequests) > 0.0))
    n = params.n_agents
    for t, r in enumerate(traj.records):
        ctx = f"period {t}"
        prev = r.bequests
        new = r.bequests_next
        income = (
            (1.0 - r.taxes.tau_s)
            * r.prices.gross_return
            * (xi_over_nu * r.k + prev)
        )
        budget_gap = np.abs(r.consumptions + new - income).max()
        assert budget_gap < TOL_SOLVER, f"{ctx}: per-agent budget off by {budget_gap}"
        resources = (1.0 - params.phi) * r.output
        agg_gap = abs(r.avg_consumption + r.k_next - resources)
        assert agg_gap < TOL_SOLVER, f"{ctx}: aggregate conservation off by {agg_gap}"
        mean_gap = abs(r.k_next - new.mean())
        assert mean_gap < TOL_SOLVER, f"{ctx}: k_next != mean bequest by {mean_gap}"
        budget_check(r, params)  # raises beyond 1e-10 relative
        z = r.gamma / (1.0 + r.gamma)
        floor = z * r.avg_consumption
        assert np.all(r.consumptions > floor), f"{ctx}: consumption floor violated"

        # order preservation: richer parents leave (weakly) richer heirs,
        # strictly so whenever the richer heir's bequest is positive.  The
        # strict statements are asserted only for parent gaps the floating
        # format can resolve: once bequests agree to ~1e-12 relative the
        # children's values legitimately collapse to exact ties.
        gt = prev[:, None] > prev[None, :]
        assert not np.any(gt & (new[:, None] < new[None, :])), f"{ctx}: order broken"
        resolvable = prev[:, None] > prev[None, :] * (1.0 + TOL_STRICT)
        ii, jj = np.nonzero(resolvable & (new[:, None] > 0.0))
        assert np.all(new[ii] > new[jj]), f"{ctx}: strict order broken"

        m_t = r.m_count
        if m_t >= prev_m:
            expected = savings_rate(r.gamma, m_t / n, nu, params) * r.output
            gap = abs(r.k_next - expected)
            assert gap < TOL_SOLVER, f"{ctx}: saver-share capital law off by {gap}"
        if r.gamma < threshold:
            assert m_t == n, f"{ctx}: participation rule broken, M={m_t} < N with gamma below threshold"
            # poorer-to-richer bequest ratios strictly rise toward 1
            pi, pj = np.nonzero(resolvable & (prev[None, :] > 0.0))
            lhs = new[pj] * prev[pi]
            rhs = prev[pj] * new[pi]
            assert np.all(lhs > rhs * (1.0 - TOL_STRICT)), f"{ctx}: equalising ratio law broken"
        if r.gamma > threshold:
            assert m_t <= prev_m, f"{ctx}: saver count rose {prev_m}->{m_t} under strong envy"
            # poorer-to-richer bequest ratios strictly fall while the richer save
            pi, pj = np.nonzero(resolvable & (prev[None, :] > 0.0) & (new[:, None] > 0.0))
            lhs = new[pj] * prev[pi]
            rhs = prev[pj] * new[pi]
            assert np.all(lhs < rhs * (1.0 + TOL_STRICT)), f"{ctx}: polarising ratio law broken"
        if r.gamma >= threshold:
            gamma_next = (
                traj.records[t + 1].gamma
                if t + 1 < len(traj.records)
                else float(weight(new))
            )
            assert gamma_next >= r.gamma - TOL_STRICT, f"{ctx}: envy-weight monotonicity broken"
        prev_m = m_t
