"""Shared fixtures and oracles for the test suite.

The oracles here are deliberately independent of the package's solution
paths: the Gini oracles are the O(N^2) pairwise sum and the scalar
sorted-rank formula the package's block form replaced, the envy weight
must rise along the Lorenz dominance order ``dominates``, utility
optimality is checked by brute-force grid search on the budget line, one
period is solved by a scalar one-vector solver whose fixed point comes
from the scalar candidate loop ``active_set_oracle``, fixed points are
also found by bisection and in exact rational arithmetic, the reform
planner's trigger is searched by a chain of public ``solve_temporary``
calls, sweep cells are built whole by ``cell_scenario``, and equilibrium
paths are audited against the conservation laws and monotonicity
statements recomputed from raw quantities.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from joneses import (
    ConvergenceReport,
    EconomyParams,
    EnvySpec,
    TemporaryEquilibrium,
    budget_check,
    gamma_hat,
    gamma_star,
    savings_rate,
    solve_temporary,
    validate_params,
)
from joneses.core import factor_prices, tax_rates
from joneses.envy import as_distribution
from joneses.equilibrium import _scan_active_sets
from joneses.errors import (
    DomainError,
    EnvyTooStrong,
    Infeasible,
    JonesesError,
    LengthMismatch,
    NoPositiveRoot,
)
from joneses.scenario import parse_scenario
from joneses.sweep import _template_total

BASELINE = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=4)
UNIT_ENVY = EnvySpec(base=0.0, scale=1.0)

# For a test whose oracles here may warn: any other float warning, the kernel's included,
# fails it.
ONLY_ORACLES_WARN = pytest.mark.filterwarnings(
    "error::RuntimeWarning", "ignore::RuntimeWarning:support"
)

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


@st.composite
def gini_vectors(draw, sizes):
    """Nonnegative vectors of a length in ``sizes`` with a positive total:
    lognormal draws, ties, zeros, a single positive holder, or all equal,
    in any order."""
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "ties", "zeros", "single", "equal"]))
    values = rng.lognormal(sigma=draw(st.floats(0.0, 3.0)), size=n)
    if kind == "ties":
        values = values[rng.integers(0, min(draw(st.integers(1, 4)), n), size=n)]
    elif kind == "zeros":
        values[rng.random(n) < draw(st.floats(0.0, 0.95))] = 0.0
        values[rng.integers(0, n)] = 1.5
    elif kind == "single":
        values = np.zeros(n)
        values[rng.integers(0, n)] = 0.3
    elif kind == "equal":
        values = np.full(n, values[0])
    return values


def gini_oracle(values) -> float:
    """Scalar sorted-rank Gini of one vector: ``gini`` must equal it bit for bit.

    The formula, exact cases and clipping of ``joneses.envy.gini``, written
    out for one vector instead of the package's block of rows.
    """
    arr = as_distribution(values)
    # a fresh array, not the row itself: under some BLAS core types (Prescott) the dot of
    # a row that is not 16-byte aligned, as odd-N rows of a block are, rounds differently
    x = arr.copy() if (arr[:-1] <= arr[1:]).all() else np.sort(arr)
    n = x.size
    if x[0] == x[-1]:
        return 0.0
    if x[-2] == 0.0:
        return (n - 1.0) / n
    if x.sum() > np.finfo(float).max / n:  # n * total would overflow; the Gini is scale-free
        x = x / x[-1]
    ranks = np.arange(1, n + 1, dtype=float)
    g = 2.0 * (ranks @ x) / (n * x.sum()) - (n + 1.0) / n
    return float(min(max(g, 0.0), (n - 1.0) / n))


def lorenz_shares(values):
    """Cumulative wealth shares of the M poorest, M = 1..N, after ascending sort."""
    arr = as_distribution(values)
    x = np.sort(arr)
    return np.cumsum(x) / x.sum()


def dominates(a, b):
    """True iff distribution ``a`` is strictly more unequal than ``b``.

    After ascending sort, every cumulative share of the M poorest under
    ``a`` must be <= the corresponding share under ``b``, strictly for
    at least one M.  Totals need not match: the comparison is in shares.
    Comparisons are exact (no tolerance); irreflexive by construction.
    """
    arr_a = as_distribution(a)
    arr_b = as_distribution(b)
    if arr_a.size != arr_b.size:
        raise LengthMismatch(
            f"cannot compare distributions of sizes {arr_a.size} and {arr_b.size}"
        )
    shares_a = lorenz_shares(arr_a)
    shares_b = lorenz_shares(arr_b)
    return bool(np.all(shares_a <= shares_b) and np.any(shares_a < shares_b))


def candidate_roots(income, z, total, delta, xi_over_nu_next):
    """Scalar loop over the income-prefix active sets a = 1..N.

    Returns ``(kappa, consistent)`` per candidate: its root, and whether the
    root lies in (0, total) with the poorest active dynasty saving and the
    richest inactive one not.
    """
    n = income.size
    inc = np.sort(income)[::-1]
    csum = np.cumsum(inc)
    out = []
    for a in range(1, n + 1):
        denom = n * (1.0 + delta) - a * (delta * z - xi_over_nu_next)
        kappa = (delta * csum[a - 1] - a * delta * z * total) / denom
        tail = delta * z * (total - kappa) + xi_over_nu_next * kappa
        consistent = (
            0.0 < kappa < total
            and delta * inc[a - 1] > tail
            and not (a < n and delta * inc[a] > tail)
        )
        out.append((float(kappa), consistent))
    return out


def active_set_oracle(income, z, total, delta, xi_over_nu_next):
    """The solver's oracle: the root of the first consistent candidate.

    Where rounding leaves no candidate consistent, the largest candidate
    root, which is the root of the fixed-point map (see ``exact_root``).
    The kernel's scan, ``_scan_active_sets``, must agree with it
    exactly.
    """
    roots = candidate_roots(income, z, total, delta, xi_over_nu_next)
    first = next((kappa for kappa, consistent in roots if consistent), None)
    return float(np.max([kappa for kappa, _ in roots])) if first is None else first


def exact_root(income, z, total, delta, xi_over_nu_next) -> Fraction:
    """The largest candidate root in exact rational arithmetic on the float inputs.

    Every head delta*I_j - delta*z*(total - kappa) - xi/nu_next*kappa has
    the same slope in kappa, so the sum of their positive parts is the
    largest top-``a`` sum, and the fixed-point map is the upper envelope of
    the candidates' lines.  Each line crosses the diagonal from above, so
    the map's root is the largest candidate root, or 0 where that is not
    positive.  The exact residual there is asserted to be 0.
    """
    inc = sorted(map(Fraction, income.tolist()), reverse=True)
    z, total, delta, xnn = (Fraction(float(v)) for v in (z, total, delta, xi_over_nu_next))
    n, slope, csum, roots = len(inc), delta * z - xnn, Fraction(0), []
    for a, x in enumerate(inc, 1):
        csum += x
        roots.append((delta * csum - a * delta * z * total) / (n * (1 + delta) - a * slope))
    root = max(roots)
    fixed = max(root, Fraction(0))
    heads = (delta * x - delta * z * (total - fixed) - xnn * fixed for x in inc)
    assert sum(max(h, 0) for h in heads) / (n * (1 + delta)) == fixed
    return root


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
    positive.  Independent of the active-set path: a cross-check oracle.
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


def scan_row(income, z, total, delta, xi_over_nu_next):
    """The kernel's scan, ``_scan_active_sets``, on one income vector.

    Not an oracle: this is the code under test, which sorts ``income``
    descending and returns the root.
    """
    desc = np.sort(income)[::-1][None]
    columns = (np.array([[v]], dtype=float) for v in (z, total, delta, xi_over_nu_next))
    return float(_scan_active_sets(desc, *columns)[0])


def period_inputs(beq, order, nu_t, nu_next, params, envy):
    """The scalar period's prices and the arguments of its fixed point.

    ``beq`` is validated and ``order`` should sort it ascending.  The
    order is checked in O(N); a stale one is overwritten in place by a
    stable argsort, so a caller carrying it from period to period stays
    valid.  The tilts are priced as Python floats, as the kernel prices
    them.  Returns ``(k, gini, gamma, prices, taxes)`` and ``(income, z,
    total, delta, xi/nu_next)``.
    """
    asc = beq[order]
    if not (asc[:-1] <= asc[1:]).all():
        order[:] = np.argsort(beq, kind="stable")
        asc = beq[order]
    nu_t, nu_next = float(nu_t), float(nu_next)
    k = float(beq.mean())
    g = gini_oracle(asc)
    gamma = float(envy.base + envy.scale * g)
    z = gamma / (1.0 + gamma)
    prices = factor_prices(k, params)
    taxes = tax_rates(nu_t, params)
    if not nu_next > 0.0:
        raise DomainError(f"nu_next must be > 0, got {nu_next}")

    net_return = (1.0 - taxes.tau_s) * prices.gross_return
    income = net_return * (params.xi / nu_t * k + beq)
    total = net_return * (params.xi / nu_t + 1.0) * k  # = (1-phi) * k**alpha
    return (k, g, gamma, prices, taxes), (income, z, total, params.delta, params.xi / nu_next)


@dataclass(frozen=True)
class OracleRecord(TemporaryEquilibrium):
    """A ``period_oracle`` record, whose ``consumptions`` are the oracle's own array."""

    consumptions: np.ndarray = None


def period_oracle(beq, order, nu_t, nu_next, params, envy) -> OracleRecord:
    """The scalar period solver, one bequest vector at a time: the kernel's oracle.

    The inputs are ``period_inputs``'s, and the fixed point comes from the
    scalar ``active_set_oracle``, not the kernel's scan.  Each row of
    the lockstep kernel must equal this record bit for bit, and raise where
    it raises with the same message.
    """
    (k, g, gamma, prices, taxes), args = period_inputs(beq, order, nu_t, nu_next, params, envy)
    income, z, total, delta, xnn = args
    kappa = active_set_oracle(*args)

    heads = delta * income - delta * z * (total - kappa) - xnn * kappa
    bequests_next = np.maximum(0.0, heads) / (1.0 + delta)
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

    return OracleRecord(
        k=k,
        output=k**params.alpha,
        gamma=gamma,
        gini=g,
        bequests=beq,
        bequests_next=bequests_next,
        k_next=k_next,
        avg_consumption=avg_consumption,
        prices=prices,
        taxes=taxes,
        m_count=int(np.count_nonzero(bequests_next > 0.0)),
        xi_k=params.xi / float(nu_t) * k,
        net=(1.0 - taxes.tau_s) * prices.gross_return,
        consumptions=consumptions,
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


def reform_trigger_oracle(initial, params, envy, stage1_nu, stage2_nu, margin, max_horizon):
    """``plan_reform``'s trigger search as public calls: ``(trigger_period, gamma_at_trigger)``.

    Each stage-1 period is a fresh ``solve_temporary`` of the whole
    vector and each weight an ``envy.weight`` of it, so no order is
    carried and no path driver is stepped.  It raises what the planner
    must raise, with the same message: the stage-1 precondition, a
    period's error, or ``Infeasible`` past ``max_horizon`` or at an
    exact fixed point.  The planner's checks of its arguments are left out.
    """
    beq = as_distribution(initial, params.n_agents)
    gamma = envy.weight(beq)
    threshold = gamma_star(stage1_nu, params)
    if not gamma < threshold:
        raise Infeasible(
            f"initial envy weight {gamma} is not below the stage-1 threshold "
            f"{threshold}; stage 1 would not reduce inequality"
        )
    target = gamma_star(stage2_nu, params) - margin
    for t in range(max_horizon + 1):
        if gamma < target:
            return t, gamma
        record = solve_temporary(beq, stage1_nu, stage1_nu, params, envy)
        if record.stationary:
            break  # an exact fixed point: every later period repeats this one
        beq = record.bequests_next
        gamma = envy.weight(beq)
    raise Infeasible(f"envy weight did not fall below {target} within {max_horizon} periods")


def cell_scenario(grid, values):
    """A sweep cell's scenario built whole: the template deep-copied, each axis set, all parsed.

    ``run_sweep`` builds its cells from parts parsed once per distinct
    axis value; each cell must equal this one, its error included.  A
    section that is not an object is left for the parser to reject.
    """
    obj = copy.deepcopy(grid.template)
    for (name, _), value in zip(grid.axes, values):
        if name == "nu":
            obj["schedule"] = {"segments": [{"start": 0, "nu": value}]}
        elif name == "gini0":
            total = _template_total(obj)
            obj["initial"] = {"generator": "gini_target", "gini": value, "total": total}
        else:
            section, field = {
                "alpha": ("params", "alpha"),
                "delta": ("params", "delta"),
                "phi": ("params", "phi"),
                "envy_base": ("envy", "base"),
                "envy_scale": ("envy", "scale"),
            }[name]
            if isinstance(obj.setdefault(section, {}), dict):
                obj[section][field] = value
    return parse_scenario(obj, source="<cell>")


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
    ok = (arg1 > 0.0) & (arg2 > 0.0)
    out = np.log(arg1, where=ok, out=np.full(ok.shape, -np.inf))
    out += delta * np.log(arg2, where=ok, out=np.zeros(ok.shape))
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
