"""Period solver, path iteration, steady states and regime classification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joneses import (
    EnvySpec,
    Trajectory,
    WealthState,
    classify,
    constant_schedule,
    detect_convergence,
    egalitarian_steady,
    gamma_star,
    gamma_uniform_top,
    gini,
    polarised_steady,
    savings_rate,
    simulate,
    solve_temporary,
    steady_capital,
    validate_params,
)
from joneses.equilibrium import (
    _solve_period,
    fixed_point_active_set,
    fixed_point_bisection,
)
from joneses.errors import (
    DomainError,
    EnvyTooStrong,
    NoPositiveRoot,
    NotSustainable,
    ScheduleTooShort,
)
from support import (
    BASELINE,
    TOL_LIMIT,
    TOL_SOLVER,
    UNIT_ENVY,
    active_set_oracle,
    check_path_invariants,
    convergence_oracle,
    grid_search_best_utility,
    random_envy,
    random_initial,
    random_nu,
    random_params,
    solver_utility,
)


def _solver_inputs(beq, nu_t, params, envy):
    """Recompute the period solver's fixed-point inputs from raw quantities."""
    beq = np.asarray(beq, dtype=float)
    k = beq.mean()
    gamma = envy.weight(beq)
    z = gamma / (1.0 + gamma)
    gross = params.alpha * k ** (params.alpha - 1.0)
    tau_s = 1.0 - nu_t * (1.0 - params.phi) / (params.alpha * nu_t + 1.0 - params.alpha)
    net = (1.0 - tau_s) * gross
    income = net * (params.xi / nu_t * k + beq)
    total = net * (params.xi / nu_t + 1.0) * k
    return income, z, total


class TestSolveTemporary:
    def test_equal_start_matches_closed_form(self):
        eq = solve_temporary(WealthState(0, [0.1] * 4), 1.0, 1.0, BASELINE, UNIT_ENVY)
        k1 = 0.225 * 0.1 ** (1 / 3)
        assert eq.gamma == 0.0
        assert eq.k_next == pytest.approx(k1, abs=TOL_SOLVER)
        assert eq.avg_consumption == pytest.approx(0.675 * 0.1 ** (1 / 3), abs=TOL_SOLVER)
        assert eq.m_count == 4
        np.testing.assert_allclose(eq.bequests_next, k1, atol=TOL_SOLVER)

    def test_equal_inputs_give_identical_allocations(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = random_params(rng)
            nu = random_nu(rng, p)
            level = rng.uniform(0.02, 2.0)
            eq = solve_temporary(
                WealthState(0, [level] * p.n_agents), nu, nu, p, random_envy(rng, p)
            )
            assert np.unique(eq.bequests_next).size == 1
            assert np.unique(eq.consumptions).size == 1

    def test_polarised_start_satisfies_every_invariant(self):
        eq = solve_temporary(
            WealthState(0, [0.4, 0, 0, 0]), 1.0, 1.0, BASELINE, UNIT_ENVY
        )
        assert eq.gamma == pytest.approx(0.75)
        assert eq.gamma > gamma_star(1.0, BASELINE)
        income, z, total = _solver_inputs([0.4, 0, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        np.testing.assert_allclose(
            eq.consumptions + eq.bequests_next, income, atol=TOL_SOLVER
        )
        assert eq.avg_consumption + eq.k_next == pytest.approx(
            (1 - BASELINE.phi) * 0.1 ** BASELINE.alpha, abs=TOL_SOLVER
        )
        assert eq.k_next == pytest.approx(eq.bequests_next.mean(), abs=TOL_SOLVER)
        assert np.all(eq.consumptions > z * eq.avg_consumption)

    def test_polarised_start_agents_are_optimal_by_grid_search(self):
        eq = solve_temporary(
            WealthState(0, [0.4, 0, 0, 0]), 1.0, 1.0, BASELINE, UNIT_ENVY
        )
        income, _, _ = _solver_inputs([0.4, 0, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        for j in range(4):
            best = grid_search_best_utility(
                income[j],
                eq.gamma,
                eq.avg_consumption,
                BASELINE.delta,
                BASELINE.xi / 1.0,
                eq.k_next,
            )
            mine = solver_utility(eq, j, BASELINE, 1.0, 1.0)
            assert best <= mine + 1e-9

    def test_full_participation_capital_law_with_bisection_cross_check(self):
        # with every dynasty saving, next capital is the closed-form savings
        # rate times output; the bisection root agrees independently
        eq = solve_temporary(WealthState(0, [0.1] * 4), 1.0, 1.0, BASELINE, UNIT_ENVY)
        expected = savings_rate(0.0, 1.0, 1.0, BASELINE) * 0.1 ** BASELINE.alpha
        assert eq.k_next == pytest.approx(expected, abs=TOL_SOLVER)
        income, z, total = _solver_inputs([0.1] * 4, 1.0, BASELINE, UNIT_ENVY)
        root = fixed_point_bisection(income, z, total, BASELINE.delta, BASELINE.xi)
        assert root == pytest.approx(eq.k_next, abs=TOL_SOLVER)

    def test_active_set_and_bisection_agree_on_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            p = random_params(rng)
            envy = random_envy(rng, p)
            nu_t, nu_next = random_nu(rng, p), random_nu(rng, p)
            income, z, total = _solver_inputs(
                random_initial(rng, p), nu_t, p, envy
            )
            xnn = p.xi / nu_next
            exact = fixed_point_active_set(income, z, total, p.delta, xnn)
            assert exact is not None
            approx = fixed_point_bisection(income, z, total, p.delta, xnn)
            assert abs(exact - approx) < TOL_SOLVER * max(1.0, exact)

    def test_envy_beyond_ceiling_raises(self):
        with pytest.raises(EnvyTooStrong):
            solve_temporary(
                WealthState(0, [0.4, 0, 0, 0]), 1.0, 1.0, BASELINE, EnvySpec(0.0, 6.0)
            )

    def test_no_positive_root_guard(self):
        # synthetic inputs where nobody saves even at zero next capital
        with pytest.raises(NoPositiveRoot):
            fixed_point_bisection(
                np.array([0.1, 0.1]), z=0.9, total=1.0, delta=1.0, xi_over_nu_next=2.0
            )

    def test_state_validation(self):
        with pytest.raises(DomainError):
            WealthState(-1, [0.1, 0.1])
        with pytest.raises(DomainError):
            WealthState(0, [0.0, 0.0])
        state = WealthState(3, [0.1, 0.3])
        assert state.capital_intensity == pytest.approx(0.2)


def _active_count(income, z, total, delta, xnn, kappa):
    heads = delta * income - delta * z * (total - kappa) - xnn * kappa
    return int(np.count_nonzero(heads > 0.0))


@st.composite
def fixed_point_instances(draw):
    """Income vectors with ties, zeros and any order, plus solver coefficients."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(2, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    income = rng.lognormal(sigma=draw(st.floats(0.0, 3.0)), size=n)
    levels = draw(st.integers(0, 6))
    if levels:  # ties: snap the incomes onto a few values
        income = np.sort(income)[rng.integers(0, n, size=levels)][rng.integers(0, levels, size=n)]
    income[rng.random(n) < draw(st.floats(0.0, 1.0))] = 0.0
    order = draw(st.sampled_from(["unsorted", "ascending", "descending"]))
    if order != "unsorted":
        income = np.sort(income)
        if order == "descending":
            income = income[::-1]
    total = float(income.mean()) * draw(st.sampled_from([1.0, 0.5, 1.5]))
    z = draw(st.floats(0.0, 0.95))
    delta = draw(st.floats(0.2, 3.0))
    xnn = draw(st.floats(0.05, 4.0))
    return income, z, total, delta, xnn


@given(instance=fixed_point_instances())
@settings(max_examples=300, deadline=None)
def test_block_scan_equals_scalar_oracle(instance):
    income, z, total, delta, xnn = instance
    before = income.copy()
    got = fixed_point_active_set(income, z, total, delta, xnn)
    assert got == active_set_oracle(income, z, total, delta, xnn)
    np.testing.assert_array_equal(income, before)


@pytest.mark.parametrize("m", [1, 15, 16, 17, 143, 144, 145, 1167, 1168, 1169])
def test_block_scan_on_block_edges(m):
    # m rich dynasties, the rest hold nothing: the root's active set is exactly m
    rng = np.random.default_rng(m)
    n = m + 7
    income = np.zeros(n)
    income[:m] = 1.0 + 0.2 * rng.random(m)
    rng.shuffle(income)
    args = (income.mean(), 1.0, 0.5)
    for inc in (income, np.sort(income)[::-1], np.sort(income)):
        got = fixed_point_active_set(inc, 0.5, *args)
        assert got is not None
        assert got == active_set_oracle(inc, 0.5, *args)
        assert _active_count(inc, 0.5, *args, got) == m


def _assert_same_records(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=field.name)
        else:
            assert x == y, field.name


def _chain_of_solves(initial, nus, horizon, params, envy):
    """The path as public solve_temporary calls, every period solved afresh."""
    records, beq = [], initial
    for t in range(horizon):
        records.append(solve_temporary(WealthState(t, beq), nus[t], nus[t + 1], params, envy))
        beq = records[-1].bequests_next
    return Trajectory(records=tuple(records))


class TestCarriedOrder:
    @pytest.mark.parametrize("stale", ["reversed", "random", "identity"])
    def test_stale_order_is_repaired(self, stale):
        rng = np.random.default_rng(61)
        p = BASELINE
        for _ in range(20):
            beq = random_initial(rng, p)
            fresh = solve_temporary(WealthState(0, beq), 1.0, 1.1, p, UNIT_ENVY)
            order = {
                "reversed": np.argsort(beq, kind="stable")[::-1].copy(),
                "random": rng.permutation(p.n_agents),
                "identity": np.arange(p.n_agents),
            }[stale]
            eq = _solve_period(beq, order, 1.0, 1.1, p, UNIT_ENVY)
            _assert_same_records(eq, fresh)
            assert np.all(np.diff(beq[order]) >= 0.0)

    def test_simulate_equals_chain_of_public_solves(self):
        rng = np.random.default_rng(67)
        p = validate_params(alpha=0.3, delta=1.4, phi=0.08, n_agents=1024)
        envy = random_envy(rng, p)
        for initial in (random_initial(rng, p), rng.random(p.n_agents)):
            nus = [random_nu(rng, p) for _ in range(31)]
            traj = simulate(initial, nus, 30, p, envy)
            chain = _chain_of_solves(initial, nus, 30, p, envy)
            for record, eq in zip(traj.records, chain.records, strict=True):
                _assert_same_records(record, eq)
                # means over agent order, Gini as for unsorted input: bit for bit
                assert record.k == float(np.mean(record.bequests))
                assert record.k_next == float(np.mean(record.bequests_next))
                assert record.gini == gini(record.bequests)


def _assert_bitwise_paths(traj, chain):
    assert traj.horizon == chain.horizon
    for a, b in zip(traj.records, chain.records):
        _assert_same_records(a, b)
        assert a.bequests_next.tobytes() == b.bequests_next.tobytes()
        assert a.consumptions.tobytes() == b.consumptions.tobytes()


def _assert_same_convergence(traj):
    for tol in (1e-8, 1e-14):
        got, want = detect_convergence(traj, tol), convergence_oracle(traj, tol)
        if want is None:
            assert got is None
            continue
        assert (got.period, got.k, got.reentered) == (want.period, want.k, want.reentered)
        assert got.bequests.tobytes() == want.bequests.tobytes()


def _first_repeat(traj):
    """First period that repeats the record of the period before, or None."""
    records = traj.records
    return next((t for t in range(1, len(records)) if records[t] is records[t - 1]), None)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4, 64]))
@settings(max_examples=30, deadline=None)
def test_repeated_records_equal_a_chain_of_solves(seed, n):
    rng = np.random.default_rng(seed)
    drawn = random_params(rng)
    p = validate_params(alpha=drawn.alpha, delta=drawn.delta, phi=drawn.phi, n_agents=n)
    envy = random_envy(rng, p)
    nu1, nu2 = random_nu(rng, p), random_nu(rng, p)
    initial = random_initial(rng, p)
    horizon = 400  # most drawn paths reach their exact fixed point by period 300
    nus = [nu1] * (horizon + 1)
    traj = simulate(initial, nus, horizon, p, envy)
    _assert_bitwise_paths(traj, _chain_of_solves(initial, nus, horizon, p, envy))
    _assert_same_convergence(traj)
    fixed = _first_repeat(traj)
    if fixed is None:
        return
    assert all(r.stationary for r in traj.records[fixed:])
    # the tilt changes two periods after the fixed point, then changes back
    horizon = fixed + 60
    nus = [nu1] * (fixed + 2) + [nu2] * 20 + [nu1] * 39
    traj = simulate(initial, nus, horizon, p, envy)
    _assert_bitwise_paths(traj, _chain_of_solves(initial, nus, horizon, p, envy))
    _assert_same_convergence(traj)


class TestStationaryRepeat:
    def test_polarised_path_holds_few_distinct_records(self):
        # 97% of the wealth on 16 of 1024 dynasties: the path sits at its exact
        # fixed point from period 32 on
        p = validate_params(alpha=1 / 3, delta=1.0, phi=0.1, n_agents=1024)
        rng = np.random.default_rng(71)
        initial = rng.random(p.n_agents)
        rich = rng.choice(p.n_agents, 16, replace=False)
        initial[rich] = 0.0
        initial *= 0.03 * p.n_agents / initial.sum()
        initial[rich] = 0.97 * p.n_agents / 16
        traj = simulate(initial, constant_schedule(1.0, p), 400, p, UNIT_ENVY)
        assert len({id(r) for r in traj.records}) <= 40
        chain = _chain_of_solves(initial, [1.0] * 401, 400, p, UNIT_ENVY)
        assert traj.final_bequests.tobytes() == chain.final_bequests.tobytes()

    def test_equal_tilt_of_another_type_is_solved(self):
        # 1.0 == float32(1.0), but a float32 tilt prices taxes in float32
        initial = [0.4, 0.0, 0.0, 0.0]
        fixed = _first_repeat(simulate(initial, [1.0] * 201, 200, BASELINE, UNIT_ENVY))
        assert fixed is not None
        nus = [1.0] * (fixed + 2) + [np.float32(1.0)] * 10
        traj = simulate(initial, nus, fixed + 11, BASELINE, UNIT_ENVY)
        chain = _chain_of_solves(initial, nus, fixed + 11, BASELINE, UNIT_ENVY)
        _assert_bitwise_paths(traj, chain)


class TestSimulate:
    def test_single_period_reproduces_solver(self):
        traj = simulate(
            [0.4, 0, 0, 0], constant_schedule(1.0, BASELINE), 1, BASELINE, UNIT_ENVY
        )
        eq = solve_temporary(
            WealthState(0, [0.4, 0, 0, 0]), 1.0, 1.0, BASELINE, UNIT_ENVY
        )
        assert traj.horizon == 1
        np.testing.assert_array_equal(traj.records[0].bequests_next, eq.bequests_next)
        assert traj.records[0].k_next == eq.k_next

    def test_equal_start_converges_to_egalitarian_limit(self):
        traj = simulate(
            [0.1] * 4, constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        target = steady_capital(0.0, 1.0, 1.0, BASELINE)
        assert abs(traj.final_k - target) < TOL_LIMIT
        assert np.all(traj.m_counts == 4)
        assert np.all(traj.gamma_path == 0.0)

    def test_polarised_start_converges_with_top_holding_everything(self):
        traj = simulate(
            [0.4, 0, 0, 0], constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        target = steady_capital(0.75, 0.25, 1.0, BASELINE)
        assert abs(traj.final_k - target) < TOL_LIMIT
        m = traj.m_counts
        assert np.all(m[:-1] >= m[1:])  # non-increasing
        assert m[-1] == 1
        last = traj.records[-1]
        assert last.bequests_next[0] / last.k_next == pytest.approx(4.0, abs=TOL_SOLVER)

    def test_explicit_nu_sequence_accepted(self):
        nus = [1.0] * 6
        traj = simulate([0.1] * 4, nus, 5, BASELINE, UNIT_ENVY)
        assert traj.horizon == 5

    def test_short_sequence_rejected(self):
        with pytest.raises(ScheduleTooShort):
            simulate([0.1] * 4, [1.0] * 5, 5, BASELINE, UNIT_ENVY)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(DomainError):
            simulate([0.1] * 4, constant_schedule(1.0, BASELINE), 0, BASELINE, UNIT_ENVY)

    def test_randomized_paths_satisfy_dynamic_laws(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            p = random_params(rng, max_agents=10)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            initial = random_initial(rng, p)
            traj = simulate(initial, constant_schedule(nu, p), 40, p, envy)
            check_path_invariants(traj, nu, p, envy)


class TestSteadyStates:
    def test_egalitarian_values(self):
        state = egalitarian_steady(BASELINE, 1.0, UNIT_ENVY)
        assert state.k == pytest.approx(0.225**1.5, rel=1e-13)
        assert state.savings_rate == pytest.approx(0.225, rel=1e-14)
        c = 0.9 * state.k ** (1 / 3) - state.k
        assert c == pytest.approx(0.3201806130920485, rel=1e-12)
        np.testing.assert_allclose(state.consumptions, c, rtol=1e-13)
        np.testing.assert_allclose(state.bequests, state.k, rtol=0, atol=0)

    def test_egalitarian_is_fixed_point_of_solver(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            p = random_params(rng, max_agents=8)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            state = egalitarian_steady(p, nu, envy)
            eq = solve_temporary(WealthState(0, state.bequests), nu, nu, p, envy)
            np.testing.assert_allclose(
                eq.bequests_next, state.bequests, atol=TOL_SOLVER
            )
            np.testing.assert_allclose(
                eq.consumptions, state.consumptions, atol=TOL_SOLVER
            )

    def test_polarised_values(self):
        state = polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=1)
        k = steady_capital(0.75, 0.25, 1.0, BASELINE)
        assert state.k == pytest.approx(k, rel=1e-13)
        assert state.bequests[0] == pytest.approx(4 * k, rel=1e-13)
        assert np.all(state.bequests[1:] == 0.0)
        assert state.consumptions[1] == pytest.approx(
            (2 / 3) * 0.9 * k ** (1 / 3), rel=1e-12
        )
        # aggregate resource identity pins down the rich dynasty's consumption
        total = 4 * (1 - BASELINE.phi) * k ** BASELINE.alpha
        assert state.consumptions.sum() + 4 * k == pytest.approx(total, abs=TOL_SOLVER)

    def test_polarised_is_fixed_point_of_solver(self):
        state = polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=1)
        eq = solve_temporary(WealthState(0, state.bequests), 1.0, 1.0, BASELINE, UNIT_ENVY)
        np.testing.assert_allclose(eq.bequests_next, state.bequests, atol=TOL_SOLVER)
        np.testing.assert_allclose(eq.consumptions, state.consumptions, atol=TOL_SOLVER)

    def test_unsustainable_split_rejected(self):
        # three rich dynasties leave envy 0.25, below the threshold at nu=0.7
        assert gamma_uniform_top(UNIT_ENVY, 3, 4) == pytest.approx(0.25)
        with pytest.raises(NotSustainable):
            polarised_steady(BASELINE, 0.7, UNIT_ENVY, rich_count=3)

    def test_rich_count_domain(self):
        with pytest.raises(DomainError):
            polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=0)
        with pytest.raises(DomainError):
            polarised_steady(BASELINE, 1.0, UNIT_ENVY, rich_count=4)

    def test_egalitarian_output_dominates_polarised(self):
        rng = np.random.default_rng(61)
        found = 0
        while found < 50:
            p = random_params(rng)
            envy = EnvySpec(base=0.0, scale=random_envy(rng, p).scale)
            nu = random_nu(rng, p)
            rich = int(rng.integers(1, p.n_agents))
            if gamma_uniform_top(envy, rich, p.n_agents) <= gamma_star(nu, p):
                continue
            pol = polarised_steady(p, nu, envy, rich)
            egal = egalitarian_steady(p, nu, envy)
            assert egal.k > pol.k
            found += 1


class TestClassify:
    def test_equal_start_is_egalitarian(self):
        regime = classify([0.1] * 4, 1.0, BASELINE, UNIT_ENVY)
        assert regime.kind == "egalitarian"
        assert regime.limit_k == pytest.approx(0.225**1.5, rel=1e-13)

    def test_concentrated_start_is_polarised(self):
        regime = classify([0.4, 0, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        assert regime.kind == "polarised"
        assert regime.rich_count == 1
        assert regime.limit_k == pytest.approx(
            steady_capital(0.75, 0.25, 1.0, BASELINE), rel=1e-13
        )

    def test_two_rich_start_below_threshold(self):
        regime = classify([0.3, 0.3, 0, 0], 1.0, BASELINE, UNIT_ENVY)
        assert regime.gamma0 == pytest.approx(0.5)
        assert regime.kind == "egalitarian"

    def test_tie_count_uses_exact_equality(self):
        # after Gini(0.3, 0.3, 0.2, 0.2) = 0.125 the regime needs base lift
        envy = EnvySpec(base=0.6, scale=1.0)
        regime = classify([0.3, 0.3, 0.2, 0.2], 1.0, BASELINE, envy)
        assert regime.kind == "polarised"
        assert regime.rich_count == 2

    def test_boundary_within_identity_tolerance(self):
        envy = EnvySpec(base=gamma_star(1.0, BASELINE), scale=0.0)
        regime = classify([0.1] * 4, 1.0, BASELINE, envy)
        assert regime.kind == "boundary"
        assert regime.limit_k is None

    def test_classification_matches_long_simulation(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            p = random_params(rng, max_agents=6)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            initial = random_initial(rng, p)
            regime = classify(initial, nu, p, envy)
            if regime.kind == "boundary":
                continue
            traj = simulate(initial, constant_schedule(nu, p), 400, p, envy)
            assert abs(traj.final_k - regime.limit_k) < 1e-6


class TestDetectConvergence:
    def test_steady_trajectory_converges_at_period_one(self):
        state = egalitarian_steady(BASELINE, 1.0, UNIT_ENVY)
        traj = simulate(
            state.bequests, constant_schedule(1.0, BASELINE), 5, BASELINE, UNIT_ENVY
        )
        report = detect_convergence(traj, 1e-10)
        assert report is not None
        assert report.period == 1
        assert not report.reentered

    def test_equal_start_converges_before_horizon(self):
        traj = simulate(
            [0.1] * 4, constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        report = detect_convergence(traj, 1e-8)
        assert report is not None
        assert report.period < 200
        assert not report.reentered
        assert report.k == traj.final_k

    def test_none_when_still_moving(self):
        traj = simulate(
            [0.1] * 4, constant_schedule(1.0, BASELINE), 3, BASELINE, UNIT_ENVY
        )
        assert detect_convergence(traj, 1e-14) is None
