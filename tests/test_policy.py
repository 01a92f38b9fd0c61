"""Fiscal schedules, budget verification, reform planning."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from joneses import equilibrium

from joneses import (
    build_schedule,
    budget_check,
    compose_reform_schedule,
    gamma_star,
    plan_reform,
    simulate,
    solve_temporary,
    steady_capital,
    tax_rates,
    validate_params,
)
from joneses.errors import (
    BudgetViolation,
    DomainError,
    Infeasible,
    JonesesError,
    NonMonotoneSegments,
    NuOutOfBounds,
    ScheduleTooShort,
    ValidationError,
)
from support import (
    BASELINE,
    UNIT_ENVY,
    random_envy,
    random_initial,
    random_nu,
    random_params,
    reform_trigger_oracle,
)


def realised_gamma_at_trigger(initial, plan, params, envy):
    """Envy weight at the trigger period on the schedule the plan emits."""
    schedule = compose_reform_schedule(plan, params.phi, params)
    traj = simulate(initial, schedule, plan.trigger_period + 1, params, envy)
    return traj.records[-1].gamma


class TestBuildSchedule:
    def test_constant(self):
        s = build_schedule(0.1, [(0, 1.0)], BASELINE)
        assert s.nu_at(0) == 1.0 and s.nu_at(10_000) == 1.0
        assert tax_rates(s.nu_at(3), BASELINE).tau_w == pytest.approx(0.1, abs=1e-15)

    def test_two_stage_lookup(self):
        s = build_schedule(0.1, [(0, 0.7), (50, 1.0)], BASELINE)
        assert s.nu_at(49) == 0.7
        assert s.nu_at(50) == 1.0
        assert s.nu_at(51) == 1.0

    def test_a_negative_period_is_rejected(self):
        s = build_schedule(0.1, [(0, 1.0)], BASELINE)
        with pytest.raises(DomainError, match="period must be >= 0, got -1"):
            s.nu_at(-1)

    def test_nu_out_of_bounds(self):
        with pytest.raises(NuOutOfBounds):
            build_schedule(0.1, [(0, 0.5)], BASELINE)

    def test_non_monotone_starts(self):
        with pytest.raises(NonMonotoneSegments):
            build_schedule(0.1, [(0, 1.0), (10, 0.9), (10, 0.8)], BASELINE)

    def test_must_cover_period_zero(self):
        with pytest.raises(ScheduleTooShort):
            build_schedule(0.1, [(5, 1.0)], BASELINE)
        with pytest.raises(ScheduleTooShort):
            build_schedule(0.1, [], BASELINE)

    @pytest.mark.parametrize("start", [2.5, float("nan"), float("inf"), True, "2"])
    def test_start_must_be_an_integer(self, start):
        with pytest.raises(DomainError, match="segment start must be an integer"):
            build_schedule(0.1, [(0, 1.0), (start, 1.05)], BASELINE)

    @pytest.mark.parametrize("start", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_starts_are_taken_as_ints(self, start):
        s = build_schedule(0.1, [(0, 1.0), (start, 1.05)], BASELINE)
        assert s.segments == ((0, 1.0), (2, 1.05))
        assert type(s.segments[1][0]) is int

    def test_phi_must_match_params(self):
        with pytest.raises(ValidationError):
            build_schedule(0.2, [(0, 1.0)], BASELINE)


class TestBudgetCheck:
    def test_solver_output_balances(self):
        eq = solve_temporary(
            [0.4, 0, 0, 0], 1.0, 1.0, BASELINE, UNIT_ENVY
        )
        report = budget_check(eq, BASELINE)
        assert abs(report.rel_residual) < 1e-10
        assert report.spending == pytest.approx(
            BASELINE.phi * 4 * 0.1 ** BASELINE.alpha, rel=1e-13
        )

    def test_zero_spending_means_zero_revenue(self):
        p = dataclasses.replace(BASELINE, phi=0.0)
        eq = solve_temporary([0.1] * 4, 1.0, 1.0, p, UNIT_ENVY)
        report = budget_check(eq, p)
        assert report.revenue == 0.0 and report.spending == 0.0

    def test_perturbed_labour_tax_flags_violation(self):
        eq = solve_temporary([0.1] * 4, 1.0, 1.0, BASELINE, UNIT_ENVY)
        broken = dataclasses.replace(
            eq, taxes=dataclasses.replace(eq.taxes, tau_w=eq.taxes.tau_w + 1e-6)
        )
        with pytest.raises(BudgetViolation):
            budget_check(broken, BASELINE)

    def test_balances_along_every_schedule(self):
        schedule = build_schedule(0.1, [(0, 0.7), (7, 1.1)], BASELINE)
        traj = simulate([0.2, 0.1, 0.05, 0.01], schedule, 30, BASELINE, UNIT_ENVY)
        for r in traj.records:
            assert abs(budget_check(r, BASELINE).rel_residual) < 1e-10


class TestPlanReform:
    def test_low_inequality_triggers_immediately(self):
        plan = plan_reform(
            [0.3, 0.3, 0, 0], BASELINE, UNIT_ENVY, 0.7, BASELINE.nu_upper, margin=0.01
        )
        # gamma0 = 0.5 already sits below gamma_star(nu_upper) - margin
        assert plan.trigger_period == 0
        assert plan.projected_limit_k == pytest.approx(
            steady_capital(0.0, 1.0, BASELINE.nu_upper, BASELINE), rel=1e-13
        )

    def test_intermediate_inequality_takes_time(self):
        initial = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]  # gamma0 = 0.7
        plan = plan_reform(
            initial, BASELINE, UNIT_ENVY, 0.7, BASELINE.nu_upper, margin=0.01
        )
        assert plan.trigger_period > 0
        assert plan.gamma_at_trigger < gamma_star(BASELINE.nu_upper, BASELINE) - 0.01

    def test_precondition_guard(self):
        with pytest.raises(Infeasible):
            plan_reform([0.4, 0, 0, 0], BASELINE, UNIT_ENVY, 0.7, 1.0)

    def test_horizon_exhaustion(self):
        # a margin above gamma_star(stage2) makes the target unreachable
        with pytest.raises(Infeasible):
            plan_reform(
                [0.3, 0.3, 0, 0],
                BASELINE,
                UNIT_ENVY,
                0.7,
                BASELINE.nu_upper,
                margin=1.0,
                max_horizon=50,
            )

    def test_exact_fixed_point_stops_the_search(self):
        # the stage-1 path reaches its exact fixed point above the target;
        # without the stop this would solve 10**9 periods
        with pytest.raises(Infeasible, match=r"within 1000000000 periods$"):
            plan_reform(
                [0.3, 0.3, 0, 0],
                BASELINE,
                UNIT_ENVY,
                0.7,
                BASELINE.nu_upper,
                margin=1.0,
                max_horizon=10**9,
            )

    def test_an_exact_cycle_stops_the_search(self, monkeypatch):
        # [0.1] * 4 enters an exact 4-cycle at period 30, its weight 0 never below a target
        # of -1: the search ends once the cycle closes, in period 33, not after 10**9 periods
        paths, block = [], equilibrium._block

        def spy(block_paths, *args, **kwargs):
            paths.extend(block_paths)
            return block(block_paths, *args, **kwargs)

        monkeypatch.setattr(equilibrium, "_block", spy)
        margin = gamma_star(1.0, BASELINE) + 1.0
        with pytest.raises(Infeasible, match=r"within 1000000000 periods$"):
            plan_reform([0.1] * 4, BASELINE, UNIT_ENVY, 1.0, 1.0, margin=margin, max_horizon=10**9)
        (path,) = paths
        assert equilibrium._tally(path)["first"] == 34

    @pytest.mark.parametrize("max_horizon", [-1, 2.0, True])
    def test_max_horizon_must_be_a_nonnegative_integer(self, max_horizon):
        with pytest.raises(DomainError, match="max_horizon"):
            plan_reform([0.3, 0.3, 0, 0], BASELINE, UNIT_ENVY, 0.7, 1.0, max_horizon=max_horizon)

    def test_zero_max_horizon_is_valid(self):
        plan = plan_reform([0.3, 0.3, 0, 0], BASELINE, UNIT_ENVY, 0.7, 1.0, max_horizon=0)
        assert plan.trigger_period == 0
        with pytest.raises(Infeasible, match=r"within 0 periods$"):
            plan_reform([0.3, 0.3, 0, 0], BASELINE, UNIT_ENVY, 0.7, 1.0, margin=1.0, max_horizon=0)

    def test_lowering_the_tilt_rejected(self):
        with pytest.raises(ValidationError):
            plan_reform([0.3, 0.3, 0, 0], BASELINE, UNIT_ENVY, 1.0, 0.7)

    def test_degenerate_equal_stages(self):
        plan = plan_reform([0.3, 0.3, 0, 0], BASELINE, UNIT_ENVY, 0.7, 0.7, margin=0.01)
        assert plan.stage1_nu == plan.stage2_nu
        schedule = compose_reform_schedule(plan, BASELINE.phi, BASELINE)
        assert schedule.segments == ((0, 0.7),)


def _search(plan, *args):
    """A trigger search's outcome: the trigger and the bytes of its weight, or the error."""
    try:
        found = plan(*args)
    except JonesesError as exc:
        return type(exc), str(exc)
    if not isinstance(found, tuple):
        found = found.trigger_period, found.gamma_at_trigger
    return found[0], found[1].hex()


def _assert_planner_equals_oracle(*args):
    got = _search(plan_reform, *args)
    assert got == _search(reform_trigger_oracle, *args)
    return got


class TestPlannerEqualsTriggerOracle:
    """``plan_reform`` steps the path driver; the oracle chains public ``solve_temporary`` calls."""

    INITIAL = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]  # triggers in period 4

    @pytest.mark.parametrize("max_horizon", [0, 1, 50, 10**9])
    def test_every_max_horizon(self, max_horizon):
        args = (self.INITIAL, BASELINE, UNIT_ENVY, 0.7, BASELINE.nu_upper, 0.01, max_horizon)
        got = _assert_planner_equals_oracle(*args)
        assert got[0] == (4 if max_horizon >= 4 else Infeasible)

    def test_exact_fixed_point_is_infeasible(self):
        args = ([0.3, 0.3, 0, 0], BASELINE, UNIT_ENVY, 0.7, BASELINE.nu_upper, 1.0, 10**9)
        assert _assert_planner_equals_oracle(*args)[0] is Infeasible

    def test_error_in_the_search(self):
        # the gross return overflows in the first stage-1 period, after the search has begun
        p = validate_params(alpha=0.01, delta=1.0, phi=0.0, n_agents=4)
        got = _assert_planner_equals_oracle([1e-318, 0.0, 0.0, 0.0], p, UNIT_ENVY, 1.0, 1.0, 0.5, 50)
        assert got[0].__name__ == "ModelError" and "gross return" in got[1]

    @given(seed=st.integers(0, 2**32 - 1), max_horizon=st.sampled_from([0, 1, 50, 10**9]))
    @settings(max_examples=150, deadline=None)
    def test_random_plans(self, seed, max_horizon):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        envy = random_envy(rng, p)
        initial = random_initial(rng, p)
        stage1 = random_nu(rng, p)
        stage2 = float(rng.uniform(stage1, p.nu_upper))
        star2 = gamma_star(stage2, p)
        if rng.random() < 0.5:
            margin = float(rng.uniform(0.001, 0.05))
        else:  # a target between the limit's weight and the start's: the search runs
            lo, hi = sorted((envy.base, min(envy.weight(initial), star2)))
            margin = max(star2 - float(rng.uniform(lo, hi)), 1e-3)
        if max_horizon == 10**9:
            # a path whose weight never falls below the target may settle on an exact
            # cycle, not a fixed point, and so search all 10**9 periods
            assume(envy.base + 1e-9 < star2 - margin)
        _assert_planner_equals_oracle(initial, p, envy, stage1, stage2, margin, max_horizon)


class TestComposeReformSchedule:
    def test_two_segment_schedule(self):
        initial = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]
        plan = plan_reform(
            initial, BASELINE, UNIT_ENVY, 0.7, BASELINE.nu_upper, margin=0.01
        )
        schedule = compose_reform_schedule(plan, BASELINE.phi, BASELINE)
        assert schedule.segments == (
            (0, 0.7),
            (plan.trigger_period, BASELINE.nu_upper),
        )

    def test_resimulation_reaches_projected_limit(self):
        initial = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]
        plan = plan_reform(
            initial, BASELINE, UNIT_ENVY, 0.7, BASELINE.nu_upper, margin=0.01
        )
        schedule = compose_reform_schedule(plan, BASELINE.phi, BASELINE)
        traj = simulate(initial, schedule, 400, BASELINE, UNIT_ENVY)
        assert abs(traj.final_k - plan.projected_limit_k) < 1e-6

    def test_post_trigger_envy_stays_below_stage2_threshold(self):
        initial = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]
        plan = plan_reform(
            initial, BASELINE, UNIT_ENVY, 0.7, BASELINE.nu_upper, margin=0.01
        )
        schedule = compose_reform_schedule(plan, BASELINE.phi, BASELINE)
        traj = simulate(initial, schedule, 200, BASELINE, UNIT_ENVY)
        threshold = gamma_star(BASELINE.nu_upper, BASELINE)
        assert np.all(traj.gamma_path[plan.trigger_period :] < threshold)

    def test_trigger_target_holds_on_the_emitted_schedule(self):
        # plan_reform reports gamma on a stage-1-only path; the composed
        # schedule announces stage 2 one period early, which changes gamma
        initial = [0.97, 0.01, 0.01, 0.01]
        plan = plan_reform(initial, BASELINE, UNIT_ENVY, BASELINE.nu_lower, BASELINE.nu_upper)
        target = gamma_star(BASELINE.nu_upper, BASELINE) - plan.margin
        realised = realised_gamma_at_trigger(initial, plan, BASELINE, UNIT_ENVY)
        assert plan.trigger_period == 6
        assert plan.gamma_at_trigger == pytest.approx(0.6178, abs=5e-5)
        assert realised == pytest.approx(0.4577, abs=5e-5)
        assert target == pytest.approx(0.6196, abs=5e-5)
        assert realised < target

    def test_trigger_target_holds_on_random_emitted_schedules(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 300:
            p = random_params(rng)
            envy = random_envy(rng, p)
            initial = random_initial(rng, p)
            stage1 = random_nu(rng, p)
            stage2 = float(rng.uniform(stage1, p.nu_upper))
            margin = float(rng.uniform(0.001, 0.05))
            try:
                plan = plan_reform(initial, p, envy, stage1, stage2, margin, max_horizon=1000)
            except Infeasible:
                continue  # stage 1 does not reduce inequality, or not within the horizon
            if plan.trigger_period == 0:
                continue  # the schedule is stage 2 throughout: nothing announced early
            target = gamma_star(stage2, p) - margin
            assert realised_gamma_at_trigger(initial, plan, p, envy) < target
            checked += 1


def test_reform_dominance_on_random_pairs():
    # raising the tilt raises the egalitarian steady capital, so a reform
    # that switches upward always projects a strictly higher limit
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        if p.phi == 0.0 or p.nu_upper - p.nu_lower < 1e-9:
            continue
        envy = random_envy(rng, p)
        lo, hi = sorted(rng.uniform(p.nu_lower, p.nu_upper, size=2))
        if hi - lo < 1e-12:
            continue
        gamma_eq = envy.base  # weight of the equal distribution
        assert steady_capital(gamma_eq, 1.0, hi, p) > steady_capital(
            gamma_eq, 1.0, lo, p
        )
        checked += 1
