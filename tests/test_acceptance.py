"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime:

    limits at horizon 200        1e-8   (absolute on k)
    solver agreement / budgets   1e-10
    grid-search utility slack    1e-9   (grid cannot beat the true optimum;
                                         allowance covers log-evaluation noise)
    breakpoint location          1e-9
    reform convergence           1e-6   (absolute on k at horizon 400)
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from joneses import (
    EnvySpec,
    constant_schedule,
    egalitarian_steady,
    gamma_star,
    gamma_uniform_top,
    locate_regime_flip,
    plan_reform,
    polarised_steady,
    compose_reform_schedule,
    simulate,
    solve_temporary,
    steady_capital,
)
from joneses.envy import gini
from joneses.errors import NotSustainable
from joneses.output import (
    render_phase_plot,
    render_savings_step_plot,
    write_trajectory_csv,
)
from joneses.sweep import parse_grid, run_sweep
from support import (
    BASELINE,
    TOL_LIMIT,
    TOL_SOLVER,
    TOL_UTILITY,
    UNIT_ENVY,
    check_path_invariants,
    fixed_point_bisection,
    grid_search_best_utility,
    random_envy,
    random_initial,
    random_nu,
    random_params,
    scan_row,
    solver_utility,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL", flush=True)
        raise
    print(f"[criterion {number}] {name}: PASS", flush=True)


def test_criterion_1_egalitarian_convergence():
    with criterion(1, "egalitarian convergence"):
        start = time.perf_counter()
        traj = simulate(
            [0.1] * 4, constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        elapsed = time.perf_counter() - start
        target = steady_capital(0.0, 1.0, 1.0, BASELINE)
        assert abs(traj.final_k - target) < TOL_LIMIT
        assert np.all(traj.m_counts == 4)
        assert np.all(traj.gamma_path == 0.0)
        assert elapsed < 1.0


def test_criterion_2_polarised_convergence():
    with criterion(2, "polarised convergence"):
        start = time.perf_counter()
        traj = simulate(
            [0.4, 0, 0, 0], constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
        )
        elapsed = time.perf_counter() - start
        m = traj.m_counts
        assert np.all(m[:-1] >= m[1:])
        assert m[-1] == 1
        first_single = int(np.nonzero(m == 1)[0][0])
        for t in range(first_single + 1, traj.horizon):
            r = traj.records[t]
            assert abs(r.bequests_next[0] / r.k_next - 4.0) < TOL_SOLVER
        target = steady_capital(0.75, 0.25, 1.0, BASELINE)
        assert abs(traj.final_k - target) < TOL_LIMIT
        assert elapsed < 1.0


def test_criterion_3_egalitarian_output_dominance():
    with criterion(3, "egalitarian output dominance"):
        rng = np.random.default_rng(2024)
        found = 0
        while found < 200:
            p = random_params(rng)
            scale = random_envy(rng, p).scale
            envy = EnvySpec(base=0.0, scale=scale)
            nu = random_nu(rng, p)
            rich = int(rng.integers(1, p.n_agents))
            if gamma_uniform_top(envy, rich, p.n_agents) <= gamma_star(nu, p):
                continue  # polarised state does not exist here
            k_egal = steady_capital(0.0, 1.0, nu, p)
            k_pol = steady_capital(
                gamma_uniform_top(envy, rich, p.n_agents), rich / p.n_agents, nu, p
            )
            assert k_egal > k_pol
            found += 1


def test_criterion_4_path_invariant_suite():
    with criterion(4, "path invariant suite (1000 paths)"):
        rng = np.random.default_rng(4096)
        for _ in range(1000):
            p = random_params(rng, max_agents=16)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            initial = random_initial(rng, p)
            horizon = int(rng.integers(20, 101))
            traj = simulate(initial, constant_schedule(nu, p), horizon, p, envy)
            check_path_invariants(traj, nu, p, envy)


def _fixed_point_inputs(rng):
    p = random_params(rng)
    envy = random_envy(rng, p)
    nu_t, nu_next = random_nu(rng, p), random_nu(rng, p)
    beq = random_initial(rng, p)
    k = beq.mean()
    gamma = envy.weight(beq)
    z = gamma / (1.0 + gamma)
    gross = p.alpha * k ** (p.alpha - 1.0)
    tau_s = 1.0 - nu_t * (1.0 - p.phi) / (p.alpha * nu_t + 1.0 - p.alpha)
    net = (1.0 - tau_s) * gross
    income = net * (p.xi / nu_t * k + beq)
    total = net * (p.xi / nu_t + 1.0) * k
    return income, z, total, p.delta, p.xi / nu_next


def test_criterion_5_solver_correctness():
    with criterion(5, "solver correctness (dual route + grid oracle)"):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            income, z, total, delta, xnn = _fixed_point_inputs(rng)
            exact = scan_row(income, z, total, delta, xnn)
            assert 0.0 < exact < total
            approx = fixed_point_bisection(income, z, total, delta, xnn)
            assert abs(exact - approx) < TOL_SOLVER * max(1.0, exact)

        rng = np.random.default_rng(556)
        for _ in range(200):
            p = random_params(rng, max_agents=6)
            envy = random_envy(rng, p)
            nu_t, nu_next = random_nu(rng, p), random_nu(rng, p)
            beq = random_initial(rng, p)
            eq = solve_temporary(beq, nu_t, nu_next, p, envy)
            income = (
                (1.0 - eq.taxes.tau_s)
                * eq.prices.gross_return
                * (p.xi / nu_t * eq.k + eq.bequests)
            )
            for j in range(p.n_agents):
                best = grid_search_best_utility(
                    income[j],
                    eq.gamma,
                    eq.avg_consumption,
                    p.delta,
                    p.xi / nu_next,
                    eq.k_next,
                )
                assert best <= solver_utility(eq, j, p, nu_t, nu_next) + TOL_UTILITY


def test_criterion_6_steady_state_self_consistency():
    with criterion(6, "steady-state fixed-point self-consistency"):
        rng = np.random.default_rng(666)
        checked = 0
        while checked < 100:
            p = random_params(rng, max_agents=8)
            envy = random_envy(rng, p)
            nu = random_nu(rng, p)
            egal = egalitarian_steady(p, nu, envy)
            eq = solve_temporary(egal.bequests, nu, nu, p, envy)
            assert np.abs(eq.bequests_next - egal.bequests).max() < TOL_SOLVER
            assert np.abs(eq.consumptions - egal.consumptions).max() < TOL_SOLVER
            rich = int(rng.integers(1, p.n_agents))
            try:
                pol = polarised_steady(p, nu, envy, rich)
            except NotSustainable:
                continue
            eq = solve_temporary(pol.bequests, nu, nu, p, envy)
            assert np.abs(eq.bequests_next - pol.bequests).max() < TOL_SOLVER
            assert np.abs(eq.consumptions - pol.consumptions).max() < TOL_SOLVER
            checked += 1


def test_criterion_7_reform_scenario():
    with criterion(7, "two-stage reform removes the trade-off"):
        start = time.perf_counter()
        initial = [0.3, 0.3, 0.0, 0.0]
        plan = plan_reform(
            initial,
            BASELINE,
            UNIT_ENVY,
            stage1_nu=0.7,
            stage2_nu=BASELINE.nu_upper,
            margin=0.01,
        )
        assert plan.trigger_period >= 0  # finite by construction
        schedule = compose_reform_schedule(plan, BASELINE.phi, BASELINE)
        traj = simulate(initial, schedule, 400, BASELINE, UNIT_ENVY)
        target = steady_capital(0.0, 1.0, BASELINE.nu_upper, BASELINE)
        assert abs(traj.final_k - target) < 1e-6
        assert target > steady_capital(0.0, 1.0, 0.7, BASELINE)
        assert time.perf_counter() - start < 5.0


def test_criterion_8_breakpoint_reproduction(tmp_path):
    with criterion(8, "regime-flip breakpoint at nu(gamma0)"):
        analytic = 2 / 0.7 - 2
        plot = render_savings_step_plot(
            0.7, BASELINE, UNIT_ENVY, 1, tmp_path / "savings.svg"
        )
        assert abs(plot.breakpoint_nu - analytic) < 1e-9

        initial = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]  # Gini 0.7 start
        assert gini(initial) == pytest.approx(0.7, abs=1e-15)
        grid = parse_grid(
            {
                "template": {
                    "params": {"alpha": 1 / 3, "delta": 1.0, "phi": 0.1, "n_agents": 4},
                    "envy": {"base": 0.0, "scale": 1.0},
                    "initial": {"values": initial},
                    "schedule": {"segments": [{"start": 0, "nu": 1.0}]},
                    "run": {"horizon": 60, "tol": 1e-8},
                },
                "axes": [{"name": "nu", "values": list(np.linspace(0.75, 1.0, 26))}],
            }
        )
        rows = run_sweep(grid, tmp_path / "sweep")
        kinds = [r.regime for r in rows]
        changes = [i for i in range(1, len(kinds)) if kinds[i] != kinds[i - 1]]
        assert len(changes) == 1
        lo = rows[changes[0] - 1].values[0]
        hi = rows[changes[0]].values[0]
        assert lo < analytic < hi
        flip = locate_regime_flip(np.array(initial), BASELINE, UNIT_ENVY, lo, hi)
        assert abs(flip - analytic) < 1e-9


def test_criterion_9_artifact_determinism(tmp_path):
    with criterion(9, "byte-identical artifacts across runs"):
        def run_csv(path):
            traj = simulate(
                [0.4, 0, 0, 0], constant_schedule(1.0, BASELINE), 200, BASELINE, UNIT_ENVY
            )
            write_trajectory_csv(traj, path, per_agent=True)
            return path.read_bytes()

        assert run_csv(tmp_path / "a.csv") == run_csv(tmp_path / "b.csv")

        curves = [(0.75, 0.25, BASELINE.nu_upper), (0.0, 1.0, 0.75), (0.0, 1.0, BASELINE.nu_upper)]
        render_phase_plot(BASELINE, curves, tmp_path / "p1.svg")
        render_phase_plot(BASELINE, curves, tmp_path / "p2.svg")
        assert (tmp_path / "p1.svg").read_bytes() == (tmp_path / "p2.svg").read_bytes()

        render_savings_step_plot(0.7, BASELINE, UNIT_ENVY, 1, tmp_path / "s1.svg")
        render_savings_step_plot(0.7, BASELINE, UNIT_ENVY, 1, tmp_path / "s2.svg")
        assert (tmp_path / "s1.svg").read_bytes() == (tmp_path / "s2.svg").read_bytes()

        spec = {
            "template": {
                "params": {"alpha": 1 / 3, "delta": 1.0, "phi": 0.1, "n_agents": 4},
                "envy": {"base": 0.0, "scale": 1.0},
                "initial": {"values": [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]},
                "schedule": {"segments": [{"start": 0, "nu": 1.0}]},
                "run": {"horizon": 80, "tol": 1e-8},
            },
            "axes": [{"name": "nu", "values": list(np.linspace(0.72, 1.15, 10))}],
        }
        run_sweep(parse_grid(spec), tmp_path / "run1")
        run_sweep(parse_grid(spec), tmp_path / "run2")
        first = (tmp_path / "run1/sweep.csv").read_bytes()
        assert first == (tmp_path / "run2/sweep.csv").read_bytes()
