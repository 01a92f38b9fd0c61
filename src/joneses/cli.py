"""Command-line interface.

Exit codes: 0 success, 1 invalid input (including usage errors),
2 model-domain failure, 3 I/O failure.  Diagnostics go to stderr;
data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import sys

from .equilibrium import (
    classify,
    detect_convergence,
    egalitarian_steady,
    polarised_steady,
    simulate,
)
from .errors import InputError, ModelError
from .output import (
    fmt,
    render_phase_plot,
    render_savings_step_plot,
    trajectory_csv_lines,
    write_trajectory_csv,
)
from .policy import compose_reform_schedule, plan_reform
from .scenario import load_scenario
from .sweep import load_grid, run_sweep


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _build_parser() -> _Parser:
    parser = _Parser(prog="joneses", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("scenario")

    p = sub.add_parser("simulate", help="run a scenario and emit the trajectory CSV")
    p.add_argument("scenario")
    p.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")
    p.add_argument("--per-agent", action="store_true", help="add s_<j>,c_<j> columns")

    p = sub.add_parser("steady-state", help="closed-form steady state for a scenario")
    p.add_argument("scenario")
    p.add_argument("--rich", type=int, metavar="J", help="polarised state with J rich dynasties")

    p = sub.add_parser("classify", help="long-run regime of the scenario's start")
    p.add_argument("scenario")

    p = sub.add_parser("plan-reform", help="two-stage tilt reform with computed switch date")
    p.add_argument("scenario")
    p.add_argument("--stage1", type=float, required=True, metavar="NU")
    p.add_argument("--stage2", type=float, required=True, metavar="NU")
    p.add_argument("--margin", type=float, default=0.01, metavar="M")
    p.add_argument("--max-horizon", type=int, default=10_000, metavar="H")

    p = sub.add_parser("sweep", help="evaluate a scenario grid into <out>/sweep.csv")
    p.add_argument("grid")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("plot-phase", help="SVG of the capital transition map")
    p.add_argument("scenario")
    p.add_argument(
        "--curve",
        action="append",
        required=True,
        metavar="GAMMA,M,NU",
        help="one transition curve; repeatable",
    )
    p.add_argument("--out", required=True, metavar="PATH")

    p = sub.add_parser("plot-savings", help="SVG of the long-run savings rate vs nu")
    p.add_argument("scenario")
    p.add_argument(
        "--gamma0",
        type=float,
        help="initial envy weight (default: evaluated on the scenario's start)",
    )
    p.add_argument("--out", required=True, metavar="PATH")

    return parser


def _parse_curve(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"--curve expects GAMMA,M,NU, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise InputError(f"--curve expects numbers, got {text!r}") from exc


def _cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    print(
        f"ok: N={sc.params.n_agents} alpha={sc.params.alpha} phi={sc.params.phi} "
        f"nu0={sc.schedule.nu_at(0)} horizon={sc.horizon}",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    traj = simulate(sc.initial, sc.schedule, sc.horizon, sc.params, sc.envy)
    if args.csv:
        write_trajectory_csv(traj, args.csv, per_agent=args.per_agent)
    else:
        for line in trajectory_csv_lines(traj, per_agent=args.per_agent):
            print(line)
    report = detect_convergence(traj, sc.tol)
    settled = (
        f"settled at period {report.period} (tol {sc.tol})"
        if report
        else f"not settled at tol {sc.tol}"
    )
    print(
        f"simulated {sc.horizon} periods, final k={fmt(traj.final_k)}, {settled}",
        file=sys.stderr,
    )
    return 0


def _cmd_steady_state(args) -> int:
    sc = load_scenario(args.scenario)
    nu = sc.schedule.nu_at(0)
    if args.rich is None:
        state = egalitarian_steady(sc.params, nu, sc.envy)
    else:
        state = polarised_steady(sc.params, nu, sc.envy, args.rich)
    print(f"kind={state.kind}")
    print(f"rich_count={state.rich_count}")
    print(f"k={fmt(state.k)}")
    print(f"savings_rate={fmt(state.savings_rate)}")
    print(f"gamma={fmt(state.gamma)}")
    for j, (s, c) in enumerate(zip(state.bequests, state.consumptions), start=1):
        print(f"agent={j} s={fmt(s)} c={fmt(c)}")
    return 0


def _cmd_classify(args) -> int:
    sc = load_scenario(args.scenario)
    regime = classify(sc.initial, sc.schedule.nu_at(0), sc.params, sc.envy)
    if regime.kind == "polarised":
        print(f"polarised L={regime.rich_count} limit_k={fmt(regime.limit_k)}")
    elif regime.kind == "egalitarian":
        print(f"egalitarian limit_k={fmt(regime.limit_k)}")
    else:
        print(
            f"boundary gamma0={fmt(regime.gamma0)} "
            f"gamma_star={fmt(regime.gamma_threshold)}"
        )
    return 0


def _cmd_plan_reform(args) -> int:
    sc = load_scenario(args.scenario)
    plan = plan_reform(
        sc.initial,
        sc.params,
        sc.envy,
        stage1_nu=args.stage1,
        stage2_nu=args.stage2,
        margin=args.margin,
        max_horizon=args.max_horizon,
    )
    schedule = compose_reform_schedule(plan, sc.params.phi, sc.params)
    print(f"trigger_period={plan.trigger_period}")
    print(f"gamma_at_trigger={fmt(plan.gamma_at_trigger)}")
    print(f"projected_limit_k={fmt(plan.projected_limit_k)}")
    print(f"segments={';'.join(f'{s}:{fmt(nu)}' for s, nu in schedule.segments)}")
    return 0


def _cmd_sweep(args) -> int:
    grid = load_grid(args.grid)
    results = run_sweep(grid, args.out)
    errors = sum(1 for r in results if r.error is not None)
    print(f"swept {len(results)} cells ({errors} errors) -> {args.out}/sweep.csv", file=sys.stderr)
    return 0


def _cmd_plot_phase(args) -> int:
    sc = load_scenario(args.scenario)
    curves = [_parse_curve(c) for c in args.curve]
    result = render_phase_plot(sc.params, curves, args.out)
    marks = " ".join(f"{label}@{fmt(k)}" for label, k in result.fixed_points)
    print(f"wrote {args.out} fixed points: {marks}", file=sys.stderr)
    return 0


def _cmd_plot_savings(args) -> int:
    sc = load_scenario(args.scenario)
    gamma0 = args.gamma0 if args.gamma0 is not None else sc.envy.weight(sc.initial)
    rich = int((sc.initial == sc.initial.max()).sum())
    result = render_savings_step_plot(gamma0, sc.params, sc.envy, rich, args.out)
    bp = "none" if result.breakpoint_nu is None else fmt(result.breakpoint_nu)
    print(f"wrote {args.out} breakpoint={bp}", file=sys.stderr)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "steady-state": _cmd_steady_state,
    "classify": _cmd_classify,
    "plan-reform": _cmd_plan_reform,
    "sweep": _cmd_sweep,
    "plot-phase": _cmd_plot_phase,
    "plot-savings": _cmd_plot_savings,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing subcommand", parser.format_usage())
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc.usage, file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
