"""CLI surface: subcommands, exit codes, stream discipline."""

import csv
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

from joneses import equilibrium, gamma_star
from joneses.cli import main
from joneses.output import fmt
from support import BASELINE


@pytest.fixture
def scenario_file(tmp_path):
    def make(name="scenario.json", **overrides):
        obj = {
            "params": {"alpha": 1 / 3, "delta": 1.0, "phi": 0.1, "n_agents": 4},
            "envy": {"base": 0.0, "scale": 1.0},
            "initial": {"values": [0.4, 0.0, 0.0, 0.0]},
            "schedule": {"segments": [{"start": 0, "nu": 1.0}]},
            "run": {"horizon": 120, "tol": 1e-8},
        }
        obj.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return make


# a start so small that the gross return's power overflows at alpha = 0.01, not at 0.3
TINY_K = {
    "params": {"alpha": 0.01, "delta": 1.0, "phi": 0.0, "n_agents": 4},
    "initial": {"values": [1e-318, 0.0, 0.0, 0.0]},
}


class TestValidate:
    def test_good_scenario(self, scenario_file, capsys):
        assert main(["validate", scenario_file()]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ok:" in captured.err

    def test_invalid_scenario_exits_one(self, scenario_file, capsys):
        path = scenario_file(
            "bad.json",
            params={"alpha": 1 / 3, "delta": 1.0, "phi": 0.4, "n_agents": 4},
        )
        assert main(["validate", path]) == 1
        assert "params.phi" in capsys.readouterr().err

    def test_non_finite_total_is_an_input_error(self, scenario_file, capsys):
        path = scenario_file("inf.json", initial={"generator": "random", "total": float("inf")})
        assert main(["validate", path]) == 1
        assert "initial.total" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [["a", 1, 1, 1], [[0.1], 1, 1, 1], [True, 0.5, 0.5, 0.5]])
    def test_non_number_values_are_an_input_error(self, scenario_file, capsys, values):
        path = scenario_file("values.json", initial={"values": values})
        assert main(["validate", path]) == 1
        assert "error: initial.values: expected numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate", "classify"])
    def test_overflowing_total_is_an_input_error(self, scenario_file, capsys, command):
        path = scenario_file("huge.json", initial={"values": [1e308, 1e308, 0.0, 0.0]})
        assert main([command, path]) == 1
        assert "error: initial.values: total wealth must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "plot-savings"])
    def test_a_generated_start_that_rounds_to_zeros_is_an_input_error(
        self, scenario_file, tmp_path, capsys, command
    ):
        # every entry of this start rounds to 0: the parser rejects it, so plot-savings,
        # which weighs the parsed start as it is, never plots it
        initial = {"generator": "gini_target", "gini": 0.0, "total": 5e-324}
        out = ["--out", str(tmp_path / "s.svg")] if command == "plot-savings" else []
        assert main([command, scenario_file("zeros.json", initial=initial), *out]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: total wealth must be finite and positive\n")
        assert not (tmp_path / "s.svg").exists()

    def test_negative_seed_is_an_input_error(self, scenario_file, capsys):
        path = scenario_file(
            "seed.json",
            initial={"generator": "random", "total": 1.0},
            run={"horizon": 120, "seed": -1},
        )
        assert main(["validate", path]) == 1
        assert "error: run.seed: must be >= 0" in capsys.readouterr().err

    def test_missing_file_exits_three(self, capsys):
        assert main(["validate", "/nonexistent/nowhere.json"]) == 3
        assert "io error" in capsys.readouterr().err


class TestSimulate:
    def test_csv_to_stdout(self, scenario_file, capsys):
        assert main(["simulate", scenario_file()]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("t,k,y,gamma")
        assert len(lines) == 121
        assert "final k=" in captured.err

    def test_non_finite_delta_is_an_input_error(self, scenario_file, capsys):
        path = scenario_file(
            "inf.json",
            params={"alpha": 1 / 3, "delta": float("inf"), "phi": 0.1, "n_agents": 4},
        )
        assert main(["simulate", path]) == 1
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate", "steady-state", "classify"])
    def test_delta_overflowing_the_solver_denominator_is_an_input_error(
        self, scenario_file, capsys, command
    ):
        # 4 * (1 + 1e308) is inf: the period solver's N*(1 + delta) would overflow
        path = scenario_file(
            "huge.json", params={"alpha": 1 / 3, "delta": 1e308, "phi": 0.1, "n_agents": 4}
        )
        assert main([command, path]) == 1
        assert "error: params.delta: delta=1e+308 overflows" in capsys.readouterr().err

    def test_gross_return_past_the_float_range_is_a_model_error(self, scenario_file, capsys):
        # alpha*k**(alpha-1) at k = 2.5e-319 and alpha = 0.01 leaves the float range
        path = scenario_file("tiny.json", params=TINY_K["params"], initial=TINY_K["initial"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", path]) == 2
        err = capsys.readouterr().err
        assert err == (
            "model error: gross return alpha*k**(alpha-1) overflows at k=2.49997e-319, "
            "alpha=0.01\n"
        )

    def test_non_finite_tol_is_an_input_error(self, scenario_file, capsys):
        path = scenario_file("inf.json", run={"horizon": 120, "tol": float("inf")})
        assert main(["simulate", path]) == 1
        assert "run.tol" in capsys.readouterr().err

    def test_csv_to_file(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["simulate", scenario_file(), "--csv", str(out), "--per-agent"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out.read_text().splitlines()[0].endswith("s_4,c_4")


class TestSteadyState:
    def test_egalitarian_default(self, scenario_file, capsys):
        assert main(["steady-state", scenario_file()]) == 0
        out = capsys.readouterr().out
        assert "kind=egalitarian" in out
        assert "agent=4" in out

    def test_polarised_rich_one(self, scenario_file, capsys):
        assert main(["steady-state", scenario_file(), "--rich", "1"]) == 0
        out = capsys.readouterr().out
        assert "kind=polarised" in out
        assert "k=0.05679898669018" in out

    def test_unsustainable_exits_two(self, scenario_file, capsys):
        path = scenario_file(
            "lownu.json", schedule={"segments": [{"start": 0, "nu": 0.7}]}
        )
        assert main(["steady-state", path, "--rich", "3"]) == 2
        assert "model error" in capsys.readouterr().err


class TestClassify:
    def test_polarised_line(self, scenario_file, capsys):
        assert main(["classify", scenario_file()]) == 0
        out = capsys.readouterr().out
        assert out.startswith("polarised L=1 limit_k=0.05679898669018")

    def test_egalitarian_line(self, scenario_file, capsys):
        path = scenario_file("equal.json", initial={"values": [0.1, 0.1, 0.1, 0.1]})
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.startswith("egalitarian limit_k=")

    def test_boundary_line(self, scenario_file, capsys):
        # an equal start weighs its envy base, here the threshold itself
        threshold = gamma_star(1.0, BASELINE)
        path = scenario_file("edge.json", envy={"base": threshold, "scale": 1.0},
                             initial={"values": [0.1, 0.1, 0.1, 0.1]})
        assert main(["classify", path]) == 0
        gamma = fmt(threshold)
        assert capsys.readouterr().out == f"boundary gamma0={gamma} gamma_star={gamma}\n"

    def test_a_start_its_path_cannot_price_exits_two(self, scenario_file, capsys):
        # simulate fails at period 0 of this start, so there is no regime to name; the
        # steady state does not depend on the start
        path = scenario_file("tiny.json", params=TINY_K["params"], initial=TINY_K["initial"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", path]) == 2
            assert capsys.readouterr().err == (
                "model error: gross return alpha*k**(alpha-1) overflows at k=2.49997e-319, "
                "alpha=0.01\n"
            )
            assert main(["steady-state", path]) == 0


class TestPlanReform:
    def test_prints_trigger_and_limit(self, scenario_file, capsys):
        path = scenario_file("two.json", initial={"values": [0.3, 0.3, 0.0, 0.0]})
        rc = main(
            ["plan-reform", path, "--stage1", "0.7", "--stage2", "1.1764705882352942"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trigger_period=0" in out
        assert "projected_limit_k=" in out

    def test_non_finite_margin_is_an_input_error(self, scenario_file, capsys):
        path = scenario_file("two.json", initial={"values": [0.3, 0.3, 0.0, 0.0]})
        rc = main(["plan-reform", path, "--stage1", "0.7", "--stage2", "1.0", "--margin", "inf"])
        assert rc == 1
        assert "margin" in capsys.readouterr().err

    def test_negative_max_horizon_is_an_input_error(self, scenario_file, capsys):
        path = scenario_file("two.json", initial={"values": [0.3, 0.3, 0.0, 0.0]})
        rc = main(["plan-reform", path, "--stage1", "0.7", "--stage2", "1.0", "--max-horizon", "-1"])
        assert rc == 1
        assert "error: max_horizon must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_infeasible_exits_two(self, scenario_file, capsys):
        rc = main(["plan-reform", scenario_file(), "--stage1", "0.7", "--stage2", "1.0"])
        assert rc == 2
        assert "model error" in capsys.readouterr().err


class TestSweep:
    def test_writes_csv(self, scenario_file, tmp_path, capsys):
        grid = {
            "template": json.loads(open(scenario_file()).read()),
            "axes": [{"name": "nu", "values": [0.8, 1.0]}],
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out_dir = tmp_path / "out"
        assert main(["sweep", str(grid_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "sweep.csv").exists()
        assert "swept 2 cells" in capsys.readouterr().err


    def test_axis_on_a_section_that_is_not_an_object(self, scenario_file, tmp_path, capsys):
        grid = {
            "template": {**json.loads(open(scenario_file()).read()), "params": [1, 2]},
            "axes": [{"name": "alpha", "values": [0.3, 0.4]}],
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["sweep", str(grid_path), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert "swept 2 cells (2 errors)" in err and "Traceback" not in err
        with open(tmp_path / "out" / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1:] for row in rows] == [
            ["error", "", "", "", "", "params: expected an object, got list"]
        ] * 2

    def test_a_cell_whose_gross_return_overflows_is_an_error_row(
        self, scenario_file, tmp_path, capsys
    ):
        # the two cells share one block; the overflow freezes its own row, and the
        # alpha = 0.3 cell gets the row a sweep of that cell alone gives it
        template = {**json.loads(open(scenario_file()).read()), **TINY_K}
        rows = {}
        for name, values in [("both", [0.01, 0.3]), ("alone", [0.3])]:
            grid_path = tmp_path / f"{name}.json"
            grid_path.write_text(
                json.dumps({"template": template, "axes": [{"name": "alpha", "values": values}]})
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["sweep", str(grid_path), "--out", str(tmp_path / name)]) == 0
            with open(tmp_path / name / "sweep.csv", encoding="utf-8", newline="") as fh:
                rows[name] = list(csv.reader(fh))[1:]
        err = capsys.readouterr().err
        assert "swept 2 cells (1 errors)" in err and "Traceback" not in err
        assert rows["both"][0] == [
            "0.01", "error", "", "", "", "",
            "gross return alpha*k**(alpha-1) overflows at k=2.49997e-319, alpha=0.01",
        ]
        assert rows["both"][1] == rows["alone"][0] and rows["alone"][0][1] != "error"


HUGE = 10**400  # an integer literal past the float range


class TestIntegerPastTheFloatRange:
    @pytest.mark.parametrize("command", ["validate", "simulate", "classify"])
    @pytest.mark.parametrize(
        "override, path",
        [
            ({"params": {"alpha": 1 / 3, "delta": HUGE, "phi": 0.1, "n_agents": 4}}, "params.delta"),
            ({"initial": {"values": [HUGE, 0, 0, 0]}}, "initial.values"),
            ({"run": {"horizon": 10, "tol": -HUGE}}, "run.tol"),
        ],
    )
    def test_in_a_scenario(self, scenario_file, capsys, command, override, path):
        assert main([command, scenario_file(**override)]) == 1
        assert f"error: {path}: integer is too large for a float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "template, axis, rc, message",
        [
            ({}, {"name": "nu", "values": [1.0, HUGE]}, 1, "error: axes[0].values: "),
            ({"params": {"alpha": 1 / 3, "delta": HUGE, "phi": 0.1, "n_agents": 4}},
             {"name": "nu", "values": [1.0]}, 0, "swept 1 cells (1 errors)"),
            ({"initial": {"values": [HUGE, 0, 0, 0]}},
             {"name": "gini0", "values": [0.2, 0.5]}, 0, "swept 2 cells (2 errors)"),
        ],
    )
    def test_in_a_grid(self, scenario_file, tmp_path, capsys, template, axis, rc, message):
        grid = {
            "template": {**json.loads(open(scenario_file()).read()), **template},
            "axes": [axis],
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        assert main(["sweep", str(grid_path), "--out", str(tmp_path / "out")]) == rc
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_literal_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "digits.json"
        path.write_text('{"params": %s}' % ("9" * 5000))
        args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "sweep" else [])
        assert main(args) == 1
        limited = hasattr(sys, "get_int_max_str_digits")  # added with the digit limit
        assert capsys.readouterr().err.startswith(
            f"error: {path}: Exceeds the limit" if limited else "error: "
        )


class TestPlots:
    def test_phase(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "phase.svg"
        rc = main(
            [
                "plot-phase",
                scenario_file(),
                "--curve",
                "0,1,1",
                "--curve",
                "0.75,0.25,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        assert "E2" in capsys.readouterr().err

    def test_savings_uses_scenario_start(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "savings.svg"
        assert main(["plot-savings", scenario_file(), "--out", str(out)]) == 0
        # gamma0 = 0.75 start: polarised everywhere, no breakpoint
        assert "breakpoint=none" in capsys.readouterr().err

    def test_savings_with_explicit_gamma0(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "savings.svg"
        rc = main(
            ["plot-savings", scenario_file(), "--gamma0", "0.7", "--out", str(out)]
        )
        assert rc == 0
        assert "breakpoint=0.857142857" in capsys.readouterr().err

    @pytest.mark.parametrize(  # non-numbers, non-finite values, tilts outside the segment, k* = 0
        "curve",
        ["1,x,1", "inf,1,1", "nan,1,1", "0,1,inf", "0,1,nan", "0,1,1e-320", "0,1,1e-300", "0,1,5", "1e300,1,1"],
    )
    @pytest.mark.filterwarnings("ignore::joneses.errors.EnvyBoundWarning")  # 1e300 warns first
    def test_non_finite_curve_is_an_input_error(self, scenario_file, tmp_path, capsys, curve):
        out = tmp_path / "phase.svg"
        assert main(["plot-phase", scenario_file(), "--curve", curve, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma0", [None, "0"])
    def test_savings_of_an_equal_start(self, scenario_file, tmp_path, capsys, gamma0):
        # an equal start weighs 0, below the envy threshold on the whole segment
        path = scenario_file(initial={"values": [0.1, 0.1, 0.1, 0.1]})
        out = tmp_path / "savings.svg"
        flag = [] if gamma0 is None else ["--gamma0", gamma0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plot-savings", path, *flag, "--out", str(out)]) == 0
        assert "breakpoint=none" in capsys.readouterr().err
        assert "egalitarian branch" in out.read_text() and "polarised branch" not in out.read_text()

    def test_savings_at_the_largest_delta_is_warning_free(self, scenario_file, tmp_path, capsys):
        # at N = 2 the existence ceiling's product x * (x + 1 + delta) overflows on the
        # plot's tilt grid, numpy scalars, where simulate of the same file runs clean
        params = {"alpha": 1 / 3, "delta": 8.98e307, "phi": 0.1, "n_agents": 2}
        path = scenario_file(params=params, initial={"values": [0.1, 0.05]})
        out = tmp_path / "savings.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plot-savings", path, "--out", str(out)]) == 0
        assert "nan" not in out.read_text()

    def test_negative_gamma0_is_an_input_error(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "savings.svg"
        assert main(["plot-savings", scenario_file(), "--gamma0", "-0.5", "--out", str(out)]) == 1
        assert "gamma0 must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma0", ["inf", "nan"])
    def test_non_finite_gamma0_is_an_input_error(self, scenario_file, tmp_path, capsys, gamma0):
        out = tmp_path / "savings.svg"
        assert main(["plot-savings", scenario_file(), "--gamma0", gamma0, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_curve_spec_exits_one(self, scenario_file, tmp_path):
        rc = main(
            ["plot-phase", scenario_file(), "--curve", "1,2", "--out", str(tmp_path / "x.svg")]
        )
        assert rc == 1


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_required_flag(self, scenario_file, capsys):
        assert main(["plan-reform", scenario_file(), "--stage1", "0.7"]) == 1
        assert "usage:" in capsys.readouterr().err


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# the kernel's counters of each shipped command, summed over the paths it runs (ROADMAP
# item 9's gate): any change to which shape or certificate a shipped period takes, or to
# which periods repeat a cycle, shows here.  equal_start ends on an exact 4-cycle from
# period 30, and the sweep's cells on cycles of length 1 to 4.
_SHIPPED_COUNTS = {
    "simulate_equal_start": (
        ["simulate", "equal_start.json", "--per-agent"], {"first": 34, "repeat": 166}
    ),
    "simulate_polarised_start": (
        ["simulate", "polarised_start.json", "--per-agent"], {"route": 34, "first": 35, "repeat": 165}
    ),
    "simulate_reform_candidate": (
        ["simulate", "reform_candidate.json", "--per-agent"], {"first": 91, "repeat": 309}
    ),
    "sweep_nu_sweep": (
        ["sweep", "nu_sweep.json", "--out", "{out}"], {"first": 1218, "scan": 16, "repeat": 1526}
    ),
    "plan_reform": (
        ["plan-reform", "reform_candidate.json", "--stage1", "0.7", "--stage2", "1.1764705882352942"],
        {"first": 4},
    ),
    "plot_savings": (["plot-savings", "reform_candidate.json", "--out", "{out}.svg"], {}),
    "plot_phase": (
        ["plot-phase", "equal_start.json", "--curve", "0,1,1", "--curve", "0.75,0.25,1",
         "--out", "{out}.svg"],
        {},
    ),
}


@pytest.mark.parametrize("name", sorted(_SHIPPED_COUNTS))
def test_the_shipped_commands_keep_their_kernel_counters(name, tmp_path, monkeypatch, capsys):
    argv, want = _SHIPPED_COUNTS[name]
    paths, block = [], equilibrium._block

    def spy(block_paths, *args, **kwargs):  # a rejoining row comes back in a block of its own
        paths.extend(p for p in block_paths if all(p is not q for q in paths))
        return block(block_paths, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "_block", spy)
    argv = [str(SCENARIOS / a) if a.endswith(".json") else a.format(out=tmp_path / name) for a in argv]
    assert main(argv) == 0
    got = dict.fromkeys(equilibrium._COUNTS, 0)
    for path in paths:
        for counter, count in equilibrium._tally(path).items():
            got[counter] += count
    assert got == {**dict.fromkeys(equilibrium._COUNTS, 0), **want}


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported read-only: no bytecode is written beside it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", SCENARIOS.parent / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return module


# the kernel's counters over the paths of one pass of each in-process benchmark workload at
# its default seed: the polarised path repeats its fixed point from period 33, and the sweep's
# cells their cycles of length 1 to 4
_WORKLOAD_COUNTS = {
    "path_polarised": {"route": 32, "first": 32, "retry": 1, "repeat": 967},
    "path_egalitarian": {"first": 60},
    "sweep_grid": {"first": 17320, "scan": 23, "repeat": 7497},
}


@pytest.mark.parametrize("name", sorted(_WORKLOAD_COUNTS))
def test_the_in_process_workloads_keep_their_kernel_counters(name, workloads, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(str(SCENARIOS.parent), workloads.DEFAULT_SEED)
    paths, block = [], equilibrium._block

    def spy(block_paths, *args, **kwargs):  # a rejoining row comes back in a block of its own
        paths.extend(p for p in block_paths if all(p is not q for q in paths))
        return block(block_paths, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "_block", spy)
    workload.run_pass(inputs, str(tmp_path))
    got = dict.fromkeys(equilibrium._COUNTS, 0)
    for path in paths:
        for counter, count in equilibrium._tally(path).items():
            got[counter] += count
    assert got == {**dict.fromkeys(equilibrium._COUNTS, 0), **_WORKLOAD_COUNTS[name]}
