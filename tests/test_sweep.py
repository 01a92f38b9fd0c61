"""Sweep harness: grid parsing, cell evaluation, CSV quoting, flip location."""

import copy
import csv
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joneses import EnvySpec, classify, constant_schedule, locate_regime_flip, simulate, sweep
from joneses.errors import JonesesError, ParseError, ValidationError
from joneses.scenario import load_scenario, parse_scenario
from joneses.sweep import (
    AXIS_NAMES,
    CellResult,
    load_grid,
    parse_grid,
    run_sweep,
    sweep_csv_rows,
)
from support import BASELINE, ONLY_ORACLES_WARN, UNIT_ENVY, cell_scenario, chained_oracle


def template(initial=None):
    return {
        "params": {"alpha": 1 / 3, "delta": 1.0, "phi": 0.1, "n_agents": 4},
        "envy": {"base": 0.0, "scale": 1.0},
        "initial": {"values": initial or [0.4, 0.0, 0.0, 0.0]},
        "schedule": {"segments": [{"start": 0, "nu": 1.0}]},
        "run": {"horizon": 120, "tol": 1e-8},
    }


class TestParseGrid:
    def test_valid(self):
        grid = parse_grid(
            {"template": template(), "axes": [{"name": "nu", "values": [0.8, 1.0]}]}
        )
        assert grid.axes == (("nu", (0.8, 1.0)),) and grid.n_cells == 2

    def test_repeated_axis(self):
        axes = [{"name": "nu", "values": [0.8, 0.9]}, {"name": "nu", "values": [1.0]}]
        with pytest.raises(ValidationError) as exc:
            parse_grid({"template": template(), "axes": axes})
        assert exc.value.path == "axes[1].name"

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            parse_grid(
                {"template": template(), "axes": [{"name": "beta", "values": [1]}]}
            )

    def test_cell_cap(self):
        with pytest.raises(ValidationError):
            parse_grid(
                {
                    "template": template(),
                    "axes": [{"name": "nu", "values": [0.8, 0.9, 1.0]}],
                    "cap": 2,
                }
            )

    @pytest.mark.parametrize(
        "mutate, path, message",
        [
            (lambda g: [g], "<grid>", "expected an object"),
            (lambda g: {**g, "extra": 1}, "<grid>", "unknown field(s): extra"),
            (lambda g: {**g, "template": []}, "template", "expected a scenario object"),
            (lambda g: {**g, "axes": []}, "axes", "expected a nonempty list"),
            (lambda g: {**g, "axes": g["axes"][0]}, "axes", "expected a nonempty list"),
            (
                lambda g: {**g, "axes": [{"name": "nu"}]},
                "axes[0]",
                "expected {'name': ..., 'values': [...]}",
            ),
            (
                lambda g: {**g, "axes": [{"name": "nu", "values": []}]},
                "axes[0].values",
                "expected a nonempty list of numbers",
            ),
            (lambda g: {**g, "cap": 0}, "cap", "expected a positive integer, got 0"),
            (lambda g: {**g, "cap": True}, "cap", "expected a positive integer, got True"),
            (lambda g: {**g, "cap": 1.5}, "cap", "expected a positive integer, got 1.5"),
        ],
    )
    def test_malformed_grid_fields(self, mutate, path, message):
        obj = mutate({"template": template(), "axes": [{"name": "nu", "values": [0.8, 1.0]}]})
        with pytest.raises(ValidationError) as exc:
            parse_grid(obj)
        assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            '{"template": %s, "axes": [{"name": "nu", "values": [1.0]}]}'
            % __import__("json").dumps(template())
        )
        assert load_grid(path).n_cells == 1

    def test_malformed_file_raises_the_scenario_loader_message(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError) as grid_exc:
            load_grid(path)
        with pytest.raises(ParseError) as scenario_exc:
            load_scenario(path)
        assert str(grid_exc.value) == str(scenario_exc.value)
        assert str(grid_exc.value).startswith(f"{path}: Expecting property name")


class TestRunSweep:
    def test_single_cell_matches_direct_calls(self, tmp_path):
        grid = parse_grid(
            {"template": template(), "axes": [{"name": "nu", "values": [1.0]}]}
        )
        results = run_sweep(grid, tmp_path)
        assert len(results) == 1
        cell = results[0]
        sc = parse_scenario(template())
        regime = classify(sc.initial, 1.0, sc.params, sc.envy)
        traj = simulate(sc.initial, constant_schedule(1.0, sc.params), 120, sc.params, sc.envy)
        assert cell.regime == regime.kind == "polarised"
        assert cell.limit_k == regime.limit_k
        assert cell.k_final == traj.final_k
        header, row = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header == "nu,regime,rich_count,limit_k,k_final,gap,error"
        assert row.startswith("1,polarised,1,")

    def test_regime_flips_once_along_nu_axis(self, tmp_path):
        # gamma0 = 0.7 start: flip at nu = 2/0.7 - 2 ~ 0.857
        init = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]
        values = list(np.linspace(0.75, 1.0, 21))
        grid = parse_grid(
            {
                "template": template(init),
                "axes": [{"name": "nu", "values": values}],
            }
        )
        results = run_sweep(grid, tmp_path)
        kinds = [r.regime for r in results]
        flips = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
        assert flips == 1
        boundary = 2 / 0.7 - 2
        for r in results:
            expected = "polarised" if r.values[0] > boundary else "egalitarian"
            assert r.regime == expected

    def test_envy_scale_axis_has_monotone_boundary(self, tmp_path):
        init = [0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3]  # gini 0.7
        values = [round(0.2 + 0.2 * i, 1) for i in range(15)]  # 0.2 .. 3.0
        grid = parse_grid(
            {
                "template": template(init),
                "axes": [{"name": "envy_scale", "values": values}],
            }
        )
        results = run_sweep(grid, tmp_path)
        kinds = []
        for r in results:
            # scales that break the existence bound are error cells by design
            kinds.append(r.regime)
        valid = [k for k in kinds if k != "error"]
        flips = sum(1 for a, b in zip(valid, valid[1:]) if a != b)
        assert flips == 1
        assert valid[0] == "egalitarian" and valid[-1] == "polarised"
        # gamma0 = 0.7 * scale crosses gamma_star(1) = 2/3 at scale ~ 0.952
        for r in results:
            if r.regime == "error":
                continue
            expected = "polarised" if 0.7 * r.values[0] > 2 / 3 else "egalitarian"
            assert r.regime == expected

    def test_error_cells_recorded_not_raised(self, tmp_path):
        grid = parse_grid(
            {
                "template": template(),
                "axes": [{"name": "envy_scale", "values": [1.0, 5.0]}],
            }
        )
        results = run_sweep(grid, tmp_path)
        assert results[0].error is None
        assert results[1].regime == "error"
        assert "ceiling" in results[1].error
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3  # header + both cells

    def test_two_axis_row_count_and_order(self, tmp_path):
        grid = parse_grid(
            {
                "template": template(),
                "axes": [
                    {"name": "nu", "values": [0.8, 1.0]},
                    {"name": "envy_scale", "values": [0.5, 1.0, 1.5]},
                ],
            }
        )
        results = run_sweep(grid, tmp_path)
        assert len(results) == 6
        assert [r.values for r in results] == [
            (0.8, 0.5),
            (0.8, 1.0),
            (0.8, 1.5),
            (1.0, 0.5),
            (1.0, 1.0),
            (1.0, 1.5),
        ]

    def test_gini_axis_drives_the_start_distribution(self, tmp_path):
        grid = parse_grid(
            {
                "template": template(),
                "axes": [{"name": "gini0", "values": [0.0, 0.5, 0.7]}],
            }
        )
        results = run_sweep(grid, tmp_path)
        # threshold at nu=1 is 2/3: only the 0.7 start polarises
        assert [r.regime for r in results] == ["egalitarian", "egalitarian", "polarised"]

    @pytest.mark.parametrize(
        "initial, error",
        [
            ({"values": ["a", 1, 1, 1]}, "initial.values: expected numbers, got 'a'"),
            ({"values": [True, 0.5, 0.5, 0.5]}, "initial.values: expected numbers, got True"),
            (
                {"generator": "random", "total": "x"},
                "initial.total: expected a number, got 'x'",
            ),
        ],
    )
    def test_gini_axis_rejects_a_template_total_that_is_not_a_number(
        self, tmp_path, initial, error
    ):
        obj = template()
        obj["initial"] = initial
        grid = parse_grid({"template": obj, "axes": [{"name": "gini0", "values": [0.0, 0.5]}]})
        results = run_sweep(grid, tmp_path)
        assert [(r.regime, r.error) for r in results] == [("error", error)] * 2

    def test_technology_and_preference_axes(self, tmp_path):
        grid = parse_grid(
            {
                "template": template([0.1, 0.1, 0.1, 0.1]),
                "axes": [
                    {"name": "alpha", "values": [0.3, 0.4]},
                    {"name": "delta", "values": [0.8, 1.2]},
                ],
            }
        )
        results = run_sweep(grid, tmp_path)
        assert all(r.regime == "egalitarian" for r in results)
        assert all(r.gap < 1e-8 for r in results)

    def test_phi_axis_invalidating_template_nu_yields_error_rows(self, tmp_path):
        # phi = 0.25 narrows the admissible segment to [0.25, 1.6] around
        # alpha = 1/3; the template's nu = 1.0 stays valid, but phi = 0.34
        # breaks the capital-share bound entirely
        grid = parse_grid(
            {
                "template": template([0.1, 0.1, 0.1, 0.1]),
                "axes": [{"name": "phi", "values": [0.25, 0.34]}],
            }
        )
        results = run_sweep(grid, tmp_path)
        assert results[0].error is None
        assert results[1].regime == "error"

    def test_error_message_survives_csv_quoting(self, tmp_path):
        # nu = 1.5 is admissible at phi = 0.25 but not at phi = 0.1, whose
        # NuOutOfBounds message names the segment with commas in it
        obj = template([0.1, 0.1, 0.1, 0.1])
        obj["schedule"]["segments"][0]["nu"] = 1.5
        grid = parse_grid({"template": obj, "axes": [{"name": "phi", "values": [0.25, 0.1]}]})
        results = run_sweep(grid, tmp_path)
        error = results[1].error
        assert error.startswith("schedule.segments: nu=1.5 outside [0.7, ") and "," in error
        with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [7, 7, 7]
        assert [row[-1] for row in rows] == ["error", "", error]


HUGE = 10**400  # an integer literal past the float range


class TestMalformedGrids:
    @pytest.mark.parametrize(
        "section, value, axes",
        [
            ("params", [1, 2], [("alpha", [0.3, 0.4])]),
            ("params", "x", [("delta", [1.0]), ("phi", [0.1, 0.2])]),
            ("envy", None, [("envy_scale", [0.5]), ("nu", [0.8, 1.0])]),
            ("envy", [], [("envy_base", [0.0, 0.1])]),
        ],
    )
    def test_axis_on_a_section_that_is_not_an_object(self, tmp_path, section, value, axes):
        obj = template()
        obj[section] = value
        with pytest.raises(ValidationError) as exc:
            parse_scenario(obj)
        grid = parse_grid(
            {"template": obj, "axes": [{"name": n, "values": v} for n, v in axes]}
        )
        results = run_sweep(grid, tmp_path)
        assert len(results) == grid.n_cells
        assert {(r.regime, r.error) for r in results} == {("error", str(exc.value))}
        assert str(exc.value).startswith(f"{section}: expected an object, got ")

    def test_integer_axis_value_past_the_float_range(self):
        axes = [{"name": "nu", "values": [1.0]}, {"name": "delta", "values": [1.0, HUGE]}]
        with pytest.raises(ValidationError) as exc:
            parse_grid({"template": template(), "axes": axes})
        assert str(exc.value) == "axes[1].values: integer is too large for a float"

    @pytest.mark.parametrize(
        "mutate, error",
        [
            (
                lambda o: o["params"].update(delta=HUGE),
                "params.delta: integer is too large for a float",
            ),
            (
                lambda o: o["initial"].update(values=[HUGE, 0, 0, 0]),
                "initial.values: integer is too large for a float",
            ),
        ],
    )
    def test_integer_past_the_float_range_in_the_template(self, tmp_path, mutate, error):
        obj = template()
        mutate(obj)
        axes = [{"name": "nu", "values": [0.8, 1.0]}, {"name": "gini0", "values": [0.2]}]
        results = run_sweep(parse_grid({"template": obj, "axes": axes}), tmp_path)
        assert [(r.regime, r.error) for r in results] == [("error", error)] * 2


    @pytest.mark.filterwarnings("error")  # a start is checked before it is weighed
    @pytest.mark.parametrize(
        "total, first",
        [
            (5e-324, ("error", "total wealth must be finite and positive")),
            (1e-323, ("egalitarian", None)),
        ],
    )
    def test_gini_axis_on_a_subnormal_template_total(self, tmp_path, total, first):
        # the gini_target starts of so small a total round some entries, or all, to zero
        axes = [{"name": "gini0", "values": [0.0, 0.2, 0.5]}, {"name": "nu", "values": [0.8, 1.0]}]
        grid = parse_grid({"template": template([total, 0.0, 0.0, 0.0]), "axes": axes})
        results = run_sweep(grid, tmp_path / "parts")
        expected, expected_csv = _oracle_sweep(grid, tmp_path / "oracle.csv")
        assert results == expected
        assert (tmp_path / "parts" / "sweep.csv").read_bytes() == expected_csv
        assert (results[0].regime, results[0].error) == first
        assert any(r.error == "capital intensity must be > 0, got 0.0" for r in results)


def _oracle_sweep(grid, path) -> tuple[list, bytes]:
    """Results and sweep.csv from a per-cell evaluation, each path chained through period_oracle."""
    results = []
    for index, values in enumerate(itertools.product(*(vals for _, vals in grid.axes))):
        try:
            sc = cell_scenario(grid, values)
            regime = classify(sc.initial, sc.schedule.nu_at(0), sc.params, sc.envy)
            nus = [sc.schedule.nu_at(t) for t in range(sc.horizon + 1)]
            records, error = chained_oracle(sc.initial, nus, sc.horizon, sc.params, sc.envy)
            if error is not None:
                raise error
        except JonesesError as exc:
            results.append(CellResult(index, values, "error", error=str(exc)))
            continue
        k_final = records[-1].k_next
        gap = abs(k_final - regime.limit_k) if regime.limit_k is not None else None
        results.append(
            CellResult(index, values, regime.kind, regime.rich_count, regime.limit_k, k_final, gap)
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(sweep_csv_rows(grid, results))
    return results, path.read_bytes()


# Extreme but valid starts: their cells parse, and those whose mean rounds to 0 fail
# where classify prices it; the others classify, then some paths raise DomainError,
# NoPositiveRoot or EnvyTooStrong on the way, each with the message its path raises.
EXTREME_STARTS = ([5e-324, 0.0, 0.0, 0.0], [1e308, 0.0, 0.0, 0.0], [1e200, 1e100, 1.0, 0.0])
PATH_ERRORS = (
    "capital intensity must be > 0",
    "next-period capital intensity is not positive",
    "leaves a dynasty with income",
)


def _extreme_grid(initial):
    obj = template(initial)
    obj["run"]["horizon"] = 40
    axes = [
        {"name": "alpha", "values": [0.2, 0.3, 0.5, 0.6]},
        {"name": "delta", "values": [0.5, 1.0, 1e300]},
        {"name": "nu", "values": [0.8, 1.0]},
    ]
    return parse_grid({"template": obj, "axes": axes})


@ONLY_ORACLES_WARN
class TestLockstepSweep:
    @pytest.mark.parametrize("initial", EXTREME_STARTS)
    def test_path_failures_match_a_per_cell_oracle(self, tmp_path, initial):
        grid = _extreme_grid(initial)
        results = run_sweep(grid, tmp_path / "lockstep")
        _, expected = _oracle_sweep(grid, tmp_path / "oracle.csv")
        assert (tmp_path / "lockstep" / "sweep.csv").read_bytes() == expected
        # some cells fail in their path, not at parse, with the message intact
        failed = [r.error for r in results if r.error and r.error.startswith(PATH_ERRORS)]
        assert failed
        with open(tmp_path / "lockstep" / "sweep.csv", encoding="utf-8", newline="") as fh:
            assert {row[-1] for row in csv.reader(fh)} >= set(failed)

    def test_grid_larger_than_one_block_equals_one_cell_at_a_time(self, tmp_path, monkeypatch):
        grid = _extreme_grid(EXTREME_STARTS[2])
        outputs = []
        # one block of 24 cells, blocks of 3 cells, then one cell per block
        for name, cap in (("one", sweep.BLOCK_VALUES), ("threes", 12), ("single", 1)):
            monkeypatch.setattr(sweep, "BLOCK_VALUES", cap)
            results = run_sweep(grid, tmp_path / name)
            outputs.append((results, (tmp_path / name / "sweep.csv").read_bytes()))
        assert grid.n_cells * 4 > 12  # more cells than one block of the smaller cap holds
        assert outputs[0] == outputs[1] == outputs[2]
        assert any(r.error for r in outputs[0][0]) and any(r.k_final for r in outputs[0][0])


def _mostly(valid, invalid):
    """Draws from ``valid``, and one in four from the list ``invalid``."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(invalid) if k == 0 else valid)


# Axis values for the property below, invalid ones included: nu outside the
# segment (about [0.7, 1.6] at the template's alpha and phi), alpha/phi pairs
# that break assumption 0, envy scales above the existence ceiling, and
# gini0 outside [0, 3/4).  Signed zeros check that cells share no part by
# value equality, since an error message prints -0 and 0 apart.
AXIS_VALUES = {
    "nu": _mostly(st.floats(0.72, 1.55), [0.5, 1.8, 0.0, -0.0]),
    "alpha": _mostly(st.floats(0.15, 0.85), [0.05, 0.95]),
    "delta": _mostly(st.floats(0.2, 3.0), [0.0, -0.0]),
    "phi": _mostly(st.floats(0.0, 0.3), [-0.0, 0.4]),
    "envy_base": _mostly(st.floats(0.0, 0.5), [-0.0, 2.0]),
    "envy_scale": _mostly(st.floats(0.0, 1.5), [3.2, -0.0]),
    "gini0": _mostly(st.floats(0.0, 0.74), [-0.0, -0.1, 0.75, 0.9]),
}

# Templates whose errors come before, among and after the axes' parts.
TEMPLATE_CHANGES = (
    lambda o: None,
    lambda o: o["initial"].update(values=[0.1, 0.2, 0.3, 0.4]),
    lambda o: o["initial"].update(values=["a", 1, 1, 1]),  # caught first under a gini0 axis
    lambda o: o["initial"].update(values=[5e-324, 0, 0, 0]),  # gini_target starts of zeros
    lambda o: o["initial"].update(values=[1e-323, 0, 0, 0]),
    lambda o: o["initial"].update(values=[1.7976931348623157e308, 0, 0, 0]),  # sum overflows
    lambda o: o.update(initial={"generator": "top_share", "share": 0.9, "rich": 2, "total": 2}),
    lambda o: o.update(initial={"generator": "random", "total": 0.3}, run={"horizon": 8, "seed": 5}),
    lambda o: o.update(initial={"generator": "top_share", "share": 0.6, "rich": 1}),  # total 1.0
    lambda o: o.pop("schedule"),  # a nu axis supplies it
    lambda o: o["schedule"]["segments"].append({"start": 4, "nu": 1.2}),
    lambda o: o.update(envy=None),
    lambda o: o["params"].update(n_agents=3),
    lambda o: o["run"].update(horizon=0),
)


@st.composite
def sweep_grids(draw):
    obj = template()
    obj["run"]["horizon"] = 8
    draw(st.one_of(st.just(TEMPLATE_CHANGES[0]), st.sampled_from(TEMPLATE_CHANGES)))(obj)
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=3, unique=True))
    axes = [
        {"name": name, "values": draw(st.lists(AXIS_VALUES[name], min_size=1, max_size=3))}
        for name in names
    ]
    return {"template": obj, "axes": axes}


def _generated_start_without_total():
    """A grid of ``gini0`` cells over a template whose generated start names no total."""
    obj = {**template(), "initial": {"generator": "top_share", "share": 0.6, "rich": 1}}
    obj["run"]["horizon"] = 8
    return {"template": obj, "axes": [{"name": "gini0", "values": [0.0, 0.5]}]}


@ONLY_ORACLES_WARN
@example(obj=_generated_start_without_total())  # each cell's gini_target start takes total 1.0
@given(obj=sweep_grids())
@settings(max_examples=300, deadline=None)
def test_cells_from_parts_equal_cells_parsed_whole(tmp_path_factory, obj):
    grid = parse_grid(obj)
    before = copy.deepcopy(grid.template)
    out = tmp_path_factory.mktemp("sweep")
    results = run_sweep(grid, out / "parts")
    expected, expected_csv = _oracle_sweep(grid, out / "oracle.csv")
    assert results == expected
    assert (out / "parts" / "sweep.csv").read_bytes() == expected_csv
    assert grid.template == before


def _count_limit_weights(monkeypatch):
    """Spy on the sweep's ``gamma_uniform_top``: the list of its (envy, top) calls."""
    calls, real = [], sweep.gamma_uniform_top

    def spy(envy, top, n_agents):
        calls.append((envy.base.hex(), envy.scale.hex(), top))
        return real(envy, top, n_agents)

    monkeypatch.setattr(sweep, "gamma_uniform_top", spy)
    return calls


def _limit_weight_keys(grid):
    """(envy axis value indices, top) of each classified cell, from cells built whole."""
    envy_axes = [i for i, (name, _) in enumerate(grid.axes) if name.startswith("envy_")]
    keys = set()
    for idx in itertools.product(*(range(len(vals)) for _, vals in grid.axes)):
        try:
            sc = cell_scenario(grid, [vals[i] for (_, vals), i in zip(grid.axes, idx)])
            regime = classify(sc.initial, sc.schedule.nu_at(0), sc.params, sc.envy)
        except JonesesError:
            continue
        if regime.kind != "boundary":
            top = sc.params.n_agents if regime.kind == "egalitarian" else regime.rich_count
            keys.add((tuple(idx[i] for i in envy_axes), top))
    return keys


class TestLimitWeightMemo:
    def test_one_call_per_envy_part_and_top(self, tmp_path, monkeypatch):
        obj = template()
        obj["run"]["horizon"] = 12
        grid = parse_grid({"template": obj, "axes": [
            {"name": "nu", "values": [0.75, 0.9, 1.05, 1.15]},
            {"name": "gini0", "values": [0.05, 0.3, 0.5, 0.74]},
            {"name": "envy_scale", "values": [0.25, 1.0, 3.2, 1.5]},  # 3.2 breaks the ceiling
        ]})
        results = run_sweep(grid, tmp_path / "plain")
        calls = _count_limit_weights(monkeypatch)
        assert run_sweep(grid, tmp_path / "spied") == results
        keys = _limit_weight_keys(grid)
        assert len(calls) == len(set(calls)) == len(keys)
        assert {top for _, top in keys} >= {1, 4}  # polarised and egalitarian limits
        assert len(keys) < sum(r.regime in ("egalitarian", "polarised") for r in results)
        spied = (tmp_path / "spied" / "sweep.csv").read_bytes()
        assert spied == (tmp_path / "plain" / "sweep.csv").read_bytes()

    def test_signed_zero_envy_parts_keep_their_own_weights(self, tmp_path, monkeypatch):
        obj = template([0.4, 0.1, 0.0, 0.0])
        obj["run"]["horizon"] = 12
        grid = parse_grid({"template": obj, "axes": [
            {"name": "envy_base", "values": [0.0, -0.0, 0.25]},
            {"name": "envy_scale", "values": [-0.0, 0.0, 1.0]},
            {"name": "nu", "values": [0.75, 1.15]},
        ]})
        calls = _count_limit_weights(monkeypatch)
        results = run_sweep(grid, tmp_path / "parts")
        assert len(calls) == len(set(calls)) == len(_limit_weight_keys(grid))
        assert {(b, s) for b, s, _ in calls} >= {((-0.0).hex(), (-0.0).hex()), ((0.0).hex(), (0.0).hex())}
        parts = sweep._Parts(grid)
        for idx in itertools.product(*(range(len(vals)) for _, vals in grid.axes)):
            values = [vals[i] for (_, vals), i in zip(grid.axes, idx)]
            sc = cell_scenario(grid, values)
            want = classify(sc.initial, sc.schedule.nu_at(0), sc.params, sc.envy)
            got = parts.cell(idx)[1]
            assert (got.kind, got.rich_count) == (want.kind, want.rich_count)
            for a, b in ((got.limit_k, want.limit_k), (got.gamma0, want.gamma0),
                         (got.gamma_threshold, want.gamma_threshold)):
                assert (a is None and b is None) or a.hex() == b.hex()
        _, expected_csv = _oracle_sweep(grid, tmp_path / "oracle.csv")
        assert (tmp_path / "parts" / "sweep.csv").read_bytes() == expected_csv
        assert all(r.regime != "error" for r in results)


class TestLocateRegimeFlip:
    def test_finds_analytic_breakpoint(self):
        init = np.array([0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3])
        flip = locate_regime_flip(
            init, BASELINE, UNIT_ENVY, BASELINE.nu_lower, BASELINE.nu_upper
        )
        assert flip == pytest.approx(2 / 0.7 - 2, abs=1e-9)

    @pytest.mark.parametrize(
        "init, envy",
        [
            ([0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3], UNIT_ENVY),
            ([0.3, 0.05, 0.05, 0.0], EnvySpec(0.1, 1.0)),
            ([0.2, 0.2, 0.0, 0.0], EnvySpec(0.0, 1.4)),
        ],
    )
    def test_classification_flips_at_the_returned_tilt(self, init, envy):
        init = np.array(init)
        flip = locate_regime_flip(init, BASELINE, envy, BASELINE.nu_lower, BASELINE.nu_upper)
        assert classify(init, flip * (1.0 + 1e-9), BASELINE, envy).kind == "polarised"
        assert classify(init, flip * (1.0 - 1e-9), BASELINE, envy).kind != "polarised"

    def test_requires_proper_bracket(self):
        init = np.array([0.4, 0.0, 0.0, 0.0])  # polarised on the whole segment
        with pytest.raises(ValidationError):
            locate_regime_flip(
                init, BASELINE, UNIT_ENVY, BASELINE.nu_lower, BASELINE.nu_upper
            )
