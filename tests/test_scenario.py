"""Scenario configuration: parsing, validation paths, generators, round trip."""

import json

import numpy as np
import pytest

from joneses import gini, load_scenario, parse_scenario, scenario_to_obj
from joneses.errors import ParseError, ValidationError


def minimal_obj():
    return {
        "params": {"alpha": 1 / 3, "delta": 1.0, "phi": 0.1, "n_agents": 4},
        "envy": {"base": 0.0, "scale": 1.0},
        "initial": {"values": [0.1, 0.1, 0.1, 0.1]},
        "schedule": {"segments": [{"start": 0, "nu": 1.0}]},
        "run": {"horizon": 200, "tol": 1e-8},
    }


class TestParsing:
    def test_minimal_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_obj()))
        sc = load_scenario(path)
        assert sc.params.n_agents == 4
        assert sc.horizon == 200
        np.testing.assert_array_equal(sc.initial, [0.1, 0.1, 0.1, 0.1])
        assert sc.schedule.nu_at(123) == 1.0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_non_number_values_name_the_entry(self):
        obj = minimal_obj()
        obj["initial"]["values"] = [0.1, "a", 0.1, 0.1]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(obj)
        assert str(exc.value) == "initial.values: expected numbers, got 'a'"

    def test_assumption_violation_addresses_phi(self):
        obj = minimal_obj()
        obj["params"]["phi"] = 0.4
        with pytest.raises(ValidationError) as exc:
            parse_scenario(obj)
        assert exc.value.path == "params.phi"

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda o: o["params"].pop("alpha"), "params.alpha"),
            (lambda o: o["params"].update(alpha="x"), "params.alpha"),
            (lambda o: o["params"].update(n_agents=2.5), "params.n_agents"),
            (lambda o: o["envy"].update(kind="nope"), "envy.kind"),
            (lambda o: o["envy"].update(scale=9.0), "envy.scale"),
            (lambda o: o["initial"].update(values=[1, 2]), "initial.values"),
            (lambda o: o["initial"].update(values=[0, 0, 0, 0]), "initial.values"),
            (lambda o: o["initial"].update(values=["a", 1, 1, 1]), "initial.values"),
            (lambda o: o["initial"].update(values=[[0.1], 1, 1, 1]), "initial.values"),
            (lambda o: o["initial"].update(values=[True, 0.5, 0.5, 0.5]), "initial.values"),
            (lambda o: o["run"].update(horizon=0), "run.horizon"),
            (lambda o: o["run"].update(tol=-1.0), "run.tol"),
            pytest.param(
                lambda o: o["run"].update(tol=float("inf")), "run.tol", id="infinite-run.tol"
            ),
            pytest.param(
                lambda o: o.update(initial={"generator": "random", "total": float("inf")}),
                "initial.total",
                id="infinite-initial.total",
            ),
            pytest.param(
                lambda o: (
                    o.update(initial={"generator": "random"}),
                    o["run"].update(seed=-1),
                ),
                "run.seed",
                id="negative-run.seed",
            ),
            (lambda o: o["schedule"]["segments"][0].update(nu=0.2), "schedule.segments"),
            (lambda o: o.update(extra=1), "<config>"),
            (lambda o: o["params"].update(bogus=1), "params"),
        ],
    )
    def test_field_addressed_rejections(self, mutate, path):
        obj = minimal_obj()
        mutate(obj)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(obj)
        assert exc.value.path == path

    def test_missing_section(self):
        obj = minimal_obj()
        del obj["schedule"]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(obj)
        assert exc.value.path == "schedule"


class TestGenerators:
    def test_top_share(self):
        obj = minimal_obj()
        obj["initial"] = {"generator": "top_share", "share": 0.97, "rich": 1, "total": 2.0}
        sc = parse_scenario(obj)
        np.testing.assert_allclose(sc.initial[0], 0.97 * 2.0)
        np.testing.assert_allclose(sc.initial[1:], 0.03 * 2.0 / 3)

    def test_gini_target_hits_target(self):
        obj = minimal_obj()
        for g in (0.0, 0.3, 0.5, 0.7):
            obj["initial"] = {"generator": "gini_target", "gini": g}
            sc = parse_scenario(obj)
            assert gini(sc.initial) == pytest.approx(g, abs=1e-14)

    def test_gini_target_range_checked(self):
        obj = minimal_obj()
        obj["initial"] = {"generator": "gini_target", "gini": 0.75}
        with pytest.raises(ValidationError) as exc:
            parse_scenario(obj)
        assert exc.value.path == "initial.gini"

    def test_random_generator_is_seed_deterministic(self):
        obj = minimal_obj()
        obj["initial"] = {"generator": "random", "total": 3.0}
        obj["run"]["seed"] = 42
        a = parse_scenario(obj).initial
        b = parse_scenario(obj).initial
        np.testing.assert_array_equal(a, b)
        assert a.sum() == pytest.approx(3.0)
        obj["run"]["seed"] = 43
        c = parse_scenario(obj).initial
        assert not np.array_equal(a, c)

    def test_unknown_generator(self):
        obj = minimal_obj()
        obj["initial"] = {"generator": "fancy"}
        with pytest.raises(ValidationError) as exc:
            parse_scenario(obj)
        assert exc.value.path == "initial.generator"

    def test_share_and_rich_ranges(self):
        obj = minimal_obj()
        obj["initial"] = {"generator": "top_share", "share": 1.5, "rich": 1}
        with pytest.raises(ValidationError):
            parse_scenario(obj)
        obj["initial"] = {"generator": "top_share", "share": 0.9, "rich": 4}
        with pytest.raises(ValidationError):
            parse_scenario(obj)


def test_serialised_scenario_reparses_equivalently(tmp_path):
    obj = minimal_obj()
    obj["initial"] = {"generator": "top_share", "share": 0.9, "rich": 2, "total": 1.0}
    obj["run"]["seed"] = 7
    sc = parse_scenario(obj)
    path = tmp_path / "round.json"
    path.write_text(json.dumps(scenario_to_obj(sc)))
    back = load_scenario(path)
    assert back.params == sc.params
    assert back.envy == sc.envy
    np.testing.assert_array_equal(back.initial, sc.initial)
    assert back.schedule.segments == sc.schedule.segments
    assert (back.horizon, back.tol, back.seed) == (sc.horizon, sc.tol, sc.seed)
