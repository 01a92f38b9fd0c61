"""Scenario configuration: JSON object model, validation, generators.

Schema (all field names are part of the external contract)::

    {
      "params":   {"alpha": 0.333, "delta": 1.0, "phi": 0.1, "n_agents": 4},
      "envy":     {"base": 0.0, "scale": 1.0},  # optional "kind": "gini_linear"
      "initial":  {"values": [0.1, 0.1, 0.1, 0.1]}
                  | {"generator": "top_share", "share": 0.97, "rich": 1, "total": 1.0}
                  | {"generator": "gini_target", "gini": 0.5, "total": 1.0}
                  | {"generator": "random", "total": 1.0},  # uses run.seed
      "schedule": {"segments": [{"start": 0, "nu": 1.0}]},
      "run":      {"horizon": 200, "tol": 1e-8, "seed": 0}  # tol, seed optional
    }

Validation failures carry the dotted path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import EconomyParams
from .envy import EnvySpec, as_distribution, validate_envy
from .errors import (
    AssumptionZeroViolated,
    DomainError,
    ExistenceBoundViolated,
    InputError,
    ParseError,
    ValidationError,
)
from .policy import FiscalSchedule, build_schedule

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Scenario:
    params: EconomyParams
    envy: EnvySpec
    initial: np.ndarray
    schedule: FiscalSchedule
    horizon: int
    tol: float
    seed: int | None


def _require_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(path, f"unknown field(s): {', '.join(sorted(unknown))}")


_REQUIRED = object()  # default of a field that must be present


def _number(obj: dict, key: str, path: str, default=_REQUIRED) -> float:
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"{path}.{key}", "missing required field")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def numbers(values: list, path: str) -> list:
    """``values`` unchanged if every entry is an int or a float (bools are not)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(path, f"expected numbers, got {v!r}")
    return values


def _integer(obj: dict, key: str, path: str, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"{path}.{key}", "missing required field")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _parse_params(obj) -> EconomyParams:
    section = _require_map(obj, "params")
    _reject_unknown(section, {"alpha", "delta", "phi", "n_agents"}, "params")
    alpha = _number(section, "alpha", "params")
    delta = _number(section, "delta", "params")
    phi = _number(section, "phi", "params")
    n_agents = _integer(section, "n_agents", "params")
    try:
        return EconomyParams(alpha=alpha, delta=delta, phi=phi, n_agents=n_agents)
    except AssumptionZeroViolated as exc:
        raise ValidationError("params.phi", str(exc)) from exc
    except DomainError as exc:
        raise ValidationError("params", str(exc)) from exc


def _parse_envy(obj, params: EconomyParams) -> EnvySpec:
    section = _require_map(obj, "envy")
    _reject_unknown(section, {"base", "scale", "kind"}, "envy")
    kind = section.get("kind", "gini_linear")
    if kind != "gini_linear":
        raise ValidationError("envy.kind", f"unknown functional {kind!r}; known: 'gini_linear'")
    base = _number(section, "base", "envy", default=0.0)
    scale = _number(section, "scale", "envy", default=1.0)
    try:
        return validate_envy(EnvySpec(base=base, scale=scale), params)
    except ExistenceBoundViolated as exc:
        raise ValidationError("envy.scale", str(exc)) from exc
    except DomainError as exc:
        raise ValidationError("envy", str(exc)) from exc


def _generate_initial(section: dict, params: EconomyParams, seed) -> np.ndarray:
    n = params.n_agents
    name = section["generator"]
    total = _number(section, "total", "initial", default=1.0)
    if not 0.0 < total < np.inf:
        raise ValidationError("initial.total", f"total wealth must be finite and > 0, got {total}")
    if name == "top_share":
        _reject_unknown(section, {"generator", "share", "rich", "total"}, "initial")
        share = _number(section, "share", "initial")
        rich = _integer(section, "rich", "initial")
        if not 0.0 <= share <= 1.0:
            raise ValidationError("initial.share", f"share must lie in [0, 1], got {share}")
        if not 1 <= rich <= n - 1:
            raise ValidationError("initial.rich", f"rich must lie in 1..{n - 1}, got {rich}")
        values = np.full(n, (1.0 - share) * total / (n - rich))
        values[:rich] = share * total / rich
        return values
    if name == "gini_target":
        _reject_unknown(section, {"generator", "gini", "total"}, "initial")
        g = _number(section, "gini", "initial")
        if not 0.0 <= g < (n - 1) / n:
            raise ValidationError(
                "initial.gini", f"target must lie in [0, {(n - 1) / n}), got {g}"
            )
        # one dynasty holding share g + 1/N yields Gini exactly g
        top = g + 1.0 / n
        values = np.full(n, (1.0 - top) * total / (n - 1))
        values[0] = top * total
        return values
    if name == "random":
        _reject_unknown(section, {"generator", "total"}, "initial")
        rng = np.random.default_rng(0 if seed is None else seed)
        raw = rng.random(n)
        return raw / raw.sum() * total
    raise ValidationError("initial.generator", f"unknown generator {name!r}")


def _parse_initial(obj, params: EconomyParams, seed) -> np.ndarray:
    section = _require_map(obj, "initial")
    if "values" in section:
        _reject_unknown(section, {"values"}, "initial")
        values = section["values"]
        if not isinstance(values, list):
            raise ValidationError("initial.values", "expected a list of numbers")
        numbers(values, "initial.values")
        try:
            return as_distribution(values, params.n_agents)
        except InputError as exc:
            raise ValidationError("initial.values", str(exc)) from exc
    if "generator" in section:
        return _generate_initial(section, params, seed)
    raise ValidationError("initial", "provide either 'values' or 'generator'")


def _parse_schedule(obj, params: EconomyParams) -> FiscalSchedule:
    section = _require_map(obj, "schedule")
    _reject_unknown(section, {"segments"}, "schedule")
    raw = section.get("segments")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("schedule.segments", "expected a nonempty list")
    segments = []
    for i, seg in enumerate(raw):
        path = f"schedule.segments[{i}]"
        seg = _require_map(seg, path)
        _reject_unknown(seg, {"start", "nu"}, path)
        start = _integer(seg, "start", path)
        nu = _number(seg, "nu", path)
        segments.append((start, nu))
    try:
        return build_schedule(params.phi, segments, params)
    except InputError as exc:
        raise ValidationError("schedule.segments", str(exc)) from exc


def parse_scenario(obj, source: str = "<config>") -> Scenario:
    """Validate a JSON-compatible object model into a Scenario."""
    root = _require_map(obj, source)
    _reject_unknown(root, {"params", "envy", "initial", "schedule", "run"}, source)
    for key in ("params", "envy", "initial", "schedule", "run"):
        if key not in root:
            raise ValidationError(key, "missing required section")
    params = _parse_params(root["params"])
    envy = _parse_envy(root["envy"], params)
    run = _require_map(root["run"], "run")
    _reject_unknown(run, {"horizon", "tol", "seed"}, "run")
    horizon = _integer(run, "horizon", "run")
    if horizon < 1:
        raise ValidationError("run.horizon", f"must be >= 1, got {horizon}")
    tol = _number(run, "tol", "run", default=DEFAULT_TOL)
    if not 0.0 < tol < np.inf:
        raise ValidationError("run.tol", f"must be finite and > 0, got {tol}")
    seed = _integer(run, "seed", "run", default=None)
    if seed is not None and seed < 0:
        raise ValidationError("run.seed", f"must be >= 0, got {seed}")
    initial = _parse_initial(root["initial"], params, seed)
    schedule = _parse_schedule(root["schedule"], params)
    return Scenario(
        params=params,
        envy=envy,
        initial=initial,
        schedule=schedule,
        horizon=horizon,
        tol=tol,
        seed=seed,
    )


def read_json(path):
    """The JSON document in the file at ``path``; malformed JSON raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    return parse_scenario(read_json(path), source=str(path))


def scenario_to_obj(sc: Scenario) -> dict:
    """Serialise a scenario back to the JSON object model (explicit values)."""
    obj = {
        "params": {
            "alpha": sc.params.alpha,
            "delta": sc.params.delta,
            "phi": sc.params.phi,
            "n_agents": sc.params.n_agents,
        },
        "envy": {"base": sc.envy.base, "scale": sc.envy.scale},
        "initial": {"values": [float(v) for v in sc.initial]},
        "schedule": {
            "segments": [{"start": s, "nu": nu} for s, nu in sc.schedule.segments]
        },
        "run": {"horizon": sc.horizon, "tol": sc.tol},
    }
    if sc.seed is not None:
        obj["run"]["seed"] = sc.seed
    return obj
