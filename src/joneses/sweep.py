"""Parameter sweep harness: regime maps over grids of scenario knobs.

A grid is a scenario template plus named axes.  Every cell is an
independent pure computation (classify + simulate); cells run serially
in grid order, so identical grids give byte-identical output CSVs.
Per-cell failures are recorded in the row, with the exception message
intact (csv quoting), instead of aborting the sweep.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import os
from dataclasses import dataclass

from .core import EconomyParams
from .envy import EnvyFunctional
from .equilibrium import classify, simulate
from .errors import JonesesError, ParseError, ValidationError
from .output import fmt
from .scenario import Scenario, parse_scenario

DEFAULT_CELL_CAP = 10**6

AXIS_NAMES = ("nu", "alpha", "delta", "phi", "envy_base", "envy_scale", "gini0")


@dataclass(frozen=True)
class SweepGrid:
    template: dict
    axes: tuple[tuple[str, tuple[float, ...]], ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(vals) for _, vals in self.axes)

    @property
    def n_cells(self) -> int:
        total = 1
        for _, vals in self.axes:
            total *= len(vals)
        return total


def parse_grid(obj, source: str = "<grid>") -> SweepGrid:
    if not isinstance(obj, dict):
        raise ValidationError(source, "expected an object")
    unknown = set(obj) - {"template", "axes", "cap"}
    if unknown:
        raise ValidationError(source, f"unknown field(s): {', '.join(sorted(unknown))}")
    template = obj.get("template")
    if not isinstance(template, dict):
        raise ValidationError("template", "expected a scenario object")
    raw_axes = obj.get("axes")
    if not isinstance(raw_axes, list) or not raw_axes:
        raise ValidationError("axes", "expected a nonempty list")
    axes = []
    for i, axis in enumerate(raw_axes):
        path = f"axes[{i}]"
        if not isinstance(axis, dict) or set(axis) != {"name", "values"}:
            raise ValidationError(path, "expected {'name': ..., 'values': [...]}")
        name = axis["name"]
        if name not in AXIS_NAMES:
            raise ValidationError(f"{path}.name", f"unknown axis {name!r}; known: {AXIS_NAMES}")
        values = axis["values"]
        if not isinstance(values, list) or not values:
            raise ValidationError(f"{path}.values", "expected a nonempty list of numbers")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"{path}.values", f"expected numbers, got {v!r}")
        axes.append((name, tuple(float(v) for v in values)))
    cap = obj.get("cap", DEFAULT_CELL_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValidationError("cap", f"expected a positive integer, got {cap!r}")
    grid = SweepGrid(template=template, axes=tuple(axes))
    if grid.n_cells > cap:
        raise ValidationError("axes", f"{grid.n_cells} cells exceed the cap of {cap}")
    return grid


def load_grid(path) -> SweepGrid:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_grid(obj, source=str(path))


def _template_total(template: dict) -> float:
    initial = template.get("initial", {})
    if isinstance(initial, dict):
        if "values" in initial and isinstance(initial["values"], list):
            try:
                return float(sum(initial["values"]))
            except TypeError:
                return 1.0
        if "total" in initial and isinstance(initial["total"], (int, float)):
            return float(initial["total"])
    return 1.0


def _apply_axis(obj: dict, name: str, value: float) -> None:
    if name == "nu":
        obj["schedule"] = {"segments": [{"start": 0, "nu": value}]}
    elif name in ("alpha", "delta", "phi"):
        obj.setdefault("params", {})[name] = value
    elif name == "envy_base":
        obj.setdefault("envy", {})["base"] = value
    elif name == "envy_scale":
        obj.setdefault("envy", {})["scale"] = value
    elif name == "gini0":
        obj["initial"] = {
            "generator": "gini_target",
            "gini": value,
            "total": _template_total(obj),
        }
    else:  # pragma: no cover - guarded by parse_grid
        raise ValidationError("axes", f"unknown axis {name!r}")


def cell_scenario(grid: SweepGrid, values: tuple[float, ...]) -> Scenario:
    obj = copy.deepcopy(grid.template)
    for (name, _), value in zip(grid.axes, values):
        _apply_axis(obj, name, value)
    return parse_scenario(obj, source="<cell>")


@dataclass(frozen=True)
class CellResult:
    index: int
    values: tuple[float, ...]
    regime: str  # "egalitarian" | "polarised" | "boundary" | "error"
    rich_count: int | None = None
    limit_k: float | None = None
    k_final: float | None = None
    gap: float | None = None
    error: str | None = None


def _eval_cell(grid: SweepGrid, index: int, values: tuple[float, ...]) -> CellResult:
    try:
        sc = cell_scenario(grid, values)
        nu0 = sc.schedule.nu_at(0)
        regime = classify(sc.initial, nu0, sc.params, sc.envy)
        traj = simulate(sc.initial, sc.schedule, sc.horizon, sc.params, sc.envy)
        k_final = traj.final_k
        gap = abs(k_final - regime.limit_k) if regime.limit_k is not None else None
        return CellResult(
            index=index,
            values=values,
            regime=regime.kind,
            rich_count=regime.rich_count,
            limit_k=regime.limit_k,
            k_final=k_final,
            gap=gap,
        )
    except JonesesError as exc:
        return CellResult(index=index, values=values, regime="error", error=str(exc))


def sweep_csv_rows(grid: SweepGrid, results) -> list[list]:
    header = [name for name, _ in grid.axes]
    rows = [header + ["regime", "rich_count", "limit_k", "k_final", "gap", "error"]]
    for r in results:  # csv writes None as an empty cell
        nums = [None if x is None else fmt(x) for x in (r.limit_k, r.k_final, r.gap)]
        rows.append([*(fmt(v) for v in r.values), r.regime, r.rich_count, *nums, r.error])
    return rows


def run_sweep(grid: SweepGrid, out_dir) -> list[CellResult]:
    """Evaluate every cell serially and write <out_dir>/sweep.csv in grid order."""
    cells = itertools.product(*(vals for _, vals in grid.axes))
    results = [_eval_cell(grid, i, v) for i, v in enumerate(cells)]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(sweep_csv_rows(grid, results))
    return results


def locate_regime_flip(
    initial,
    params: EconomyParams,
    envy: EnvyFunctional,
    nu_lo: float,
    nu_hi: float,
    tol: float = 1e-10,
) -> float:
    """Bisect the tilt at which the classified regime flips to polarised.

    Requires an egalitarian classification at ``nu_lo`` and a polarised
    one at ``nu_hi`` (the threshold is monotone in the tilt, so the flip
    is unique).  Boundary classifications count as not-yet-polarised.
    """

    def polarised(nu: float) -> bool:
        return classify(initial, nu, params, envy).kind == "polarised"

    if polarised(nu_lo) or not polarised(nu_hi):
        raise ValidationError(
            "nu_lo/nu_hi", "bracket must go egalitarian -> polarised"
        )
    lo, hi = nu_lo, nu_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if polarised(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
