"""Parameter sweep harness: regime maps over grids of scenario knobs.

A grid is a scenario template plus named axes.  Every cell is an
independent pure computation (classify + simulate).  Cells are parsed
and classified in grid order; their paths then advance in lockstep, a
block of cells at a time, through the period kernel that
:func:`~joneses.equilibrium.simulate` runs on one row.  No axis changes
the horizon or the number of dynasties, so the cells of a grid share one
block shape, and ``BLOCK_VALUES`` caps cells x dynasties per block.  Each
row of a block is rounded as its own ``simulate`` would round it, so a
cell's ``k_final`` is bit for bit that of ``simulate``, and identical
grids give byte-identical output CSVs.  A cell that fails, at parse, in
``classify`` or partway along its path, is recorded in its row with the
exception message intact (csv quoting); the other cells go on.
"""

from __future__ import annotations

import copy
import csv
import itertools
import os
from dataclasses import dataclass

from .core import IDENTITY_TOL, EconomyParams, nu_for_gamma
from .envy import EnvySpec
from .equilibrium import classify, final_capitals
from .errors import JonesesError, ValidationError
from .output import fmt
from .scenario import Scenario, numbers, parse_scenario, read_json

DEFAULT_CELL_CAP = 10**6

#: Cap on cells * n_agents in one lockstep block of paths.
BLOCK_VALUES = 1 << 14

AXIS_NAMES = ("nu", "alpha", "delta", "phi", "envy_base", "envy_scale", "gini0")


@dataclass(frozen=True)
class SweepGrid:
    template: dict
    axes: tuple[tuple[str, tuple[float, ...]], ...]

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
        if any(name == seen for seen, _ in axes):
            raise ValidationError(f"{path}.name", f"axis {name!r} is already in the grid")
        values = axis["values"]
        if not isinstance(values, list) or not values:
            raise ValidationError(f"{path}.values", "expected a nonempty list of numbers")
        axes.append((name, tuple(float(v) for v in numbers(values, f"{path}.values"))))
    cap = obj.get("cap", DEFAULT_CELL_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValidationError("cap", f"expected a positive integer, got {cap!r}")
    grid = SweepGrid(template=template, axes=tuple(axes))
    if grid.n_cells > cap:
        raise ValidationError("axes", f"{grid.n_cells} cells exceed the cap of {cap}")
    return grid


def load_grid(path) -> SweepGrid:
    return parse_grid(read_json(path), source=str(path))


def _template_total(template: dict):
    """The template's total wealth, for a ``gini0`` cell (its generator checks a total)."""
    initial = template.get("initial", {})
    if isinstance(initial, dict):
        if isinstance(initial.get("values"), list):
            return float(sum(numbers(initial["values"], "initial.values")))
        if "total" in initial:
            return initial["total"]
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


def _finish_block(block: list, results: list) -> None:
    """Run the parsed cells of ``block`` in lockstep and fill in their results."""
    if not block:
        return
    cells = [sc for _, _, sc, _ in block]
    finals = final_capitals(
        [sc.initial for sc in cells],
        [sc.schedule for sc in cells],
        cells[0].horizon,  # no axis changes the horizon or the number of dynasties
        [sc.params for sc in cells],
        [sc.envy for sc in cells],
    )
    for (index, values, _, regime), k_final in zip(block, finals):
        if isinstance(k_final, JonesesError):
            results[index] = CellResult(index, values, "error", error=str(k_final))
            continue
        gap = abs(k_final - regime.limit_k) if regime.limit_k is not None else None
        results[index] = CellResult(
            index=index,
            values=values,
            regime=regime.kind,
            rich_count=regime.rich_count,
            limit_k=regime.limit_k,
            k_final=k_final,
            gap=gap,
        )
    block.clear()


def sweep_csv_rows(grid: SweepGrid, results) -> list[list]:
    header = [name for name, _ in grid.axes]
    rows = [header + ["regime", "rich_count", "limit_k", "k_final", "gap", "error"]]
    for r in results:  # csv writes None as an empty cell
        nums = [None if x is None else fmt(x) for x in (r.limit_k, r.k_final, r.gap)]
        rows.append([*(fmt(v) for v in r.values), r.regime, r.rich_count, *nums, r.error])
    return rows


def run_sweep(grid: SweepGrid, out_dir) -> list[CellResult]:
    """Evaluate every cell and write <out_dir>/sweep.csv in grid order.

    Each cell is parsed and classified in turn; a failure there is the
    cell's error.  The parsed cells then run their paths in lockstep
    blocks of at most ``BLOCK_VALUES // n_agents`` cells, and a path that
    raises gives its cell the error message the cell's own
    :func:`simulate` would raise.
    """
    results, block = [], []
    cells = itertools.product(*(vals for _, vals in grid.axes))
    for index, values in enumerate(cells):
        try:
            sc = cell_scenario(grid, values)
            regime = classify(sc.initial, sc.schedule.nu_at(0), sc.params, sc.envy)
        except JonesesError as exc:
            results.append(CellResult(index, values, "error", error=str(exc)))
            continue
        results.append(None)
        block.append((index, values, sc, regime))
        if len(block) * sc.params.n_agents >= BLOCK_VALUES:
            _finish_block(block, results)
    _finish_block(block, results)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(sweep_csv_rows(grid, results))
    return results


def locate_regime_flip(
    initial, params: EconomyParams, envy: EnvySpec, nu_lo: float, nu_hi: float
) -> float:
    """The tilt at which the classified regime flips to polarised.

    Requires an egalitarian classification at ``nu_lo`` and a polarised
    one at ``nu_hi``; boundary classifications count as not yet
    polarised.  ``classify`` calls a start polarised once the threshold
    ``gamma_star(nu)``, which falls with the tilt, lies at least
    ``IDENTITY_TOL`` below the initial weight ``gamma0``.  So the flip is
    the closed-form inverse ``nu_for_gamma(gamma0 - IDENTITY_TOL)``.
    """
    below = classify(initial, nu_lo, params, envy)
    if below.kind == "polarised" or classify(initial, nu_hi, params, envy).kind != "polarised":
        raise ValidationError("nu_lo/nu_hi", "bracket must go egalitarian -> polarised")
    return nu_for_gamma(below.gamma0 - IDENTITY_TOL, params).raw
