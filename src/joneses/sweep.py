"""Parameter sweep harness: regime maps over grids of scenario knobs.

A grid is a scenario template plus named axes; each axis sets one field of
one scenario section (``AXES``).  Cells are built and classified in grid
order from shared parts: each section is parsed once per distinct value of
the axes that set it, each start is weighed once per envy functional, each
regime limit's weight once per envy functional and top count, and a part
that fails is kept as its error, so every cell gets the scenario,
regime or error message that parsing and classifying it whole would give.
Their paths then advance in lockstep, a block of cells at a time, through
the period kernel that :func:`~joneses.equilibrium.simulate` runs on one
row.  No axis changes the horizon or the number of dynasties, so the cells
of a grid share one block shape, and ``BLOCK_VALUES`` caps cells x
dynasties per block.  Each row of a block is rounded as its own
``simulate`` would round it, so a cell's ``k_final`` is bit for bit that of
``simulate``, and identical grids give byte-identical output CSVs.  A cell
that fails, at parse, in its classification or partway along its path, is
recorded in its row with the exception message intact (csv quoting); the
other cells go on.
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass

from .core import IDENTITY_TOL, EconomyParams, nu_for_gamma
from .envy import EnvySpec, as_distribution, gamma_uniform_top
from .equilibrium import _regime, _rich_count, _start_weight, classify, final_capitals
from .errors import JonesesError, ValidationError
from .output import fmt
from .scenario import (
    SECTIONS,
    Scenario,
    _check_sections,
    _parse_envy,
    _parse_initial,
    _parse_params,
    _parse_run,
    _parse_schedule,
    numbers,
    read_json,
)

DEFAULT_CELL_CAP = 10**6

#: Cap on cells * n_agents in one lockstep block of paths.
BLOCK_VALUES = 1 << 14

#: Each axis's scenario section and the field it sets there.  A ``nu`` or
#: ``gini0`` axis replaces its section: a one-segment schedule, or a
#: ``gini_target`` start with the template's total.
AXES = {
    "nu": ("schedule", "nu"),
    "alpha": ("params", "alpha"),
    "delta": ("params", "delta"),
    "phi": ("params", "phi"),
    "envy_base": ("envy", "base"),
    "envy_scale": ("envy", "scale"),
    "gini0": ("initial", "gini"),
}
AXIS_NAMES = tuple(AXES)


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
        axes.append((name, tuple(numbers(values, f"{path}.values"))))
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


def _cell_section(template: dict, name: str, fields: dict):
    """Section ``name`` of a cell whose axes set ``fields`` in it; the template is not changed."""
    if not fields:
        return template[name]
    if name == "schedule":
        return {"segments": [{"start": 0, **fields}]}
    if name == "initial":
        return {"generator": "gini_target", **fields, "total": _template_total(template)}
    section = template.get(name, {})  # a section that is not an object is left to its parser
    return {**section, **fields} if isinstance(section, dict) else section


class _Parts:
    """The parts a grid's cells are built from, each made once per key; a failure is kept.

    A section's key is the indices of the values of the axes that set it,
    after the params key for the sections parsed against ``params``.
    """

    def __init__(self, grid: SweepGrid):
        self.template, self.axes, self.memo = grid.template, grid.axes, {}
        self.owners = [AXES[name][0] for name, _ in grid.axes]
        self.at = {s: [i for i, owner in enumerate(self.owners) if owner == s] for s in SECTIONS}

    def _get(self, key, make):
        """``make()`` once per key; if it raised, its message is raised again each time.

        The memo keeps the message, not the exception: a raised exception's
        traceback holds the frames that hold this memo, a cycle that only
        the garbage collector would free.
        """
        if key not in self.memo:
            try:
                self.memo[key] = make()
            except JonesesError as exc:
                self.memo[key] = str(exc)  # no part is a str
        part = self.memo[key]
        if isinstance(part, str):
            raise JonesesError(part)
        return part

    def _check_root(self) -> None:
        if "initial" in self.owners:  # a gini0 start takes the template's total first
            _template_total(self.template)
        _check_sections({*self.template, *self.owners}, "<cell>")

    def _section(self, name, idx, after, parse, *args):
        """Key and part of section ``name`` in the cell at axis value indices ``idx``."""
        at = self.at[name]
        key = (name, after, *(idx[i] for i in at))

        def make():
            fields = {AXES[self.axes[i][0]][1]: self.axes[i][1][idx[i]] for i in at}
            return parse(_cell_section(self.template, name, fields), *args)

        return key, self._get(key, make)

    def cell(self, idx: tuple[int, ...]):
        """Scenario and regime of the cell at axis value indices ``idx``; raises its first error.

        The errors come in the order ``parse_scenario`` and ``classify``
        raise them on the cell's whole scenario.
        """
        self._get("root", self._check_root)
        pkey, params = self._section("params", idx, (), _parse_params)
        ekey, envy = self._section("envy", idx, pkey, _parse_envy, params)
        _, (horizon, tol, seed) = self._section("run", idx, (), _parse_run)
        ikey, initial = self._section("initial", idx, pkey, _parse_initial, params, seed)
        _, schedule = self._section("schedule", idx, pkey, _parse_schedule, params)
        n = params.n_agents  # classify checks the start first: a generated one is not yet checked
        rich = self._get(("rich", ikey), lambda: _rich_count(as_distribution(initial, n)))
        gamma0 = self._get(("gamma0", ikey, ekey), lambda: _start_weight(initial, envy))
        def weight(top):  # keyed by the envy part's index, so -0.0 and 0.0 never share one
            return self._get(("top", ekey, top), lambda: gamma_uniform_top(envy, top, n))
        regime = _regime(gamma0, rich, schedule.nu_at(0), params, weight)
        return Scenario(params, envy, initial, schedule, horizon, tol, seed), regime


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

    Each cell is built from its parts and classified in turn; a failure
    there is the cell's error.  The parsed cells then run their paths in
    lockstep blocks of at most ``BLOCK_VALUES // n_agents`` cells, and a
    path that raises gives its cell the error message the cell's own
    :func:`simulate` would raise.
    """
    results, block, parts = [], [], _Parts(grid)
    cells = itertools.product(*(range(len(vals)) for _, vals in grid.axes))
    for index, idx in enumerate(cells):
        values = tuple(vals[i] for (_, vals), i in zip(grid.axes, idx))
        try:
            sc, regime = parts.cell(idx)
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
