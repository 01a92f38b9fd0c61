"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload has the same shape:

* ``setup(root, seed)`` builds the inputs through the package's public
  loaders.  It is what ``setup_probe.py`` times in a fresh process.
* ``prepare(inputs)`` computes, untimed, what the checks compare against.
* ``run_pass(inputs, out_dir, traced)`` does one timed pass and returns a
  :class:`Pass` holding the wall time and what the checks need.
* ``check(inputs, expected, result, out_dir, pass_no)`` checks the pass
  against the paper's laws and returns ``(attempted, problems, artifacts)``:
  the operations the pass attempted, one line per failed operation, and the
  SHA-256 of every artifact it wrote.

The caller compares the artifact hashes with ``expected_hashes.json`` when
the inputs are those of :data:`DEFAULT_SEED` (``cli_scenarios`` has fixed
inputs, so always).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import joneses
import joneses.output
from joneses.errors import JonesesError

DEFAULT_SEED = 0

# Shared by both path workloads: the paper's baseline economy, nu = 1.
N_AGENTS = 16384
ALPHA, DELTA, PHI = 1.0 / 3.0, 1.0, 0.1
ENVY_BASE, ENVY_SCALE = 0.0, 1.0
NU = 1.0
MEAN_WEALTH = 0.1
RICH, RICH_SHARE = 16, 0.97
LIMIT_TOL = 1e-8  # convergence tolerance and limit agreement, as in the tests

# sweep_grid axes besides the template's 23 nu values.
GINI0_RANGE = (0.1, 0.74)
GINI0_COUNT = 3
ENVY_SCALES = (0.5, 1.0, 2.0, 3.2)
EXPECTED_ERROR_SCALE = 3.2  # above the existence ceiling: an error row by design


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def fmt(x: float) -> str:
    """17 significant digits, the rendering of the package's CSV writers."""
    return format(float(x), ".17g")


@dataclass
class Pass:
    wall_s: float
    data: object = None
    periods: int = 0
    rss_mb: float | None = None
    process_s: dict = field(default_factory=dict)
    trace: dict | None = None


def check_path_laws(traj, report, params, regime, horizon) -> list[str]:
    """The paper's laws on an emitted path; one line per violated law."""
    problems = []
    records = traj.records
    if len(records) != horizon:
        problems.append(f"path has {len(records)} periods, expected {horizon}")
    budget = k_mean = chain = 0
    for t, r in enumerate(records):
        try:
            joneses.budget_check(r, params)
        except JonesesError:
            budget += 1
        if r.k_next != float(np.mean(r.bequests_next)):
            k_mean += 1
        if t and r.k != records[t - 1].k_next:
            chain += 1
    for count, law in (
        (budget, "budget_check fails"),
        (k_mean, "k_next != mean(bequests_next)"),
        (chain, "k_t != k_next of period t-1"),
    ):
        if count:
            problems.append(f"{law} in {count} period(s)")
    if report is not None and regime.limit_k is not None:
        if not abs(traj.final_k - regime.limit_k) <= LIMIT_TOL:
            problems.append(
                f"settled at period {report.period} with k={traj.final_k!r}, "
                f"classify gives limit_k={regime.limit_k!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# path_egalitarian / path_polarised


@dataclass(frozen=True)
class PathInputs:
    params: object
    envy: object
    schedule: object
    initial: np.ndarray
    horizon: int


def egalitarian_start(rng, n):
    """Uniform random bequests scaled to mean MEAN_WEALTH (Gini about 1/3)."""
    x = rng.random(n)
    return x * (MEAN_WEALTH / x.mean())


def polarised_start(rng, n):
    """RICH_SHARE of total wealth split equally among RICH dynasties at
    seeded positions; the rest spread at random over the others."""
    total = MEAN_WEALTH * n
    x = rng.random(n)
    rich = rng.choice(n, RICH, replace=False)
    x[rich] = 0.0
    x *= (1.0 - RICH_SHARE) * total / x.sum()
    x[rich] = RICH_SHARE * total / RICH
    return x


class PathWorkload:
    """simulate + detect_convergence + the aggregate trajectory CSV, N = 16384."""

    def __init__(self, horizon, start, regime_kind, m_count):
        self.horizon = horizon
        self.start = start
        self.regime_kind = regime_kind
        self.m_count = m_count

    def setup(self, root, seed):
        params = joneses.validate_params(alpha=ALPHA, delta=DELTA, phi=PHI, n_agents=N_AGENTS)
        envy = joneses.validate_envy(joneses.EnvySpec(base=ENVY_BASE, scale=ENVY_SCALE), params)
        schedule = joneses.build_schedule(params.phi, [(0, NU)], params)
        initial = self.start(np.random.default_rng(seed), N_AGENTS)
        return PathInputs(params, envy, schedule, initial, self.horizon)

    def prepare(self, inputs):
        return joneses.classify(inputs.initial, NU, inputs.params, inputs.envy)

    def ops_per_pass(self, inputs):
        return 1

    def warm_up(self, inputs, out_dir):
        small = joneses.validate_params(alpha=ALPHA, delta=DELTA, phi=PHI, n_agents=64)
        initial = self.start(np.random.default_rng(0), 64)
        traj = joneses.simulate(initial, [NU] * 6, 5, small, inputs.envy)
        joneses.detect_convergence(traj, LIMIT_TOL)
        joneses.output.write_trajectory_csv(traj, os.path.join(out_dir, "warm_up.csv"))

    def run_pass(self, inputs, out_dir, traced=False):
        csv_path = os.path.join(out_dir, "trajectory.csv")
        t0 = perf_counter()
        traj = joneses.simulate(
            inputs.initial, inputs.schedule, inputs.horizon, inputs.params, inputs.envy
        )
        report = joneses.detect_convergence(traj, LIMIT_TOL)
        joneses.output.write_trajectory_csv(traj, csv_path)
        wall = perf_counter() - t0
        return Pass(wall_s=wall, data=(traj, report), periods=inputs.horizon)

    def check(self, inputs, regime, result, out_dir, pass_no):
        traj, report = result.data
        problems = check_path_laws(traj, report, inputs.params, regime, inputs.horizon)
        if regime.kind != self.regime_kind:
            problems.append(f"start classified {regime.kind}, expected {self.regime_kind}")
        m_counts = traj.m_counts
        if not np.all(m_counts == self.m_count):
            problems.append(
                f"active set ranges {m_counts.min()}..{m_counts.max()}, expected {self.m_count}"
            )
        artifacts = {
            "trajectory.csv": sha256_file(os.path.join(out_dir, "trajectory.csv")),
            "final_bequests": sha256_bytes(np.ascontiguousarray(traj.final_bequests).tobytes()),
        }
        # one operation per pass: simulate, detect, write, all checked together
        return 1, (["; ".join(problems)] if problems else []), artifacts


# ---------------------------------------------------------------------------
# sweep_grid


@dataclass(frozen=True)
class SweepInputs:
    grid: object
    obj: dict


def _cell_object(template: dict, nu: float, gini0: float, scale: float) -> dict:
    obj = copy.deepcopy(template)
    obj["schedule"] = {"segments": [{"start": 0, "nu": nu}]}
    obj["envy"]["scale"] = scale
    obj["initial"] = {"generator": "gini_target", "gini": gini0, "total": template["initial"]["total"]}
    return obj


class SweepWorkload:
    """run_sweep over nu x seeded gini0 x envy_scale on the nu_sweep template."""

    def setup(self, root, seed):
        with open(os.path.join(root, "scenarios", "nu_sweep.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        nus = next(a["values"] for a in obj["axes"] if a["name"] == "nu")
        rng = np.random.default_rng(seed)
        ginis = sorted(float(g) for g in rng.uniform(*GINI0_RANGE, GINI0_COUNT))
        obj["axes"] = [
            {"name": "nu", "values": nus},
            {"name": "gini0", "values": ginis},
            {"name": "envy_scale", "values": list(ENVY_SCALES)},
        ]
        return SweepInputs(grid=joneses.parse_grid(obj, source="sweep_grid"), obj=obj)

    def prepare(self, inputs):
        """Expected row per cell, through the public API one cell at a time."""
        template = inputs.obj["template"]
        axes = [vals for _, vals in inputs.grid.axes]
        expected = []
        for nu, gini0, scale in itertools.product(*axes):
            try:
                sc = joneses.parse_scenario(_cell_object(template, nu, gini0, scale))
            except JonesesError:
                expected.append(((nu, gini0, scale), None, None))
                continue
            regime = joneses.classify(sc.initial, nu, sc.params, sc.envy)
            expected.append(((nu, gini0, scale), sc, regime))
        return expected

    def ops_per_pass(self, inputs):
        return inputs.grid.n_cells

    def warm_up(self, inputs, out_dir):
        obj = copy.deepcopy(inputs.obj)
        obj["axes"] = [{"name": "nu", "values": [1.0]}, {"name": "envy_scale", "values": [1.0, 3.2]}]
        joneses.run_sweep(joneses.parse_grid(obj), os.path.join(out_dir, "warm_up"))

    def run_pass(self, inputs, out_dir, traced=False):
        t0 = perf_counter()
        results = joneses.run_sweep(inputs.grid, out_dir)
        wall = perf_counter() - t0
        horizon = inputs.obj["template"]["run"]["horizon"]
        solved = sum(1 for r in results if r.regime != "error")
        return Pass(wall_s=wall, periods=solved * horizon)

    def check(self, inputs, expected, result, out_dir, pass_no):
        path = os.path.join(out_dir, "sweep.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        problems = []
        if len(rows) != len(expected):
            problems.append(f"sweep.csv has {len(rows)} rows for {len(expected)} cells")
        solved = []
        for row, (values, sc, regime) in zip(rows, expected):
            nu, gini0, scale = values
            if len(row) != 9 or row[:3] != [fmt(v) for v in values]:
                problems.append(f"cell {values}: malformed row {row!r}")
                continue
            if (scale == EXPECTED_ERROR_SCALE) != (regime is None):
                problems.append(f"cell {values}: parse outcome disagrees with the ceiling")
            if regime is None:
                if row[3] != "error":
                    problems.append(f"cell {values}: expected an error row, got {row[3]}")
                continue
            limit = "" if regime.limit_k is None else fmt(regime.limit_k)
            if row[3] != regime.kind or row[5] != limit:
                problems.append(f"cell {values}: row {row[3:6]} != classify {regime.kind},{limit}")
                continue
            if regime.limit_k is not None and row[7] != fmt(abs(float(row[6]) - regime.limit_k)):
                problems.append(f"cell {values}: gap {row[7]} != |k_final - limit_k|")
                continue
            solved.append((row, sc, regime))
        if solved:
            # Re-derive one solved cell per pass, rotating through the grid.
            row, sc, regime = solved[pass_no % len(solved)]
            traj = joneses.simulate(sc.initial, sc.schedule, sc.horizon, sc.params, sc.envy)
            report = joneses.detect_convergence(traj, sc.tol)
            laws = check_path_laws(traj, report, sc.params, regime, sc.horizon)
            if row[6] != fmt(traj.final_k):
                laws.append(f"k_final {row[6]} != simulate {fmt(traj.final_k)}")
            problems.extend(f"cell {row[:3]}: {p}" for p in laws)
        return len(expected), problems, {"sweep.csv": sha256_file(path)}


# ---------------------------------------------------------------------------
# cli_scenarios

# (label, CLI arguments, artifacts written relative to the pass directory)
CLI_COMMANDS = (
    ("simulate_equal_start",
     ["simulate", "scenarios/equal_start.json", "--per-agent", "--csv", "{out}/equal_start.csv"],
     ("equal_start.csv",)),
    ("simulate_polarised_start",
     ["simulate", "scenarios/polarised_start.json", "--per-agent", "--csv", "{out}/polarised_start.csv"],
     ("polarised_start.csv",)),
    ("simulate_reform_candidate",
     ["simulate", "scenarios/reform_candidate.json", "--per-agent", "--csv", "{out}/reform_candidate.csv"],
     ("reform_candidate.csv",)),
    ("sweep_nu_sweep",
     ["sweep", "scenarios/nu_sweep.json", "--out", "{out}/sweep"],
     ("sweep/sweep.csv",)),
    ("plan_reform",
     ["plan-reform", "scenarios/reform_candidate.json", "--stage1", "0.7", "--stage2", "1.1764705882352942"],
     ("plan_reform.stdout",)),
    ("plot_savings",
     ["plot-savings", "scenarios/reform_candidate.json", "--out", "{out}/savings.svg"],
     ("savings.svg",)),
    ("plot_phase",
     ["plot-phase", "scenarios/equal_start.json", "--curve", "0,1,1", "--curve", "0.75,0.25,1", "--out", "{out}/phase.svg"],
     ("phase.svg",)),
)

SIMULATED_SCENARIOS = ("equal_start", "polarised_start", "reform_candidate")


def child_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root, env, stdout_path, stderr_path):
    """Run one process to completion; return (exit code, seconds, peak RSS in MiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


@dataclass(frozen=True)
class CliInputs:
    root: str
    env: dict
    scenarios: dict
    grid: object


class CliWorkload:
    """Seven fresh `python -m joneses.cli` processes on the shipped scenarios."""

    def setup(self, root, seed):
        scenarios = {
            name: joneses.load_scenario(os.path.join(root, "scenarios", f"{name}.json"))
            for name in SIMULATED_SCENARIOS
        }
        grid = joneses.load_grid(os.path.join(root, "scenarios", "nu_sweep.json"))
        return CliInputs(root=root, env=child_env(root), scenarios=scenarios, grid=grid)

    def prepare(self, inputs):
        return None

    def ops_per_pass(self, inputs):
        return len(CLI_COMMANDS)

    def warm_up(self, inputs, out_dir):
        argv = [sys.executable, "-m", "joneses.cli", "validate", "scenarios/equal_start.json"]
        log = os.path.join(out_dir, "warm_up.log")
        run_child(argv, inputs.root, inputs.env, log, log)

    def run_pass(self, inputs, out_dir, traced=False):
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_child.py")
        process_s, codes, rss = {}, {}, []
        traces = []
        t0 = perf_counter()
        for label, args, _ in CLI_COMMANDS:
            args = [a.format(out=out_dir) for a in args]
            if traced:
                summary_path = os.path.join(out_dir, f"{label}.trace.json")
                argv = [sys.executable, shim, summary_path, *args]
            else:
                argv = [sys.executable, "-m", "joneses.cli", *args]
            base = os.path.join(out_dir, label)
            code, seconds, peak = run_child(argv, inputs.root, inputs.env, base + ".stdout", base + ".stderr")
            codes[label], process_s[label] = code, seconds
            rss.append(peak)
            if traced:
                traces.append(summary_path)
        wall = perf_counter() - t0
        trace = merge_summaries([_read_json(p) for p in traces if os.path.exists(p)]) if traced else None
        return Pass(wall_s=wall, data=codes, rss_mb=max(rss), process_s=process_s, trace=trace)

    def check(self, inputs, expected, result, out_dir, pass_no):
        problems, artifacts = [], {}
        for label, _, written in CLI_COMMANDS:
            if result.data[label] != 0:
                problems.append(f"{label}: exit code {result.data[label]}")
                continue
            for name in written:
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    artifacts[f"{label}:{name}"] = sha256_file(path)
                else:
                    problems.append(f"{label}: {name} was not written")
        result.periods = self.periods(inputs, out_dir) if not problems else 0
        return len(CLI_COMMANDS), problems, artifacts

    @staticmethod
    def periods(inputs, out_dir) -> int:
        """Temporary equilibria the pass solved, read off its outputs."""
        total = sum(sc.horizon for sc in inputs.scenarios.values())
        with open(os.path.join(out_dir, "sweep", "sweep.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        horizon = inputs.grid.template["run"]["horizon"]
        total += horizon * sum(1 for r in rows if ",error," not in r)
        with open(os.path.join(out_dir, "plan_reform.stdout"), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("trigger_period="):
                    total += int(line.split("=", 1)[1])
        return total


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def merge_summaries(summaries) -> dict:
    """Sum tracer summaries of several processes."""
    merged = {"calls": {}, "self_s": {}, "counts": {}, "absent": set(), "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["absent"].update(s["absent"])
        merged["spans"] += s["spans"]
    merged["absent"] = sorted(merged["absent"])
    return merged


WORKLOADS = {
    "path_egalitarian": PathWorkload(60, egalitarian_start, "egalitarian", N_AGENTS),
    "path_polarised": PathWorkload(1000, polarised_start, "polarised", RICH),
    "sweep_grid": SweepWorkload(),
    "cli_scenarios": CliWorkload(),
}
