"""Benchmark of the joneses solver: four workloads, checked outputs, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --record-hashes

Workloads are listed in BENCHMARK.json.  A run warms up, then repeats timed
passes for the given seconds and checks every pass; between passes it times
the set-up in fresh interpreters.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones.
``wall_s`` is the fastest pass and ``periods_per_s`` its rate; the other
metrics are medians over the run.
The line before it carries the run's stamp (versions, machine, source
digest, seed, quartiles and sample counts); the same stamp and the spans of
the last traced pass are kept under ``.perfbench_out/``.

``--record-hashes`` runs one pass at the default seed and stores the SHA-256
of its artifacts in ``perfbench/expected_hashes.json``; later runs on the
default seed (and every ``cli_scenarios`` run, whose inputs are fixed) must
reproduce them byte for byte.

Exits 2 without a result when the checkout has no ``src/joneses`` package or
no ``scenarios/`` directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HASHES = os.path.join(HERE, "expected_hashes.json")

# numpy's BLAS would otherwise start a thread per core for the Gini dot
# product: it buys little at N = 16384 and makes timings depend on what else
# the machine runs.  The benchmark measures the program on one core.
THREAD_LIMITS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7
IMPORT_PROBES = 3
MIN_PASSES = 3


def bootstrap() -> str | None:
    """Put this checkout's package first on the path; return an error or None."""
    if not os.path.isfile(os.path.join(SRC, "joneses", "__init__.py")):
        return f"no joneses package under {SRC}"
    if not os.path.isdir(os.path.join(ROOT, "scenarios")):
        return f"no scenarios directory under {ROOT}"
    for var in THREAD_LIMITS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import joneses

    if os.path.dirname(os.path.abspath(joneses.__file__)) != os.path.join(SRC, "joneses"):
        return f"imported joneses from {joneses.__file__}, not from this checkout"
    return None


# ---------------------------------------------------------------------------
# per-layer metric names, in the order they are printed


def per_layer_names() -> list[tuple[str, str]]:
    from tracer import COUNTERS, LAYERS
    from workloads import CLI_COMMANDS

    names = []
    for span in LAYERS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [(c, "B" if c == "output.bytes_written" else "count") for c in COUNTERS]
    names += [("cli.import_s", "s"), ("cli.numpy_import_s", "s")]
    names += [(f"cli.process_s.{label}", "s") for label, _, _ in CLI_COMMANDS]
    names += [("trace.overhead_s", "s")]
    return names


END_TO_END = (
    ("wall_s", "s"),
    ("periods_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


# ---------------------------------------------------------------------------
# helpers


def quartiles(values) -> list[float]:
    values = list(values)
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def stamp(seed) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        git_sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "joneses")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_model": cpu,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_probe(workload_name, seed, env) -> float:
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload_name, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def import_split(env) -> tuple[float, float]:
    """Cumulative import seconds of joneses and of numpy, from -X importtime."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import joneses"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    cumulative = {}
    for line in res.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative["joneses"], cumulative.get("numpy", 0.0)


def load_hashes() -> dict:
    if not os.path.exists(HASHES):
        return {}
    with open(HASHES, encoding="utf-8") as fh:
        return json.load(fh)


def gate_problems(expected: dict, artifacts: dict) -> list[str]:
    """One line per artifact whose SHA-256 differs from the recorded one."""
    problems = []
    for name, digest in sorted(expected.items()):
        got = artifacts.get(name)
        if got != digest:
            problems.append(f"artifact {name}: sha256 {got} != recorded {digest}")
    return problems


def fresh_dir(path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def execute_pass(workload, inputs, expected, gate, out_dir, pass_no, tracer=None):
    """One timed pass plus its checks -> (Pass or None, attempted, problems, artifacts)."""
    fresh_dir(out_dir)
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            result = workload.run_pass(inputs, out_dir, traced=tracer is not None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None and result.trace is None:
            result.trace = tracer.summary()
        attempted, problems, artifacts = workload.check(inputs, expected, result, out_dir, pass_no)
        result.data = None  # the path is checked; keep only the timings
    except Exception:  # a failing pass is counted and reported, the run goes on
        return None, workload.ops_per_pass(inputs), [traceback.format_exc(limit=3)], {}
    if gate is not None:
        problems = problems + gate_problems(gate, artifacts)
    return result, attempted, problems, artifacts


# ---------------------------------------------------------------------------
# the run


def measure(name, seed, seconds, trace, env) -> tuple[dict, dict]:
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[name]
    run_dir = fresh_dir(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}"))

    inputs = workload.setup(ROOT, seed)
    expected = workload.prepare(inputs)
    workload.warm_up(inputs, fresh_dir(os.path.join(run_dir, "warm_up")))
    fixed_inputs = name == "cli_scenarios"
    gate = load_hashes().get(name, {}) if seed == DEFAULT_SEED or fixed_inputs else None
    if gate is not None and not gate:
        gate = {"<recorded hashes>": "missing"}  # nothing to compare against is a failure
    tracer = Tracer() if trace else None

    plain, traced, setup_samples = [], [], []
    attempted = failed = 0
    problems = []
    start = perf_counter()
    last = 0.0
    pass_no = 0
    while pass_no < MIN_PASSES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        use_tracer = tracer if trace and pass_no % 2 == 1 else None
        out_dir = os.path.join(run_dir, "traced" if use_tracer else "plain")
        result, n, probs, _ = execute_pass(workload, inputs, expected, gate, out_dir, pass_no, use_tracer)
        attempted += n
        failed += min(n, len(probs))
        problems += probs
        if result is not None:
            (traced if use_tracer else plain).append(result)
        # The machine's speed drifts over seconds: spread the set-up probes
        # evenly over the run rather than timing them all at its start.
        if len(setup_samples) < SETUP_PROBES * (perf_counter() - start) / seconds:
            setup_samples.append(setup_probe(name, seed, env))
        last = perf_counter() - t0
        pass_no += 1
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(name, seed, env))
    if tracer is not None and tracer.span_start:  # CLI children write their own
        tracer.dump_spans(os.path.join(run_dir, "spans.csv"))

    metrics, samples = {}, {}

    def put(metric, unit, values, pick=None):
        """Report the median of the samples, or pick(samples) when given."""
        values = list(values)
        if not values:
            return
        q = quartiles(values)
        metrics[metric] = {"value": q[1] if pick is None else pick(values), "unit": unit}
        samples[metric] = {
            "n": len(values), "min": min(values), "q1": q[0], "median": q[1], "q3": q[2],
            "max": max(values), "values": values,
        }

    if not trace:
        units = dict(END_TO_END)
        # The host's other tenants only ever add time to a pass, in bursts
        # of seconds that cover a varying share of a run: the median pass
        # follows the bursts, the fastest pass follows the program.
        put("wall_s", units["wall_s"], (p.wall_s for p in plain), pick=min)
        put("periods_per_s", units["periods_per_s"], (p.periods / p.wall_s for p in plain if p.periods), pick=max)
        put("setup_s", units["setup_s"], setup_samples)
        if fixed_inputs:  # the workload's own processes are the CLI children
            rss = [p.rss_mb for p in plain]
        else:
            rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        put("peak_rss_mb", units["peak_rss_mb"], rss)
    else:
        units = dict(per_layer_names())
        absent = set()
        for p in traced:
            absent.update(p.trace["absent"])
        for key in ("calls", "self_s"):
            for span in traced[0].trace[key] if traced else ():
                put(f"{span}.{key}", units[f"{span}.{key}"], (p.trace[key][span] for p in traced))
        for counter in traced[0].trace["counts"] if traced else ():
            put(counter, units[counter], (p.trace["counts"][counter] for p in traced))
        splits = [import_split(env) for _ in range(IMPORT_PROBES)]
        put("cli.import_s", "s", (s[0] for s in splits))
        put("cli.numpy_import_s", "s", (s[1] for s in splits))
        for label in (m[len("cli.process_s."):] for m in units if m.startswith("cli.process_s.")):
            put(f"cli.process_s.{label}", "s", (p.process_s.get(label, 0.0) for p in plain))
        if plain and traced:
            overhead = min(p.wall_s for p in traced) - min(p.wall_s for p in plain)
            put("trace.overhead_s", "s", [overhead])
        # a layer that did not run here, or whose function is gone, reads 0
        for metric, unit in per_layer_names():
            if metric not in metrics:
                put(metric, unit, [0])
        samples["absent_layers"] = sorted(absent)

    report = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "failed_ratio": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        "samples": samples,
        **stamp(seed),
    }
    result = {
        "correct": failed == 0 and attempted > 0 and len(plain) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"stamp": report, "result": result}, fh, indent=1)
    return report, result


def record_hashes(name, env) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.setup(ROOT, DEFAULT_SEED)
    expected = workload.prepare(inputs)
    out_dir = os.path.join(OUT, f"{name}-record")
    result, _, problems, artifacts = execute_pass(workload, inputs, expected, None, out_dir, 0)
    if result is None or problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    hashes = load_hashes()
    hashes[name] = artifacts
    with open(HASHES, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(artifacts)} artifact hashes for {name}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true")
    args = parser.parse_args(argv)

    error = bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = child_env(ROOT)
    if args.record_hashes:
        return record_hashes(args.workload, env)
    report, result = measure(args.workload, args.seed, args.seconds, args.trace, env)
    print(json.dumps({"stamp": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
