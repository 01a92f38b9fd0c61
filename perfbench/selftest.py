"""Show that the output gate counts a one-byte change in an artifact as a failure.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) this runs one pass at the default
seed, checks that it passes the gate, then flips one byte in the middle of
each artifact file in turn and checks the pass again.  Every flip must add
at least one failure.  Exits 0 when all do, 1 otherwise.
"""

import os
import sys

import run


def flip_byte(path) -> None:
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        i = len(data) // 2
        data[i] ^= 0x01
        fh.seek(0)
        fh.write(data)


def main(names) -> int:
    error = run.bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    hashes = run.load_hashes()
    ok = True
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        inputs = workload.setup(run.ROOT, DEFAULT_SEED)
        expected = workload.prepare(inputs)
        gate = hashes.get(name, {})
        out_dir = run.fresh_dir(os.path.join(run.OUT, f"selftest-{name}"))
        result = workload.run_pass(inputs, out_dir)
        _, problems, artifacts = workload.check(inputs, expected, result, out_dir, 0)
        problems = problems + run.gate_problems(gate, artifacts)
        if problems or not gate:
            print(f"{name}: the unmodified pass does not pass the gate: {problems}")
            ok = False
            continue
        files = [a.split(":", 1)[-1] for a in artifacts]
        files = [f for f in files if os.path.isfile(os.path.join(out_dir, f))]
        for rel in files:
            path = os.path.join(out_dir, rel)
            flip_byte(path)
            _, problems, got = workload.check(inputs, expected, result, out_dir, 0)
            problems = problems + run.gate_problems(gate, got)
            flip_byte(path)
            caught = len(problems) > 0
            ok = ok and caught
            print(f"{name}: flipped a byte of {rel}: {'counted as a failure' if caught else 'NOT caught'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
