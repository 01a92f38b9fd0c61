"""Run one ``joneses`` CLI command with the layer tracer installed.

Usage: ``python perfbench/trace_child.py SUMMARY.json <cli arguments>``

Behaves like ``python -m joneses.cli <cli arguments>`` (same exit code,
stdout and stderr) and, when the command ends, writes the tracer summary to
SUMMARY.json and the spans next to it as SUMMARY.spans.csv.
"""

import json
import os
import runpy
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    summary_path, cli_args = sys.argv[1], sys.argv[2:]

    import joneses  # noqa: F401  (loads every layer module before wrapping)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    sys.argv = ["joneses", *cli_args]
    code = 0
    try:
        runpy.run_module("joneses.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump_spans(os.path.splitext(summary_path)[0] + ".spans.csv")
    return code


if __name__ == "__main__":
    sys.exit(main())
