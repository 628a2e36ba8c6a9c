"""One round of a workload in a fresh process.

Writes the scenario file, then calls ``symqm.cli.main`` once per command
with ``--quiet`` and a fresh ``--out`` directory, and records what
``run.py`` needs into a JSON result file:

* ``t_first``: ``time.monotonic()`` at the start of the first command, so
  the parent can subtract its own launch stamp (both read the system-wide
  monotonic clock);
* per command: the exit code and the wall time of its ``main`` call;
* ``maxrss_kib``: the peak resident memory of this process;
* with ``--trace``: the per-layer figures of :mod:`tracer`.

``--setup-only`` stops before the first command; ``run.py`` uses it to
time set-up on its own.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/child.py SCENARIO_JSON COMMANDS ROUND_DIR RESULT_JSON [--trace] [--setup-only]
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import symqm
import symqm.cli


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("scenario", help="scenario file contents, as JSON text")
    parser.add_argument("commands", help="comma-separated CLI commands")
    parser.add_argument("round_dir")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (Path.cwd() / "src").resolve()
    if src not in Path(symqm.__file__).resolve().parents:
        print(f"symqm imported from {symqm.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    round_dir = Path(args.round_dir)
    round_dir.mkdir(parents=True, exist_ok=True)
    scenario_path = round_dir / "scenario.json"
    scenario_path.write_text(args.scenario)

    result = {"t_first": time.monotonic(), "commands": []}
    if not args.setup_only:
        for command in args.commands.split(","):
            argv = [command, "--scenario", str(scenario_path),
                    "--out", str(round_dir / command), "--quiet"]
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = symqm.cli.main(argv)
                else:
                    with tracer.span(f"cli.{command}"):
                        code = symqm.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = "exception"
            result["commands"].append({
                "command": command,
                "code": code,
                "seconds": time.perf_counter() - start,
            })
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.layer_figures()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
