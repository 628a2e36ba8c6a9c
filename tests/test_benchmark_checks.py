"""The benchmark's output checks accept what the program writes.

Each workload of ``perfbench/workloads.py`` runs at its smallest size
(2 qubits, 20 steps) through :func:`symqm.cli.main`, and every report and
CSV it writes must pass ``perfbench/checks.py``, whose references are
computed apart from the program.  A change that drops or renames a report
field, or moves a value past the benchmark's tolerances, fails here
before it breaks a benchmark run.  Both files are compiled from their
source text, so nothing is written under ``perfbench/``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from symqm.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, **imports):
    """Run ``perfbench/<name>.py`` as a module; ``imports`` are the modules it imports by name."""
    module = types.ModuleType(name)
    path = PERFBENCH / f"{name}.py"
    saved = {key: sys.modules.get(key) for key in (name, *imports)}
    # dataclasses look a class's module up in sys.modules.
    sys.modules.update({name: module, **imports})
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        for key, value in saved.items():
            if value is None:
                del sys.modules[key]
            else:
                sys.modules[key] = value
    return module


WORKLOADS = _load("workloads")
CHECKS = _load("checks", workloads=WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_smallest_workload_passes_the_output_checks(tmp_path, name):
    workload = WORKLOADS.WORKLOADS[name].smallest()
    scenario = workload.scenario(seed=1)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    reference = CHECKS.Reference(2)
    for command in workload.commands:
        out = tmp_path / command
        assert main([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
        CHECKS.check_outputs(command, out, scenario, reference)
