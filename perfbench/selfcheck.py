"""Quick self-check of the benchmark on the smallest inputs.

Run from the root of a checkout; it takes under a minute::

    python3 perfbench/selfcheck.py

It checks that

1. ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
   reports;
2. the free-fermion spectrum of ``checks.py`` equals the dense eigenvalues
   of the Kronecker-built chain for 1 to 6 qubits;
3. every workload, shrunk to two qubits and 20 steps, runs untraced and
   traced with no failed operation, byte-identical traced outputs, every
   metric present, and the same counts in two traced runs;
4. each output checker rejects deliberately wrong outputs;
5. in a directory holding only ``BENCHMARK.json`` and the benchmark,
   ``run.py`` exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import run
from workloads import WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def expect(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end_to_end")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per_layer")


def check_spectrum() -> None:
    for q in range(1, 7):
        dense = np.linalg.eigvalsh(checks.chain_matrix(q))
        error = float(np.max(np.abs(checks.chain_spectrum(q) - dense)))
        expect(error <= 1e-12, f"q={q}: free-fermion spectrum off by {error:.3e}")


def check_small_runs() -> None:
    for workload in WORKLOADS.values():
        small = workload.smallest()
        plain = run.Run(ROOT, small, 3, trace=False).measure(0)
        traced = [run.Run(ROOT, small, 3, trace=True).measure(0) for _ in range(2)]
        for result in [plain] + traced:
            expect(result["correct"] and result["failed"] == 0, f"{small.name}: {result}")
        expect(set(plain["metrics"]) == set(run.END_TO_END), small.name)
        expect(all(m["value"] > 0 for m in plain["metrics"].values()), small.name)
        expect(set(traced[0]["metrics"]) == set(run.PER_LAYER), small.name)
        for name, unit in run.PER_LAYER.items():
            if unit != "s":
                counts = [t["metrics"][name]["value"] for t in traced]
                expect(counts[0] == counts[1], f"{small.name}: {name} {counts}")


def _mutated(report: dict, path: tuple, change) -> dict:
    wrong = copy.deepcopy(report)
    target = wrong
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = change(target[path[-1]])
    return wrong


# Per command: (path into the report, change) pairs, each of which makes
# the report wrong.
REPORT_MUTATIONS = {
    "verify": [
        (("axioms", "residuals", "bracket"), lambda v: math.nan),
        (("axioms", "residuals", "decomposition"), lambda v: 1e-3),
        (("axioms", "degenerate_flag"), lambda v: not v),
        (("bracket_commutator", "scale"), lambda v: v * (1 + 1e-6)),
    ],
    "bracket": [
        (("bracket_commutator", "finite_difference_max"), lambda v: 1.0),
        (("bracket_commutator", "scale"), lambda v: v + 1.0),
    ],
    "evolve": [
        (("phase_evolution", "eigenvalues", 0), lambda v: v + 1e-6),
        (("phase_evolution", "residuals", -1), lambda v: math.inf),
        (("deviation_from_exact",), lambda v: 2e-5),
        (("diagnostics", "max_energy_drift"), lambda v: 1e-6),
    ],
    "reconstruct": [
        (("reconstruction", "flow_equation_residual_fd"), lambda v: math.nan),
        (("qfe", "residual"), lambda v: 1e-3),
        (("degenerate_flag",), lambda v: not v),
    ],
}


def _csv_with(text: str, row: int, column: int, delta: float) -> str:
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[column] = "%.17g" % (float(fields[column]) + delta)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


# Each makes the trajectory CSV wrong: (row, column, added value), with
# row 0 the header and column -1 the energy.
CSV_MUTATIONS = [(5, -1, 1e-6), (7, -2, 1e-6), (-1, 1, 1e-4), (1, 0, 1e-3)]


def check_negative_controls() -> None:
    for workload in WORKLOADS.values():
        small = workload.smallest()
        bench = run.Run(ROOT, small, 5, trace=False)
        shutil.rmtree(bench.work, ignore_errors=True)
        bench.work.mkdir(parents=True)
        try:
            result = bench.launch("controls")
            expect(result is not None, f"{small.name}: round failed")
            for command in small.commands:
                out = result["dir"] / command
                checks.check_outputs(command, out, bench.scenario, bench.ref)
                report = json.loads((out / "report.json").read_text())
                for path, change in REPORT_MUTATIONS[command]:
                    if path[0] == "bracket_commutator" and path[0] not in report:
                        continue
                    wrong = _mutated(report, path, change)
                    try:
                        checks.REPORT_CHECKS[command](wrong, bench.scenario, bench.ref)
                    except checks.CheckError:
                        continue
                    raise AssertionError(f"{small.name}: {command} accepted a wrong {path}")
                if command != "evolve":
                    continue
                csv = out / "trajectory.csv"
                text = csv.read_text()
                for row, column, delta in CSV_MUTATIONS:
                    wrong_csv = out / "wrong.csv"
                    wrong_csv.write_text(_csv_with(text, row, column, delta))
                    try:
                        checks.check_trajectory_csv(wrong_csv, bench.scenario, bench.ref)
                    except checks.CheckError:
                        continue
                    raise AssertionError(f"{small.name}: csv check accepted row {row} "
                                         f"column {column} moved by {delta}")
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / run.OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / HERE.name).mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / HERE.name)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "long-flow",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0, "run.py succeeded without the program")
        expect('"metrics"' not in proc.stdout, "run.py printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


CHECKS = (
    check_benchmark_json,
    check_spectrum,
    check_small_runs,
    check_negative_controls,
    check_bare_directory,
)


def main() -> int:
    failures = 0
    for check in CHECKS:
        try:
            check()
        except (AssertionError, checks.CheckError, RuntimeError) as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"PASS {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
