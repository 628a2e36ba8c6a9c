"""Benchmark of symqm's four CLI commands on Ising-chain workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

A round is one fresh process (``child.py``) that writes the workload's
scenario file and calls ``symqm.cli.main`` once per command.  Rounds repeat
while another one is expected to end within ``--seconds`` (at least one
round).  An
operation is one CLI command; it fails on a non-zero exit code or when its
outputs fail the checks of ``checks.py``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``wall_s`` (median over rounds of the summed wall
time of the commands), ``setup_s`` (median time from launching a round's
process to the start of its first command, over the rounds and
``SETUP_PROBES`` set-up-only launches) and ``peak_rss_mib`` (median peak
resident memory of a round's process).  With ``--trace 1`` each round is
run untraced and then traced, the traced outputs must be byte-identical to
the untraced ones, and the JSON object holds the per-layer metrics of
``tracer.py``.
"""

from __future__ import annotations

import os

# At most one BLAS thread per available core; set before numpy loads, and
# inherited by every round's process.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD = Path(__file__).resolve().with_name("child.py")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 4
# Every round's process is killed once the run has lasted this long, so a
# hung command cannot hold the run past its 180-second limit.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "cli.verify.s": "s",
    "cli.evolve.s": "s",
    "cli.bracket.s": "s",
    "cli.reconstruct.s": "s",
    "cli.self.s": "s",
    "scenario.load_scenario.s": "s",
    "pauli.to_matrix.s": "s",
    "pauli.to_matrix.calls": "count",
    "operators.spectral_decompose.s": "s",
    "operators.spectral_decompose.calls": "count",
    "sampling.random_unit_state.s": "s",
    "sampling.random_unit_state.calls": "count",
    "brackets.complex_bracket.s": "s",
    "brackets.complex_bracket.calls": "count",
    "brackets.poisson_bracket.s": "s",
    "brackets.poisson_bracket.calls": "count",
    "brackets.bracket_commutator_report.s": "s",
    "brackets.observable_evals": "count",
    "brackets.complex_function_evals": "count",
    "quantum_function.from_operator.s": "s",
    "quantum_function.verify_axioms.s": "s",
    "quantum_function.verify_reconstruction.s": "s",
    "quantum_function.qfe_residual.s": "s",
    "dynamics.integrate.s": "s",
    "dynamics.solver_iterations": "count",
    "dynamics.phase_evolution_residual.s": "s",
    "dynamics.phase_evolution_residual.calls": "count",
    "dynamics.trajectory_diagnostics.s": "s",
    "reports.write_trajectory_csv.s": "s",
    "reports.write_report.s": "s",
    "reports.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


class Run:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: Path, workload, seed: int, trace: bool):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.root = root
        self.workload = workload
        self.trace = trace
        self.scenario = workload.scenario(seed)
        self.ref = checks.Reference(workload.qubits)
        self.work = root / OUT_DIR / f"{workload.name}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def launch(self, name: str, traced=False, setup_only=False):
        """Run one round's process; return its result dict, or None if it broke."""
        round_dir = self.work / name
        result_path = self.work / f"{name}.json"
        argv = [sys.executable, str(CHILD), json.dumps(self.scenario),
                ",".join(self.workload.commands), str(round_dir), str(result_path)]
        if traced:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        launched = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            log(f"{name}: killed at the run's time limit")
            return None
        if proc.returncode != 0 or not result_path.exists():
            log(f"{name}: process exited {proc.returncode}\n{proc.stderr}")
            return None
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_first"] - launched
        result["dir"] = round_dir
        return result

    def account(self, name: str, result) -> None:
        """Count the round's operations and check every output."""
        commands = self.workload.commands
        self.attempted += len(commands)
        if result is None:
            self.failed += len(commands)
            return
        log(f"{name}: " + " ".join(f"{c['command']}={c['seconds']:.3f}s" for c in result["commands"]))
        for entry in result["commands"]:
            command = entry["command"]
            if entry["code"] != 0:
                log(f"{name}: {command} exited {entry['code']}")
                self.failed += 1
                continue
            try:
                checks.check_outputs(command, result["dir"] / command, self.scenario, self.ref)
            except checks.CheckError as exc:
                log(f"{name}: {command}: wrong output: {exc}")
                self.failed += 1
                self.correct = False

    @staticmethod
    def _fits(start: float, rounds: int, seconds: float) -> bool:
        elapsed = time.monotonic() - start
        return elapsed + elapsed / rounds <= seconds

    def measure(self, seconds: float) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            # A discarded first launch fills the page and bytecode caches.
            self.launch("warmup", setup_only=True)
            probes = [] if self.trace else [
                self.launch(f"setup{k}", setup_only=True) for k in range(SETUP_PROBES)
            ]
            if any(p is None for p in probes):
                raise RuntimeError("a set-up launch failed")
            setups = [p["setup_s"] for p in probes]
            plain_rounds, traced_rounds = [], []
            start = time.monotonic()
            # Start another round only while it is expected to end within
            # the run's seconds, so a run lasts about --seconds (or one round).
            while not plain_rounds or self._fits(start, len(plain_rounds), seconds):
                k = len(plain_rounds)
                plain = self.launch(f"round{k}")
                self.account(f"round{k}", plain)
                plain_rounds.append(plain)
                if self.trace:
                    traced = self.launch(f"traced{k}", traced=True)
                    self.account(f"traced{k}", traced)
                    traced_rounds.append(traced)
                    if plain and traced and _files(plain["dir"]) != _files(traced["dir"]):
                        log(f"round {k}: traced outputs differ from untraced outputs")
                        self.correct = False
                shutil.rmtree(self.work / f"round{k}", ignore_errors=True)
                shutil.rmtree(self.work / f"traced{k}", ignore_errors=True)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass  # another run still uses it

        plain_rounds = [r for r in plain_rounds if r is not None]
        traced_rounds = [r for r in traced_rounds if r is not None]
        if not plain_rounds or (self.trace and not traced_rounds):
            raise RuntimeError("no round of the workload completed")
        walls = [sum(c["seconds"] for c in r["commands"]) for r in plain_rounds]
        if not self.trace:
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups + [r["setup_s"] for r in plain_rounds]),
                "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in plain_rounds) / 1024.0,
            }
            units = END_TO_END
        else:
            metrics = self.layer_metrics(traced_rounds, walls)
            units = PER_LAYER
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }

    def layer_metrics(self, traced_rounds: list, plain_walls: list) -> dict:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if unit == "s":
                metrics[name] = statistics.median(r["trace"].get(name, 0.0) for r in traced_rounds)
                continue
            values = [r["trace"].get(name, 0) for r in traced_rounds]
            if len(set(values)) != 1:
                log(f"{name}: counts differ between traced rounds: {values}")
                self.correct = False
            metrics[name] = values[0]
        traced_walls = [sum(c["seconds"] for c in r["commands"]) for r in traced_rounds]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        return metrics


def summary_line(name: str, result: dict) -> str:
    figures = " ".join(f"{metric}={m['value']:.6g} {m['unit']}"
                       for metric, m in result["metrics"].items())
    return (f"{name}: {figures} attempted={result['attempted']} "
            f"failed={result['failed']} correct={str(result['correct']).lower()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "symqm" / "cli.py").is_file():
        log(f"error: {root} holds no src/symqm/cli.py; run from the root of a symqm checkout")
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = Run(root, WORKLOADS[name], args.seed, bool(args.trace)).measure(args.seconds)
        except RuntimeError as exc:
            log(f"error: {name}: {exc}")
            return 1
        print(summary_line(name, results[name]), flush=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
