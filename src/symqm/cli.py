"""Command-line drivers: verify | evolve | bracket | reconstruct.

Each command loads a scenario file, runs its checks (writing a CSV
trajectory where applicable) and returns its report; ``_run`` writes every
deterministic JSON report into the output directory and exits 0 when every
residual is within tolerance, 1 on failed checks, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .brackets import ObservableFunction, bracket_commutator_report
from .dynamics import integrate, phase_residuals, spectral_deviation, trajectory_diagnostics
from .errors import ScenarioError, SymqmError, _count, _positive
from .operators import spectral_decompose
from .quantum_function import (
    AxiomTolerances,
    RowwiseMap,
    from_operator,
    qfe_residual,
    reconstruction_map,
    verify_axioms,
    verify_reconstruction,
)
from .reports import write_report, write_trajectory_csv
from .sampling import random_unit_states
from .scenario import Scenario, load_scenario

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symqm",
        description="Verify quantum-function axioms, evolve states and test reconstructions.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS),
                        help="verify: the quantum-function axioms (and bracket identity); "
                             "evolve: the Hamilton flow against the spectral propagator; "
                             "bracket: the bracket-commutator report for an operator pair; "
                             "reconstruct: the reconstruction map and the quantum-function equation")
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--out", default="./out", help="output directory (default ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every tolerance by this factor")
    parser.add_argument("--quiet", action="store_true", help="suppress per-check output")
    return parser


def _emit(quiet: bool, name: str, value: float, tol: float, ok: bool) -> None:
    if not quiet:
        print(f"{name}: residual={value:.6e} tol={tol:.3e} {'PASS' if ok else 'FAIL'}")


def _judge(quiet: bool, prefix: str, measured: dict) -> dict:
    """``residual <= tol`` for each ``name: (residual, tol)``, printing one line each."""
    checks = {}
    for name, (value, tol) in measured.items():
        checks[name] = value <= tol
        _emit(quiet, f"{prefix}.{name}", value, tol, checks[name])
    return checks


def _axiom_tolerances(scenario: Scenario) -> AxiomTolerances:
    return AxiomTolerances(**{field.name: scenario.tolerance(f"axiom_{field.name}")
                              for field in fields(AxiomTolerances)})


def _bracket_section(scenario: Scenario, quiet: bool) -> dict:
    report = bracket_commutator_report(scenario.operator, scenario.second_operator, scenario.space,
                                       scenario.samples, scenario.seed)
    fd_tol = scenario.tolerance("bracket_finite_difference") * report.scale
    checks = _judge(quiet, "bracket_commutator", {
        "analytic": (report.analytic_max, scenario.tolerance("bracket_analytic") * report.scale),
        "finite_difference": (report.finite_difference_max, fd_tol),
        "field_check": (report.field_check_max, fd_tol),
    })
    return {**asdict(report), "identity": "i*hbar*{<A>,<B>} = <[A,B]>",
            "checks": checks, "passed": all(checks.values())}


def _nonfinite_state(traj, quiet: bool) -> dict:
    """The first stored row whose state is not finite, and its time, printed; ``{}`` if none."""
    rows = np.flatnonzero(~np.isfinite(traj.norms))  # the norm is not finite where the state is not
    rows = rows[~np.isfinite(traj.states[rows]).all(axis=1)]
    if not rows.size:
        return {}
    row, t = int(rows[0]), float(traj.times[rows[0]])
    if not quiet:
        print(f"state not finite from stored row {row} (t={t:.6g})")
    return {"first_nonfinite_state": {"row": row, "t": t}}


def _cmd_verify(scenario: Scenario, paths: dict, quiet: bool) -> dict:
    qf = from_operator(scenario.operator, scenario.space)
    axioms = verify_axioms(qf, scenario.samples, scenario.seed,
                           _axiom_tolerances(scenario))
    _judge(quiet, "axiom", {name: (getattr(axioms, name), tol)
                            for name, tol in asdict(axioms.tolerances).items()})
    report = {"axioms": axioms.as_dict(), "passed": axioms.passed}
    if scenario.second_operator is not None:
        report["bracket_commutator"] = _bracket_section(scenario, quiet)
        report["passed"] = axioms.passed and report["bracket_commutator"]["passed"]
    return report


def _cmd_bracket(scenario: Scenario, paths: dict, quiet: bool) -> dict:
    if scenario.second_operator is None:
        raise ScenarioError("the bracket command requires this field", "second_operator")
    section = _bracket_section(scenario, quiet)
    return {"bracket_commutator": section, "passed": section["passed"]}


def _cmd_evolve(scenario: Scenario, paths: dict, quiet: bool) -> dict:
    if paths["trajectory"].resolve() == paths["report"].resolve():
        raise ScenarioError("the report and the trajectory are one file", "outputs")
    spectral = spectral_decompose(scenario.operator)
    f = ObservableFunction.expectation_of(scenario.operator, scenario.space)
    traj = integrate(f, scenario.initial_state, scenario.integrator)

    hbar = scenario.space.hbar
    deviation = spectral_deviation(traj, spectral, hbar)
    diagnostics = trajectory_diagnostics(traj)
    residuals = phase_residuals(traj.states, spectral.eigenvectors, spectral.eigenvalues,
                                traj.times, hbar)
    worst_phase = float(np.max(residuals))

    checks = _judge(quiet, "evolve", {
        "deviation_from_exact": (deviation, scenario.tolerance("evolve_deviation")),
        "phase_evolution": (worst_phase, scenario.tolerance("evolve_phase")),
    })

    write_trajectory_csv(traj, paths["trajectory"])

    return {
        "deviation_from_exact": deviation,
        "diagnostics": asdict(diagnostics),
        "phase_evolution": {
            "eigenvalues": [float(a) for a in spectral.eigenvalues],
            "residuals": [float(r) for r in residuals],
        },
        "trajectory_file": paths["trajectory"].name,
        **_nonfinite_state(traj, quiet),
        "checks": checks,
        "passed": all(checks.values()),
    }


def _phi_candidate(scenario: Scenario, qf):
    if scenario.phi_map == "reconstruction":
        return reconstruction_map(qf)
    if scenario.phi_map == "identity":
        return RowwiseMap(lambda rows: rows)
    constant = np.zeros(scenario.dimension, dtype=complex)
    constant[0] = 1.0
    return RowwiseMap(lambda rows: np.broadcast_to(constant, rows.shape))


def _cmd_reconstruct(scenario: Scenario, paths: dict, quiet: bool) -> dict:
    qf = from_operator(scenario.operator, scenario.space)
    traj = integrate(qf.f, scenario.initial_state, scenario.integrator)
    rec = verify_reconstruction(qf, traj, samples=scenario.samples, seed=scenario.seed)
    phi = _phi_candidate(scenario, qf)
    qfe = qfe_residual(scenario.operator, phi, scenario.space, samples=scenario.samples,
                       seed=scenario.seed)

    # qf comes from an operator, so the analytic flow residual is never None.
    tol_an = scenario.tolerance("reconstruction_analytic")
    tol_fd = scenario.tolerance("reconstruction_finite_difference")
    checks = _judge(quiet, "reconstruction", {
        "flow_equation_analytic": (rec.flow_equation_residual_analytic, tol_an),
        "flow_equation_finite_difference": (rec.flow_equation_residual_fd, tol_fd),
        "field_check": (rec.field_check_residual, tol_fd),
        "value": (rec.value_residual, tol_an),
        "norm": (rec.norm_residual, tol_an),
        "stationary": (rec.stationary_residual, tol_an),
        "intertwining": (rec.intertwining_residual,
                         scenario.tolerance("reconstruction_intertwining")),
    })
    checks["qfe"] = qfe <= scenario.tolerance("qfe")
    _emit(quiet, f"qfe[{scenario.phi_map}]", qfe, scenario.tolerance("qfe"), checks["qfe"])

    return {
        "reconstruction": asdict(rec),
        "qfe": {"phi_map": scenario.phi_map, "residual": qfe},
        "degenerate_flag": qf.degenerate_flag,
        **_nonfinite_state(traj, quiet),
        "checks": checks,
        "passed": all(checks.values()),
    }


_COMMANDS = {
    "verify": _cmd_verify,
    "evolve": _cmd_evolve,
    "bracket": _cmd_bracket,
    "reconstruct": _cmd_reconstruct,
}


def _run(command: str, scenario: Scenario, out_dir: Path, quiet: bool) -> int:
    """Run one command and write its report, 0 iff it passed.  Overflow shows as
    non-finite residuals, not numpy warnings."""
    names = {"report": f"{command}_report.json", "trajectory": "trajectory.csv",
             **scenario.outputs}
    paths = {key: out_dir / name for key, name in names.items()}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            body = _COMMANDS[command](scenario, paths, quiet)
    finally:
        random_unit_states.cache_clear()
    report = {"command": command, "scenario": scenario.resolved_dict(), **body}
    write_report(report, paths["report"])
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        scale = _positive(args.tol_scale, "--tol-scale")
        scenario = load_scenario(args.scenario)
        scenario = replace(
            scenario, seed=scenario.seed if args.seed is None else _count(args.seed, "--seed", 0),
            tolerances={name: _positive(tol * scale, f"tolerances.{name} times --tol-scale")
                        for name, tol in scenario.tolerances.items()})
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file, or a path under one
            raise ScenarioError(f"cannot make the output directory: {exc}", "--out") from exc
        try:
            code = _run(args.command, scenario, out_dir, args.quiet)
        except OSError as exc:  # the only files a command opens are its outputs
            raise ScenarioError(f"cannot write an output file: {exc}", "outputs") from exc
    except SymqmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print("OK" if code == 0 else "FAILED")
    return code


if __name__ == "__main__":
    sys.exit(main())
