"""End-to-end tests of the command-line drivers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symqm.cli import main
from symqm.sampling import random_unit_states


def _scenario(tmp_path, extra=None, name="scenario.json"):
    base = {
        "operator": "Z0",
        "integrator": {"method": "midpoint", "dt": 0.001, "steps": 1000},
        "samples": 30,
    }
    if extra:
        base.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def _run(command, scenario, out, *extra):
    return main([command, "--scenario", str(scenario), "--out", str(out),
                 "--quiet", *extra])


def test_verify_pass(tmp_path):
    scenario = _scenario(tmp_path)
    assert _run("verify", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["command"] == "verify"
    assert report["scenario"]["hbar"] == 1
    for residual in report["axioms"]["residuals"].values():
        assert residual <= 1e-10


def test_verify_with_bracket_report(tmp_path):
    scenario = _scenario(tmp_path, {"second_operator": "X0"})
    assert _run("verify", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    section = report["bracket_commutator"]
    assert section["analytic_max"] <= 1e-12
    assert section["passed"] is True


def test_verify_unreachable_tolerance_fails(tmp_path):
    scenario = _scenario(tmp_path)
    assert _run("verify", scenario, tmp_path / "out", "--tol-scale", "1e-10") == 1
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["passed"] is False


def test_bracket_requires_second_operator(tmp_path):
    scenario = _scenario(tmp_path)
    assert _run("bracket", scenario, tmp_path / "out") == 2


def test_bracket_pauli_pair(tmp_path):
    scenario = _scenario(tmp_path, {"second_operator": "Y0", "samples": 100})
    assert _run("bracket", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "bracket_report.json").read_text())
    assert report["bracket_commutator"]["analytic_max"] <= 1e-12


def test_evolve_writes_trajectory(tmp_path):
    scenario = _scenario(tmp_path)
    assert _run("evolve", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "evolve_report.json").read_text())
    assert report["deviation_from_exact"] <= 1e-6
    assert max(report["phase_evolution"]["residuals"]) <= 1e-5
    # Integral floats keep their point, so they load as floats.
    assert isinstance(report["scenario"]["hbar"], float)
    assert isinstance(report["diagnostics"]["mean_solver_iterations"], float)

    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,re_0,im_0,re_1,im_1,norm,energy"
    assert len(csv) == 1002  # header + 1001 stored steps
    first = csv[1].split(",")
    assert float(first[0]) == 0.0
    np.testing.assert_allclose(float(first[1]), 1 / np.sqrt(2))


def test_evolve_exact_method_self_consistent(tmp_path):
    scenario = _scenario(tmp_path, {
        "integrator": {"method": "exact", "dt": 0.01, "steps": 100},
    })
    assert _run("evolve", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "evolve_report.json").read_text())
    assert report["deviation_from_exact"] <= 1e-12


def test_evolve_nonconvergence_reported(tmp_path):
    scenario = _scenario(tmp_path, {
        "operator": "100*Z0",
        "integrator": {"method": "midpoint", "dt": 1.0, "steps": 5,
                       "solver_max_iter": 5},
    })
    # The fixed-point iteration would not converge at this step; on <H>
    # midpoint takes Cayley's step instead, with no iterations, and both
    # commands that integrate fail their checks of the flow, not with an error.
    for command in ("evolve", "reconstruct"):
        assert _run(command, scenario, tmp_path / command) == 1
        report = json.loads((tmp_path / command / f"{command}_report.json").read_text())
        assert report["command"] == command
        assert "error" not in report
        assert report["passed"] is False
    evolve = json.loads((tmp_path / "evolve" / "evolve_report.json").read_text())
    assert evolve["diagnostics"]["max_solver_iterations"] == 0
    assert evolve["checks"]["deviation_from_exact"] is False
    reconstruct = json.loads((tmp_path / "reconstruct" / "reconstruct_report.json").read_text())
    assert reconstruct["checks"]["intertwining"] is False


def _unstable_rk4(tmp_path, dt, steps):
    # RK4 is unstable at these steps on the chain: the norm grows without bound.
    return _scenario(tmp_path, {
        "operator": "0.5*X0*X1 + 0.3*Z0 + 0.3*Z1",
        "integrator": {"method": "rk4", "dt": dt, "steps": steps},
        "samples": 10,
    })


def test_growing_flow_fails_with_a_report(tmp_path, capsys):
    # The imaginary round-off of <psi|H psi> grows with ||psi||^2; it used
    # to exceed the absolute tolerance and exit 2 as a non-Hermitian operator.
    assert _run("evolve", _unstable_rk4(tmp_path, 4.0, 30), tmp_path / "out") == 1
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "evolve_report.json").read_text())
    assert report["passed"] is False
    assert report["diagnostics"]["max_norm_drift"] > 1e6


def test_overflowing_flow_report_is_json(tmp_path):
    assert _run("evolve", _unstable_rk4(tmp_path, 5.0, 2000), tmp_path / "out") == 1
    text = (tmp_path / "out" / "evolve_report.json").read_text()
    assert "NaN" in text
    with open(tmp_path / "out" / "evolve_report.json") as fh:
        report = json.load(fh)
    assert report["passed"] is False
    assert np.isnan(report["diagnostics"]["max_norm_drift"])
    # The trajectory CSV keeps the spelling of "%.17g".
    assert ",nan," in (tmp_path / "out" / "trajectory.csv").read_text()


def _run_in_subprocess(command, scenario, out):
    # A separate process, so that any numpy warning would reach its stderr.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "symqm.cli", command, "--scenario", str(scenario),
                           "--out", str(out)], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("command", ["evolve", "reconstruct"])
def test_overflowing_flow_warns_nothing_and_names_the_row(tmp_path, command):
    out = _run_in_subprocess(command, _unstable_rk4(tmp_path, 5.0, 2000), tmp_path / "out")
    assert out.returncode == 1
    assert out.stderr == ""
    assert "state not finite from stored row 372 (t=1860)" in out.stdout
    report = json.loads((tmp_path / "out" / f"{command}_report.json").read_text())
    # The norm column overflows to inf first (row 186); the state itself at row 372.
    assert report["first_nonfinite_state"] == {"row": 372, "t": 1860}


@pytest.mark.parametrize("command", ["evolve", "reconstruct"])
@pytest.mark.parametrize("amplitudes", [["nan", 1], ["inf", 1], [1e308, 1e308]])
def test_non_finite_initial_state_warns_nothing_and_exits_2(tmp_path, command, amplitudes):
    # A NaN amplitude used to run and fail as a non-convergence, with a raw
    # RuntimeWarning; a norm that overflows used to normalize to the zero vector.
    scenario = _scenario(tmp_path, {"initial_state": amplitudes})
    out = _run_in_subprocess(command, scenario, tmp_path / "out")
    assert out.returncode == 2
    assert out.stderr.startswith("error: initial_state: ")
    assert out.stderr.count("\n") == 1  # that error line and nothing else


def test_finite_flow_report_has_no_nonfinite_row(tmp_path):
    scenario = _scenario(tmp_path)
    for command in ("evolve", "reconstruct"):
        assert _run(command, scenario, tmp_path / command) == 0
        report = json.loads((tmp_path / command / f"{command}_report.json").read_text())
        assert "first_nonfinite_state" not in report


def test_each_command_draws_its_samples_once(tmp_path, monkeypatch):
    # verify (axioms and bracket report) and reconstruct (reconstruction and
    # QFE residual) sample the same states; one command draws them once.
    # cache_clear also resets the counters, so they are read as each command clears.
    infos = []
    clear = random_unit_states.cache_clear

    def recorded_clear():
        infos.append(random_unit_states.cache_info())
        clear()

    monkeypatch.setattr(random_unit_states, "cache_clear", recorded_clear)
    clear()
    scenario = _scenario(tmp_path, {"second_operator": "X0"})
    for command in ("verify", "reconstruct"):
        infos.clear()
        assert _run(command, scenario, tmp_path / command) == 0
        (info,) = infos
        assert info.misses == 1  # one draw of the scenario's samples
        assert info.hits >= 1  # that the other check reads
        # The draw does not outlive its command.
        assert random_unit_states.cache_info().currsize == 0


def test_reconstruct_pass(tmp_path):
    scenario = _scenario(tmp_path)
    assert _run("reconstruct", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert report["passed"] is True
    assert report["degenerate_flag"] is False
    assert report["qfe"]["residual"] <= 1e-5


def test_reconstruct_degenerate_identity(tmp_path):
    scenario = _scenario(tmp_path, {"operator": "I0"})
    assert _run("reconstruct", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert report["degenerate_flag"] is True


def test_reconstruct_constant_phi_negative_control(tmp_path):
    scenario = _scenario(tmp_path, {"phi_map": "constant"})
    assert _run("reconstruct", scenario, tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert report["qfe"]["residual"] >= 0.1
    assert report["checks"]["qfe"] is False


def test_non_hermitian_operator_exit_code(tmp_path, capsys):
    scenario = _scenario(tmp_path, {"operator": "X0*Z0", "second_operator": "X0"})
    for command in ("verify", "evolve", "bracket", "reconstruct"):
        assert _run(command, scenario, tmp_path / command) == 2
        assert "error: operator: " in capsys.readouterr().err


@pytest.mark.parametrize("field", ["operator", "second_operator"])
def test_non_finite_operator_exit_code(tmp_path, field, capsys):
    (tmp_path / "nan.mat").write_text("2\nnan 0\n0 1\n")
    extra = {"second_operator": "X0", field: "file:nan.mat"}
    scenario = _scenario(tmp_path, extra)
    for command in ("verify", "evolve", "bracket", "reconstruct"):
        assert _run(command, scenario, tmp_path / command) == 2
        assert f"error: {field}: " in capsys.readouterr().err


def test_matrix_file_with_surplus_rows_exit_code(tmp_path, capsys):
    (tmp_path / "long.mat").write_text("2\n1 0\n0 -1\n5 5\n")
    scenario = _scenario(tmp_path, {"operator": "file:long.mat"})
    assert _run("verify", scenario, tmp_path / "out") == 2
    assert "error: operator: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evolve_past_the_float_range_of_time_exit_code(tmp_path, capsys):
    # dt * stride used to overflow in integrate: a traceback with exit 1.
    scenario = _scenario(tmp_path, {"integrator": {"steps": 10**400, "stride": 10**396}})
    assert _run("evolve", scenario, tmp_path / "out") == 2
    assert "error: integrator: dt * steps" in capsys.readouterr().err


def test_missing_scenario_exit_code(tmp_path, capsys):
    for command in ("verify", "evolve", "bracket", "reconstruct"):
        assert _run(command, tmp_path / "nope.json", tmp_path / "out") == 2
        assert "cannot read scenario file" in capsys.readouterr().err


def test_cli_imports_no_scipy():
    # scipy is a test dependency: the program itself must run on numpy alone.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, symqm.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_bad_usage_exit_code(capsys):
    assert main(["verify"]) == 2  # --scenario is required
    capsys.readouterr()


def test_missing_or_unknown_command_exit_code(tmp_path, capsys):
    assert main([]) == 2
    assert "command" in capsys.readouterr().err
    scenario = _scenario(tmp_path)
    assert main(["frobnicate", "--scenario", str(scenario)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_help_names_every_command(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for command in ("verify", "evolve", "bracket", "reconstruct"):
        assert command in text


def test_seed_override_changes_report(tmp_path):
    scenario = _scenario(tmp_path, {"second_operator": "X0"})
    _run("bracket", scenario, tmp_path / "a", "--seed", "1")
    _run("bracket", scenario, tmp_path / "b", "--seed", "2")
    rep_a = json.loads((tmp_path / "a" / "bracket_report.json").read_text())
    rep_b = json.loads((tmp_path / "b" / "bracket_report.json").read_text())
    assert rep_a["scenario"]["seed"] == 1
    assert rep_b["scenario"]["seed"] == 2
    assert (rep_a["bracket_commutator"]["finite_difference_max"]
            != rep_b["bracket_commutator"]["finite_difference_max"])


@pytest.mark.parametrize("outputs", [{"report": "a.out", "trajectory": "a.out"},
                                     {"report": "trajectory.csv"}])
def test_evolve_report_and_trajectory_must_differ(tmp_path, capsys, outputs):
    scenario = _scenario(tmp_path, {"second_operator": "X0", "outputs": outputs})
    assert _run("evolve", scenario, tmp_path / "evolve") == 2
    assert "error: outputs: " in capsys.readouterr().err
    assert not any((tmp_path / "evolve").iterdir())  # stopped before it integrated
    # The other commands write no CSV, so either name is theirs alone.
    for command in ("verify", "bracket", "reconstruct"):
        assert _run(command, scenario, tmp_path / command) == 0


@pytest.mark.parametrize("out, outputs, field", [
    ("file", {}, "--out"),  # an existing file
    ("file/sub", {}, "--out"),  # a path under a file
    ("out", {"report": "taken"}, "outputs"),  # a report that is a directory
    ("out", {"trajectory": "taken"}, "outputs"),  # a trajectory that is a directory
    ("out", {"report": "a\0b.json"}, "outputs"),  # a name that holds a NUL
])
def test_unwritable_output_exit_code(tmp_path, capsys, out, outputs, field):
    (tmp_path / "file").write_text("")
    (tmp_path / "out" / "taken").mkdir(parents=True)
    scenario = _scenario(tmp_path, {"outputs": outputs})
    assert _run("evolve", scenario, tmp_path / out) == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "evolve", "bracket", "reconstruct"])
def test_byte_identical_reruns(tmp_path, command):
    scenario = _scenario(tmp_path, {"second_operator": "X0"})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(command, scenario, out_a) == _run(command, scenario, out_b)
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_readme_scenario_verifies(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    scenario = tmp_path / "readme.json"
    scenario.write_text(block)
    assert _run("verify", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["bracket_commutator"]["passed"] is True


_INTEGRATOR = {"method": "midpoint", "dt": 0.01, "steps": 10}


@pytest.mark.parametrize("command", ["verify", "evolve", "bracket", "reconstruct"])
@pytest.mark.parametrize("extra, field", [
    ({"hbar": float("inf")}, "hbar"),
    ({"hbar": float("nan")}, "hbar"),
    ({"integrator": {"method": "cayley", "dt": float("inf"), "steps": 10}}, "dt"),
    ({"integrator": {**_INTEGRATOR, "steps": 10.7}}, "steps"),
    ({"integrator": {**_INTEGRATOR, "stride": 2.5}}, "stride"),
    ({"integrator": {**_INTEGRATOR, "solver_max_iter": 7.5}}, "solver_max_iter"),
    ({"integrator": {**_INTEGRATOR, "solver_tol": float("inf")}}, "solver_tol"),
    ({"tolerances": {"axiom_bracket": float("inf")}}, "axiom_bracket"),
    ({"tolerances": {"qfe": float("inf")}}, "qfe"),
    ({"samples": 100.5}, "samples"),
    ({"seed": -1.0}, "seed"),
    ({"integrator": {**_INTEGRATOR, "dt": "0.1"}}, "dt"),
])
def test_non_finite_or_fractional_value_exit_code(tmp_path, capsys, command, extra, field):
    scenario = _scenario(tmp_path, {"second_operator": "X0", **extra})
    assert _run(command, scenario, tmp_path / "out") == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "evolve", "bracket", "reconstruct"])
@pytest.mark.parametrize("extra, field", [
    ({"hbar": True}, "hbar"),
    ({"integrator": {**_INTEGRATOR, "dt": True}}, "dt"),
    ({"integrator": {**_INTEGRATOR, "steps": True}}, "steps"),
    ({"integrator": {**_INTEGRATOR, "solver_tol": True}}, "solver_tol"),
    ({"integrator": {**_INTEGRATOR, "solver_max_iter": True}}, "solver_max_iter"),
    ({"integrator": {**_INTEGRATOR, "stride": True}}, "stride"),
    ({"tolerances": {"qfe": True}}, "qfe"),
    ({"initial_state": [True, 0]}, "initial_state"),
])
def test_boolean_value_exit_code(tmp_path, capsys, command, extra, field):
    # JSON true is a Python bool, a subclass of int; it must not load as 1.
    scenario = _scenario(tmp_path, {"second_operator": "X0", **extra})
    assert _run(command, scenario, tmp_path / "out") == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["inf", "nan"])
def test_tol_scale_must_be_positive_and_finite(tmp_path, capsys, scale):
    scenario = _scenario(tmp_path)
    assert _run("verify", scenario, tmp_path / "out", "--tol-scale", scale) == 2
    assert "--tol-scale" in capsys.readouterr().err


def test_seed_override_must_be_nonnegative(tmp_path, capsys):
    scenario = _scenario(tmp_path)
    assert _run("verify", scenario, tmp_path / "out", "--seed", "-1") == 2
    assert "--seed" in capsys.readouterr().err


def test_tol_scale_overflowing_a_tolerance_rejected(tmp_path, capsys):
    scenario = _scenario(tmp_path, {"tolerances": {"qfe": 10.0}})
    assert _run("verify", scenario, tmp_path / "out", "--tol-scale", "1e308") == 2
    assert "tolerances" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, files, field", [
    ({"operator": "Z0", "integrator": 3}, {}, "integrator"),
    ({"second_operator": "X0"}, {}, "operator"),
    ({"operator": ""}, {}, "operator"),
    ({"operator": "-X0"}, {}, "operator"),
    ({"operator": "Z0", "initial_state": 3}, {}, "initial_state"),
    ({"operator": "Z0", "initial_state": "basis:x"}, {}, "initial_state"),
    ({"operator": "Z0", "second_operator": "file:four.mat"},
     {"four.mat": "4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"}, "second_operator"),
    ({"operator": "file:empty.mat"}, {"empty.mat": ""}, "operator"),
    ({"operator": "file:zero.mat"}, {"zero.mat": "0\n"}, "operator"),
    ({"operator": "file:short.mat"}, {"short.mat": "2\n1 0\n-1\n"}, "operator"),
    ({"operator": "Z0", "integrator": {"method": "exact", "dt": 1e-3, "steps": 10**6 + 1}}, {},
     "integrator"),
], ids=["integrator-not-object", "operator-missing", "operator-empty", "operator-leading-minus",
        "initial-state-number", "initial-state-basis-x", "second-operator-other-dimension",
        "matrix-file-empty", "matrix-file-dimension-0", "matrix-file-short-row", "stored-steps"])
def test_load_time_rejection_exit_code(tmp_path, capsys, scenario, files, field):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    for command in ("verify", "evolve", "bracket", "reconstruct"):
        assert _run(command, path, tmp_path / "out") == 2
        assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "reconstruct"])
def test_long_exact_flow_accepts_its_own_times(tmp_path, command):
    # The spacing of t_k = dt * k varies by ulps of t, about 4e-16 t; with a
    # tolerance of 1e-12 times the step, integrate rejected its own times from
    # t of about 1e4 on, and both commands ended in a traceback.
    scenario = _scenario(tmp_path, {"integrator": {"method": "exact", "dt": 0.1, "steps": 100000}})
    assert _run(command, scenario, tmp_path / "out") == 0


def test_reconstruct_identity_phi_map(tmp_path):
    # Phi = identity solves the quantum-function equation i*hbar*{<A>, psi} = A psi.
    scenario = _scenario(tmp_path, {"operator": "X0 + 0.5*Y0", "phi_map": "identity"})
    assert _run("reconstruct", scenario, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "reconstruct_report.json").read_text())
    assert report["qfe"]["phi_map"] == "identity"
    assert report["qfe"]["residual"] <= 1e-5
