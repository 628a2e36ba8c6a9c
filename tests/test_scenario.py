"""Tests for scenario file loading and validation."""

import dataclasses
import json

import numpy as np
import pytest

import symqm.brackets
import symqm.quantum_function
from symqm import IntegratorConfig, load_scenario
from symqm.cli import main
from symqm.errors import ScenarioError
from symqm.pauli import PauliSumExpr
from symqm.scenario import DEFAULT_TOLERANCES, MAX_SAMPLES


def _write(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_minimal_scenario_defaults(tmp_path):
    path = _write(tmp_path, {
        "operator": "Z0",
        "integrator": {"method": "exact", "dt": 0.01, "steps": 100},
    })
    sc = load_scenario(path)
    assert sc.hbar == 1.0
    assert sc.seed == 0
    assert sc.samples == 100
    assert sc.dimension == 2
    np.testing.assert_allclose(sc.initial_state, np.ones(2) / np.sqrt(2))
    assert sc.integrator.method == "exact"
    assert sc.tolerances == DEFAULT_TOLERANCES
    echo = sc.resolved_dict()
    assert echo["hbar"] == 1.0
    assert echo["integrator"]["solver_tol"] == 1e-13


def test_integrator_defaults_when_absent(tmp_path):
    sc = load_scenario(_write(tmp_path, {"operator": "Z0"}))
    assert sc.integrator.method == "midpoint"
    assert sc.integrator.dt == 1e-3
    assert sc.integrator.steps == 1000


def test_invalid_dt_rejected(tmp_path):
    path = _write(tmp_path, {
        "operator": "Z0",
        "integrator": {"method": "exact", "dt": -0.01, "steps": 100},
    })
    with pytest.raises(ScenarioError, match="integrator"):
        load_scenario(path)


def test_initial_state_dimension_mismatch(tmp_path):
    path = _write(tmp_path, {"operator": "Z0", "initial_state": ["1", "0", "0"]})
    with pytest.raises(ScenarioError, match="initial_state"):
        load_scenario(path)


def test_initial_state_forms(tmp_path):
    sc = load_scenario(_write(tmp_path, {"operator": "Z0", "initial_state": "basis:1"}))
    np.testing.assert_array_equal(sc.initial_state, [0, 1])

    sc = load_scenario(_write(tmp_path, {
        "operator": "Z0", "initial_state": ["0.5+0.5j", "0.5-0.5j"],
    }))
    np.testing.assert_allclose(sc.initial_state, [0.5 + 0.5j, 0.5 - 0.5j])

    # plain numbers are accepted and normalized
    sc = load_scenario(_write(tmp_path, {"operator": "Z0", "initial_state": [1, 1]}))
    np.testing.assert_allclose(sc.initial_state, np.ones(2) / np.sqrt(2))

    with pytest.raises(ScenarioError, match="initial_state"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "initial_state": "basis:7"}))
    with pytest.raises(ScenarioError, match="initial_state"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "initial_state": [0, 0]}))
    with pytest.raises(ScenarioError, match="initial_state"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "initial_state": "vortex"}))


def test_second_operator_dimension_checked(tmp_path):
    path = _write(tmp_path, {"operator": "Z0", "second_operator": "X1"})
    with pytest.raises(ScenarioError, match="second_operator"):
        load_scenario(path)
    sc = load_scenario(_write(tmp_path, {"operator": "Z0", "second_operator": "X0"}))
    assert sc.second_operator.dim == 2


def test_non_hermitian_operator_rejected(tmp_path):
    path = _write(tmp_path, {"operator": "X0*Z0"})
    with pytest.raises(ScenarioError, match="not Hermitian"):
        load_scenario(path)


def test_operator_syntax_error_surfaced(tmp_path):
    path = _write(tmp_path, {"operator": "Z0 +"})
    with pytest.raises(ScenarioError, match="operator"):
        load_scenario(path)


def test_matrix_file_operator(tmp_path):
    (tmp_path / "op.mat").write_text("2\n0 -1j\n1j 0\n")
    sc = load_scenario(_write(tmp_path, {"operator": "file:op.mat"}))
    np.testing.assert_array_equal(sc.operator.matrix, [[0, -1j], [1j, 0]])

    with pytest.raises(ScenarioError, match="operator"):
        load_scenario(_write(tmp_path, {"operator": "file:missing.mat"}))


def test_tolerance_overrides(tmp_path):
    sc = load_scenario(_write(tmp_path, {
        "operator": "Z0", "tolerances": {"axiom_bracket": 1e-8},
    }))
    assert sc.tolerance("axiom_bracket") == 1e-8
    assert sc.tolerance("qfe") == DEFAULT_TOLERANCES["qfe"]

    with pytest.raises(ScenarioError, match="tolerances"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "tolerances": {"bogus": 1e-3}}))
    with pytest.raises(ScenarioError, match="tolerances"):
        load_scenario(_write(tmp_path, {"operator": "Z0",
                                        "tolerances": {"axiom_bracket": -1.0}}))


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="frobnicate"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "frobnicate": 1}))
    with pytest.raises(ScenarioError, match="^integrator: unknown key 'dx'"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "integrator": {"dx": 0.1}}))


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "operator": "Z0",\n}\n')
    with pytest.raises(ScenarioError, match="line 3"):
        load_scenario(path)


def test_scenario_file_is_read_as_json_bytes(tmp_path):
    text = json.dumps({"operator": "Z0", "hbar": 0.5})
    path = tmp_path / "scenario.json"
    for data in (b"\xef\xbb\xbf" + text.encode(), text.encode("utf-16")):
        path.write_bytes(data)
        assert load_scenario(path).space.hbar == 0.5
    path.write_bytes(b'{"operator": "Z0", "hbar": 1}\xff')
    with pytest.raises(ScenarioError, match="^invalid JSON: 'utf-8' codec"):
        load_scenario(path)


def test_seed_and_samples_validation(tmp_path):
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "seed": -1}))
    with pytest.raises(ScenarioError, match="samples"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "samples": 0}))
    with pytest.raises(ScenarioError, match="hbar"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "hbar": 0}))
    # An integral float is a whole number, as it is for the integrator's counts.
    whole = load_scenario(_write(tmp_path, {"operator": "Z0", "samples": 100.0, "seed": 3.0}))
    plain = load_scenario(_write(tmp_path, {"operator": "Z0", "samples": 100, "seed": 3}))
    assert (whole.samples, whole.seed) == (100, 3) and type(whole.samples) is type(whole.seed) is int
    assert whole.resolved_dict() == plain.resolved_dict()


@pytest.mark.parametrize("extra, field", [
    ({"hbar": 10**400}, "hbar"),
    ({"integrator": {"dt": 10**400}}, "dt"),
    ({"integrator": {"solver_tol": 10**400}}, "solver_tol"),
    ({"tolerances": {"qfe": 10**400}}, "tolerances.qfe"),
    ({"initial_state": [10**400, 1]}, "initial_state"),
])
def test_whole_number_too_large_for_a_float_names_its_field(tmp_path, extra, field):
    with pytest.raises(ScenarioError, match=field):
        load_scenario(_write(tmp_path, {"operator": "Z0", **extra}))


@pytest.mark.parametrize("samples", [10**400, MAX_SAMPLES + 1], ids=["10**400", "bound+1"])
def test_samples_above_the_bound_are_rejected_on_load(tmp_path, samples):
    # Unbounded, 10**400 loaded and verify then drew rows until it was killed.
    with pytest.raises(ScenarioError, match="samples"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "samples": samples}))
    assert load_scenario(_write(tmp_path, {"operator": "Z0", "samples": MAX_SAMPLES})).samples == MAX_SAMPLES


def test_samples_times_dimension_is_bounded_before_any_draw(tmp_path, monkeypatch):
    # 10**6 samples at n = 32 are 3.2e7 entries, above the 2**24 of the largest
    # dense operator; at n = 4096 they would be a 61 GiB matrix.
    calls = []
    for module in (symqm.brackets, symqm.quantum_function):
        monkeypatch.setattr(module, "random_unit_states", lambda *args: calls.append(args))
    path = _write(tmp_path, {"operator": "Z4", "samples": 10**6})
    with pytest.raises(ScenarioError, match="^samples: "):
        load_scenario(path)
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert not calls
    assert load_scenario(_write(tmp_path, {"operator": "Z0", "samples": MAX_SAMPLES})).samples == MAX_SAMPLES


@pytest.mark.parametrize("integrator", [
    {"steps": 10**400, "stride": 10**396},  # dt * stride overflowed in integrate
    {"dt": 1e300, "steps": 10**10, "stride": 10**4},
])
def test_total_time_must_be_a_finite_float(tmp_path, integrator):
    with pytest.raises(ValueError, match="dt \\* steps"):
        IntegratorConfig(**{"method": "midpoint", "dt": 1e-3, **integrator})
    with pytest.raises(ScenarioError, match="integrator"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "integrator": integrator}))


def test_whole_number_of_too_many_digits_is_rejected(tmp_path):
    # Python reads at most 4,300 digits of a whole number (where it has that limit).
    path = tmp_path / "long.json"
    path.write_text('{"operator": "Z0", "hbar": ' + "1" * 5000 + "}")
    with pytest.raises(ScenarioError, match="invalid JSON|hbar"):
        load_scenario(path)


def test_loaded_scenario_is_frozen(tmp_path):
    sc = load_scenario(_write(tmp_path, {"operator": "Z0"}))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.seed = 1


def test_phi_map_validation(tmp_path):
    sc = load_scenario(_write(tmp_path, {"operator": "Z0", "phi_map": "constant"}))
    assert sc.phi_map == "constant"
    with pytest.raises(ScenarioError, match="phi_map"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "phi_map": "banana"}))


def test_outputs_validation(tmp_path):
    sc = load_scenario(_write(tmp_path, {
        "operator": "Z0", "outputs": {"report": "r.json", "trajectory": "t.csv"},
    }))
    assert sc.outputs["report"] == "r.json"
    with pytest.raises(ScenarioError, match="outputs"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "outputs": {"plot": "p.png"}}))


def test_dense_limit_rejects_pauli_expressions_before_building(tmp_path, monkeypatch):
    build = PauliSumExpr.to_matrix

    def guarded(self, num_qubits=None):
        assert (num_qubits or self.num_qubits) <= 12, "dense matrix above the limit"
        return build(self, num_qubits)

    monkeypatch.setattr(PauliSumExpr, "to_matrix", guarded)
    for text in ("X40", "Z0 + X12", "X999999999"):
        with pytest.raises(ScenarioError, match=r"^operator: .*4096"):
            load_scenario(_write(tmp_path, {"operator": text}))
    with pytest.raises(ScenarioError, match=r"^second_operator: .*4096"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "second_operator": "X40"}))


def test_dense_limit_rejects_matrix_files_by_their_first_line(tmp_path):
    (tmp_path / "big.txt").write_text("4097\n1 0\n")
    with pytest.raises(ScenarioError, match=r"^operator: .*4097 exceeds the dense limit 4096"):
        load_scenario(_write(tmp_path, {"operator": "file:big.txt"}))
    with pytest.raises(ScenarioError, match=r"^second_operator: .*exceeds the dense limit"):
        load_scenario(_write(tmp_path, {"operator": "Z0", "second_operator": "file:big.txt"}))
