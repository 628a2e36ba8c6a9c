"""The CSV kernel of ``symqm.reports`` against a per-cell ``"%.17g" %``.

``_format_cells`` must give the bytes of ``"%.17g" % x`` for every float64,
and ``_decimal17`` must take its exact integer path for every cell with
``1e-11 < |x| < 1e17``, so that a silent fall back to ``%`` fails here.
Hypothesis runs derandomized and without an example database, so every run
draws the same cases.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from symqm import IntegratorConfig, ObservableFunction, SymplecticSpace, integrate, make_hermitian
from symqm.dynamics import Trajectory
from symqm.reports import _CHUNK_CELLS, _Scratch, _decimal17, _format_cells, write_trajectory_csv
from symqm.sampling import random_hermitian, random_unit_state

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symqm-hypothesis")

SEEDED = settings(database=None, derandomize=True, max_examples=200, deadline=None)


def _reference(block) -> bytes:
    """One ``"%.17g"`` call per cell, rows joined by ``,`` and ended by ``\\n``."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()


def _assert_matches(values, cols=1):
    block = np.asarray(values, dtype=float).reshape(-1, cols)
    assert _format_cells(block) == _reference(block)


def _in_exact_range(x):
    return (np.abs(x) > 1e-11) & (np.abs(x) < 1e17)


@SEEDED
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=5, max_size=64),
       st.integers(min_value=1, max_value=5))
def test_arbitrary_bit_patterns_match_percent(words, cols):
    """Subnormals, signed zeros, NaN payloads and infinities included."""
    cells = np.array(words, dtype=np.uint64).view(float)
    _assert_matches(cells[: cells.size // cols * cols], cols)


def test_random_bits_and_magnitudes_match_percent():
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float)
    spread = rng.standard_normal(20000) * 10.0 ** rng.uniform(-30, 30, 20000)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308]
    _assert_matches(np.concatenate([bits, spread, special]), 5)


def test_neighbours_of_every_power_of_ten_match_percent():
    """``nextafter`` on both sides of ``10**j`` for j from -330 to 308, both signs."""
    powers = np.array([float(f"1e{j}") for j in range(-330, 309)])
    cells = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    _assert_matches(np.concatenate([cells, -cells]), 3)


def test_decade_boundaries_of_the_notation():
    """Around 1e-4 (scientific/fixed) and 1e17 (fixed/scientific), and the carries.

    Every double in the exact range is computed exactly, the largest below
    1e17 (99999999999999984) included, so none of them carries to the next
    decade.  The doubles nearest ``1e-14`` and ``1e-305`` lie below those
    powers yet print as them; they take ``%``.
    """
    near = []
    for p in (1e-11, 1e-5, 1e-4, 1e-3, 1.0, 1e15, 1e16, 1e17):
        x = p
        for _ in range(3):
            x = np.nextafter(x, 0.0)
            near.append(x)
        near += [p, np.nextafter(p, np.inf)]
    near = np.array(near)
    _assert_matches(np.concatenate([near, -near]), 1)
    _, _, exact = _decimal17(near)
    assert np.array_equal(exact, _in_exact_range(near))
    assert "%.17g" % np.nextafter(1e-4, 0.0) == "9.9999999999999991e-05"
    assert _format_cells(np.array([[1e-4, 99999999999999984.0, 1e17]])) == b"0.0001,99999999999999984,1e+17\n"
    carries = np.array([[1e-14, 1e-305]])
    assert "%.17g" % carries[0, 0] == "1e-14"
    assert _format_cells(carries) == b"1e-14,1e-305\n"


def test_integers_around_two_to_the_53_match_percent():
    ints = np.arange(2.0**53 - 600, 2.0**53 + 600)
    _assert_matches(np.concatenate([ints, ints * 4, -ints, ints / 2**9]), 4)
    _, _, exact = _decimal17(ints)
    assert exact.all()


def test_exact_ties_round_half_to_even():
    """In [2**50, 2**51) the step is 0.25, so ``.25`` and ``.75`` are 18-digit ties."""
    ties = np.array([1234567890123456.25, 1234567890123456.75, 2.0**50 + 0.25, 2.0**51 - 0.25])
    _assert_matches(ties)
    assert _format_cells(ties[:2].reshape(1, 2)) == b"1234567890123456.2,1234567890123456.8\n"


def _wide_trajectory(rows, n, seed):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    states[0, 0] = 0.0
    return Trajectory(
        times=1e-3 * np.arange(rows),
        states=states * 10.0 ** rng.uniform(-12, 2, (rows, n)),
        norms=np.linalg.norm(states, axis=1),
        energies=rng.standard_normal(rows),
        solver_iterations=np.zeros(rows, dtype=int),
        method="midpoint",
    )


def _reference_file(traj) -> bytes:
    header = ["t"] + [f"{part}_{k}" for k in range(traj.dim) for part in ("re", "im")] + ["norm", "energy"]
    block = np.column_stack((traj.times, traj.states.view(float), traj.norms, traj.energies))
    return (",".join(header) + "\n").encode() + _reference(block)


@pytest.mark.parametrize("rows, n", [
    (2 * (_CHUNK_CELLS // 9) + 5, 3),  # three chunks, the last one partial
    (3, _CHUNK_CELLS // 4),  # one-row chunks, each row over half a chunk
    (2, _CHUNK_CELLS // 2),  # one row wider than a whole chunk
])
def test_chunk_boundaries_match_percent(tmp_path, rows, n):
    traj = _wide_trajectory(rows, n, seed=rows + n)
    write_trajectory_csv(traj, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == _reference_file(traj)


def test_a_block_on_a_reused_scratch_allocates_little():
    """Its full-size arrays are the scratch's: a block allocates its text and small masks.

    Without the scratch a block of standard normals allocates about 200 bytes
    per cell, which a fresh process gives back and faults in again per block.
    """
    block = np.random.default_rng(3).standard_normal((431, 19))
    scratch = _Scratch(block.size)
    _format_cells(block, scratch)
    tracemalloc.start()
    try:
        text = _format_cells(block, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _reference(block)
    assert peak < 64 * block.size


@pytest.mark.parametrize("method", ["exact", "midpoint", "cayley", "rk4"])
def test_integrated_cells_in_range_take_the_exact_path(method):
    h = make_hermitian(random_hermitian(6, 3))
    f = ObservableFunction.expectation_of(h, SymplecticSpace(6, hbar=0.7))
    traj = integrate(f, random_unit_state(6, 3, 0), IntegratorConfig(method, 1e-2, 400))
    cells = np.column_stack((traj.times, traj.states.view(float), traj.norms, traj.energies)).ravel()
    _, _, exact = _decimal17(cells)
    assert np.array_equal(exact, _in_exact_range(cells))
    assert exact.sum() > 0.99 * cells.size


def _exponent_and_digits(text):
    """``(k, s)`` of a ``%.17g`` text: its decimal exponent and its significant digits."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    if exponent:
        k = int(exponent)
    elif whole != "0":
        k = len(whole) - 1
    else:
        k = len(fraction.lstrip("0")) - len(fraction) - 1
    return k, len((whole + fraction).strip("0"))


@pytest.mark.parametrize("width", [1, 2, 19])
def test_every_exponent_and_digit_count_matches_percent(width):
    """``d * 10**(k - s + 1)`` for s-digit ``d``, every k in [-11, 16] and s in 1..17, both signs.

    Their texts clear trailing zeros at every digit count and move the integer
    digits of ``|x| >= 10`` to make room for the dot; the second pass of
    ``_format_cells`` runs on the cells that do either.
    """
    rng = np.random.default_rng(15)
    values = []
    for k in range(-11, 17):
        for s in range(1, 18):
            ds = range(10 ** (s - 1), 10 ** s) if s <= 2 else rng.integers(10 ** (s - 1), 10 ** s, 40)
            values += [float(f"{d}e{k - s + 1}") for d in ds]
    cells = np.array(values)
    _, _, exact = _decimal17(cells)
    assert np.array_equal(exact, _in_exact_range(cells)) and exact.sum() > 0.99 * cells.size
    _assert_matches(np.concatenate([cells, -cells])[: 2 * cells.size // width * width], width)
    shapes = {_exponent_and_digits("%.17g" % x) for x in values}
    for k in range(-11, 17):
        assert (k, 17) in shapes and any((k, s) in shapes for s in range(1, 17))
    for notation in (range(-11, -4), range(-4, 0), range(0, 1), range(1, 17)):
        assert {s for k, s in shapes if k in notation} == set(range(1, 18))
