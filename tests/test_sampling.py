"""The seeded draw against numpy's own seeding of ``default_rng([seed, i])``."""

import tracemalloc

import numpy as np
import pytest

from symqm.sampling import random_unit_states


def _numpy_rows(n, seed, count):
    """Row ``i``: a ``default_rng([seed, i])`` state, built as ``random_unit_state`` builds it."""
    rows = np.empty((count, n), dtype=complex)
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows[i] = v / np.linalg.norm(v)
    return rows


# One to six entropy words of seed: 2**64 + 1 fills SeedSequence's pool of four with
# the row index, 2**160 + 7 runs past it.
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**160 + 7])
@pytest.mark.parametrize("n", [1, 3, 16, 512])
def test_draw_is_numpys_seeding_byte_for_byte(n, seed):
    for count in (0, 1000):
        states = random_unit_states.__wrapped__(n, seed, count)  # uncached: 8 MB at n = 512
        assert states.shape == (count, n) and states.dtype == complex
        assert states.tobytes() == _numpy_rows(n, seed, count).tobytes()


def test_out_of_range_seed_or_count_raises():
    with pytest.raises(ValueError):
        random_unit_states(3, -1, 2)
    with pytest.raises(ValueError):  # a row index past one uint32 entropy word, before any allocation
        random_unit_states(1, 0, 2**32)


def test_draw_holds_no_buffer_of_its_size_but_the_result():
    random_unit_states.__wrapped__(4, 1, 2)  # numpy.random is imported on the first draw
    tracemalloc.start()
    try:
        states = random_unit_states.__wrapped__(512, 3, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One reused block of normals of 4 rows and its 1j * g[n:] temporary; the (count, 2n)
    # normals and a temporary of the result's size beside the result peaked at 2.19x.
    assert peak <= 1.25 * states.nbytes
