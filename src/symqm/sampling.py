"""Seeded random sampling of states and operators.

Every report that samples states derives one child seed per sample from
the report seed, so a parallel evaluation of the samples would reproduce
the serial output exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random_unit_state", "random_unit_states", "random_hermitian"]


def _rng(seed, index=None):
    if index is None:
        return np.random.default_rng(seed)
    return np.random.default_rng([int(seed), int(index)])


def random_unit_state(n: int, seed, index=None) -> np.ndarray:
    """One normalized complex Gaussian vector of length ``n``."""
    rng = _rng(seed, index)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_unit_states(n: int, seed, count: int) -> np.ndarray:
    """The ``(count, n)`` matrix whose row ``i`` is ``random_unit_state(n, seed, i)``."""
    rows = [random_unit_state(n, seed, i) for i in range(int(count))]
    return np.array(rows, dtype=complex).reshape(int(count), n)


def random_hermitian(n: int, seed, index=None, norm_bound=None) -> np.ndarray:
    """A random dense Hermitian matrix, optionally rescaled to ``||A||_2 <= norm_bound``."""
    rng = _rng(seed, index)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (m + m.conj().T) / 2.0
    if norm_bound is not None:
        spectral = float(np.linalg.norm(a, 2))
        if spectral > 0:
            a *= norm_bound / spectral
    return a
