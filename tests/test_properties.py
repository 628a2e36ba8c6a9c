"""Seeded property tests of the spectral propagator and the conserving integrators.

``SpectralData.propagate`` is compared with ``scipy.linalg.expm``, an
independent reference, and checked for the group law and unitarity.
Midpoint and Cayley conserve the quadratic invariants norm and ``<H>``
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, 2006) up to
the solver tolerance.  Hypothesis runs derandomized and without an example
database, so every run draws the same cases.
"""

import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from symqm import (
    IntegratorConfig,
    ObservableFunction,
    SymplecticSpace,
    integrate,
    make_hermitian,
    spectral_decompose,
)
from symqm.sampling import random_hermitian, random_unit_state

# Hypothesis caches the constants of the source modules in its home
# directory while collecting, whatever the settings; keep that cache out of
# the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symqm-hypothesis")

SEEDED = settings(database=None, derandomize=True, max_examples=30, deadline=None)

dims = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**16)
times = st.floats(min_value=-5.0, max_value=5.0)
hbars = st.sampled_from([0.7, 2.0])


def _case(n, seed):
    return make_hermitian(random_hermitian(n, seed)), random_unit_state(n, seed, 1)


@SEEDED
@given(n=dims, seed=seeds, t=times, hbar=hbars)
def test_propagate_matches_expm(n, seed, t, hbar):
    h, psi = _case(n, seed)
    out = spectral_decompose(h).propagate(psi, [t], hbar)[0]
    ref = scipy.linalg.expm(-1j * h.matrix * (t / hbar)) @ psi
    assert np.linalg.norm(out - ref) <= 1e-11 * (1.0 + h.spectral_norm * abs(t) / hbar)


@SEEDED
@given(n=dims, seed=seeds, t1=times, t2=times, hbar=hbars)
def test_propagate_group_law_and_norm(n, seed, t1, t2, hbar):
    h, psi = _case(n, seed)
    spectral = spectral_decompose(h)
    first = spectral.propagate(psi, [t1], hbar)[0]
    composed = spectral.propagate(first, [t2], hbar)[0]
    direct = spectral.propagate(psi, [t1 + t2], hbar)[0]
    assert np.linalg.norm(composed - direct) <= 1e-12 * (1.0 + h.spectral_norm)
    assert abs(np.linalg.norm(first) - 1.0) <= 1e-13


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars)
def test_propagate_blocks_match_single_times(n, seed, hbar):
    # More times than one row block, so the rows come from several products.
    h, psi = _case(n, seed)
    spectral = spectral_decompose(h)
    ts = np.linspace(0.0, 3.0, 300)
    states = spectral.propagate(psi, ts, hbar)
    for k in (0, 255, 256, 299):
        single = spectral.propagate(psi, [ts[k]], hbar)[0]
        assert np.linalg.norm(states[k] - single) <= 1e-13


@SEEDED
@given(n=dims, seed=seeds, hbar=hbars, dt=st.floats(min_value=1e-3, max_value=0.1),
       method=st.sampled_from(["midpoint", "cayley"]))
def test_midpoint_and_cayley_conserve_norm_and_energy(n, seed, hbar, dt, method):
    h = make_hermitian(random_hermitian(n, seed, norm_bound=1.0))
    f = ObservableFunction.expectation_of(h, SymplecticSpace(n, hbar=hbar))
    cfg = IntegratorConfig(method, dt, 50)
    traj = integrate(f, random_unit_state(n, seed, 1), cfg)
    bound = 10 * cfg.steps * cfg.solver_tol
    assert np.max(np.abs(traj.norms - 1.0)) <= bound
    assert np.max(np.abs(traj.energies - traj.energies[0])) <= bound * (1.0 + h.spectral_norm)
