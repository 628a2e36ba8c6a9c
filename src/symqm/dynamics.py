"""Hamiltonian flows on the phase space.

Four integrators:

* ``exact``: spectral propagation, expectation Hamiltonians only.
* ``midpoint``: implicit midpoint; symplectic, conserves quadratic first
  integrals, works for any observable.
* ``cayley``: midpoint's closed form on a linear field,
  ``(I - dt/2 K)^{-1} (I + dt/2 K)``; exactly norm-preserving.
* ``rk4``: classical explicit Runge-Kutta, the non-preserving baseline.

For ``f = <H>`` the field ``K psi`` with ``K = -(i/hbar) H`` is linear, and
the midpoint equation ``y = psi + dt K (psi + y) / 2`` has one solution,
Cayley's step.  There midpoint and Cayley take that one step, with no
fixed-point iteration: they report 0 solver iterations and never raise
``NonConvergenceError``, since ``I - (dt/2) K`` is invertible for every
``dt``.  Midpoint, Cayley and RK4 then take every step as ``psi + Q psi``
with a precomputed increment ``Q`` (the increment form, not ``(I + Q) psi``,
whose round-off in ``I + Q`` drifts the norm), and a run of steps takes its
states from one product with a table of step powers ``(I + Q)^j - I``.  ``Q``
is a rational function of ``H``, so it never couples two connected blocks of
``H``'s nonzero pattern (the operator's ``sectors``, the parity sectors of an
open Ising chain): it is built and stepped one stacked ``(k, s, s)`` sector
matrix per block size, and a matrix that is one block is the case ``k = 1``.
The operator's dtype decides the arithmetic of ``Q``, for every method: a
float64 ``H`` builds it from real solves and products, and only ``Q`` itself
is complex; a complex ``H`` builds it in complex arithmetic.  Generic
observables keep the per-step fixed-point and RK4 loops; ``solver_tol`` and
``solver_max_iter`` govern only that fixed-point loop.

A trajectory meets its spectral reference in one pass of ``operators._spectral_drift``,
which :func:`spectral_residuals` and :func:`phase_evolution_residual` reduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import (ComplexFunction, ObservableFunction, _complex_values, _largest, _observable_values,
                       hamiltonian_vector_field)
from .errors import (
    DimensionMismatchError,
    MethodUnsupportedError,
    NonConvergenceError,
    _count,
    _positive,
)
from .operators import (
    _BLOCK_ENTRIES,
    _ROW_BLOCK,
    SpectralData,
    _coordinates,
    _product,
    _row_blocks,
    _sector_blocks,
    _spectral_drift,
    spectral_decompose,
)
from .spaces import _frozen

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "TrajectoryDiagnostics",
    "integrate",
    "phase_evolution_residual",
    "spectral_residuals",
    "trajectory_diagnostics",
]

METHODS = ("exact", "midpoint", "cayley", "rk4")
MAX_STORED_STEPS = 10**6


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping parameters.

    ``stride`` thins the stored output (every ``stride``-th step is kept);
    it must divide ``steps`` and the stored count may not exceed 10^6.
    ``dt * steps`` must be a finite float, which bounds ``dt * stride`` and
    every stored time too.
    """

    method: str
    dt: float
    steps: int
    solver_tol: float = 1e-13
    solver_max_iter: int = 50
    stride: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        for name, check in (("dt", _positive), ("solver_tol", _positive), ("steps", _count),
                            ("solver_max_iter", _count), ("stride", _count)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.solver_tol < 1e-15:
            raise ValueError("solver_tol must be at least 1e-15")
        if self.steps % self.stride != 0:
            raise ValueError("stride must divide steps")
        if self.steps // self.stride > MAX_STORED_STEPS:
            raise ValueError(
                f"more than {MAX_STORED_STEPS} stored steps; increase stride"
            )
        try:
            total = self.total_time
        except OverflowError:  # steps too large for a float
            total = math.inf
        if not total < math.inf:
            raise ValueError("dt * steps must be a finite float")

    @property
    def total_time(self) -> float:
        return self.dt * self.steps


@dataclass(frozen=True)
class Trajectory:
    """Stored states of one integration run with per-step diagnostics.

    ``times`` is strictly increasing with constant spacing; row ``k`` of
    ``states`` is the amplitude vector at ``times[k]``.  ``norms``,
    ``energies`` and ``solver_iterations`` are per stored step.
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    solver_iterations: np.ndarray
    method: str

    def __post_init__(self):
        for name, dtype in (("times", float), ("states", complex), ("norms", float),
                            ("energies", float), ("solver_iterations", int)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        if self.states.shape[0] != self.times.shape[0]:
            raise DimensionMismatchError("states and times lengths differ")
        if self.times.shape[0] >= 2:
            steps = np.diff(self.times)
            if np.any(steps <= 0):
                raise ValueError("times must be strictly increasing")
            # The spacing of t_k = dt * k varies by ulps of t, so the tolerance scales with max |t|.
            if np.max(steps) - np.min(steps) > 1e-12 * max(np.max(steps), np.max(np.abs(self.times)), 1.0):
                raise ValueError("times must advance with a constant step")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class TrajectoryDiagnostics:
    """Conservation and solver statistics of a trajectory."""

    max_norm_drift: float
    max_energy_drift: float
    max_solver_iterations: int
    mean_solver_iterations: float
    steps_stored: int
    method: str


def _midpoint_step(field, psi, dt, tol, max_iter, step_index):
    y = psi + dt * field(psi)  # explicit predictor
    for iteration in range(1, max_iter + 1):
        y_next = psi + dt * field(0.5 * (psi + y))
        delta = float(np.linalg.norm(y_next - y))
        y = y_next
        if delta <= tol:
            return y, iteration
    raise NonConvergenceError(step_index, max_iter)


def _rk4_step(field, psi, dt):
    k1 = field(psi)
    k2 = field(psi + 0.5 * dt * k1)
    k3 = field(psi + 0.5 * dt * k2)
    k4 = field(psi + dt * k3)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The writable view of the diagonal of every matrix of a ``(..., s, s)`` stack, in any
    memory order (a reshape of a stack that is not C-ordered would be a copy)."""
    return np.einsum("...ii->...i", a)


def _step_powers(q: np.ndarray, reach: int) -> np.ndarray:
    """``D_j = (I + Q)^j - I`` for ``j = 1 .. reach`` of each matrix of a ``(k, s, s)`` stack,
    as a ``(k, reach * s, s)`` stack of tables.

    ``psi + D_j psi`` is ``j`` steps ``psi + Q psi`` from ``psi``, so the first ``j * s``
    rows of a sector's table times its ``psi`` give the increments of ``j`` steps at once.
    Built as ``D_j = (Q D_(j-1) + Q) + D_(j-1)``, one stacked product per power, then
    copied into the table: ``I + Q`` is never formed.  A table of one step is ``Q`` itself, not a copy of the flow's largest
    stack.

    The tables end before their first power that is not finite in any sector.  A mode the
    state never enters may grow without bound (RK4 on a large eigenvalue), and ``0 * inf``
    would then make every increment NaN though the per-step recurrence keeps that mode at
    0; a shorter table only makes shorter runs.  ``Q`` itself stays where it is not finite
    (a large ``dt * |H| / hbar``): runs of one step, whose states show the overflow.
    """
    if reach == 1:
        return q
    k, s = q.shape[:2]
    table = np.empty((k, reach, s, s), dtype=complex)
    table[:, 0] = power = q
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, reach):
            # Contiguous operands: on the strided stacks table[:, j] the products took twice as long.
            previous, power = power, q @ power
            power += q
            power += previous
            table[:, j] = power
    if not np.isfinite(table[:, -1]).all():  # a sum with a non-finite term stays non-finite
        reach = max(1, int(np.argmin(np.isfinite(table).all(axis=(0, 2, 3)))))
    return table[:, :reach].reshape(k, reach * s, s)


def _increment(h: np.ndarray, method: str, dt: float, hbar: float) -> np.ndarray:
    """The complex ``Q`` of one step ``psi + Q psi`` of ``method`` on ``K = -(i/hbar) H``, for
    each matrix ``H`` of a ``(..., s, s)`` stack: the operator's sectors, or one matrix.

    Midpoint and Cayley take ``Q = 2 (I - A)^{-1} A`` with ``A = (dt/2) K``, RK4
    ``dK + (dK)^2/2 + (dK)^3/6 + (dK)^4/24``.  The operator's dtype decides the arithmetic.  A
    complex ``H`` takes them as written: one stacked complex solve, or RK4 in Horner form.  A
    float64 ``H`` builds ``Q`` in real arithmetic, whose parts are written into ``Q``, the one
    complex stack it makes.  Cayley: ``Y = (I + M^2)^{-1} M`` with ``M = tau H``,
    ``tau = dt / 2 hbar``, and ``Q = -2 M Y - 2i Y``, from one stacked real solve and two real
    products.  RK4: ``Re Q = u^2 (u^2/24 - I/2)`` and ``Im Q = u (u^2/6 - I)`` with
    ``u = (dt/hbar) H``, from three real products.  Each matrix of the stack gets the bits of
    its own 2-D call.
    """
    if np.iscomplexobj(h):
        a = (0.5 * dt) * ((-1j / hbar) * h)
        if method == "rk4":  # in Horner form
            eye = np.eye(h.shape[-1], dtype=complex)
            a *= 2.0  # dt K
            return a @ (eye + (a / 2.0) @ (eye + (a / 3.0) @ (eye + a / 4.0)))
        lhs = np.zeros(a.shape, dtype=complex)
        _diagonal(lhs)[...] = 1.0
        q = np.linalg.solve(np.subtract(lhs, a, out=lhs), a)  # (I - A) X = A, I - A in place
        q *= 2.0  # Q = 2X, doubled exactly
        return q
    if method == "rk4":
        u = (dt / hbar) * h
        u2 = u @ u
        q = np.empty(u.shape, dtype=complex)
        part = u2 / 6.0
        _diagonal(part)[...] -= 1.0
        q.imag = u @ part
        np.divide(u2, 24.0, out=part)
        _diagonal(part)[...] -= 0.5
        q.real = u2 @ part
        return q
    m = (0.5 * dt / hbar) * h
    square = m @ m
    _diagonal(square)[...] += 1.0  # I + M^2
    y = np.linalg.solve(square, m)
    square = None
    q = np.empty(m.shape, dtype=complex)
    np.multiply(m @ y, -2.0, out=q.real)
    np.multiply(y, -2.0, out=q.imag)
    return q


def _linear_flow(f: ObservableFunction, psi, cfg: IntegratorConfig, states) -> None:
    """Midpoint, Cayley or RK4 on ``f = <H>``, each step ``psi + Q psi``, into ``states``,
    one sector of ``H`` at a time.

    ``Q`` is a function of ``H``, so it never couples two connected blocks of ``H``'s
    nonzero pattern, the operator's :attr:`~symqm.operators.HermitianOperator.sectors`.
    Each size group of sectors takes its ``(k, s, s)`` stack of increments from
    :func:`_increment`, in real arithmetic for a float64 ``H``, and its tables from
    :func:`_step_powers`; ``reach`` keeps the tables of every sector together within
    ``_BLOCK_ENTRIES`` entries.  A group's ``psi`` is gathered once into its ``(k, s)``
    rows, each run of ``r <= held`` steps is ``psi + D_j psi`` for ``j = 1 .. r``, one
    stacked product per group, and the kept rows are scattered into ``states``.  The
    states match the whole-matrix recurrence to round-off; a matrix that is one sector is
    the ``k = 1`` case and gets the bits of the whole-matrix flow, which are those of the
    per-step recurrence where the table holds one step.
    """
    op = f.operator
    sectors = op.sectors
    entries = sum(idx.size * idx.shape[1] for idx in sectors)
    reach = max(1, min(_ROW_BLOCK, _BLOCK_ENTRIES // entries, cfg.steps))
    tables = [_step_powers(_increment(_sector_blocks(op.matrix, idx), cfg.method, cfg.dt, f.space.hbar), reach)
              for idx in sectors]
    # reach, or fewer where the powers of a sector overflow
    held = min(table.shape[1] // idx.shape[1] for idx, table in zip(sectors, tables))

    runs = [np.empty((idx.shape[0], held + 1, idx.shape[1]), dtype=complex) for idx in sectors]
    for idx, run in zip(sectors, runs):
        run[:, 0] = psi[idx]
    for done in range(0, cfg.steps, held):  # psi + D_j psi, written in place
        r = min(held, cfg.steps - done)
        first = cfg.stride - done % cfg.stride  # the run's first stored step, counted from its start
        start = (done + first) // cfg.stride
        for idx, table, run in zip(sectors, tables, runs):
            k, s = idx.shape
            flat = run.reshape(k, -1)
            np.matmul(table[:, :r * s], flat[:, :s, None], out=flat[:, s:(r + 1) * s, None])
            run[:, 1:r + 1] += run[:, :1]
            kept = run[:, first:r + 1:cfg.stride]
            states[start:start + kept.shape[1], idx] = kept.transpose(1, 0, 2)
            run[:, 0] = run[:, r]


def integrate(f: ObservableFunction, xi0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the Hamilton equation ``dxi/dt = X_f(xi)`` on ``f.space``.

    The ``exact`` and ``cayley`` methods require an expectation observable
    (linear field); ``midpoint`` and ``rk4`` accept any observable.  For
    ``f = <H>`` every method but ``exact`` steps with one increment matrix
    (:func:`_linear_flow`), and midpoint takes Cayley's step, the one
    solution of its equation, so ``solver_tol`` and ``solver_max_iter`` do
    not apply.  For generic observables midpoint iterates to its fixed point
    until an update is at most ``solver_tol``, and raises
    :class:`NonConvergenceError` after ``solver_max_iter`` updates.  Their
    field carries finite-difference noise of order ``1e-8``, so
    ``solver_tol`` must be chosen above ``dt`` times that noise or the fixed
    point cannot settle.

    The energies ``f(xi(t_k))`` are computed here, once, and stored in
    :attr:`Trajectory.energies`; for ``f = <A>`` they come from one
    matrix product per block of stored steps instead of a call per step.
    """
    psi = f.space.check_dim(xi0, "initial state").copy()

    stored = cfg.steps // cfg.stride
    dt_store = cfg.dt * cfg.stride
    times = dt_store * np.arange(stored + 1)
    states = np.empty((stored + 1, psi.shape[0]), dtype=complex)
    iterations = np.zeros(stored + 1, dtype=int)
    states[0] = psi

    if cfg.method in ("exact", "cayley") and f.operator is None:
        raise MethodUnsupportedError(
            f"method {cfg.method!r} requires an expectation observable"
        )

    if cfg.method == "exact":
        states = spectral_decompose(f.operator).propagate(psi, times, f.space.hbar)
        states[0] = psi
    elif f.operator is not None:
        _linear_flow(f, psi, cfg, states)
    else:
        def field(v):
            return hamiltonian_vector_field(f, v)

        idx = 0
        for step in range(1, cfg.steps + 1):
            if cfg.method == "midpoint":
                psi, iters = _midpoint_step(
                    field, psi, cfg.dt, cfg.solver_tol, cfg.solver_max_iter, step
                )
            else:  # rk4
                psi = _rk4_step(field, psi, cfg.dt)
                iters = 0
            if step % cfg.stride == 0:
                idx += 1
                states[idx] = psi
                iterations[idx] = iters

    blocks = list(_row_blocks(*states.shape))
    norms = np.concatenate([np.linalg.norm(states[rows], axis=1) for rows in blocks])
    energies = np.concatenate([_observable_values(f, states[rows]) for rows in blocks])
    for arr in (times, states, norms, energies, iterations):
        arr.setflags(write=False)  # made here, so the trajectory adopts them
    return Trajectory(
        times=times,
        states=states,
        norms=norms,
        energies=energies,
        solver_iterations=iterations,
        method=cfg.method,
    )


def phase_evolution_residual(u: ComplexFunction, a: float, traj: Trajectory) -> float:
    """Max deviation of ``u`` along the trajectory from pure phase rotation.

    Measures ``max_k |u(xi(t_k)) - exp(-i a (t_k - t_0) / hbar) u(xi(t_0))|``
    with ``hbar`` of ``u.space``, which vanishes when ``i*hbar*{f, u} = a u``
    holds along the flow of ``f`` and grows to order one when ``a`` is
    wrong.  The values of ``u`` are the one coordinate of a pass of
    ``operators._spectral_drift``, reduced as in :func:`spectral_residuals`:
    a coordinate functional ``u = <phi|.>`` is evaluated on all stored steps
    by one product, a generic ``u`` by one call per step.
    """
    u.space.check_dim(traj.states[0], "state")
    values = _complex_values(u, traj.states)[:, None]
    residual = 0.0
    for _, coords, exact in _spectral_drift(lambda block: block, values, [a], traj.times, u.space.hbar):
        residual = np.maximum(residual, _largest(np.abs(coords - exact)))
    return float(residual)


def spectral_residuals(traj: Trajectory, spectral: SpectralData, hbar: float) -> tuple[float, np.ndarray]:
    """The trajectory against the spectral solution of the eigenpairs ``(a, V)`` of ``spectral``,
    in one pass of ``operators._spectral_drift``: ``(deviation, residuals)``.

    With ``C = xi V^*`` the eigen-coordinates of the stored states and
    ``E = exp(-i a (t - t_0) / hbar) C_0`` their spectral evolution, ``residuals[n]`` is the
    phase-evolution residual ``max_k |C[k, n] - E[k, n]|`` of eigen-coordinate ``n``, and
    ``deviation`` is ``max_k ||xi(t_k) - V E_k||``, measured in state space, so that it also
    tests the eigenvectors.  A NaN state makes both NaN.
    """
    v = spectral.eigenvectors
    deviation, residuals = 0.0, np.zeros(v.shape[1])
    for rows, coords, exact in _spectral_drift(lambda block: _coordinates(block, v), traj.states,
                                               spectral.eigenvalues, traj.times, hbar):
        residuals = np.maximum(residuals, np.max(np.abs(coords - exact), axis=0))
        gaps = np.linalg.norm(traj.states[rows] - _product(exact, v.T), axis=1)
        deviation = np.maximum(deviation, np.max(gaps))
    return float(deviation), residuals


def trajectory_diagnostics(traj: Trajectory) -> TrajectoryDiagnostics:
    """Norm drift, energy drift and solver stats of a trajectory.

    The energy drift reads :attr:`Trajectory.energies`, which
    :func:`integrate` computed once; ``f`` is not evaluated again.
    """
    iters = traj.solver_iterations[1:]  # row 0 is t_0, not a step
    return TrajectoryDiagnostics(
        max_norm_drift=float(np.max(np.abs(traj.norms - 1.0))),
        max_energy_drift=float(np.max(np.abs(traj.energies - traj.energies[0]))),
        max_solver_iterations=int(np.max(iters)) if iters.size else 0,
        mean_solver_iterations=float(np.mean(iters)) if iters.size else 0.0,
        steps_stored=len(traj),
        method=traj.method,
    )
