"""Pseudo-spectral 2D incompressible Navier-Stokes benchmark (vorticity form).

The flow lives on the periodic box [0, 2pi)^2 with integer wavenumbers,
forced by the body force sin(4y) x_hat (vorticity forcing -4 cos 4y) at
viscosity nu. Diffusion is the diagonal stiff operator with eigenvalues
-nu*(kx^2 + ky^2) and is handled exactly by the Lawson propagator; the
advection term is evaluated pseudo-spectrally with 2/3-rule dealiasing.

Transform convention: unnormalized forward FFT, 1/n^2 inverse (numpy's
default), with axis 0 = x and axis 1 = y. The vorticity state is the full
complex (n, n) coefficient array, Hermitian with a zero mean mode; the
right-hand side reads only the columns 0..n/3 that the 2/3 rule keeps and
takes four real transforms of them (Basdevant's advection form, exact on
states inside the dealias mask). ``spectral_state`` checks that a state
enters inside the mask, and a stepped state stays inside it, since the
right-hand side is zero outside it and diffusion is diagonal. The grid holds the
wavenumbers alone; ``nonlinear_rhs(grid)`` builds the one right-hand side,
advection plus forcing, with the symbols it multiplies by and a workspace
of its own for its temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linop
from .integrator import NonFiniteStateError, OdeProblem, integrate, make_plan
from .tableau import Tableau, rk4_tableau, rk6_tableau

# Initial vorticity: four plane waves without any symmetry.
# Tuples of (amplitude, kx, ky, phase, is_sine).
_INITIAL_MODES = (
    (4.0, 2, 0, 0.0, True),
    (3.0, 1, 3, 0.13, False),
    (2.0, 4, 2, 0.31, True),
    (1.0, 5, 6, 1.23, True),
)

FORCING_WAVENUMBER = 4


def _kept_columns(n: int) -> int:
    """K = n/3 + 1: the 2/3 rule keeps |kx|, |ky| <= n/3, so rfft2's half-grid columns 0..K-1."""
    return n // 3 + 1


@dataclass(frozen=True)
class SpectralGrid:
    """Integer wavenumbers of an n-by-n periodic grid in FFT order, kx varying
    along axis 0 and ky along axis 1, each broadcast to (n, n)."""

    n: int
    kx: np.ndarray
    ky: np.ndarray

    @property
    def k_squared(self) -> np.ndarray:
        return self.kx[:, :1] ** 2 + self.ky[:1] ** 2  # kx varies along axis 0, ky along 1

    @property
    def dealias_mask(self) -> np.ndarray:
        """The 2/3 rule: True where |kx| and |ky| are both at most n/3."""
        kept = np.abs(self.kx[:, 0]) < _kept_columns(self.n)
        return kept[:, None] & kept


def make_grid(n: int) -> SpectralGrid:
    """Build the grid; n must be a power of two, at least 16."""
    if n < 16 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    return SpectralGrid(n=n, kx=np.broadcast_to(k[:, None], (n, n)), ky=np.broadcast_to(k, (n, n)))


def initial_condition(grid: SpectralGrid) -> np.ndarray:
    """Spectral coefficients of the analytic initial vorticity.

    Every coefficient is amp * n^2 * exp(i*phase) / (2i) for sines (over 2
    for cosines). A mode outside the 2/3 dealias mask is left out, so the
    data satisfy the right-hand side's premise: (5, 6) at n = 16; at n >= 32
    all four conjugate mode pairs are populated.
    """
    n, inside = grid.n, grid.dealias_mask
    w_hat = np.zeros((n, n), dtype=complex)
    for amp, kx, ky, phase, is_sine in _INITIAL_MODES:
        if not inside[kx % n, ky % n]:
            continue
        coeff = amp * n * n * np.exp(1j * phase)
        coeff = coeff / 2j if is_sine else coeff / 2
        w_hat[kx % n, ky % n] += coeff
        w_hat[(-kx) % n, (-ky) % n] += np.conj(coeff)
    return spectral_state(grid, w_hat)


def spectral_state(grid: SpectralGrid, w_hat: np.ndarray) -> np.ndarray:
    """The state to step from a full (n, n) spectrum: w_hat itself, not a copy, once checked.

    The shape must be (n, n), every entry finite, and every entry outside the
    2/3 dealias mask exactly zero, the right-hand side's premise; a ValueError
    names the largest one there otherwise. Check where a state enters, never
    per step.
    """
    if w_hat.shape != (grid.n, grid.n):
        raise ValueError(f"spectral state must have shape {(grid.n, grid.n)}, got {w_hat.shape}")
    if not np.all(np.isfinite(w_hat)):
        raise ValueError("spectral state must be finite")
    outside = np.where(grid.dealias_mask, 0.0, np.abs(w_hat))
    worst = np.unravel_index(np.argmax(outside), outside.shape)
    if outside[worst] != 0.0:
        raise ValueError(f"spectral state has |w_hat| = {outside[worst]:.6g} at (kx, ky) = "
                         f"({grid.kx[worst]}, {grid.ky[worst]}), outside the 2/3 dealias mask")
    return w_hat


def linear_operator(grid: SpectralGrid, nu: float) -> linop.LinearOperator:
    """Diffusion: diagonal spectrum -nu*(kx^2 + ky^2); zero on the mean mode."""
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and positive, got {nu}")
    if not np.isfinite(float(nu) * (grid.n ** 2 // 2)):  # |k|^2 peaks at 2 (n/2)^2
        raise ValueError(f"nu*|k|^2 overflows float64 at nu = {nu}")
    return linop.diagonal_operator(-nu * grid.k_squared)


def nonlinear_rhs(grid: SpectralGrid):
    """g(omega_hat) = -FFT(u . grad omega) + f_hat in spectral space, with the
    symbols it multiplies by and a workspace, both built here, once.

    f_hat is the transform of the vorticity forcing -4 cos(4y), the curl of
    sin(4y) x_hat: -2n^2 on the modes (0, +-4). The streamfunction solves
    lap(psi) = -omega and the velocity is (u, v) = (d psi/dy, -d psi/dx).
    Advection takes Basdevant's four-transform form (J. Comput. Phys. 50,
    1983), u . grad omega = (dx^2 - dy^2)(uv) + dx dy (v^2 - u^2), so g is
    (ky^2 - kx^2) FFT(u (-v)) + kx ky FFT((-v)^2 - u^2) + f_hat, dealiased
    by the symbols' zeroed rows: two inverse and two forward real transforms.

    Only the input's columns 0..n/3 are read, since the 2/3 rule (Orszag,
    J. Atmos. Sci. 28, 1971) zeroes the result's other columns. Each
    2-D real transform is numpy's own axis-by-axis order with the dropped
    columns' pass skipped: ifft down the kept columns, then irfft along
    rows (which pads the dropped columns with zeros); rfft along rows,
    then fft down the kept columns. So every kept coefficient equals the
    irfft2/rfft2 result bit for bit. The output is the exactly Hermitian
    extension of those columns, and +0.0 in every column whose |ky| > n/3.

    The form relies on the product rule, which holds discretely only when
    the products alias onto no kept mode. So it equals the five-transform
    u . grad omega (to rounding) when the input is supported inside the
    dealias mask, as every state stepped from masked initial data is; on a
    state populated outside the mask the two differ at order 1.

    The symbols live on the K = n/3 + 1 kept columns: 1/k^2 (0 at the mean
    mode), i*ky, the advection symbols with the rows the 2/3 rule drops
    zeroed, and i*kx as a column (0 on the Nyquist row, where a real field's
    odd derivative vanishes). Every temporary is written with out= into the
    workspace: two (n, K) complex arrays (psi, then each inverse transform
    in place, then FFT(u (-v)) and FFT((-v)^2 - u^2)), three (n, n) real
    arrays (u, -v and a scratch, where (-v)^2 - u^2 is formed as
    ((-v) - u)((-v) + u)), one (n, n/2+1) rfft array and the reflection
    index; about 0.69 MB at n = 128. numpy's ufunc buffers for strided,
    broadcast and cast operands still put a warm call's tracemalloc peak at
    1.68x its output at n = 128 (1.72x at 64, 1.46x at 256). g must not be
    called from two threads at once.
    """
    n, kept = grid.n, _kept_columns(grid.n)
    forcing = -FORCING_WAVENUMBER / 2 * n * n
    kf = grid.kx[:, 0].astype(float)
    k2 = np.square(kf)
    inv_k2 = np.add.outer(k2, k2[:kept])
    inv_k2[0, 0] = np.inf  # 1/k^2 is 0 on the mean mode
    np.divide(1.0, inv_k2, out=inv_k2)
    ik = np.where(np.arange(n) == n // 2, 0, 1j * kf)
    ikx, iky = ik[:, None], ik[:kept]
    kx_ky, ky2_minus_kx2 = np.outer(kf, kf[:kept]), np.add.outer(-k2, k2[:kept])
    for symbol in (kx_ky, ky2_minus_kx2):  # zero the rows the 2/3 rule drops
        symbol[kept:n - kept + 1] = 0.0
    c1, c2 = np.empty((2, n, kept), dtype=complex)
    u, minus_v, scratch = np.empty((3, n, n))
    row_hat = np.empty((n, n // 2 + 1), dtype=complex)
    rev = (-np.arange(n)) % n

    def rhs(omega_hat: np.ndarray) -> np.ndarray:
        out = np.empty((n, n), dtype=complex)
        half = out[:, :kept]
        psi = np.multiply(omega_hat[:, :kept], inv_k2, out=c1)
        np.multiply(ikx, psi, out=c2)
        np.multiply(iky, psi, out=c1)
        for f, field in ((c1, u), (c2, minus_v)):
            np.fft.irfft(np.fft.ifft(f, axis=0, out=f), n=n, axis=1, out=field)
        np.fft.rfft(np.multiply(u, minus_v, out=scratch), axis=1, out=row_hat)
        uv_hat = np.fft.fft(row_hat[:, :kept], axis=0, out=c1)
        v2_u2 = np.multiply(np.subtract(minus_v, u, out=scratch),
                            np.add(minus_v, u, out=u), out=scratch)
        np.fft.rfft(v2_u2, axis=1, out=row_hat)
        np.multiply(np.fft.fft(row_hat[:, :kept], axis=0, out=c2), kx_ky, out=half)
        uv_hat *= ky2_minus_kx2
        half += uv_hat
        half[0, FORCING_WAVENUMBER] += forcing
        out[:, kept:n - kept + 1] = 0.0
        np.conjugate(half[rev, kept - 1:0:-1], out=out[:, n - kept + 1:])
        out[:, 0] = 0.5 * (out[:, 0] + np.conj(out[rev, 0]))
        out[0, 0] = 0.0
        return out

    return rhs


def vorticity_field(omega_hat: np.ndarray) -> np.ndarray:
    """Physical-space vorticity (real part of the inverse transform)."""
    return np.fft.ifft2(omega_hat).real


def enstrophy(omega_hat: np.ndarray) -> float:
    """Mean-square vorticity, sum |w_hat|^2 / n^4."""
    n = omega_hat.shape[0]
    return float(np.sum(np.abs(omega_hat) ** 2)) / n ** 4


def make_problem(grid: SpectralGrid, nu: float) -> OdeProblem:
    """Vorticity dynamics as g(w) + A w for the Lawson steppers; g has its own workspace."""
    return OdeProblem(g=nonlinear_rhs(grid), A=linear_operator(grid, nu))


@dataclass(frozen=True)
class ConvergenceResult:
    errors: dict  # {scheme: {m: max error}}; nan marks a run that blew up
    slopes: dict
    fit_points: dict
    floor: float


def convergence_study(grid: SpectralGrid, nu: float, t_final: float, step_counts: list[int],
                      reference_steps: int) -> ConvergenceResult:
    """Max pointwise error at t_final versus step count, for rk4 and rk6.

    The ground truth is the sixth-order scheme run at reference_steps,
    which must be at least 4x the largest tested count. The log-log slope
    fit uses points that are finite, below 1% of the reference field
    amplitude (past the pre-asymptotic regime), and above ten times the
    smallest error in the table (the empirical floor). Every run steps one
    problem from one initial state. A tested run that blows up records a
    NaN error; a blow-up of the reference run raises a NonFiniteStateError
    that names it.
    """
    if sorted(step_counts) != list(step_counts) or len(set(step_counts)) != len(step_counts):
        raise ValueError("step_counts must be strictly increasing")
    if min(step_counts) < 1:
        raise ValueError(f"step counts must be >= 1, got {min(step_counts)}")
    if reference_steps < 4 * max(step_counts):
        raise ValueError("reference step count must be >= 4x the largest tested")
    schemes = [rk4_tableau(), rk6_tableau()]
    problem, w0 = make_problem(grid, nu), initial_condition(grid)

    def final_vorticity(tableau: Tableau, n_steps: int) -> np.ndarray:
        plan = make_plan(problem, tableau, t_final / n_steps)
        return vorticity_field(integrate(plan, w0, n_steps))

    try:
        w_ref = final_vorticity(rk6_tableau(), reference_steps)
    except NonFiniteStateError as err:
        message = f"rk6 reference run ({reference_steps} steps) blew up: {err}"
        raise NonFiniteStateError(message) from err
    ref_scale = float(np.max(np.abs(w_ref)))

    errors = {}
    for tab in schemes:
        row = errors[tab.name] = {}
        for m in step_counts:
            try:
                err = float(np.max(np.abs(final_vorticity(tab, m) - w_ref)))
            except NonFiniteStateError:
                err = float("nan")
            row[m] = err if np.isfinite(err) else float("nan")

    finite = [e for row in errors.values() for e in row.values() if np.isfinite(e)]
    floor = min(finite) if finite else float("nan")

    slopes, fit_points = {}, {}
    for name, row in errors.items():
        # nan compares false, so a blown-up run is never usable
        usable = [m for m, e in row.items() if 10.0 * floor < e <= 0.01 * ref_scale]
        fit_points[name] = usable
        slopes[name] = float("nan")
        if len(usable) >= 2:
            loge = np.log([row[m] for m in usable])
            slopes[name] = float(-np.polyfit(np.log(usable), loge, 1)[0])
    return ConvergenceResult(errors=errors, slopes=slopes, fit_points=fit_points, floor=floor)
