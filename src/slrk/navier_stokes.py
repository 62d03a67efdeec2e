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
states inside the dealias mask). The initial data lie inside the mask, and
a stepped state stays inside it, since the right-hand side is zero outside
the mask and the diffusion propagator is diagonal.
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


@dataclass(frozen=True)
class SpectralGrid:
    """Wavenumbers for an n-by-n periodic grid, plus what the right-hand side
    multiplies by: i*kx as a column (0 on the Nyquist row, where a real
    field's odd derivative vanishes), and on the columns 0..n/3 of rfft2's
    half grid that the 2/3 rule keeps, 1/k^2 (0 at the mean mode), i*ky and
    the advection symbols (ky^2 - kx^2) and kx*ky with the rows the rule
    drops zeroed."""

    n: int
    kx: np.ndarray
    ky: np.ndarray
    inv_k_squared_half: np.ndarray
    ikx: np.ndarray
    iky_half: np.ndarray
    ky2_minus_kx2_half: np.ndarray
    kx_ky_half: np.ndarray

    @property
    def k_squared(self) -> np.ndarray:
        return self.kx[:, :1] ** 2 + self.ky[:1] ** 2  # kx varies along axis 0, ky along 1

    @property
    def dealias_mask(self) -> np.ndarray:
        """The 2/3 rule: True where |kx| and |ky| are both at most n/3."""
        kept = np.abs(self.kx[:, 0]) <= self.n / 3
        return kept[:, None] & kept


def make_grid(n: int) -> SpectralGrid:
    """Build the grid; n must be a power of two, at least 16."""
    if n < 16 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")
    kept = n // 3 + 1  # the 2/3 rule keeps |kx|, |ky| <= n/3: half-grid columns 0..kept-1
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    kf = k.astype(float)
    k2 = np.square(kf)
    k2_kept = np.add.outer(k2, k2[:kept])
    k2_kept[0, 0] = np.inf  # 1/k^2 is 0 on the mean mode
    ik = np.where(np.arange(n) == n // 2, 0, 1j * k)
    kx_ky, ky2_minus_kx2 = np.outer(kf, kf[:kept]), np.add.outer(-k2, k2[:kept])
    for symbol in (kx_ky, ky2_minus_kx2):  # zero the rows the 2/3 rule drops
        symbol[kept:n - kept + 1] = 0.0
    return SpectralGrid(
        n=n, kx=np.broadcast_to(k[:, None], (n, n)), ky=np.broadcast_to(k, (n, n)),
        ikx=ik[:, None], iky_half=ik[:kept],
        inv_k_squared_half=np.divide(1.0, k2_kept, out=k2_kept),
        ky2_minus_kx2_half=ky2_minus_kx2, kx_ky_half=kx_ky)


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
    return w_hat


def _forcing_coefficient(n: int) -> float:
    return -FORCING_WAVENUMBER / 2 * n * n


def forcing_spectrum(grid: SpectralGrid) -> np.ndarray:
    """Transform of the vorticity forcing -4 cos(4y), the curl of sin(4y) x_hat."""
    f_hat = np.zeros((grid.n, grid.n), dtype=complex)
    f_hat[0, [FORCING_WAVENUMBER, -FORCING_WAVENUMBER]] = _forcing_coefficient(grid.n)
    return f_hat


def linear_operator(grid: SpectralGrid, nu: float) -> linop.LinearOperator:
    """Diffusion: diagonal spectrum -nu*(kx^2 + ky^2); zero on the mean mode."""
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and positive, got {nu}")
    return linop.diagonal_operator(-nu * grid.k_squared)


def nonlinear_rhs(grid: SpectralGrid, omega_hat: np.ndarray,
                  include_forcing: bool = True) -> np.ndarray:
    """Advection plus forcing in spectral space: -FFT(u . grad omega) + f_hat.

    The streamfunction solves lap(psi) = -omega and the velocity is
    (u, v) = (d psi/dy, -d psi/dx). Advection takes Basdevant's
    four-transform form (J. Comput. Phys. 50, 1983),
    u . grad omega = (dx^2 - dy^2)(uv) + dx dy (v^2 - u^2), so the
    result is (ky^2 - kx^2) FFT(u (-v)) + kx ky FFT((-v)^2 - u^2), dealiased
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
    """
    n, kept = grid.n, grid.kx_ky_half.shape[1]  # the columns 0..n/3 the 2/3 rule keeps
    out = np.empty((n, n), dtype=complex)
    half = out[:, :kept]

    # Overflow here just means blow-up; the stepper's finite check on the slope raises.
    with np.errstate(over="ignore", invalid="ignore"):
        psi = omega_hat[:, :kept] * grid.inv_k_squared_half
        u, minus_v = (np.fft.irfft(np.fft.ifft(f, axis=0), n=n, axis=1)
                      for f in (grid.iky_half * psi, grid.ikx * psi))
        uv_hat = np.fft.fft(np.fft.rfft(u * minus_v, axis=1)[:, :kept], axis=0)
        v2_u2 = np.fft.rfft((minus_v - u) * (minus_v + u), axis=1)[:, :kept]
        np.multiply(np.fft.fft(v2_u2, axis=0), grid.kx_ky_half, out=half)
        uv_hat *= grid.ky2_minus_kx2_half
        half += uv_hat
    if include_forcing:
        half[0, FORCING_WAVENUMBER] += _forcing_coefficient(n)
    rev = (-np.arange(n)) % n
    out[:, kept:n - kept + 1] = 0.0
    out[:, n - kept + 1:] = np.conj(half[rev, kept - 1:0:-1])
    out[:, 0] = 0.5 * (out[:, 0] + np.conj(out[rev, 0]))
    out[0, 0] = 0.0
    return out


def vorticity_field(omega_hat: np.ndarray) -> np.ndarray:
    """Physical-space vorticity (real part of the inverse transform)."""
    return np.fft.ifft2(omega_hat).real


def enstrophy(omega_hat: np.ndarray) -> float:
    """Mean-square vorticity, sum |w_hat|^2 / n^4."""
    n = omega_hat.shape[0]
    return float(np.sum(np.abs(omega_hat) ** 2)) / n ** 4


def make_problem(grid: SpectralGrid, nu: float,
                 include_forcing: bool = True) -> OdeProblem:
    """Vorticity dynamics as g(w) + A w for the Lawson steppers."""
    def g(omega_hat):
        return nonlinear_rhs(grid, omega_hat, include_forcing=include_forcing)

    return OdeProblem(g=g, A=linear_operator(grid, nu))


def _final_vorticity(grid: SpectralGrid, nu: float, tableau: Tableau,
                     t_final: float, n_steps: int) -> np.ndarray:
    plan = make_plan(make_problem(grid, nu), tableau, t_final / n_steps)
    return vorticity_field(integrate(plan, initial_condition(grid), n_steps))


@dataclass(frozen=True)
class ConvergenceCell:
    scheme: str
    n_steps: int
    linf_error: float  # nan marks an unstable (non-finite) run

    @property
    def stable(self) -> bool:
        return np.isfinite(self.linf_error)


@dataclass(frozen=True)
class ConvergenceResult:
    cells: tuple[ConvergenceCell, ...]
    slopes: dict
    fit_points: dict
    floor: float

    def errors(self, scheme: str) -> dict:
        return {c.n_steps: c.linf_error for c in self.cells if c.scheme == scheme}


def convergence_study(grid: SpectralGrid, nu: float, t_final: float, step_counts: list[int],
                      reference_steps: int | None = None) -> ConvergenceResult:
    """Max pointwise error at t_final versus step count, for rk4 and rk6.

    The ground truth is the sixth-order scheme run at reference_steps
    (default 4x the largest tested count; must be at least that). The
    log-log slope fit uses points that are finite, below 1% of the
    reference field amplitude (past the pre-asymptotic regime), and above
    ten times the smallest error in the table (the empirical floor).
    """
    if sorted(step_counts) != list(step_counts) or len(set(step_counts)) != len(step_counts):
        raise ValueError("step_counts must be strictly increasing")
    if min(step_counts) < 1:
        raise ValueError(f"step counts must be >= 1, got {min(step_counts)}")
    if reference_steps is None:
        reference_steps = 4 * max(step_counts)
    if reference_steps < 4 * max(step_counts):
        raise ValueError("reference step count must be >= 4x the largest tested")
    schemes = [rk4_tableau(), rk6_tableau()]

    w_ref = _final_vorticity(grid, nu, rk6_tableau(), t_final, reference_steps)
    ref_scale = float(np.max(np.abs(w_ref)))

    cells = []
    for tab in schemes:
        for m in step_counts:
            try:
                w = _final_vorticity(grid, nu, tab, t_final, m)
                err = float(np.max(np.abs(w - w_ref)))
                if not np.isfinite(err):
                    err = float("nan")
            except NonFiniteStateError:
                err = float("nan")
            cells.append(ConvergenceCell(scheme=tab.name, n_steps=m, linf_error=err))

    finite = [c.linf_error for c in cells if c.stable]
    floor = min(finite) if finite else float("nan")

    slopes = {}
    fit_points = {}
    for tab in schemes:
        usable = [c for c in cells
                  if c.scheme == tab.name and c.stable
                  and c.linf_error <= 0.01 * ref_scale
                  and c.linf_error > 10.0 * floor]
        fit_points[tab.name] = [c.n_steps for c in usable]
        if len(usable) >= 2:
            logm = np.log([c.n_steps for c in usable])
            loge = np.log([c.linf_error for c in usable])
            slopes[tab.name] = float(-np.polyfit(logm, loge, 1)[0])
        else:
            slopes[tab.name] = float("nan")
    return ConvergenceResult(cells=tuple(cells), slopes=slopes, fit_points=fit_points, floor=floor)
