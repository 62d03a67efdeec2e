"""Spectral benchmark: transforms, initial data, RHS structure, dissipation."""

import numpy as np
import pytest

from slrk import navier_stokes as ns
from slrk.integrator import lawson_step_general, make_plan, slrk_step
from slrk.linop import apply, make_propagator
from slrk.tableau import rk4_tableau, rk6_tableau


def direct_dft2(field):
    """O(n^4) unnormalized forward transform; pins the convention at n = 8."""
    n = field.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for kx in range(n):
        for ky in range(n):
            acc = 0j
            for ix in range(n):
                for iy in range(n):
                    acc += field[ix, iy] * np.exp(-2j * np.pi * (kx * ix + ky * iy) / n)
            out[kx, ky] = acc
    return out


def reflected_conjugate(field_hat):
    """conj(F[-kx, -ky]); a Hermitian spectrum equals it exactly."""
    n = field_hat.shape[0]
    rev = (-np.arange(n)) % n
    return np.conj(field_hat[np.ix_(rev, rev)])


def random_hermitian_state(n, rng):
    """Hermitian coefficients on every mode: Nyquist row and column, and
    everything outside the dealias mask, with a nonzero (real) mean."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * n * n
    return 0.5 * (z + reflected_conjugate(z))


def random_masked_state(grid, rng):
    """Hermitian coefficients on every mode inside the dealias mask, zero outside."""
    return random_hermitian_state(grid.n, rng) * grid.dealias_mask


def half_grid_symbols(grid):
    """1/k^2 (0 at the mean mode), i*kx and i*ky (0 on the Nyquist row and
    column) on rfft2's whole half grid, built from grid.kx and grid.ky alone."""
    n, m = grid.n, grid.n // 2 + 1
    kx, ky = grid.kx[:, :m], grid.ky[:, :m]
    k2 = (kx ** 2 + ky ** 2).astype(float)
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    ikx = np.where(np.abs(kx) == n // 2, 0, 1j * kx)
    iky = np.where(np.abs(ky) == n // 2, 0, 1j * ky)
    return inv_k2, ikx, iky


def rfft2_rhs(grid, omega_hat, include_forcing=True):
    """The 0.8.0 right-hand side: the same four-transform form through irfft2
    and rfft2 on the whole half grid, dealiased by masked symbols; kept as the
    bitwise reference."""
    n, m = grid.n, grid.n // 2 + 1
    inv_k2, ikx, iky = half_grid_symbols(grid)
    kx, ky = grid.kx[:, :m].astype(float), grid.ky[:, :m].astype(float)
    mask = grid.dealias_mask[:, :m]
    psi = omega_hat[:, :m] * inv_k2
    u, minus_v = (np.fft.irfft2(f, s=(n, n)) for f in (iky * psi, ikx * psi))
    half = np.fft.rfft2((minus_v - u) * (minus_v + u)) * np.where(mask, kx * ky, 0.0)
    half += np.fft.rfft2(u * minus_v) * np.where(mask, ky ** 2 - kx ** 2, 0.0)
    if include_forcing:
        half[0, ns.FORCING_WAVENUMBER] += ns.forcing_spectrum(grid)[0, ns.FORCING_WAVENUMBER]
    rev = (-np.arange(n)) % n
    out = np.concatenate([half, np.conj(half[rev, m - 2:0:-1])], axis=1)
    out[:, ::n // 2] = 0.5 * (out[:, ::n // 2] + np.conj(out[rev, ::n // 2]))
    out[0, 0] = 0.0
    return out


def five_transform_rhs(grid, omega_hat, include_forcing=True):
    """The 0.7.0 real-FFT right-hand side, -(u wx + v wy) from five real transforms;
    kept as the second oracle."""
    n, m = grid.n, grid.n // 2 + 1
    inv_k2, ikx, iky = half_grid_symbols(grid)
    w_half = omega_hat[:, :m]
    psi = w_half * inv_k2
    u, minus_v, wx, wy = (np.fft.irfft2(f, s=(n, n)) for f in
                          (iky * psi, ikx * psi, ikx * w_half, iky * w_half))
    half = np.fft.rfft2(minus_v * wy - u * wx) * grid.dealias_mask[:, :m]
    if include_forcing:
        half += ns.forcing_spectrum(grid)[:, :m]
    rev = (-np.arange(n)) % n
    out = np.concatenate([half, np.conj(half[rev, m - 2:0:-1])], axis=1)
    out = 0.5 * (out + reflected_conjugate(out))
    out[0, 0] = 0.0
    return out


def full_fft_rhs(grid, omega_hat, include_forcing=True):
    """The original full complex-FFT right-hand side, kept as the oracle."""
    kx, ky = grid.kx, grid.ky
    k2 = grid.k_squared.astype(float)
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0] = 1.0 / k2[k2 > 0]
    psi_hat = omega_hat * inv_k2
    u = np.fft.ifft2(1j * ky * psi_hat).real
    v = np.fft.ifft2(-1j * kx * psi_hat).real
    wx = np.fft.ifft2(1j * kx * omega_hat).real
    wy = np.fft.ifft2(1j * ky * omega_hat).real
    out = -np.fft.fft2(u * wx + v * wy) * grid.dealias_mask
    if include_forcing:
        out = out + ns.forcing_spectrum(grid)
    out = 0.5 * (out + reflected_conjugate(out))
    out[0, 0] = 0.0
    return out


def physical_initial_field(n):
    x = 2 * np.pi * np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return (4 * np.sin(2 * xx) + 3 * np.cos(xx + 3 * yy + 0.13)
            + 2 * np.sin(4 * xx + 2 * yy + 0.31) + np.sin(5 * xx + 6 * yy + 1.23))


def test_transform_convention_against_direct_oracle():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((8, 8))
    fast = np.fft.fft2(field)
    slow = direct_dft2(field)
    assert np.max(np.abs(fast - slow)) <= 1e-10
    # inverse carries the 1/n^2
    assert np.max(np.abs(np.fft.ifft2(fast).real - field)) <= 1e-12


def test_grid_wavenumbers_and_mask():
    grid = ns.make_grid(64)
    assert grid.kx[1, 0] == 1 and grid.kx[63, 0] == -1
    assert grid.ky[0, 1] == 1 and grid.ky[0, 63] == -1
    kept = np.abs(grid.kx[grid.dealias_mask])
    assert kept.max() == 21  # 2/3 rule on n = 64
    assert not grid.dealias_mask[32, 0]  # Nyquist is always masked


def test_make_grid_validation():
    with pytest.raises(ValueError):
        ns.make_grid(48)
    with pytest.raises(ValueError):
        ns.make_grid(8)


def test_initial_condition_modes():
    grid = ns.make_grid(64)
    w = ns.initial_condition(grid)
    assert np.count_nonzero(w) == 8
    assert w[0, 0] == 0
    n2 = 64 ** 2
    assert w[2, 0] == -2j * n2
    assert w[-2 % 64, 0] == 2j * n2


def test_initial_condition_matches_physical_transform():
    grid = ns.make_grid(32)
    analytic = ns.initial_condition(grid)
    numeric = np.fft.fft2(physical_initial_field(32))
    assert np.max(np.abs(analytic - numeric)) <= 1e-9 * 32 ** 2


def test_initial_condition_hermitian():
    grid = ns.make_grid(32)
    w = ns.initial_condition(grid)
    assert np.array_equal(reflected_conjugate(w), w)
    assert np.max(np.abs(np.fft.ifft2(w).imag)) <= 1e-13 * np.max(np.abs(w)) / 32 ** 2


def test_linear_operator_spectrum():
    grid = ns.make_grid(64)
    A = ns.linear_operator(grid, 1e-2)
    spectrum = A.data
    assert spectrum[4, 4] == pytest.approx(-0.32, abs=1e-15)
    assert spectrum[0, 0] == 0.0
    masked = spectrum[grid.dealias_mask]
    assert masked.min() == pytest.approx(-8.82, abs=1e-12)
    with pytest.raises(ValueError):
        ns.linear_operator(grid, 0.0)


def test_forcing_occupies_two_modes():
    grid = ns.make_grid(32)
    f = ns.forcing_spectrum(grid)
    assert np.count_nonzero(f) == 2
    assert f[0, 4] == -2 * 32 ** 2
    assert f[0, -4 % 32] == -2 * 32 ** 2
    # physical space: -4 cos(4y)
    y = 2 * np.pi * np.arange(32) / 32
    phys = np.fft.ifft2(f).real
    assert np.max(np.abs(phys[0] - (-4 * np.cos(4 * y)))) <= 1e-12


def test_single_mode_advection_vanishes():
    grid = ns.make_grid(32)
    w = np.zeros((32, 32), dtype=complex)
    w[3 % 32, 2 % 32] = (1 - 2j) * 32 ** 2
    w[-3 % 32, -2 % 32] = (1 + 2j) * 32 ** 2
    g = ns.nonlinear_rhs(grid, w)
    assert np.max(np.abs(g - ns.forcing_spectrum(grid))) <= 1e-8


def test_zero_state_rhs_is_pure_forcing():
    grid = ns.make_grid(32)
    zero = np.zeros((32, 32), dtype=complex)
    g = ns.nonlinear_rhs(grid, zero)
    assert np.array_equal(g, ns.forcing_spectrum(grid))
    # one RK step from rest populates exactly the forcing modes
    plan = make_plan(ns.make_problem(grid, 1e-2), rk4_tableau(), 1e-3)
    w1 = slrk_step(plan, zero)
    nz = np.argwhere(np.abs(w1) > 1e-12 * 32 ** 2)
    assert {tuple(ij) for ij in nz} == {(0, 4), (0, 32 - 4)}


def test_rhs_preserves_hermitian_symmetry_and_zero_mean():
    grid = ns.make_grid(32)
    w = ns.initial_condition(grid)
    for _ in range(3):
        w = w + 0.01 * ns.nonlinear_rhs(grid, w)
        assert np.array_equal(reflected_conjugate(w), w)
        assert w[0, 0] == 0


@pytest.mark.parametrize("n", [16, 32, 128])
@pytest.mark.parametrize("include_forcing", [True, False])
def test_real_fft_rhs_matches_full_fft_oracle(n, include_forcing):
    # Basdevant's form equals u . grad omega only on states inside the dealias mask.
    grid = ns.make_grid(n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        w = random_masked_state(grid, rng)
        before = w.copy()
        got = ns.nonlinear_rhs(grid, w, include_forcing=include_forcing)
        for oracle in (full_fft_rhs, five_transform_rhs):
            want = oracle(grid, w, include_forcing=include_forcing)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # exactly Hermitian with a zero mean by construction; input untouched
        assert np.array_equal(got, reflected_conjugate(got))
        assert got[0, 0] == 0
        assert np.array_equal(w, before)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("include_forcing", [True, False])
def test_rhs_equals_the_rfft2_composition_bit_for_bit(n, include_forcing):
    # Skipping the dropped columns' first or last pass leaves numpy's per-column arithmetic alone.
    grid = ns.make_grid(n)
    rng = np.random.default_rng(n + 1)
    for _ in range(3):
        w = random_masked_state(grid, rng)
        got = ns.nonlinear_rhs(grid, w, include_forcing=include_forcing)
        assert np.array_equal(got, rfft2_rhs(grid, w, include_forcing=include_forcing))


@pytest.mark.parametrize("n", [16, 32, 128])
def test_rhs_ignores_and_zeroes_the_columns_the_mask_drops(n):
    grid = ns.make_grid(n)
    rng = np.random.default_rng(n + 2)
    w = random_hermitian_state(n, rng)
    got = ns.nonlinear_rhs(grid, w)
    assert np.all(got[~grid.dealias_mask] == 0)
    dropped = np.abs(grid.ky) > n / 3
    other = np.where(dropped, random_hermitian_state(n, rng), w)
    assert np.array_equal(ns.nonlinear_rhs(grid, other), got)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("tableau", [rk4_tableau, rk6_tableau])
def test_stepping_keeps_modes_outside_the_mask_zero(n, tableau):
    # The premise of Basdevant's form: stepped states stay inside the dealias mask.
    grid = ns.make_grid(n)
    plan = make_plan(ns.make_problem(grid, 1e-2), tableau(), 0.01)
    w0 = ns.initial_condition(grid)
    band = random_masked_state(grid, np.random.default_rng(n))
    for w in (w0, band * (np.linalg.norm(w0) / np.linalg.norm(band))):
        assert np.all(w[~grid.dealias_mask] == 0)
        for _ in range(5):
            w = slrk_step(plan, w)
        assert np.all(np.isfinite(w))
        assert np.all(w[~grid.dealias_mask] == 0)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_initial_condition_lies_inside_the_mask(n):
    # The right-hand side reads no mode outside the mask; at n = 16 the (5, 6) pair
    # lies outside it (6 > 16/3) and is left out of the data.
    grid = ns.make_grid(n)
    w = ns.initial_condition(grid)
    assert np.all(w[~grid.dealias_mask] == 0)
    assert np.count_nonzero(w) == (6 if n == 16 else 8)


def test_step_rejects_non_finite_state_at_stage_1():
    # The RHS does not scan its input; the stepper's check on the first slope does.
    grid = ns.make_grid(32)
    w = ns.initial_condition(grid)
    w[5, 5] = np.nan
    plan = make_plan(ns.make_problem(grid, 1e-2), rk6_tableau(), 0.01)
    from slrk.integrator import NonFiniteStateError
    with pytest.raises(NonFiniteStateError, match="stage 1$"):
        slrk_step(plan, w)


def test_streamfunction_velocity_curl_identity():
    # curl of the reconstructed velocity is the vorticity itself
    grid = ns.make_grid(32)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((32, 32))
    w -= w.mean()
    w_hat = np.fft.fft2(w) * grid.dealias_mask
    w_hat[0, 0] = 0
    k2 = grid.k_squared.astype(float)
    inv = np.zeros_like(k2)
    inv[k2 > 0] = 1.0 / k2[k2 > 0]
    psi = w_hat * inv
    u_hat = 1j * grid.ky * psi
    v_hat = -1j * grid.kx * psi
    curl_hat = 1j * grid.kx * v_hat - 1j * grid.ky * u_hat
    assert np.max(np.abs(curl_hat - w_hat)) <= 1e-10 * np.max(np.abs(w_hat))


def test_enstrophy_non_increasing_without_forcing():
    grid = ns.make_grid(32)
    prob = ns.make_problem(grid, 1e-2, include_forcing=False)
    plan = make_plan(prob, rk6_tableau(), 1e-3)
    w = ns.initial_condition(grid)
    before = ns.enstrophy(w)
    after = ns.enstrophy(slrk_step(plan, w))
    assert after <= before * (1 + 1e-12)
    assert after < before  # viscosity really dissipates


def test_propagator_commutes_with_dealias_mask():
    grid = ns.make_grid(32)
    e = make_propagator(ns.linear_operator(grid, 1e-2), 0.05)
    w = ns.initial_condition(grid)
    masked_then = apply(e, w * grid.dealias_mask)
    then_masked = apply(e, w) * grid.dealias_mask
    assert np.array_equal(masked_then, then_masked)


def test_slrk_step_matches_general_lawson_on_benchmark():
    grid = ns.make_grid(32)
    nu = 1e-2
    prob = ns.make_problem(grid, nu)
    w = ns.initial_condition(grid)
    h = 5.0 / 256
    plan = make_plan(prob, rk6_tableau(), h)
    fast = slrk_step(plan, w)
    ref = lawson_step_general(rk6_tableau(), prob.g, prob.A, w, h)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_convergence_study_smoke():
    grid = ns.make_grid(32)
    result = ns.convergence_study(grid, 1e-2, 0.5, [16, 32, 64], reference_steps=256)
    err4 = result.errors("rk4")
    err6 = result.errors("rk6")
    for m in (16, 32, 64):
        assert err6[m] < err4[m]
    # halving the step helps both schemes
    assert err4[64] < err4[16]
    assert err6[64] < err6[16]


def test_convergence_study_validation():
    grid = ns.make_grid(32)
    with pytest.raises(ValueError):
        ns.convergence_study(grid, 1e-2, 0.5, [32, 16], reference_steps=256)
    with pytest.raises(ValueError):
        ns.convergence_study(grid, 1e-2, 0.5, [16, 32], reference_steps=64)
