"""Propagators: elementwise exponentials and the dense matrix exponential."""

import warnings

import numpy as np
import pytest

from slrk.linop import (
    apply,
    dense_operator,
    diagonal_operator,
    expm,
    make_propagator,
)


def taylor_expm(m, terms=30):
    """Reference series oracle with exact term recurrence."""
    n = m.shape[0]
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


def test_diagonal_propagator_entries():
    e = make_propagator(diagonal_operator(np.array([-1.0, -2.0])), 1.0)
    assert np.allclose(e.data, [np.exp(-1.0), np.exp(-2.0)], rtol=1e-15)


def test_dense_nilpotent_is_exact():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    e = make_propagator(dense_operator(m), 1.0)
    assert np.allclose(e.data, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_dense_matches_taylor_oracle():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((4, 4))
    m *= 2.0 / max(abs(np.linalg.eigvals(m)))
    got = make_propagator(dense_operator(m), 0.3).data
    want = taylor_expm(0.3 * m).real
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12


def test_expm_large_norm_uses_squaring():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    m *= 6.0 / np.linalg.norm(m, 1)
    want = taylor_expm(m.astype(complex), terms=60).real
    assert np.max(np.abs(expm(m) - want)) / np.max(np.abs(want)) <= 1e-12


def relative_error(got, want):
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


def triangular_expm(a, b, d):
    """Closed form of exp([[a, b], [0, d]]) for a != d."""
    return np.array([[np.exp(a), b * (np.exp(a) - np.exp(d)) / (a - d)], [0, np.exp(d)]])


@pytest.mark.parametrize("b", [1e3, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("a,d", [(-1.0, -20.0), (0.5, -3.0), (1.0, -1.0)])
def test_expm_non_normal_matches_closed_form(a, d, b):
    # |m|_1 grows with b but the spectrum does not: scaling by the norm alone
    # takes up to 35 squarings here and loses up to 4e-6 in them.
    m = np.array([[a, b], [0.0, d]])
    assert relative_error(expm(m), triangular_expm(a, b, d)) <= 1e-13


def test_expm_non_normal_complex_matches_closed_form():
    a, b, d = -1.0 + 3.0j, 1e6 * (1.0 - 2.0j), 0.5 - 2.0j
    got = expm(np.array([[a, b], [0.0, d]]))
    assert got.dtype == complex
    assert relative_error(got, triangular_expm(a, b, d)) <= 1e-13


def test_expm_of_empty_matrix():
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    assert make_propagator(dense_operator(np.zeros((0, 0))), 1.0).data.shape == (0, 0)


@pytest.mark.parametrize("scale", [-1e60, -1e60 + 3e59j, -1e300])
def test_expm_of_huge_decaying_matrix_is_exact_zero(scale):
    # |m^4| |m^6| would overflow without the pre-scaling past |m| = 2**100.
    m = scale * np.eye(2)
    before = m.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(m)
    assert np.array_equal(m, before)
    assert np.all(got == 0)


def test_propagator_of_huge_decay_is_zero_operator():
    e = make_propagator(dense_operator(-np.eye(2)), 1e60)  # used to report an overflow
    assert e.kind == "dense" and np.all(e.data == 0)


@pytest.mark.parametrize("A", [dense_operator(-np.eye(2) * 1e300),
                               diagonal_operator(np.array([-1e300, -1.0]))])
def test_propagator_rejects_non_finite_tau_a(A):
    # tau*A overflows to -inf, for dense and diagonal A alike.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^tau\*A is not finite at tau = 1e\+300$"):
            make_propagator(A, 1e300)


def test_propagator_rejects_tau_a_whose_norm_overflows():
    # Every entry is finite, but the first column's 1-norm is 2e308.
    A = dense_operator([[-1e308, 0.0], [-1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the 1-norm of tau\*A is not finite at tau = 1$"):
            make_propagator(A, 1.0)


def test_expm_large_norm_symmetric_matches_eigendecomposition():
    # A dense_stiff-like operator at N=64: spectrum log-uniform in [-1e3, -1e-2].
    rng = np.random.default_rng(64)
    lam = -(10.0 ** rng.uniform(-2.0, 3.0, 64))
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    tau = 0.05 / 6
    m = tau * (q * lam) @ q.T
    assert np.max(np.abs(tau * lam)) > 5.372  # beyond theta_13: the squaring loop runs
    before = m.copy()
    got = expm(m)
    assert np.array_equal(m, before)  # scaled copies only, never the caller's array
    assert relative_error(got, (q * np.exp(tau * lam)) @ q.T) <= 1e-13


def test_identity_at_tau_zero():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(6)
    for A in (diagonal_operator(rng.standard_normal(6)),
              dense_operator(rng.standard_normal((6, 6)))):
        e = make_propagator(A, 0.0)
        assert np.max(np.abs(apply(e, v) - v)) <= 1e-15 * np.max(np.abs(v))


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_semigroup_property(kind):
    rng = np.random.default_rng(7)
    if kind == "diagonal":
        A = diagonal_operator(rng.uniform(-3, 0, 8) + 1j * rng.uniform(-2, 2, 8))
    else:
        m = rng.standard_normal((5, 5))
        A = dense_operator(m / np.linalg.norm(m, 1))
    n = A.data.shape[0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tau = 0.4
    once = apply(make_propagator(A, tau), v)
    twice = apply(make_propagator(A, tau), once)
    direct = apply(make_propagator(A, 2 * tau), v)
    assert np.max(np.abs(twice - direct)) / np.max(np.abs(direct)) <= 1e-12


def test_block_diagonal_expm_is_blockwise():
    rng = np.random.default_rng(11)
    b1 = rng.standard_normal((2, 2))
    b2 = rng.standard_normal((2, 2))
    m = np.zeros((4, 4))
    m[:2, :2] = b1
    m[2:, 2:] = b2
    full = expm(m)
    assert np.allclose(full[:2, :2], expm(b1), rtol=1e-13, atol=1e-14)
    assert np.allclose(full[2:, 2:], expm(b2), rtol=1e-13, atol=1e-14)
    assert np.max(np.abs(full[:2, 2:])) <= 1e-14
    assert np.max(np.abs(full[2:, :2])) <= 1e-14


def test_symmetric_eigenvector_scaling():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((6, 6))
    sym = 0.5 * (m + m.T)
    lam, vecs = np.linalg.eigh(sym)
    e = make_propagator(dense_operator(sym), 0.7)
    for k in (0, 3, 5):
        got = apply(e, vecs[:, k])
        want = np.exp(0.7 * lam[k]) * vecs[:, k]
        assert np.max(np.abs(got - want)) <= 1e-10 * abs(np.exp(0.7 * lam[k]))


def test_navier_stokes_mode_damping():
    from slrk import navier_stokes as ns
    grid = ns.make_grid(32)
    A = ns.linear_operator(grid, 1e-2)
    tau = 0.5
    e = make_propagator(A, tau)
    state = np.zeros((32, 32), dtype=complex)
    state[4, 4] = 1.0
    out = apply(e, state)
    assert np.isclose(out[4, 4], np.exp(-1e-2 * tau * (16 + 16)), rtol=1e-14)
    assert np.count_nonzero(out) == 1


def test_dimension_mismatch_errors():
    e = make_propagator(diagonal_operator(np.zeros(4)), 1.0)
    with pytest.raises(ValueError):
        apply(e, np.zeros(5))
    ed = make_propagator(dense_operator(np.eye(3)), 1.0)
    with pytest.raises(ValueError):
        apply(ed, np.zeros(4))


def test_operator_validation():
    with pytest.raises(ValueError):
        dense_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        diagonal_operator(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        make_propagator(diagonal_operator(np.zeros(2)), float("nan"))
