"""Propagators: elementwise exponentials and the dense matrix exponential."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from slrk.linop import (
    _PADE13,
    _THETA13,
    LinearOperator,
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


def reference_expm(m):
    """Expression form of expm: scaled copies, np.eye and a temporary per term.

    The same scaling rule, products, solve and squarings as expm, summed
    left to right as written, so expm must reproduce it bit for bit.
    """
    m = np.asarray(m)
    n = m.shape[0]
    m = m.astype(np.result_type(m, 1.0), copy=False)
    norm = np.linalg.norm(m, 1) if n else 0.0
    presquarings = max(0, int(np.frexp(norm)[1]) - 100)
    if presquarings:
        m = m * 2.0 ** -presquarings
    a2 = m @ m
    a4 = a2 @ a2
    a6 = a4 @ a2
    d1, d4, d6 = (np.linalg.norm(p, 1) if n else 0.0 for p in (m, a4, a6))
    alpha = min(d1, max(d4 ** 0.25, (d4 * d6) ** 0.1))
    squarings = int(np.ceil(np.log2(alpha / _THETA13))) if alpha > _THETA13 else 0
    if squarings:
        m = m * 2.0 ** -squarings
        a2, a4, a6 = (p * 2.0 ** (-k * squarings) for k, p in ((2, a2), (4, a4), (6, a6)))
    ident = np.eye(n, dtype=m.dtype if np.iscomplexobj(m) else float)
    b = _PADE13
    u = m @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u).T
    for _ in range(presquarings + squarings):
        r = r @ r
    return r.T


def random_dense(seed, n, norm, dtype=float):
    """A random n x n matrix of the given dtype, scaled to the given 1-norm."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)).astype(dtype)
    if dtype is complex:
        m += 1j * rng.standard_normal((n, n))
    return m * (norm / np.linalg.norm(m, 1))


RANDOM_DENSE = {f"real-{norm:g}": random_dense(40, 40, norm) for norm in (1e-3, 0.5, 3, 40, 1e3)}
ORACLE_CASES = {
    **RANDOM_DENSE,
    "complex": random_dense(30, 30, 20.0, complex),
    **{f"non-normal-{b:g}": np.array([[-1.0, b], [0.0, -20.0]]) for b in (1e3, 1e6, 1e8, 1e10)},
    # strictly upper triangular, so exp(m) is finite although |m| > 2**100 presquares it
    "presquared": np.triu(random_dense(5, 6, 2.0 ** 102), 1),
    "1x1": np.array([[-2.5]]),
    "0x0": np.zeros((0, 0)),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_expm_equals_expression_form(name):
    m = ORACLE_CASES[name]
    before = m.copy()
    got = expm(m)
    assert np.array_equal(m, before)  # expm works in a copy, never the caller's array
    want = reference_expm(m)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if name == "presquared":
        assert np.linalg.norm(m, 1) > 2.0 ** 100 and np.all(np.isfinite(got))
    if name in RANDOM_DENSE:
        # Bytes too: b1 and b0 are added on the diagonal only, where the expression
        # form added b * I, so a zero could differ only in sign, and only off the
        # diagonal (the form's -0.0 + 0.0 is +0.0); these matrices have none.
        assert got.tobytes() == want.tobytes()


def test_dense_propagator_peak_memory():
    # make_propagator forms tau*A once and expm works in it and five more N x N
    # arrays. LAPACK's two copies of the operands in the solve are allocated
    # outside numpy and are not traced.
    n = 256
    rng = np.random.default_rng(256)
    lam = -(10.0 ** rng.uniform(-2.0, 3.0, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = dense_operator((q * lam) @ q.T)
    tau = 0.05
    assert np.max(np.abs(tau * lam)) > _THETA13  # the squaring loop runs
    tracemalloc.start()
    try:
        e = make_propagator(A, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.data.T.flags.c_contiguous
    assert peak <= 6.5 * n * n * 8


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
    assert np.array_equal(m, before)  # expm works in a copy, never the caller's array
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


@pytest.mark.parametrize("operator, state, message", [
    (diagonal_operator(np.zeros(4)), np.zeros(5),
     "state shape (5,) does not fit the diagonal operator (4,)"),
    (diagonal_operator(np.zeros((4, 5))), np.zeros((3, 5, 4)),
     "state shape (3, 5, 4) does not fit the diagonal operator (4, 5)"),
    (diagonal_operator(np.zeros((4, 5))), np.zeros(5),
     "state shape (5,) does not fit the diagonal operator (4, 5)"),
    (dense_operator(np.eye(3)), np.zeros(4),
     "state shape (4,) does not fit the dense operator (3, 3)"),
    (dense_operator(np.eye(3)), np.zeros((2, 4)),
     "state shape (2, 4) does not fit the dense operator (3, 3)"),
    (dense_operator(np.eye(3)), np.zeros(()),
     "state shape () does not fit the dense operator (3, 3)"),
])
def test_apply_names_the_state_and_operator_shapes(operator, state, message):
    # One check for both kinds: the state's trailing axes must be one state.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply(make_propagator(operator, 1.0), state)


def test_apply_to_a_stack_of_states():
    # Leading dimensions stack states; out may be the stack itself.
    rng = np.random.default_rng(9)
    e = make_propagator(diagonal_operator(-rng.uniform(0, 3, (4, 5))), 0.5)
    stack = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    want = np.stack([apply(e, v) for v in stack])
    assert np.array_equal(apply(e, stack), want)
    apply(e, stack, out=stack)
    assert np.array_equal(stack, want)
    with pytest.raises(ValueError):
        apply(e, np.zeros((3, 5, 4)))
    ed = make_propagator(dense_operator(rng.standard_normal((6, 6)) - 6 * np.eye(6)), 0.3)
    vs = rng.standard_normal((4, 6))
    want = np.stack([apply(ed, v) for v in vs])  # one matrix-vector product each
    got = apply(ed, vs)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    apply(ed, vs, out=vs)
    assert np.array_equal(vs, got)
    with pytest.raises(ValueError):
        apply(ed, np.zeros((4, 7)))


@pytest.mark.parametrize("scale, squared", [(40.0, True), (0.1, False)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_propagator_is_stored_column_major(scale, squared, dtype):
    # apply's v @ E.T then reads a C-contiguous matrix, squared by expm or not.
    rng = np.random.default_rng(23)
    m = rng.standard_normal((48, 48)).astype(dtype)
    if dtype is complex:
        m += 1j * rng.standard_normal((48, 48))
    m *= scale / np.linalg.norm(m, 1)
    assert (scale > 5.371920351148152) == squared  # theta_13: beyond it expm squares
    e = make_propagator(dense_operator(m), 1.0)
    assert e.data.dtype == dtype and e.data.T.flags.c_contiguous
    assert np.max(np.abs(e.data - taylor_expm(m, 200))) <= 1e-12 * np.max(np.abs(e.data))


def test_unknown_operator_kind_is_rejected():
    with pytest.raises(ValueError, match=r"^unknown operator kind 'sparse'$"):
        LinearOperator("sparse", np.eye(2))


def test_operator_validation():
    with pytest.raises(ValueError):
        dense_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        diagonal_operator(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        make_propagator(diagonal_operator(np.zeros(2)), float("nan"))
