"""Steppers: classical RK, general Lawson oracle, simple Lawson equivalence."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import slrk.integrator as integrator
from slrk import navier_stokes as ns
from slrk.integrator import (
    NonFiniteStateError,
    OdeProblem,
    integrate,
    lawson_step_general,
    make_plan,
    slrk_step,
    trajectory,
)
from slrk.linop import dense_operator, diagonal_operator
from slrk.tableau import (
    Tableau,
    euler_tableau,
    heun3_tableau,
    rk4_tableau,
    rk6_tableau,
)

RK4_POLY = [1, 1, 1 / 2, 1 / 6, 1 / 24]
RK6_POLY = [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 720, 29 / 178200]

CONFORMING = [rk4_tableau, heun3_tableau, rk6_tableau]


def scalar_problem(lam, A=None):
    return OdeProblem(g=lambda u: lam * u, A=A)


def polyval(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def test_rk_step_zero_rhs_is_identity():
    plan = make_plan(OdeProblem(g=lambda u: 0 * u, A=None), rk4_tableau(), 0.2)
    u = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(slrk_step(plan, u), u)


@pytest.mark.parametrize("z", [0.3, -1.0, 0.4 + 0.9j, -2.0 + 0.5j])
def test_rk4_scalar_amplification(z):
    plan = make_plan(scalar_problem(z), rk4_tableau(), 1.0)
    got = slrk_step(plan, np.ones(1, dtype=complex))[0]
    want = polyval(RK4_POLY, z)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("z", [0.5, -1.5, 1.1 - 0.7j, -0.8 + 1.2j])
def test_rk6_scalar_amplification_includes_z7_term(z):
    plan = make_plan(scalar_problem(z), rk6_tableau(), 1.0)
    got = slrk_step(plan, np.ones(1, dtype=complex))[0]
    want = polyval(RK6_POLY, z)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    # the step really carries the degree-7 tail, not the exponential
    degree6 = polyval(RK6_POLY[:7], z)
    assert abs(got - degree6) > 0 or z == 0


def test_lawson_general_zero_rhs_is_exact_exponential():
    rng = np.random.default_rng(2)
    lam = rng.uniform(-40, 0, 6) + 1j * rng.uniform(-5, 5, 6)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h = 0.25
    got = lawson_step_general(rk6_tableau(), lambda v: 0 * v,
                              diagonal_operator(lam), u, h)
    want = np.exp(h * lam) * u
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_lawson_general_reduces_to_rk_with_zero_operator():
    rng = np.random.default_rng(4)
    u = rng.standard_normal(5)
    g = lambda v: np.sin(v)
    got = lawson_step_general(rk4_tableau(), g, diagonal_operator(np.zeros(5)), u, 0.3)
    plan = make_plan(OdeProblem(g=g, A=None), rk4_tableau(), 0.3)
    want = slrk_step(plan, u)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("make", CONFORMING)
def test_slrk_equals_general_lawson_oracle(make):
    # The core equivalence: one propagator with gridded abscissae reproduces
    # the stage-pair exponentials of the general process.
    tab = make()
    rng = np.random.default_rng(100 + tab.s)  # fixed per tableau, so a failure replays
    for _ in range(10):
        n = 8
        lam = rng.uniform(-50, 0, n) + 1j * rng.uniform(-8, 8, n)
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = lambda v: alpha * v * v + 0.2 * np.roll(v, 1)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        plan = make_plan(OdeProblem(g=g, A=diagonal_operator(lam)), tab, 0.1)
        fast = slrk_step(plan, u)
        ref = lawson_step_general(tab, g, diagonal_operator(lam), u, 0.1)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("make", CONFORMING)
def test_slrk_equals_general_lawson_oracle_dense(make):
    # Non-normal dense A: the oracle takes expm at every distinct exponent,
    # the fast step applies powers of the one exp(delta_c*h*A).
    tab = make()
    rng = np.random.default_rng(tab.s)
    n = 12
    for _ in range(5):
        A = dense_operator(3 * rng.standard_normal((n, n)) - 10 * np.eye(n))
        alpha = rng.standard_normal(n)
        g = lambda v: alpha * v * v + 0.2 * np.roll(v, 1)
        u = rng.standard_normal(n)
        fast = slrk_step(make_plan(OdeProblem(g=g, A=A), tab, 0.1), u)
        ref = lawson_step_general(tab, g, A, u, 0.1)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("make", [rk4_tableau, rk6_tableau])
def test_slrk_equals_eigenbasis_oracle_dense_stiff(make):
    # The benchmark's dense_stiff check at N=64: symmetric A with a spectrum
    # log-uniform in [-1e3, -1e-2], so exp(delta_c*h*A) needs squarings. The
    # oracle steps in A's eigenbasis, where A is diagonal and no expm is taken.
    tab = make()
    rng = np.random.default_rng(64)
    n = 64
    lam = -(10.0 ** rng.uniform(-2.0, 3.0, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = lambda v: v - v ** 3
    u = 0.5 * rng.standard_normal(n)
    A = dense_operator((q * lam) @ q.T)
    fast = slrk_step(make_plan(OdeProblem(g=g, A=A), tab, 0.05), u)
    ref = q @ lawson_step_general(tab, lambda v: q.T @ g(q @ v), diagonal_operator(lam),
                                  q.T @ u, 0.05)
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_slrk_with_zero_operator_matches_rk_step():
    g = lambda v: np.cos(v)
    u = np.linspace(-1, 1, 7)
    plan0 = make_plan(OdeProblem(g=g, A=diagonal_operator(np.zeros(7))), rk6_tableau(), 0.2)
    plan = make_plan(OdeProblem(g=g, A=None), rk6_tableau(), 0.2)
    got = slrk_step(plan0, u.astype(complex))
    want = slrk_step(plan, u)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def count_propagator_applications(plan, u):
    """Run one step with apply() instrumented; returns (apply calls, states applied to).

    slrk_step applies the propagator to the live rows of its stack in one
    call, so each call's states are the rows of its argument.
    """
    real_apply = integrator.apply
    calls = []

    def tracking_apply(e, v, **kwargs):
        calls.append(np.shape(v)[0])
        return real_apply(e, v, **kwargs)

    integrator.apply = tracking_apply
    try:
        slrk_step(plan, u)
    finally:
        integrator.apply = real_apply
    return len(calls), sum(calls)


def test_rk6_propagator_application_count():
    # Six increment events (stages 2,4,5,6,7,8), one call each: 6 applications
    # to u plus sum of (j-1) slope applications = 1+3+4+5+6+7 = 26; 32 total.
    tab = rk6_tableau()
    plan = make_plan(OdeProblem(g=lambda v: v, A=diagonal_operator(np.array([-1.0]))),
                     tab, 0.1)
    assert plan.shifts == (0, 1, 0, 1, 1, 1, 1, 1, 0)
    calls, total = count_propagator_applications(plan, np.ones(1, dtype=complex))
    assert (calls, total) == (6, 6 + 26)


def test_rk4_propagator_application_count_matches_unrolled_listing():
    # Two blocks: after k1 (u,k1) and after k3 (u,k1,k2,k3): 2 + 4 = 6.
    plan = make_plan(OdeProblem(g=lambda v: v, A=diagonal_operator(np.array([-1.0]))),
                     rk4_tableau(), 0.1)
    assert plan.shifts == (0, 1, 0, 1, 0)
    calls, total = count_propagator_applications(plan, np.ones(1, dtype=complex))
    assert (calls, total) == (2, 2 + 4)


def test_heun3_trailing_steps():
    # c = (0, 1/3, 2/3) on the 1/3 grid: one trailing grid step before the b row.
    plan = make_plan(OdeProblem(g=lambda v: v, A=diagonal_operator(np.array([-1.0]))),
                     heun3_tableau(), 0.1)
    assert plan.shifts == (0, 1, 1, 1)
    calls, total = count_propagator_applications(plan, np.ones(1, dtype=complex))
    # events at stages 2 and 3 (1+1 u, 1+2 k) plus trailing (1 u, 3 k)
    assert (calls, total) == (3, 2 + 3 + 4)


def per_array_step(plan, u):
    """The 0.10.0 slrk_step, one array per state and slope: the stacked step's reference."""
    e, s = plan.propagator, len(plan.shifts) - 1
    k = []
    for j, (shift, row) in enumerate(zip(plan.shifts, plan.weights)):
        for _ in range(shift):
            if e.kind == "diagonal":
                u, k = e.data * u, [e.data * km for km in k]
            else:
                u, k = e.data @ u, [e.data @ km for km in k]
        stage = u
        for w, km in zip(row, k):
            if w != 0.0:
                stage = stage + w * km
        if j < s:
            k.append(plan.h * np.asarray(plan.problem.g(stage)))
    return stage


def per_array_run(plan, u, n_steps):
    for _ in range(n_steps):
        u = per_array_step(plan, u)
    return u


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("make", [rk4_tableau, rk6_tableau])
def test_stacked_step_equals_per_array_step_bit_for_bit_on_navier_stokes(n, make):
    grid = ns.make_grid(n)
    plan = make_plan(ns.make_problem(grid, 1e-2), make(), 0.01)
    w0 = ns.initial_condition(grid)
    assert np.array_equal(integrate(plan, w0, 20), per_array_run(plan, w0, 20))


@pytest.mark.parametrize("make", CONFORMING)
def test_stacked_step_equals_per_array_step_bit_for_bit_on_a_complex_problem(make):
    rng = np.random.default_rng(7)
    lam = rng.uniform(-50, 0, 8) + 1j * rng.uniform(-8, 8, 8)
    alpha = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    g = lambda v: alpha * v * v + 0.2 * np.roll(v, 1)
    u = 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    plan = make_plan(OdeProblem(g=g, A=diagonal_operator(lam)), make(), 0.1)
    assert np.array_equal(integrate(plan, u, 20), per_array_run(plan, u, 20))


@pytest.mark.parametrize("make", CONFORMING)
def test_stacked_step_matches_per_array_step_on_dense_a(make):
    # One matrix product per shift sums in another order than one per state,
    # so the bits may differ; the difference stays at rounding level.
    rng = np.random.default_rng(64)
    n = 64
    lam = -(10.0 ** rng.uniform(-2.0, 3.0, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    nonnormal = 3 * rng.standard_normal((n, n)) / np.sqrt(n) - 10 * np.eye(n)
    u = 0.5 * rng.standard_normal(n)
    for matrix in ((q * lam) @ q.T, nonnormal):
        plan = make_plan(OdeProblem(g=lambda v: v - v ** 3, A=dense_operator(matrix)),
                         make(), 0.05)
        got, want = integrate(plan, u, 20), per_array_run(plan, u, 20)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_stacked_step_keeps_no_history_and_leaves_its_input_alone():
    grid = ns.make_grid(64)
    w1 = ns.initial_condition(grid)
    w2 = 0.5 * np.roll(w1, 3, axis=0)
    keep1, keep2 = w1.copy(), w2.copy()
    dense = dense_operator(-np.eye(8) + 0.1 * np.arange(64.0).reshape(8, 8) / 64)
    cases = [(make_plan(ns.make_problem(grid, 1e-2), rk6_tableau(), 0.01), w1, w2),
             (make_plan(OdeProblem(g=lambda v: v - v ** 3, A=dense), rk6_tableau(), 0.05),
              np.linspace(-1.0, 1.0, 8), np.linspace(0.5, -0.5, 8))]
    for plan, a, b in cases:
        first = slrk_step(plan, a)
        first_copy = first.copy()
        second = slrk_step(plan, b)
        third = slrk_step(plan, a)
        assert np.array_equal(first, third)
        assert np.array_equal(first, first_copy)  # not overwritten by the later steps
        assert not np.array_equal(second, first)
        assert first is not third and not np.shares_memory(first, third)
    assert np.array_equal(w1, keep1) and np.array_equal(w2, keep2)


def test_one_plan_steps_a_float_state_then_a_complex_one():
    lam = np.array([-3.0, -0.5, 0.0, -20.0])
    plan = make_plan(OdeProblem(g=lambda v: np.cos(v) - 0.1 * v * v,
                                A=diagonal_operator(lam)), rk6_tableau(), 0.1)
    real = np.array([0.3, -1.0, 2.0, 0.7])
    cplx = real + 1j * np.array([0.2, 0.0, -0.4, 1.0])
    for u in (real, cplx, real):
        got = integrate(plan, u, 5)
        assert got.dtype == u.dtype
        assert np.array_equal(got, per_array_run(plan, u, 5))


def test_complex_state_on_a_real_dense_operator_reads_a_column_major_propagator():
    rng = np.random.default_rng(31)
    A = dense_operator(rng.standard_normal((16, 16)) - 4.0 * np.eye(16))
    plan = make_plan(OdeProblem(g=lambda v: -0.1 * v, A=A), rk4_tableau(), 0.1)
    assert plan.propagator.data.dtype == float
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    slrk_step(plan, u)
    e, _ = integrator._workspace(plan, u)
    assert e.data.dtype == complex and e.data.T.flags.c_contiguous


@pytest.mark.parametrize("kind, shape, state_shape", [
    ("diagonal", (6, 6), (2, 6, 6)),
    ("diagonal", (6, 6), (6,)),
    ("dense", (6, 6), (2, 6)),
    ("dense", (6, 6), (7,)),
])
def test_plan_rejects_a_state_that_does_not_fit_the_operator(kind, shape, state_shape):
    # A stacked application broadcasts, so without this check a (2, n, n)
    # state on an (n, n) spectrum would step silently.
    A = diagonal_operator(-np.ones(shape)) if kind == "diagonal" else dense_operator(-np.eye(6))
    plan = make_plan(OdeProblem(g=lambda v: v, A=A), rk4_tableau(), 0.1)
    with pytest.raises(ValueError) as err:
        slrk_step(plan, np.ones(state_shape))
    message = str(err.value)
    assert str(state_shape) in message and str(shape) in message and "\n" not in message


@pytest.mark.parametrize("A, name", [(np.eye(2), "ndarray"), ([[-1.0]], "list")])
def test_plan_rejects_an_operator_that_is_not_a_linear_operator(A, name):
    # Checked when the plan is built: an ndarray would fail inside make_propagator with a TypeError.
    message = (r"^A must be a LinearOperator \(diagonal_operator or dense_operator\), "
               f"got {name}$")
    with pytest.raises(ValueError, match=message):
        make_plan(OdeProblem(g=lambda v: v, A=A), rk4_tableau(), 0.1)


def test_warm_step_allocates_little_beyond_its_result():
    # The stack, the stage and the scratch term are allocated with the plan's
    # workspace on the first step; a later step allocates its result, the
    # right-hand side's output and that function's own temporaries.
    grid = ns.make_grid(128)
    plan = make_plan(ns.make_problem(grid, 1e-2), rk6_tableau(), 0.01)
    u = slrk_step(plan, ns.initial_condition(grid))
    tracemalloc.start()
    try:
        slrk_step(plan, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * u.nbytes


def test_plan_without_operator_has_no_shifts():
    plan = make_plan(OdeProblem(g=lambda v: v, A=None), rk6_tableau(), 0.1)
    assert plan.propagator is None
    assert plan.shifts == (0,) * 9
    assert plan.weights.shape == (9, 8)


def test_two_rate_scalar_amplification():
    poly = {"rk4": RK4_POLY, "rk6": RK6_POLY}
    for make in (rk4_tableau, rk6_tableau):
        tab = make()
        for z1 in (0.5 + 1.0j, -1.7, 1.9j):
            for z2 in (-15.0, -4.0 + 2.0j, 0.0):
                prob = OdeProblem(g=lambda v: z1 * v,
                                  A=diagonal_operator(np.array([z2], dtype=complex)))
                plan = make_plan(prob, tab, 1.0)
                got = slrk_step(plan, np.ones(1, dtype=complex))[0]
                want = np.exp(z2) * polyval(poly[tab.name], z1)
                assert abs(got - want) <= 1e-13 * abs(want)


def test_purely_imaginary_stiff_rate_preserves_magnitude():
    z1 = -1.2 + 0.4j
    plan_ref = make_plan(scalar_problem(z1), rk6_tableau(), 1.0)
    mag_ref = abs(slrk_step(plan_ref, np.ones(1, dtype=complex))[0])
    for y in (0.5, 3.0, 17.0):
        prob = scalar_problem(z1, A=diagonal_operator(np.array([1j * y])))
        got = slrk_step(make_plan(prob, rk6_tableau(), 1.0), np.ones(1, dtype=complex))
        assert abs(abs(got[0]) - mag_ref) <= 1e-13 * mag_ref


def test_nonconforming_tableau_with_operator_rejected():
    t = Tableau(
        ((Fraction(0), 0, 0), (Fraction(1, 4), 0, 0), (Fraction(1, 2), Fraction(1, 2), 0)),
        (Fraction(1, 2), 0, Fraction(1, 2)),
    )
    A = diagonal_operator(np.array([-1.0]))
    with pytest.raises(ValueError):
        make_plan(OdeProblem(g=lambda v: v, A=A), t, 0.1)
    # without the operator the same tableau steps fine
    plan = make_plan(OdeProblem(g=lambda v: v, A=None), t, 0.1)
    slrk_step(plan, np.ones(1))


def test_lawson_euler_equals_general_lawson_oracle():
    # Forward Euler's walk (0, 1) is one grid step: u <- E(u + h*g(u)) with E = exp(h*A).
    tab = euler_tableau()
    rng = np.random.default_rng(1)
    n = 12
    lam = rng.uniform(-50, 0, n) + 1j * rng.uniform(-8, 8, n)
    alpha = rng.standard_normal(n)
    g = lambda v: alpha * v * v + 0.2 * np.roll(v, 1)
    cases = [(diagonal_operator(lam), rng.standard_normal(n) + 1j * rng.standard_normal(n)),
             (dense_operator(3 * rng.standard_normal((n, n)) - 10 * np.eye(n)),
              rng.standard_normal(n))]
    for A, u in cases:
        plan = make_plan(OdeProblem(g=g, A=A), tab, 0.1)
        assert plan.shifts == (0, 1)
        fast = slrk_step(plan, u)
        ref = lawson_step_general(tab, g, A, u, 0.1)
        assert np.max(np.abs(fast - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_lawson_euler_two_rate_amplification():
    # Criterion 4's 100 (z1, z2) pairs, for the scheme whose Phi(z1) is 1 + z1.
    z1s = [r * np.exp(1j * th) for r in (0.4, 0.8, 1.2, 1.6, 2.0)
           for th in (np.pi / 3, 5 * np.pi / 6)]
    z2s = [complex(re, im) for re in (0.0, -5.0, -10.0, -15.0, -20.0) for im in (0.0, 3.0)]
    for z1 in z1s:
        for z2 in z2s:
            prob = OdeProblem(g=lambda v: z1 * v, A=diagonal_operator(np.array([z2])))
            got = slrk_step(make_plan(prob, euler_tableau(), 1.0), np.ones(1, dtype=complex))[0]
            want = np.exp(z2) * (1 + z1)
            assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("h", [-0.1, 0.0, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("with_operator", [True, False])
def test_make_plan_rejects_bad_step_size(h, with_operator):
    # Without the check, h = -0.1 at lambda = -1e3 builds a propagator of ~5e21.
    A = diagonal_operator(np.array([-1e3])) if with_operator else None
    with pytest.raises(ValueError, match="step size h must be finite and positive"):
        make_plan(OdeProblem(g=lambda v: v, A=A), rk6_tableau(), h)


def test_make_plan_rejects_overflowing_propagator():
    # rk4 at h = 1 needs exp(0.5 * 1e4), which overflows.
    A = diagonal_operator(np.array([1e4, -1.0]))
    with pytest.raises(ValueError, match="overflows"):
        make_plan(OdeProblem(g=lambda v: v, A=A), rk4_tableau(), 1.0)


def test_linear_diagonal_integration_is_exact():
    rng = np.random.default_rng(6)
    lam = rng.uniform(-30, 0, 8) + 1j * rng.uniform(-5, 5, 8)
    u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    h, n_steps = 0.05, 200
    for make in CONFORMING:
        prob = OdeProblem(g=lambda v: 0 * v, A=diagonal_operator(lam))
        plan = make_plan(prob, make(), h)
        got = integrate(plan, u0, n_steps)
        want = np.exp(lam * h * n_steps) * u0
        assert np.max(np.abs(got - want) / np.abs(want)) <= n_steps * 1e-15


def convergence_error(tab, n_steps, t_final=2.0):
    # smooth weakly nonlinear oscillator; tight-step run is the reference
    prob = OdeProblem(g=lambda v: 1j * v + 0.05 * v * v, A=None)
    ref = integrate(make_plan(prob, tab, t_final / 8192), np.array([1.0 + 0j]), 8192)
    u = integrate(make_plan(prob, tab, t_final / n_steps), np.array([1.0 + 0j]), n_steps)
    return abs(u[0] - ref[0])


def test_rk4_halving_reduces_error_sixteenfold():
    e1 = convergence_error(rk4_tableau(), 16)
    e2 = convergence_error(rk4_tableau(), 32)
    assert 12.0 <= e1 / e2 <= 20.0


def test_rk6_halving_reduces_error_sixtyfourfold():
    e1 = convergence_error(rk6_tableau(), 12)
    e2 = convergence_error(rk6_tableau(), 24)
    assert 50.0 <= e1 / e2 <= 80.0


def test_integrate_is_repeated_slrk_step():
    calls = []

    def g(v):
        calls.append(v)
        return -v

    plan = make_plan(OdeProblem(g=g, A=None), rk4_tableau(), 0.1)
    u = np.ones(2)
    chained = []
    for n_steps in range(1, 6):
        u = slrk_step(plan, u)
        chained.append(u)
        assert np.array_equal(integrate(plan, np.ones(2), n_steps), u)
    # trajectory yields (k, the state of k chained steps), each bit for bit
    yielded = list(trajectory(plan, np.ones(2), 5))
    assert [k for k, _ in yielded] == [1, 2, 3, 4, 5]
    for (_, state), u in zip(yielded, chained):
        assert np.array_equal(state, u)
    # it steps only as far as it is drained: 2 steps call rk4's g 2 * 4 times
    calls.clear()
    for k, _ in trajectory(plan, np.ones(2), 5):
        if k == 2:
            break
    assert len(calls) == 2 * 4
    with pytest.raises(ValueError):
        integrate(plan, np.ones(2), 0)


def test_non_finite_rhs_aborts_with_diagnostic():
    prob = OdeProblem(g=lambda v: v / 0.0, A=None)
    plan = make_plan(prob, rk4_tableau(), 0.1)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match="stage 1"):
            slrk_step(plan, np.ones(1))
    # integrate names the step that failed and the time it was to reach:
    # rk4 calls g 4 times a step, so call 10 is stage 2 of step 3.
    calls = []

    def g(v):
        calls.append(v)
        return v / 0.0 if len(calls) == 10 else -v

    plan = make_plan(OdeProblem(g=g, A=diagonal_operator(np.array([-1.0]))),
                     rk4_tableau(), 0.1)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError,
                           match=r"^non-finite slope at stage 2 in step 3, t = 0\.3$"):
            integrate(plan, np.ones(1), 5)
    # trajectory yields steps 1 and 2, then raises the same located error,
    # chained from slrk_step's
    calls.clear()
    steps = trajectory(plan, np.ones(1), 5)
    assert [next(steps)[0], next(steps)[0]] == [1, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError,
                           match=r"^non-finite slope at stage 2 in step 3, t = 0\.3$") as info:
            next(steps)
    assert isinstance(info.value.__cause__, NonFiniteStateError)
    assert str(info.value.__cause__) == "non-finite slope at stage 2"
    # every slope is finite, but their weighted sum overflows
    plan = make_plan(OdeProblem(g=lambda v: np.full_like(v, 1e308), A=None), rk4_tableau(), 1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteStateError, match="^non-finite state after step$"):
            slrk_step(plan, np.array([1e308]))
