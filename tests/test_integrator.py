"""Steppers: classical RK, general Lawson oracle, simple Lawson equivalence."""

from fractions import Fraction

import numpy as np
import pytest

import slrk.integrator as integrator
from slrk.integrator import (
    NonFiniteStateError,
    OdeProblem,
    integrate,
    lawson_step_general,
    make_plan,
    slrk_step,
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
    """Run one step with apply() instrumented; returns the call count."""
    real_apply = integrator.apply
    calls = []

    def tracking_apply(e, v):
        calls.append(v)
        return real_apply(e, v)

    integrator.apply = tracking_apply
    try:
        slrk_step(plan, u)
    finally:
        integrator.apply = real_apply
    return len(calls)


def test_rk6_propagator_application_count():
    # Six increment events (stages 2,4,5,6,7,8): 6 applications to u plus
    # sum of (j-1) slope applications = 1+3+4+5+6+7 = 26; 32 total.
    tab = rk6_tableau()
    plan = make_plan(OdeProblem(g=lambda v: v, A=diagonal_operator(np.array([-1.0]))),
                     tab, 0.1)
    assert plan.shifts == (0, 1, 0, 1, 1, 1, 1, 1, 0)
    total = count_propagator_applications(plan, np.ones(1, dtype=complex))
    assert total == 6 + 26


def test_rk4_propagator_application_count_matches_unrolled_listing():
    # Two blocks: after k1 (u,k1) and after k3 (u,k1,k2,k3): 2 + 4 = 6.
    plan = make_plan(OdeProblem(g=lambda v: v, A=diagonal_operator(np.array([-1.0]))),
                     rk4_tableau(), 0.1)
    assert plan.shifts == (0, 1, 0, 1, 0)
    total = count_propagator_applications(plan, np.ones(1, dtype=complex))
    assert total == 2 + 4


def test_heun3_trailing_steps():
    # c = (0, 1/3, 2/3) on the 1/3 grid: one trailing grid step before the b row.
    plan = make_plan(OdeProblem(g=lambda v: v, A=diagonal_operator(np.array([-1.0]))),
                     heun3_tableau(), 0.1)
    assert plan.shifts == (0, 1, 1, 1)
    total = count_propagator_applications(plan, np.ones(1, dtype=complex))
    # events at stages 2 and 3 (1+1 u, 1+2 k) plus trailing (1 u, 3 k)
    assert total == 2 + 3 + 4


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


def test_degenerate_spacing_with_operator_rejected():
    A = diagonal_operator(np.array([-1.0]))
    with pytest.raises(ValueError):
        make_plan(OdeProblem(g=lambda v: v, A=A), euler_tableau(), 0.1)


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
    prob = OdeProblem(g=lambda v: -v, A=None)
    plan = make_plan(prob, rk4_tableau(), 0.1)
    u = np.ones(2)
    for n_steps in range(1, 6):
        u = slrk_step(plan, u)
        assert np.array_equal(integrate(plan, np.ones(2), n_steps), u)
    with pytest.raises(ValueError):
        integrate(plan, np.ones(2), 0)


def test_non_finite_rhs_aborts_with_diagnostic():
    prob = OdeProblem(g=lambda v: v / 0.0, A=None)
    plan = make_plan(prob, rk4_tableau(), 0.1)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError):
            slrk_step(plan, np.ones(1))
