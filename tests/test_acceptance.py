"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The slow entries are the desk-scale convergence study
(criterion 5, ~1 min) and the 2x200-seed search regression (criterion 6,
well under its 10-minute budget).
"""

import time
from fractions import Fraction

import numpy as np

from slrk.integrator import OdeProblem, integrate, lawson_step_general, make_plan, slrk_step
from slrk.linop import diagonal_operator
from slrk.navier_stokes import convergence_study, make_grid
from slrk.order_conditions import order_residuals
from slrk.search import (
    FloatTableau,
    SearchConfig,
    multi_start_search,
    rationalize,
    uniform_c_pattern,
)
from slrk.stability import real_axis_boundary, stability_polynomial
from slrk.tableau import heun3_tableau, rk4_tableau, rk6_tableau


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_exact_order_verification():
    t0 = time.perf_counter()
    conditions = order_residuals(rk6_tableau(), 6)
    assert len(conditions) == 37
    assert all(c.residual == 0 for c in conditions)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    rk4_at_4 = order_residuals(rk4_tableau(), 4)
    assert all(c.residual == 0 for c in rk4_at_4)
    rk4_at_5 = order_residuals(rk4_tableau(), 5)
    assert any(c.residual != 0 for c in rk4_at_5)
    report(1, f"37/37 exact zeros in {elapsed:.3f}s; rk4 exact at 4, fails at 5")


def test_criterion_2_stability_polynomial_exact():
    phi = stability_polynomial(rk6_tableau())
    expected = (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6),
                Fraction(1, 24), Fraction(1, 120), Fraction(1, 720),
                Fraction(29, 178200))
    assert phi.coeffs == expected
    report(2, "rk6 coefficients equal the stated rationals exactly")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2026)
    h = 0.1
    worst = 0.0
    for make in (rk4_tableau, heun3_tableau, rk6_tableau):
        tab = make()
        for _ in range(50):
            n = rng.integers(4, 16)
            lam = rng.uniform(-50, 0, n) + 1j * rng.uniform(-10, 10, n)
            alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = lambda v: alpha * v * v + 0.2 * np.roll(v, 1)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            A = diagonal_operator(lam)
            plan = make_plan(OdeProblem(g=g, A=A), tab, h)
            fast = slrk_step(plan, u)
            ref = lawson_step_general(tab, g, A, u, h)
            rel = float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))
            worst = max(worst, rel)
            assert rel <= 1e-12
    report(3, f"slrk_step vs general Lawson on 3x50 stiff problems, worst rel {worst:.2e}")


def test_criterion_4_two_rate_amplification_grid():
    radii = (0.4, 0.8, 1.2, 1.6, 2.0)
    angles = (np.pi / 3, 5 * np.pi / 6)
    z1s = [r * np.exp(1j * th) for r in radii for th in angles]
    z2s = [complex(re, im) for re in (0.0, -5.0, -10.0, -15.0, -20.0)
           for im in (0.0, 3.0)]
    assert len(z1s) * len(z2s) == 100
    worst = 0.0
    for make in (rk4_tableau, rk6_tableau):
        tab = make()
        phi = stability_polynomial(tab)
        for z1 in z1s:
            for z2 in z2s:
                prob = OdeProblem(g=lambda v: z1 * v,
                                  A=diagonal_operator(np.array([z2])))
                got = slrk_step(make_plan(prob, tab, 1.0),
                                np.ones(1, dtype=complex))[0]
                want = np.exp(z2) * phi(z1)
                rel = abs(got - want) / abs(want)
                worst = max(worst, rel)
                assert rel <= 1e-13
    report(4, f"e^(z2)*Phi(z1) reproduced over 100 pairs x 2 schemes, worst rel {worst:.2e}")


def test_criterion_5_navier_stokes_convergence():
    t0 = time.perf_counter()
    grid = make_grid(64)
    result = convergence_study(grid, 1e-2, 5.0, [32, 64, 128, 256, 512, 1024],
                               reference_steps=2 ** 12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert 3.5 <= result.slopes["rk4"] <= 4.5
    assert 5.5 <= result.slopes["rk6"] <= 6.5
    err4 = result.errors("rk4")
    err6 = result.errors("rk6")
    common = [m for m in err4
              if np.isfinite(err4[m]) and np.isfinite(err6[m])]
    assert common
    for m in common:
        assert err6[m] < err4[m]
    assert result.floor <= 1e-8
    report(5, f"slopes rk4={result.slopes['rk4']:.2f}, rk6={result.slopes['rk6']:.2f}, "
              f"floor {result.floor:.1e}, {elapsed:.0f}s")


def test_criterion_6_search_regression():
    t0 = time.perf_counter()
    t6 = rk6_tableau()
    cfg8 = SearchConfig(stages=8, target_order=6, delta_c=Fraction(1, 6),
                        c_pattern=tuple(t6.c), rng_seed=0)
    res8 = multi_start_search(cfg8, 200)
    converged = [r for r in res8 if r.status == "converged"]
    assert converged
    for r in converged:
        assert r.history[-1] <= 1e-12

    cfg7 = SearchConfig(stages=7, target_order=6, delta_c=Fraction(1, 6),
                        c_pattern=uniform_c_pattern(7, Fraction(1, 6)), rng_seed=0)
    res7 = multi_start_search(cfg7, 200)
    assert sum(r.status == "converged" for r in res7) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(6, f"s=8: {len(converged)}/200 roots; s=7: 0/200; {elapsed:.0f}s")


def test_criterion_7_stability_region_properties():
    phi4 = stability_polynomial(rk4_tableau())
    phi6 = stability_polynomial(rk6_tableau())
    boundary4 = real_axis_boundary(phi4, 0.0)
    assert abs(boundary4 - (-2.7853)) <= 1e-3
    stiff4 = real_axis_boundary(phi4, -10.0)
    stiff6 = real_axis_boundary(phi6, -10.0)
    assert abs(stiff4) > abs(stiff6)
    for phi in (phi4, phi6):
        assert abs(real_axis_boundary(phi, -10.0)
                   - real_axis_boundary(phi, complex(-10.0, 5.0))) <= 1e-6
    report(7, f"rk4 boundary {boundary4:.4f}; at z2=-10: |{stiff4:.2f}| > |{stiff6:.2f}|; "
              "imaginary z2 inert")


def test_criterion_8_linear_exactness():
    rng = np.random.default_rng(11)
    n_steps = 100
    h = 0.05
    for make in (rk4_tableau, heun3_tableau, rk6_tableau):
        lam = rng.uniform(-30, 0, 8) + 1j * rng.uniform(-5, 5, 8)
        u0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        prob = OdeProblem(g=lambda v: 0 * v, A=diagonal_operator(lam))
        plan = make_plan(prob, make(), h)
        got = integrate(plan, u0, n_steps)
        want = np.exp(lam * h * n_steps) * u0
        per_mode = np.max(np.abs(got - want) / np.abs(want))
        assert per_mode <= n_steps * 1e-15
    report(8, f"{n_steps}-step pure-linear integration exact to "
              f"{n_steps}e-15 per mode for rk4/heun3/rk6")


def test_criterion_9_rationalization_round_trip():
    a, b, _ = rk6_tableau().as_floats()
    exact = rationalize(FloatTableau(a=a, b=b), 1000, 6)
    assert exact is not None
    assert exact.a == rk6_tableau().a
    assert exact.b == rk6_tableau().b
    conditions = order_residuals(exact, 6)
    assert len(conditions) == 37
    assert all(c.residual == 0 for c in conditions)
    report(9, "float64 rendering recovers the exact tableau (denominators <= 1000)")
