"""Stability polynomials, region boundaries, two-timescale amplification."""

import cmath
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from slrk.integrator import OdeProblem, make_plan, slrk_step
from slrk.linop import diagonal_operator
from slrk.order_conditions import verified_order
from slrk.stability import (
    _radius_bound,
    real_axis_boundary,
    region_boundary,
    stability_polynomial,
)
from slrk.tableau import Tableau, euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau

BUILTINS = [euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau]
# A z2 at which numpy's complex multiply, unlike the scalar Phi, once
# accepted a bisection point with |e^z2 Phi| - 1 just above 1e-10.
RK6_ROUNDING_Z2 = complex(-14.056683947183316, 3.071969748864842)


def bisect_oracle(f, lo, hi, tol=1e-10):
    """Plain bisection for f(lo) <= 0 <= f(hi)."""
    flo = f(lo)
    assert flo <= 0 <= f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def reference_region_boundary(phi, z2, angular_samples):
    """Per-ray oracle: scan each ray alone, then bisect it with the scalar Phi."""
    z2 = complex(z2)
    rmax = _radius_bound(phi, z2)
    points, skipped = [], []
    for theta in 2.0 * np.pi * np.arange(angular_samples) / angular_samples:
        direction = cmath.exp(1j * theta)
        radii = np.linspace(rmax, 0.0, 513)
        z = radii * direction
        acc = np.zeros_like(z)
        for ck in reversed(phi.coeffs):
            acc = acc * z + float(ck)
        inside = np.exp(z2.real) * np.abs(acc) <= 1.0
        first_in = int(np.argmax(inside))
        if not inside.any() or first_in == 0:
            skipped.append(float(theta))
            continue
        lo, hi = radii[first_in], radii[first_in - 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            m = np.exp(z2.real) * abs(phi(mid * direction))
            if abs(m - 1.0) <= 1e-10:
                lo = mid
                break
            if m <= 1.0:
                lo = mid
            else:
                hi = mid
        points.append(lo * direction)
    return np.array(points, dtype=complex), tuple(skipped)


def reference_coefficients(tab):
    """Fraction oracle: coeffs[k] = b . A^(k-1) . 1, trailing zeros dropped."""
    coeffs = [Fraction(1)]
    v = [Fraction(1)] * tab.s
    for _ in range(tab.s):
        coeffs.append(sum((bi * vi for bi, vi in zip(tab.b, v)), Fraction(0)))
        v = [sum((tab.a[i][j] * v[j] for j in range(i)), Fraction(0)) for i in range(tab.s)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def perturbed_rk6():
    """rk6 with rational offsets in a and b, so every coefficient moves."""
    tab = rk6_tableau()
    a = [list(row) for row in tab.a]
    a[3][1] += Fraction(1, 7)
    a[7][5] -= Fraction(2, 13)
    b = list(tab.b)
    b[1] += Fraction(3, 11)
    b[7] -= Fraction(1, 17)
    return Tableau(tuple(tuple(row) for row in a), tuple(b), "rk6-perturbed")


@pytest.mark.parametrize("tab", [make() for make in BUILTINS] + [perturbed_rk6()],
                         ids=lambda tab: tab.name)
def test_stability_polynomial_matches_fraction_oracle(tab):
    coeffs = stability_polynomial(tab).coeffs
    assert all(type(ck) is Fraction for ck in coeffs)
    assert coeffs == reference_coefficients(tab)


@pytest.mark.parametrize("make", BUILTINS)
def test_region_boundary_bitwise_matches_per_ray_oracle(make):
    phi = stability_polynomial(make())
    rng = np.random.default_rng(2024)
    cases = [(z2, 256) for z2 in (0j, -10 + 0j, RK6_ROUNDING_Z2)]
    # Ray counts that fill no block of 16 exactly as well as some that do.
    cases += [(complex(rng.uniform(-20.0, 0.0), rng.uniform(0.0, 5.0)), samples)
              for samples in (17, 40, 64, 100) * 25]
    for z2, samples in cases:
        got = region_boundary(phi, z2, samples)
        points, skipped = reference_region_boundary(phi, z2, samples)
        assert got.points.dtype == points.dtype and got.points.shape == points.shape
        assert got.points.tobytes() == points.tobytes(), (z2, samples)
        assert got.skipped_angles == skipped, (z2, samples)


def test_region_boundary_scans_in_bounded_memory():
    # The full 256 x 513 complex scan grid alone would be about 2.1 MB.
    phi = stability_polynomial(rk6_tableau())
    region_boundary(phi, -10.0, 256)
    tracemalloc.start()
    try:
        region_boundary(phi, -10.0, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_rk4_polynomial_exact():
    phi = stability_polynomial(rk4_tableau())
    assert phi.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))


def test_rk6_polynomial_exact():
    phi = stability_polynomial(rk6_tableau())
    assert phi.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
                          Fraction(1, 120), Fraction(1, 720), Fraction(29, 178200))


def test_euler_polynomial():
    assert stability_polynomial(euler_tableau()).coeffs == (1, 1)


@pytest.mark.parametrize("make", [euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau])
def test_coefficients_match_exponential_up_to_order(make):
    tab = make()
    p = verified_order(tab)
    phi = stability_polynomial(tab)
    for k in range(p + 1):
        assert phi.coeffs[k] == Fraction(1, factorial(k))


def lawson_amplification(tab, z1, z2):
    """One SLRK step of u' = z1*u + z2*u (z2 in the propagator) with h = 1, from u = 1."""
    problem = OdeProblem(g=lambda v: z1 * v, A=diagonal_operator(np.array([z2], dtype=complex)))
    return slrk_step(make_plan(problem, tab, 1.0), np.ones(1, dtype=complex))[0]


def test_amplification_degenerate_arguments():
    # The law exp(z2)*Phi(z1) reduces to Phi(z1) at z2 = 0 and to exp(z2) at z1 = 0.
    tab = rk4_tableau()
    phi = stability_polynomial(tab)
    z1 = 0.7 - 0.3j
    assert abs(lawson_amplification(tab, z1, 0.0) - phi(z1)) <= 1e-15 * abs(phi(z1))
    assert abs(lawson_amplification(tab, 0.0, -2.0 + 1.0j) - cmath.exp(-2.0 + 1.0j)) <= 1e-15


def test_imaginary_stiff_rate_preserves_magnitude():
    tab = rk6_tableau()
    phi = stability_polynomial(tab)
    z1 = -1.1 + 0.8j
    base = abs(phi(z1))
    for y in (0.3, 2.0, 40.0):
        assert abs(abs(lawson_amplification(tab, z1, 1j * y)) - base) <= 1e-13 * base


def test_euler_region_is_unit_circle():
    phi = stability_polynomial(euler_tableau())
    boundary = region_boundary(phi, 0.0, angular_samples=64)
    assert len(boundary.points) + len(boundary.skipped_angles) == 64
    for z in boundary.points:
        assert abs(abs(1 + z) - 1.0) <= 1e-6


def test_region_points_satisfy_unit_modulus():
    for z2 in (0.0, -10.0 + 0.0j):
        for make in (rk4_tableau, rk6_tableau):
            phi = stability_polynomial(make())
            boundary = region_boundary(phi, z2, angular_samples=64)
            assert len(boundary.points) >= 32
            for z in boundary.points:
                assert abs(abs(np.exp(complex(z2)) * phi(z)) - 1.0) <= 1e-8


def test_region_boundary_rejects_few_samples():
    with pytest.raises(ValueError):
        region_boundary(stability_polynomial(rk4_tableau()), 0.0, angular_samples=8)


def test_rk4_negative_real_axis_crossing():
    phi = stability_polynomial(rk4_tableau())
    got = real_axis_boundary(phi, 0.0)
    # independent bisection on |Phi(x)| - 1 in the bracketing interval
    want = -bisect_oracle(lambda r: abs(phi(complex(-r))) - 1.0, 2.0, 3.0)
    assert abs(got - want) <= 2e-6
    assert abs(got - (-2.7853)) <= 1e-3


def test_real_axis_boundary_definition_properties():
    for make in (euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau):
        phi = stability_polynomial(make())
        x = real_axis_boundary(phi, 0.0)
        assert x <= 0
        assert abs(abs(phi(complex(x))) - 1.0) <= 1e-5
        # the whole segment up to the boundary is stable
        for xs in np.linspace(x + 1e-9, 0.0, 50):
            assert abs(phi(complex(xs))) <= 1.0 + 1e-9


def test_stiff_offset_reorders_rk4_and_rk6():
    phi4 = stability_polynomial(rk4_tableau())
    phi6 = stability_polynomial(rk6_tableau())
    base4 = real_axis_boundary(phi4, 0.0)
    base6 = real_axis_boundary(phi6, 0.0)
    assert abs(base6) > abs(base4)  # plain RK6 region reaches further
    stiff4 = real_axis_boundary(phi4, -10.0)
    stiff6 = real_axis_boundary(phi6, -10.0)
    assert abs(stiff4) > abs(stiff6)  # the ordering flips in the stiff regime
    assert abs(stiff4) > abs(base4)  # and both grow enormously
    assert abs(stiff6) > abs(base6)


def test_boundary_scaling_with_stiff_rate():
    # |boundary| grows like the p-th root of e^{-z2} (p = degree of Phi)
    phi4 = stability_polynomial(rk4_tableau())
    ratio = real_axis_boundary(phi4, -8.0) / real_axis_boundary(phi4, -4.0)
    assert abs(ratio - np.exp(1.0)) <= 0.15 * np.exp(1.0)


def test_imaginary_part_of_z2_leaves_boundary_unchanged():
    phi = stability_polynomial(rk6_tableau())
    assert abs(real_axis_boundary(phi, -10.0)
               - real_axis_boundary(phi, complex(-10.0, 7.0))) <= 1e-6


@pytest.mark.parametrize("z2", [-2.0, complex(-2, 0), complex(-2, 3)], ids=repr)
def test_real_axis_boundary_accepts_real_and_complex_z2(z2):
    phi = stability_polynomial(rk4_tableau())
    assert real_axis_boundary(phi, z2) == real_axis_boundary(phi, -2.0)


def test_positive_z2_rejected():
    with pytest.raises(ValueError):
        real_axis_boundary(stability_polynomial(rk4_tableau()), 0.5)
