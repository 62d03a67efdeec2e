"""Stability polynomials, region boundaries, two-timescale amplification."""

import cmath
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import slrk
from slrk import stability
from slrk.integrator import OdeProblem, make_plan, slrk_step
from slrk.linop import diagonal_operator
from slrk.order_conditions import verified_order
from slrk.stability import (
    _radius_bound,
    real_axis_boundary,
    region_boundary,
    stability_polynomial,
)
from slrk.tableau import (BUILTIN_TABLEAUX, Tableau, euler_tableau, heun3_tableau, rk4_tableau,
                          rk6_tableau)

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


def reference_directions(angular_samples):
    """exp(i*theta_k) for k <= N//2, and the exact conjugate of ray N-k above that."""
    thetas = 2.0 * np.pi * np.arange(angular_samples) / angular_samples
    upper = [cmath.exp(1j * theta) for theta in thetas[:angular_samples // 2 + 1]]
    return [upper[k] if k < len(upper) else upper[angular_samples - k].conjugate()
            for k in range(angular_samples)]


def reference_region_boundary(phi, z2, angular_samples):
    """Per-ray oracle: scan each ray alone, then solve it alone by Illinois steps."""
    z2 = complex(z2)
    rmax = _radius_bound(phi, z2)
    points, skipped = [], []

    def f(r, direction):
        # region_boundary's array loop may round unlike phi() and numpy's complex
        # scalars, which both round as Python's complex does: use a 1-element array.
        acc = np.zeros(1, dtype=complex)
        for ck in reversed(phi.coeffs):
            acc = acc * (r * direction) + float(ck)
        return np.exp(z2.real) * np.abs(acc[0]) - 1.0

    thetas = 2.0 * np.pi * np.arange(angular_samples) / angular_samples
    for theta, direction in zip(thetas, reference_directions(angular_samples)):
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
        f_lo, f_hi = f(lo, direction), f(hi, direction)
        side = 0  # the end the last step replaced: 1 lo, -1 hi
        for _ in range(200 if abs(f_lo) > 0.99e-10 else 0):
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            fx = f(x, direction)
            if abs(fx) <= 0.99e-10:
                lo = x
                break
            if fx <= 0.0:
                if side == 1:
                    f_hi *= 0.5
                lo, f_lo, side = x, fx, 1
            else:
                if side == -1:
                    f_lo *= 0.5
                hi, f_hi, side = x, fx, -1
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
    # At z2 = 0 Euler's rays near the imaginary axis are stable only at r = 0,
    # the last scan radius, so they cross in the final one-radius pass.
    cases = [(z2, 256) for z2 in (0j, -10 + 0j, RK6_ROUNDING_Z2)]
    # More rays than one scan block of 256 holds.
    cases += [(z2, samples) for z2 in (0j, -10 + 0j) for samples in (300, 1000)]
    # Ray counts below one scan block of 256.
    cases += [(complex(rng.uniform(-20.0, 0.0), rng.uniform(0.0, 5.0)), samples)
              for samples in (17, 40, 64, 100) * 25]
    # Near the float range, where the circle bound works in logs.
    cases += [(complex(-700.0, 0.0), 256)]
    if make is rk4_tableau:
        cases += [(complex(-705.0, 0.0), 256)]
    # At Re z2 > 0 the origin is unstable and some rays never enter the region.
    skipping = [(complex(0.1, 0.0), 256), (complex(1.0, 2.0), 300)]
    for z2, samples in cases + skipping:
        got = region_boundary(phi, z2, samples)
        points, skipped = reference_region_boundary(phi, z2, samples)
        assert got.points.dtype == points.dtype and got.points.shape == points.shape
        assert got.points.tobytes() == points.tobytes(), (z2, samples)
        assert got.skipped_angles == skipped, (z2, samples)
        assert bool(skipped) == ((z2, samples) in skipping)


def reference_real_axis_boundary(phi, z2):
    """Oracle: one 4097-point scan with Horner's rule from zero, then scalar bisection."""
    rmax = _radius_bound(phi, complex(z2))
    xs = np.linspace(0.0, -rmax, 4097)
    z = xs.astype(complex)
    acc = np.zeros_like(z)
    for ck in reversed(phi.coeffs):
        acc = acc * z + float(ck)
    outside = np.exp(z2) * np.abs(acc) > 1.0
    if not outside.any():
        return float(xs[-1])
    first_out = int(np.argmax(outside))
    if first_out == 0:
        return 0.0
    lo, hi = xs[first_out - 1], xs[first_out]
    while abs(lo - hi) > 1e-6:
        mid = 0.5 * (lo + hi)
        stable = np.exp(z2) * abs(phi(complex(mid))) <= 1.0
        if mid == (lo if stable else hi):
            break
        lo, hi = (mid, hi) if stable else (lo, mid)
    return float(lo)


# z2 from 0 down to -700, where |Phi| nears the float64 range at the scan's far
# end, two z2 whose exp(z2) rounds to 1, and down to -90 in finer steps, past
# both z2 of test_real_axis_boundary_returns_where_floats_are_sparse.
AXIS_Z2 = np.concatenate((np.linspace(-700.0, 0.0, 801), [-1e-300, -5e-324],
                          np.linspace(-90.0, 0.0, 121)))


@pytest.mark.parametrize("make", BUILTINS)
def test_real_axis_boundary_bitwise_matches_scan_oracle(make):
    phi = stability_polynomial(make())
    for z2 in AXIS_Z2:
        # Phi's coefficients and the axis points are real, so a complex Horner
        # loop's imaginary parts are zeros and |(r, +-0)| = |r|: the real scan
        # has the complex scan's bits at every point.
        xs = np.linspace(0.0, -_radius_bound(phi, complex(z2)), 4097)
        real = stability._effective_magnitude(phi.floats, complex(z2), xs)
        assert real.dtype == np.float64
        assert real.tobytes() == stability._effective_magnitude(
            phi.floats, complex(z2), xs.astype(complex)).tobytes(), z2
        got = real_axis_boundary(phi, z2)
        want = reference_real_axis_boundary(phi, float(z2))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), z2


def test_region_boundary_scans_in_bounded_memory():
    # The full 256 x 513 complex scan grid alone would be about 2.1 MB; scanning
    # all 4096 rays at once, 32 radii at a time, would peak at about 6.6 MB.
    phi = stability_polynomial(rk6_tableau())
    for samples in (256, 4096):
        region_boundary(phi, -10.0, samples)
        tracemalloc.start()
        try:
            region_boundary(phi, -10.0, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, samples


def test_region_boundary_scans_only_down_to_the_first_stable_radius(monkeypatch):
    # At z2 = -10 every rk6 crossing lies at 0.39-0.47 of the radius bound, so no
    # ray needs more than the outer 320 of its 513 radii.
    phi = stability_polynomial(rk6_tableau())
    evaluated = []

    def counted(phi, z2, z):
        if z.ndim == 2:  # a scan block; the bisection evaluates 1-D arrays
            evaluated.append(z.size)
        return magnitude(phi, z2, z)

    magnitude = stability._effective_magnitude
    monkeypatch.setattr(stability, "_effective_magnitude", counted)
    boundary = region_boundary(phi, -10.0, 256)
    assert len(boundary.points) == 256
    assert sum(evaluated) < 0.65 * 256 * 513


def test_region_boundary_scan_starts_past_the_proven_circles(monkeypatch):
    # At z2 = -10 the circle bound proves rk6's outer 243 radii unstable, so the
    # scan starts at radius 224 and evaluates about 15% of the grid.
    phi = stability_polynomial(rk6_tableau())
    evaluated = []

    def counted(phi, z2, z):
        if z.ndim == 2:
            evaluated.append(z.size)
        return magnitude(phi, z2, z)

    magnitude = stability._effective_magnitude
    monkeypatch.setattr(stability, "_effective_magnitude", counted)
    boundary = region_boundary(phi, -10.0, 256)
    assert len(boundary.points) == 256
    assert sum(evaluated) < 0.25 * 256 * 513


def test_region_boundary_solves_rays_in_few_passes(monkeypatch):
    # Illinois steps take 5 one-dimensional passes for rk6 at z2 = -10, the
    # bracket ends' pass included; halving the brackets took 25-28.
    phi = stability_polynomial(rk6_tableau())
    passes = []

    def counted(coeffs, z2, z):
        if z.ndim == 1:
            passes.append(z.size)
        return magnitude(coeffs, z2, z)

    magnitude = stability._effective_magnitude
    monkeypatch.setattr(stability, "_effective_magnitude", counted)
    boundary = region_boundary(phi, -10.0, 256)
    assert len(boundary.points) == 256
    assert len(passes) <= 10, passes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make", BUILTINS)
def test_circle_bound_skips_only_radii_the_scan_reads_unstable(make):
    phi = stability_polynomial(make())
    cases = [0j, -10 + 0j, RK6_ROUNDING_Z2, 0.1 + 0j, 1 + 2j, 50 + 0j, -700 + 0j]
    if make is rk4_tableau:
        cases.append(-705 + 0j)
    thetas = 2.0 * np.pi * np.arange(256) / 256
    directions = np.array([cmath.exp(1j * theta) for theta in thetas])
    proven = []
    for z2 in cases:
        radii = np.linspace(_radius_bound(phi, z2), 0.0, 513)
        skip = stability._first_unproven_radius(phi, z2, radii)
        proven.append(skip)
        magnitudes = stability._effective_magnitude([float(ck) for ck in phi.coeffs], z2,
                                                    radii[:skip] * directions[:, None])
        assert np.all(magnitudes > 1.0), (z2, skip)
        region_boundary(phi, z2, 256)  # the whole call warns nowhere either
    # the bound proves some circles at every builtin, and about half the grid at -700
    assert max(proven) > 0 and proven[cases.index(-700 + 0j)] >= 256


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
    # region_boundary's contract, and perfbench's check: 1e-10 under the scalar Phi.
    for make in BUILTINS:
        phi = stability_polynomial(make())
        for z2 in (0j, -10 + 0j, RK6_ROUNDING_Z2):
            for samples in (17, 64, 300):
                boundary = region_boundary(phi, z2, samples)
                assert len(boundary.points) == samples and not boundary.skipped_angles
                for z in boundary.points:
                    error = abs(np.exp(z2.real) * abs(phi(z)) - 1.0)
                    assert error <= 1e-10, (make.__name__, z2, samples, z)


def test_ray_directions_are_built_once_and_read_only():
    for samples in (16, 17, 64, 257):
        directions = stability._ray_directions(samples)
        assert stability._ray_directions(samples) is directions and not directions.flags.writeable
        assert directions.tobytes() == np.array(reference_directions(samples)).tobytes()
        # A mirrored ray differs from exp(i*theta_k) only as theta_k and 2*pi - theta_(N-k)
        # round apart, by up to 1.4 ulps of 2*pi at 16-4096 rays (0.8 at 64).
        exact = [cmath.exp(1j * (2.0 * np.pi * k / samples)) for k in range(samples)]
        assert np.abs(directions - exact).max() <= 2 * np.spacing(2.0 * np.pi), samples
        with pytest.raises(ValueError):
            directions[0] = 0.0


@pytest.mark.parametrize("make", BUILTINS)
def test_region_boundary_mirrors_the_upper_half_plane(make, monkeypatch):
    phi = stability_polynomial(make())
    lower = []

    def upper_only(coeffs, z2, z):
        lower.append(bool((z.imag < 0.0).any()))
        return magnitude(coeffs, z2, z)

    magnitude = stability._effective_magnitude
    monkeypatch.setattr(stability, "_effective_magnitude", upper_only)
    for samples in (16, 17, 256, 257, 300, 1000):
        thetas = stability._ray_angles(samples)
        k = np.arange(1, (samples + 1) // 2)  # ray samples-k mirrors ray k
        for z2 in (0j, -10 + 0j, -3 + 4j, 1 + 2j):
            boundary = region_boundary(phi, z2, samples)
            crossing = ~np.isin(thetas, boundary.skipped_angles)
            # skipped angles pair up as theta <-> 2*pi - theta
            assert np.array_equal(crossing[k], crossing[samples - k]), (z2, samples)
            assert crossing.all() == (z2 != 1 + 2j), (z2, samples)
            points = np.zeros(samples, dtype=complex)
            points[crossing] = boundary.points
            pair = k[crossing[k]]
            # Bit for bit, up to the sign of a zero: a ray whose only stable point
            # is the origin returns 0 * direction, +0 in both halves.
            assert ((points[pair].conj() + 0.0).tobytes()
                    == (points[samples - pair] + 0.0).tobytes()), (z2, samples)
    assert lower and not any(lower)


def test_region_boundary_rejects_few_samples():
    with pytest.raises(ValueError):
        region_boundary(stability_polynomial(rk4_tableau()), 0.0, angular_samples=8)


@pytest.mark.parametrize("samples", [256.0, 100.5, True, np.float64(64.0)], ids=repr)
def test_region_boundary_rejects_non_integer_samples(samples):
    message = f"angular_samples must be an integer >= 16, got {samples!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        region_boundary(stability_polynomial(rk4_tableau()), 0.0, samples)


@pytest.mark.parametrize("samples", [np.int64(64), np.int32(17), np.uint16(300)], ids=repr)
def test_region_boundary_accepts_numpy_integer_samples(samples):
    phi = stability_polynomial(rk4_tableau())
    got, want = region_boundary(phi, -3.0, samples), region_boundary(phi, -3.0, int(samples))
    assert got.points.tobytes() == want.points.tobytes()
    assert got.skipped_angles == want.skipped_angles


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


def test_real_axis_boundary_returns_where_floats_are_sparse():
    # Past |x| ~ 8.6e9 floats lie more than 1e-6 apart, so bisecting to 1e-6 cannot end;
    # a subprocess with a timeout makes a hang fail the test instead of stalling it.
    script = """
import numpy as np
from slrk.stability import real_axis_boundary, stability_polynomial
from slrk.tableau import euler_tableau, rk4_tableau
for make, z2 in ((rk4_tableau, -90.0), (euler_tableau, -30.0)):
    phi = stability_polynomial(make())
    x = real_axis_boundary(phi, z2)
    below = np.nextafter(x, -np.inf)
    print(x, np.exp(z2) * abs(phi(complex(x))), np.exp(z2) * abs(phi(complex(below))))
"""
    src = str(Path(slrk.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src}, check=True)
    rows = [list(map(float, line.split())) for line in done.stdout.splitlines()]
    assert len(rows) == 2
    for (x, at, below), scale in zip(rows, (1e10, 1e13)):
        # the crossing lies between two adjacent floats: x stable, the next float below not
        assert -10 * scale < x < -scale and at <= 1.0 < below


@pytest.mark.parametrize("name,z2", [("rk6", -705.0), ("rk6", -1000.0), ("rk4", -708.0),
                                     ("euler", -710.0)])
def test_boundary_beyond_float_range_is_an_error(name, z2):
    phi = stability_polynomial(BUILTIN_TABLEAUX[name]())
    message = f"the stability region at z2 = {z2:g}+0j reaches beyond the float64 range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        region_boundary(phi, z2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        real_axis_boundary(phi, z2)


@pytest.mark.parametrize("name", ["euler", "rk6"])
@pytest.mark.parametrize("boundary, z2, shown", [
    (region_boundary, float("nan"), "(nan+0j)"),
    (region_boundary, complex(float("nan"), 1.0), "(nan+1j)"),
    (real_axis_boundary, float("nan"), "(nan+0j)"),
    (real_axis_boundary, complex(float("nan"), 1.0), "(nan+0j)"),  # it reads Re z2 only
])
def test_nan_z2_is_rejected_with_its_own_message(name, boundary, z2, shown):
    # not "reaches beyond the float64 range", which the NaN radius bound would report
    phi = stability_polynomial(BUILTIN_TABLEAUX[name]())
    with pytest.raises(ValueError, match=f"^Re z2 must be a number, got z2 = {re.escape(shown)}$"):
        boundary(phi, z2)


def test_rk4_boundary_near_the_float_range():
    # at -705 rk4's bound still fits (rk6's does not): every ray crosses, none at the origin
    boundary = region_boundary(stability_polynomial(rk4_tableau()), -705.0, 16)
    assert not boundary.skipped_angles
    assert np.all(np.abs(boundary.points) > 1e76)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z2", [710.0, 1e308])
def test_region_past_the_exp_overflow_skips_every_ray_without_a_warning(z2):
    # exp(Re z2) overflows to inf, which reads as unstable on every ray
    boundary = region_boundary(stability_polynomial(rk4_tableau()), z2, 16)
    assert boundary.points.size == 0
    assert len(boundary.skipped_angles) == 16


def test_positive_z2_rejected():
    with pytest.raises(ValueError):
        real_axis_boundary(stability_polynomial(rk4_tableau()), 0.5)
