"""Linear stability analysis of explicit Runge-Kutta and Lawson stepping.

One step on du/dt = lambda*u multiplies u by the stability polynomial
Phi(z), z = h*lambda. Splitting a second rate lambda_2 into the exact
propagator multiplies that by exp(z_2), so the Lawson amplification is
exp(z_2)*Phi(z_1) and a purely imaginary z_2 cannot change stability.

The coefficients of Phi come from the tableau scaled to Python ints
(Tableau.as_integers), one Fraction per coefficient. Region boundaries
scan up to 256 rays at a time, 32 radii per pass from the outermost
inward, each ray leaving at its first stable radius; each block's crossing
rays are then solved together by Illinois steps (regula falsi that halves
the kept end's value when the same end is replaced twice running), with
the scan's own array Horner loop. Only rays with theta in [0, pi] are
solved: Phi's coefficients are real and IEEE arithmetic is symmetric under
conjugation, so the ray in the exact conjugate direction takes the same
radius bit for bit. The real-axis scan runs the loop in real arithmetic,
with the complex loop's bits (its imaginary parts are zeros, and |(r, +-0)| =
|r|), and keeps a scalar bisection: a one-ray array call costs more than it.

The scan starts past the circles |z| = r that a coefficient bound proves
unstable. There |Phi(z)| >= |c_d| r^d - sum_{k<d} |c_k| r^k; where exp(Re z2)
times that, less a rounding slack of 1e-12 * sum_k |c_k| r^k, exceeds 1 by a
1e-9 margin in logs, the float scan reads the whole circle as unstable, so
skipping it changes no output bit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction

import numpy as np

from .tableau import Tableau


@dataclass(frozen=True)
class StabilityPolynomial:
    """Phi(z) = sum coeffs[k] * z**k with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """The coefficients as floats, converted once per polynomial."""
        return tuple(float(ck) for ck in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for ck in reversed(self.floats):
            acc = acc * z + ck
        return acc


def stability_polynomial(tab: Tableau) -> StabilityPolynomial:
    """Exact coefficients: coeffs[0] = 1 and coeffs[k] = b . A^(k-1) . 1.

    Trailing zero coefficients are dropped, so the degree can be below
    the stage count. With a scaled by d, (d*a)^(k-1) . 1 carries d^(k-1).
    """
    a, d, b, d_b = tab.as_integers()
    coeffs = [Fraction(1)]
    v = np.ones(tab.s, dtype=object)
    for k in range(1, tab.s + 1):
        coeffs.append(Fraction(b.dot(v), d_b * d ** (k - 1)))
        v = a.dot(v)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return StabilityPolynomial(tuple(coeffs))


@dataclass(frozen=True)
class RegionBoundary:
    """Polyline |exp(z2)*Phi(z)| = 1, one point per ray that crosses."""

    points: np.ndarray
    skipped_angles: tuple[float, ...]


def _radius_bound(phi: StabilityPolynomial, z2: complex) -> float:
    # Beyond ~(e^{-Re z2}/|lead|)^{1/deg} the leading term dominates and
    # |Phi_eff| > 1, so double it for a safe outer bracket.
    if np.isnan(z2.real):
        raise ValueError(f"Re z2 must be a number, got z2 = {z2}")
    lead = abs(phi.floats[-1])
    deg = phi.degree
    if deg == 0 or lead == 0.0:
        return 4.0
    with np.errstate(over="ignore"):
        bound = 2.0 * (np.exp(-z2.real) / lead) ** (1.0 / deg) + 4.0
    if not np.isfinite(bound):
        raise ValueError(f"the stability region at z2 = {z2:g} reaches beyond the float64 range")
    return bound


def _effective_magnitude(coeffs: tuple[float, ...], z2: complex, z: np.ndarray) -> np.ndarray:
    # coeffs are phi.floats. Horner from the leading coefficient:
    # 0*z + c is c up to the sign of a zero. acc * z, not acc *= z: numpy
    # multiplies a one-element array in place with a scalar loop that rounds
    # unlike its vector loops, so a ray's bits would depend on how many rays
    # are still being solved.
    acc = np.full(z.shape, coeffs[-1], dtype=np.result_type(z, 1.0))
    for ck in reversed(coeffs[:-1]):
        acc = acc * z
        acc += ck
    return np.exp(z2.real) * np.abs(acc)


_N_SCAN = 512  # scan intervals per ray
_RAY_BLOCK = 256  # rays per scan, so temporaries stay small whatever angular_samples is
_RADIUS_BLOCK = 32  # radii per scan pass (64 or 128 ran slower)
# Rounding allowances of the circle bound. The scan's complex Horner loop errs
# by at most about 4*deg*eps times sum |c_k| r^k; its z = r * ray lies an ulp or
# two off the circle and the bound's own sum errs by about deg*eps, each moving
# the bound by under 2*deg*eps times that sum. A slack of 1e-12 of the sum covers
# all three up to degree ~1000. exp, abs and their product add a few ulps and the
# logs err by about eps*(|Re z2| + deg*|log r|) <= 1e-12 in the float range, so
# with 1e-9 in logs a proven radius reads exp(Re z2)*|Phi| >= 1 + 0.99e-9.
_HORNER_SLACK, _LOG_MARGIN = 1e-12, 1e-9


def _first_unproven_radius(phi: StabilityPolynomial, z2: complex, radii: np.ndarray) -> int:
    """Index of the first radius whose circle the bound does not prove unstable."""
    coeffs = [abs(ck) for ck in phi.floats]
    lead, deg = coeffs[-1], phi.degree
    if deg == 0:
        return 0
    r = radii[radii > 0.0]
    # The bound is r^d * (lead - sum_{k<d} |c_k| t^(d-k)), t = 1/r, compared in
    # logs. Where t^d >= lead the c_0 = 1 term alone makes it negative; clipping
    # t there keeps every power finite and changes no verdict.
    t = np.minimum(1.0 / r, lead ** (1.0 / deg))
    lower = np.zeros_like(t)
    for ck in coeffs[:-1]:
        lower = (lower + ck) * t
    q = (1.0 - _HORNER_SLACK) * lead - (1.0 + _HORNER_SLACK) * lower
    log_q = np.log(q, out=np.full_like(q, -np.inf), where=q > 0.0)
    proven = log_q + deg * np.log(r) + z2.real > _LOG_MARGIN
    return r.size if proven.all() else int(proven.argmin())


def _bisect_rays(coeffs: tuple[float, ...], z2: complex, lo: np.ndarray, hi: np.ndarray,
                 ray: np.ndarray) -> np.ndarray:
    """Solve |exp(z2)*Phi(r*ray)| = 1 on [lo, hi] by Illinois steps, all rays at once.

    f(r) = m(r) - 1 is evaluated at both ends in one pass; lo is stable
    (f <= 0) and hi unstable. Each pass takes the secant point of the
    bracket, or its midpoint when that point is not strictly inside, and
    replaces the end whose sign it shares; when the same end is replaced
    twice running, the kept end's f is halved (Illinois, Dowell & Jarratt
    1971). A ray stops at the first point, bracket end lo included, with
    |m - 1| <= 0.99e-10, or returns lo after 200 passes. The contract is
    1e-10 under the scalar Phi; the array Horner loop differs from it by at
    most 7.2e-15 on boundary points (euler, heun3, rk4 and rk6 at 65 z2),
    so the 1e-12 margin covers that 140 times.
    """
    n = lo.size
    f = _effective_magnitude(coeffs, z2, np.concatenate((lo * ray, hi * ray))) - 1.0
    f_lo, f_hi = f[:n], f[n:]
    out = lo.copy()
    active = np.flatnonzero(np.abs(f_lo) > 0.99e-10)
    lo, hi, f_lo, f_hi, ray = lo[active], hi[active], f_lo[active], f_hi[active], ray[active]
    side = np.zeros(active.size)  # the end the last pass replaced: 1 lo, -1 hi, 0 none yet
    for _ in range(200):
        if not active.size:
            break
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        fx = _effective_magnitude(coeffs, z2, x * ray) - 1.0
        done = np.abs(fx) <= 0.99e-10
        out[active[done]] = x[done]
        take_lo = fx <= 0.0
        replaced = np.where(take_lo, 1.0, -1.0)
        again = replaced == side
        f_lo = np.where(take_lo, fx, np.where(again, 0.5 * f_lo, f_lo))
        f_hi = np.where(take_lo, np.where(again, 0.5 * f_hi, f_hi), fx)
        lo = np.where(take_lo, x, lo)
        hi = np.where(take_lo, hi, x)
        keep = ~done
        active, lo, hi, f_lo, f_hi, ray, side = (active[keep], lo[keep], hi[keep], f_lo[keep],
                                                 f_hi[keep], ray[keep], replaced[keep])
    out[active] = lo
    return out


def _ray_angles(angular_samples: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(angular_samples) / angular_samples


@lru_cache
def _ray_directions(angular_samples: int) -> np.ndarray:
    """exp(i*theta) of rays 0..N//2, ray N-k the exact conjugate of ray k; read-only."""
    # cmath.exp per ray: np.exp/np.cos may use vector routines with other bits.
    half = angular_samples // 2 + 1
    upper = [cmath.exp(1j * theta) for theta in _ray_angles(angular_samples)[:half]]
    directions = np.array(upper + [z.conjugate() for z in upper[angular_samples - half:0:-1]])
    directions.flags.writeable = False
    return directions


@np.errstate(over="ignore")  # an overflowed magnitude reads as unstable, as it should
def region_boundary(phi: StabilityPolynomial, z2: complex = 0j,
                    angular_samples: int = 256) -> RegionBoundary:
    """Outermost |exp(z2)*Phi(z)| = 1 crossing along rays from the origin.

    Each ray is scanned inward over 513 radii from a radius bound where the
    leading term dominates, and leaves the scan at its first stable radius;
    the outermost sign change is solved by Illinois steps down to a
    unit-modulus residual of 1e-10, one block of at most 256 rays at a time.
    Only rays 0..N//2 (theta <= pi) are solved: ray N-k, the exact conjugate
    of ray k, takes ray k's radius, as solving it gives bit for bit. Rays
    with no crossing are recorded in skipped_angles. The scan starts at the
    32-radius block holding the first circle that the bound
    exp(Re z2) * (|c_d| r^d - sum_{k<d} |c_k| r^k), less its rounding slack
    and margin, does not prove unstable; every point it skips would read > 1.
    """
    if not isinstance(angular_samples, (int, np.integer)) or angular_samples < 16:
        raise ValueError(f"angular_samples must be an integer >= 16, got {angular_samples!r}")
    n, z2 = int(angular_samples), complex(z2)
    half = n // 2 + 1
    thetas, directions = _ray_angles(n), _ray_directions(n)
    radii = np.linspace(_radius_bound(phi, z2), 0.0, _N_SCAN + 1)
    # first_in stays 0 both when a ray has no stable point and when it is
    # stable out to the bound: neither has a crossing to bracket.
    first_in = np.zeros(n, dtype=np.intp)
    radius = np.zeros(n)
    # Starting on a block boundary of the full scan, every array evaluated is
    # one that the full scan evaluates, and first_in is the full scan's.
    skip = _first_unproven_radius(phi, z2, radii) // _RADIUS_BLOCK * _RADIUS_BLOCK
    for start in range(0, half, _RAY_BLOCK):
        block = np.arange(start, min(start + _RAY_BLOCK, half))
        rays = block
        for r0 in range(skip, _N_SCAN + 1, _RADIUS_BLOCK):
            z = radii[r0:r0 + _RADIUS_BLOCK] * directions[rays, None]
            inside = _effective_magnitude(phi.floats, z2, z) <= 1.0
            found = inside.any(axis=1)
            first_in[rays[found]] = r0 + inside[found].argmax(axis=1)
            rays = rays[~found]
            if not rays.size:
                break
        rays = block[first_in[block] > 0]
        rows = first_in[rays]
        radius[rays] = _bisect_rays(phi.floats, z2, radii[rows], radii[rows - 1], directions[rays])
    first_in[half:], radius[half:] = first_in[n - half:0:-1], radius[n - half:0:-1]
    crossing = first_in > 0
    # radius is real, so radius * direction rounds as the scalar product does.
    return RegionBoundary(points=radius[crossing] * directions[crossing],
                          skipped_angles=tuple(float(t) for t in thetas[~crossing]))


def real_axis_boundary(phi: StabilityPolynomial, z2: complex = 0.0) -> float:
    """Most negative real z1 with |exp(z2)*Phi| <= 1 on all of [z1, 0].

    Scans left from the origin for the first exit of the stable interval,
    then bisects the crossing to 1e-6, or until no float lies between the
    ends. Only Re z2 matters: the imaginary part has no effect on magnitudes.
    """
    z2 = complex(z2).real
    if z2 > 0.0:
        raise ValueError("real_axis_boundary requires z2 <= 0")
    rmax = _radius_bound(phi, complex(z2))
    xs = np.linspace(0.0, -rmax, 4097)
    mags = _effective_magnitude(phi.floats, complex(z2), xs)
    outside = mags > 1.0
    if not outside.any():
        return float(xs[-1])
    first_out = int(np.argmax(outside))  # >= 1: at xs[0] = 0, exp(z2) * |c_0| = exp(z2) <= 1
    lo, hi = xs[first_out - 1], xs[first_out]  # lo stable, hi unstable, lo > hi
    scale = np.exp(z2)
    while abs(lo - hi) > 1e-6:
        mid = 0.5 * (lo + hi)
        stable = scale * abs(phi(complex(mid))) <= 1.0
        if mid == (lo if stable else hi):
            break  # no float lies strictly between lo and hi: the bracket cannot shrink
        if stable:
            lo = mid
        else:
            hi = mid
    return float(lo)
