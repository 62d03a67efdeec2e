"""Linear stability analysis of explicit Runge-Kutta and Lawson stepping.

One step on du/dt = lambda*u multiplies u by the stability polynomial
Phi(z), z = h*lambda. Splitting a second rate lambda_2 into the exact
propagator multiplies that by exp(z_2), so the Lawson amplification is
exp(z_2)*Phi(z_1) and a purely imaginary z_2 cannot change stability.

The coefficients of Phi come from the tableau scaled to Python ints
(Tableau.as_integers), one Fraction per coefficient. Region boundaries
scan blocks of rays on one set of radii and then bisect all crossing
rays in lockstep, evaluating Phi in separate real and imaginary float
arithmetic so that every point has the bits of the scalar Phi(z).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .tableau import Tableau


@dataclass(frozen=True)
class StabilityPolynomial:
    """Phi(z) = sum coeffs[k] * z**k with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for ck in reversed(self.coeffs):
            acc = acc * z + float(ck)
        return acc

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for ck in reversed(self.coeffs):
            acc *= z
            acc += float(ck)
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
    skipped_angles: tuple[float, ...] = field(default_factory=tuple)


def _radius_bound(phi: StabilityPolynomial, z2: complex) -> float:
    # Beyond ~(e^{-Re z2}/|lead|)^{1/deg} the leading term dominates and
    # |Phi_eff| > 1, so double it for a safe outer bracket.
    lead = abs(float(phi.coeffs[-1]))
    deg = phi.degree
    if deg == 0 or lead == 0.0:
        return 4.0
    r = (np.exp(-z2.real) / lead) ** (1.0 / deg)
    return 2.0 * r + 4.0


def _effective_magnitude(phi: StabilityPolynomial, z2: complex, z: np.ndarray) -> np.ndarray:
    return np.exp(z2.real) * np.abs(phi.eval_many(z))


_N_SCAN = 512  # scan intervals per ray
_RAY_BLOCK = 16  # rays scanned together: a 16 x 513 grid, not the whole fan


def _bisect_rays(phi: StabilityPolynomial, z2: complex, lo: np.ndarray, hi: np.ndarray,
                 dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Bisect |exp(z2)*Phi(r*(dx + i*dy))| = 1 on [lo, hi] for all rays at once.

    Phi is evaluated as (re, im) float pairs, the arithmetic of the scalar
    complex Horner loop in StabilityPolynomial.__call__; numpy's complex
    multiply may fuse operations and round differently. A ray stops when
    |m - 1| <= 1e-10 (taking lo = mid) or after 200 halvings.
    """
    scale = np.exp(z2.real)
    coeffs = [float(ck) for ck in reversed(phi.coeffs)]
    lo, hi = lo.copy(), hi.copy()
    active = np.arange(lo.size)
    for _ in range(200):
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        x, y = mid * dx[active], mid * dy[active]
        re = np.zeros_like(mid)
        im = np.zeros_like(mid)
        for c in coeffs:
            re, im = re * x - im * y + c, re * y + im * x
        m = scale * np.hypot(re, im)
        done = np.abs(m - 1.0) <= 1e-10
        take_lo = done | (m <= 1.0)
        lo[active[take_lo]] = mid[take_lo]
        hi[active[~take_lo]] = mid[~take_lo]
        active = active[~done]
    return lo


def region_boundary(phi: StabilityPolynomial, z2: complex = 0j,
                    angular_samples: int = 256) -> RegionBoundary:
    """Outermost |exp(z2)*Phi(z)| = 1 crossing along rays from the origin.

    Each ray is scanned inward from a radius bound where the leading term
    dominates; the outermost sign change is bisected down to a unit-modulus
    residual of 1e-10. Rays with no crossing are recorded in skipped_angles.
    """
    if angular_samples < 16:
        raise ValueError(f"angular_samples must be >= 16, got {angular_samples}")
    z2 = complex(z2)
    thetas = 2.0 * np.pi * np.arange(angular_samples) / angular_samples
    # cmath.exp per ray: np.exp/np.cos may use vector routines with other bits.
    directions = np.array([cmath.exp(1j * theta) for theta in thetas])
    radii = np.linspace(_radius_bound(phi, z2), 0.0, _N_SCAN + 1)
    first_in = np.empty(angular_samples, dtype=np.intp)
    for start in range(0, angular_samples, _RAY_BLOCK):
        block = directions[start:start + _RAY_BLOCK, None]
        inside = _effective_magnitude(phi, z2, radii * block) <= 1.0
        first_in[start:start + _RAY_BLOCK] = inside.argmax(axis=1)
    # argmax is 0 both when a ray has no stable point and when it is stable
    # out to the bound: neither has a crossing to bracket.
    crossing = first_in > 0
    rows = first_in[crossing]
    ray = directions[crossing]
    lo = _bisect_rays(phi, z2, radii[rows], radii[rows - 1], ray.real, ray.imag)
    # lo is real, so lo * ray rounds as the scalar lo * direction does.
    return RegionBoundary(points=lo * ray,
                          skipped_angles=tuple(float(t) for t in thetas[~crossing]))


def real_axis_boundary(phi: StabilityPolynomial, z2: complex = 0.0) -> float:
    """Most negative real z1 with |exp(z2)*Phi| <= 1 on all of [z1, 0].

    Scans left from the origin for the first exit of the stable interval,
    then bisects the crossing to 1e-6. Only Re z2 matters: the imaginary
    part has no effect on magnitudes.
    """
    z2 = complex(z2).real
    if z2 > 0.0:
        raise ValueError("real_axis_boundary requires z2 <= 0")
    rmax = _radius_bound(phi, complex(z2))
    xs = np.linspace(0.0, -rmax, 4097)
    mags = _effective_magnitude(phi, complex(z2), xs.astype(complex))
    outside = mags > 1.0
    if not outside.any():
        return float(xs[-1])
    first_out = int(np.argmax(outside))
    if first_out == 0:
        return 0.0
    lo, hi = xs[first_out - 1], xs[first_out]  # lo stable, hi unstable, lo > hi
    while abs(lo - hi) > 1e-6:
        mid = 0.5 * (lo + hi)
        if np.exp(z2) * abs(phi(complex(mid))) <= 1.0:
            lo = mid
        else:
            hi = mid
    return float(lo)
