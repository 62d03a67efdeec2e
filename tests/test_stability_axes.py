"""Exact oracles for the stability boundaries on the real and imaginary axes.

On a ray z1 = r*d with d in {1, i, -1, -i} and r >= 0, and for real z2,
E(r) = |e^{z2} Phi(r d)|^2 - 1 has the sign of Q(r) - e^{-2 z2}, where
Q(r) = |Phi(r d)|^2 is a real polynomial with rational coefficients. Sturm
sequences in Fraction arithmetic count its roots exactly, so these tests
check the float scans against the exact boundary rather than against
themselves. e^{20} (z2 = -10) is bracketed between two rationals.
"""

import math
from fractions import Fraction

import pytest

from slrk.stability import real_axis_boundary, region_boundary, stability_polynomial
from slrk.tableau import euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau

AXES = {0: (1, 0), 64: (0, 1), 128: (-1, 0), 192: (0, -1)}  # ray index of 256 -> d


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def poly_eval(p, x):
    acc = Fraction(0)
    for ck in reversed(p):
        acc = acc * x + ck
    return acc


def poly_rem(p, q):
    p = list(p)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        for k in range(len(q)):
            p[len(p) - len(q) + k] -= f * q[k]
        p.pop()
    while p and p[-1] == 0:
        p.pop()
    return p


def sturm(p):
    """Sturm sequence of p, each member scaled to a leading coefficient of +-1."""
    seq, nxt = [p], [k * ck for k, ck in enumerate(p)][1:]
    while nxt:
        seq.append(nxt)
        nxt = [-x for x in poly_rem(seq[-2], seq[-1])]
    return [[x / abs(q[-1]) for x in q] for q in seq]


def sign_changes(seq, x=None):
    """Sign changes of the sequence at x, or at +infinity for x = None."""
    signs = [q[-1] if x is None else poly_eval(q, x) for q in seq]
    signs = [v > 0 for v in signs if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def excess(phi, d, k):
    """Q(r) - k for the direction d = (re, im), with its roots at r = 0 divided out.

    On r > 0 it has the sign of |Phi(r d)|^2 - k, and its value at r = 0
    gives that sign just beyond the origin.
    """
    re, im, power = [], [], (1, 0)
    for ck in phi.coeffs:
        re.append(ck * power[0])
        im.append(ck * power[1])
        power = (power[0] * d[0] - power[1] * d[1], power[0] * d[1] + power[1] * d[0])
    q = [x + y for x, y in zip(poly_mul(re, re), poly_mul(im, im))]
    q[0] -= k
    while q[0] == 0:
        q.pop(0)
    return q


def exp_bracket(x: int, terms: int = 80) -> tuple[Fraction, Fraction]:
    """Adjacent floats lo < e^x < hi, from the Taylor sum and a geometric tail bound.

    Needs 0 < x < terms + 1; at x = 20 the tail, 1.7e-15, is far below e^20's ulp, 6e-8.
    """
    total, term = Fraction(0), Fraction(1)
    for k in range(terms):
        total += term
        term = term * x / (k + 1)
    upper = total + term / (1 - Fraction(x, terms + 1))
    lo, hi = float(total), float(upper)
    lo = lo if Fraction(lo) <= total else math.nextafter(lo, 0.0)
    hi = hi if Fraction(hi) >= upper else math.nextafter(hi, math.inf)
    return Fraction(lo), Fraction(hi)


E20 = exp_bracket(20)


def test_exp_bracket_is_one_ulp_wide():
    lo, hi = map(float, E20)
    assert lo <= math.exp(20) <= hi and math.nextafter(lo, math.inf) == hi


@pytest.mark.parametrize("z2,k", [(0.0, (1, 1)), (-10.0, E20)])
@pytest.mark.parametrize("make", [euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau])
def test_axis_boundaries_match_exact_sign_changes(make, z2, k):
    # e^{-2 z2} lies in [k_lo, k_hi]: Q - k_lo < 0 proves E < 0, Q - k_hi > 0 proves E > 0.
    phi = stability_polynomial(make())
    k_lo, k_hi = k

    # Real axis: stable from 0 out to 1e-6 inside the float edge, unstable 1e-6 beyond it,
    # so the first exact sign change to the left of 0 is within 1e-6 of the float edge.
    x = -real_axis_boundary(phi, z2)
    inside = excess(phi, (-1, 0), k_lo)
    a = Fraction(x) - Fraction(1, 10 ** 6)
    assert a > 0 and inside[0] < 0
    seq = sturm(inside)
    assert sign_changes(seq, Fraction(0)) == sign_changes(seq, a)  # no root in (0, a]
    assert poly_eval(excess(phi, (-1, 0), k_hi), Fraction(x) + Fraction(1, 10 ** 6)) > 0

    # Axis rays of a 256-ray scan: past the returned radius (1e-6 relative) no exact
    # crossing, Q - k_hi > 0 there and has no root beyond. rk6's imaginary-axis rays at
    # z2 = 0 return a rounding-level point at radius 0.0214, where |e^{z2} Phi| - 1 is
    # ~1e-18: exactly, |Phi(iy)|^2 - 1 > 0 for every y > 0, so no crossing lies beyond
    # it, and the point is not a boundary of the region, which meets that axis only at 0.
    boundary = region_boundary(phi, z2, 256)
    assert not boundary.skipped_angles
    for ray, d in AXES.items():
        radius = abs(boundary.points[ray])
        if make is rk6_tableau and z2 == 0.0 and d[0] == 0:
            assert 0.02 < radius < 0.022
        a = Fraction(radius) * (1 + Fraction(1, 10 ** 6))
        outside = excess(phi, d, k_hi)
        seq = sturm(outside)
        assert poly_eval(outside, a) > 0
        assert sign_changes(seq, a) == sign_changes(seq)  # no root in (a, oo)
