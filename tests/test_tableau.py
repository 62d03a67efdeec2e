"""Exact-rational tableau machinery: builtins, spacing, text format."""

import math
import random
from fractions import Fraction

import pytest

from slrk.tableau import (
    DimensionError,
    ExplicitnessError,
    MalformedRationalError,
    Tableau,
    abscissa_grid,
    euler_tableau,
    heun3_tableau,
    parse_tableau,
    rk4_tableau,
    rk6_tableau,
    serialize_tableau,
)

ALL_BUILTINS = [euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau]


def test_rk6_coefficients():
    t = rk6_tableau()
    assert t.s == 8
    assert t.c == (0, Fraction(1, 6), Fraction(1, 6), Fraction(2, 6), Fraction(3, 6),
                   Fraction(4, 6), Fraction(5, 6), 1)
    assert t.b == (Fraction(13, 200), 0, Fraction(4, 25), Fraction(11, 40),
                   0, Fraction(11, 40), Fraction(4, 25), Fraction(13, 200))
    assert sum(t.b) == 1
    # row 4 sums to its abscissa 2/6
    assert sum(t.a[3]) == Fraction(1, 3)


def test_rk4_and_heun3_coefficients():
    t4 = rk4_tableau()
    assert t4.b == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))
    assert t4.c == (0, Fraction(1, 2), Fraction(1, 2), 1)
    t3 = heun3_tableau()
    assert t3.c == (0, Fraction(1, 3), Fraction(2, 3))
    assert euler_tableau().s == 1


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_row_sum_consistency_and_c_range(make):
    t = make()
    for i in range(t.s):
        assert t.c[i] == sum(t.a[i])
        assert 0 <= t.c[i] <= 1


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_integer_rendering_is_exact(make):
    t = make()
    a, d, b, d_b = t.as_integers()
    assert all(type(x) is int for x in list(a.flat) + list(b))
    assert [[Fraction(x, d) for x in row] for row in a] == [list(row) for row in t.a]
    assert [Fraction(x, d_b) for x in b] == list(t.b)
    # d and d_b are the least common denominators: no factor cancels from all entries
    assert math.gcd(d, *a.flat) == 1
    assert math.gcd(d_b, *b) == 1


def test_spacing_rk6():
    assert abscissa_grid(rk6_tableau().c) == (Fraction(1, 6), (0, 1, 0, 1, 1, 1, 1, 1, 0))


def test_spacing_rk4_heun3():
    assert abscissa_grid(rk4_tableau().c) == (Fraction(1, 2), (0, 1, 0, 1, 0))
    assert abscissa_grid(heun3_tableau().c) == (Fraction(1, 3), (0, 1, 1, 1))


def test_spacing_euler_degenerate():
    with pytest.raises(ValueError, match="no nonzero abscissa increment"):
        abscissa_grid(euler_tableau().c)


def test_spacing_nonconforming():
    t = Tableau(
        ((Fraction(0), 0, 0), (Fraction(1, 4), 0, 0), (Fraction(1, 2), Fraction(1, 2), 0)),
        (Fraction(1, 2), 0, Fraction(1, 2)),
    )
    assert t.c == (0, Fraction(1, 4), 1)
    with pytest.raises(ValueError, match="ordered, equally spaced abscissae"):
        abscissa_grid(t.c)


def test_spacing_rejects_decreasing_c():
    t = Tableau(
        ((Fraction(0), 0, 0), (Fraction(1, 2), 0, 0), (Fraction(1, 4), 0, 0)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    )
    with pytest.raises(ValueError, match="ordered, equally spaced abscissae"):
        abscissa_grid(t.c)
    with pytest.raises(ValueError, match="ordered, equally spaced abscissae"):
        abscissa_grid((Fraction(0), Fraction(-1, 2)))


def test_spacing_with_given_grid_step():
    third = Fraction(1, 3)
    # the final gap may span several grid steps
    assert abscissa_grid((0, Fraction(1, 6)), Fraction(1, 6)) == (Fraction(1, 6), (0, 1, 5))
    assert abscissa_grid((0, 0, third), third) == (third, (0, 0, 1, 2))
    with pytest.raises(ValueError, match="ordered, equally spaced abscissae"):
        abscissa_grid((0, Fraction(1, 2)), third)
    with pytest.raises(ValueError, match="no nonzero abscissa increment"):
        abscissa_grid((0, 0), third)


@pytest.mark.parametrize("c", [
    (0, Fraction(1, 2), 1, Fraction(3, 2)),  # ends past 1
    (0, Fraction(2, 5)),  # 1 - 2/5 is 3/2 grid steps
])
def test_spacing_rejects_off_grid_final_abscissa(c):
    with pytest.raises(ValueError, match=f"final abscissa {c[-1]} is not a whole number"):
        abscissa_grid(tuple(map(Fraction, c)))


def test_explicitness_enforced_on_construction():
    with pytest.raises(ValueError):
        Tableau(((Fraction(1), 0), (0, 0)), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        Tableau(((0, Fraction(1)), (0, 0)), (Fraction(1, 2), Fraction(1, 2)))


def test_floats_rejected_in_constructor():
    with pytest.raises(TypeError):
        Tableau(((0.0,),), (1.0,))


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_round_trip(make):
    t = make()
    assert parse_tableau(serialize_tableau(t)) == t


def test_serialize_rk4_b_line():
    text = serialize_tableau(rk4_tableau())
    assert "b: 1/6 1/3 1/3 1/6" in text


def test_parse_malformed_rational():
    text = "stages 2\n\n1/0\nb: 1/2 1/2\n"
    with pytest.raises(MalformedRationalError):
        parse_tableau(text)
    with pytest.raises(MalformedRationalError):
        parse_tableau("stages 2\n\nx\nb: 1/2 1/2\n")


def test_parse_explicitness_error():
    # row 1 would put a nonzero at a[0][0] / a[0][1]
    text = "stages 2\n1/2 1/2\n1/2\nb: 1/2 1/2\n"
    with pytest.raises(ExplicitnessError):
        parse_tableau(text)


def test_parse_dimension_errors():
    with pytest.raises(DimensionError):
        parse_tableau("stages 3\n\n1/2\nb: 1 0 0\n")  # row 3 missing
    with pytest.raises(DimensionError):
        parse_tableau("stages 2\n\n1/2\nb: 1/2 1/2 0\n")  # b too long
    with pytest.raises(DimensionError):
        parse_tableau("stages 3\n\n1/2\n0\nb: 1 0 0\n")  # row 3 has 1 entry, needs 2


def test_parse_name_line():
    t = parse_tableau("stages 1\n\nb: 1\nname: forward euler\n")
    assert t.name == "forward euler"


def test_rational_reciprocal_property():
    rng = random.Random(1234)
    for _ in range(200):
        p = rng.randint(-20, 20)
        q = rng.randint(1, 20)
        if p == 0:
            continue
        x = Fraction(p, q)
        assert x * (1 / x) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)
