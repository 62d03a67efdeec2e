"""Exact-rational tableau machinery: builtins, spacing, text format."""

import math
import random
import re
from fractions import Fraction

import pytest

from slrk.tableau import (
    Tableau,
    TableauParseError,
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


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_integer_rendering_is_computed_once_and_read_only(make):
    t = make()
    first, second = t.as_integers(), t.as_integers()
    assert all(x is y for x, y in zip(first, second))
    a, _, b, _ = first
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1


def test_spacing_rk6():
    assert abscissa_grid(rk6_tableau().c) == (Fraction(1, 6), (0, 1, 0, 1, 1, 1, 1, 1, 0))


def test_spacing_rk4_heun3():
    assert abscissa_grid(rk4_tableau().c) == (Fraction(1, 2), (0, 1, 0, 1, 0))
    assert abscissa_grid(heun3_tableau().c) == (Fraction(1, 3), (0, 1, 1, 1))


def test_spacing_euler():
    # the walk (0, 1) has one increment, the grid step
    assert abscissa_grid(euler_tableau().c) == (1, (0, 1))


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
    # stages at 0, then the whole step in three grid steps
    assert abscissa_grid((0, 0), third) == (third, (0, 0, 3))
    # a plain int grid step is exact too
    assert abscissa_grid((0, 0), 1) == (Fraction(1), (0, 0, 1))


@pytest.mark.parametrize("c", [(0,), (0, 1), (0, 0), (0, Fraction(1, 2))])
def test_spacing_of_plain_int_abscissae(c):
    # int abscissae are exact: the same grid as Fractions (int / int used to be a float)
    assert abscissa_grid(c) == abscissa_grid(tuple(Fraction(ci) for ci in c))


def test_spacing_rejects_float_abscissae():
    for c, delta_c in [((0, 0.5), None), ((0.0,), None), ((0,), 1.0)]:
        with pytest.raises(TypeError, match="exact rationals, not floats"):
            abscissa_grid(c, delta_c)


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


def test_shape_enforced_on_construction():
    with pytest.raises(ValueError, match="^a must be 2x2 to match b of length 2$"):
        Tableau(((0, 0),), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match="^a must be 2x2 to match b of length 2$"):
        Tableau(((0, 0), (1,)), (Fraction(1, 2), Fraction(1, 2)))


def test_floats_rejected_in_constructor():
    with pytest.raises(TypeError):
        Tableau(((0.0,),), (1.0,))


def test_entries_are_fractions_by_type():
    class Half(Fraction):
        pass

    tableaux = [make() for make in ALL_BUILTINS]
    tableaux += [parse_tableau(serialize_tableau(t)) for t in tableaux]
    tableaux += [parse_tableau("stages 3\n\n1\n-2 3/4\nb: 0 1/2 1/2\n"),
                 Tableau(((0, 0), (Half(1, 2), 0)), (True, Half(1, 2)))]
    for t in tableaux:
        entries = [x for row in t.a for x in row] + list(t.b) + list(t.c)
        assert all(type(x) is Fraction for x in entries), t


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_round_trip(make):
    t = make()
    assert parse_tableau(serialize_tableau(t)) == t


def test_serialize_rk4_b_line():
    text = serialize_tableau(rk4_tableau())
    assert "b: 1/6 1/3 1/3 1/6" in text
    # whole texts: integers print bare, negatives carry their sign, a zero prints as 0
    assert serialize_tableau(rk6_tableau()) == (
        "stages 8\n\n1/6\n1/12 1/12\n0 -4/33 5/11\n-1/4 -29/44 31/22 0\n"
        "3/11 8/33 -4/11 1/11 14/33\n-17/48 -5/12 1 1 -13/12 11/16\n"
        "20/39 4/13 -31/39 -1/39 34/39 -11/39 16/39\n"
        "b: 13/200 0 4/25 11/40 0 11/40 4/25 13/200\nname: rk6\n")
    mixed = Tableau(((0, 0, 0), (Fraction(-3, 4), 0, 0), (2, 0, 0)),
                    (Fraction(-1, 6), 0, 5), name="mixed")
    assert serialize_tableau(mixed) == "stages 3\n\n-3/4\n2 0\nb: -1/6 0 5\nname: mixed\n"


def test_parse_malformed_rational():
    text = "stages 2\n\n1/0\nb: 1/2 1/2\n"
    with pytest.raises(TableauParseError, match="^bad rational token '1/0'$"):
        parse_tableau(text)
    with pytest.raises(TableauParseError, match="^bad rational token 'x'$"):
        parse_tableau("stages 2\n\nx\nb: 1/2 1/2\n")


def test_parse_explicitness_error():
    # row 1 would put a nonzero at a[0][0] / a[0][1]
    text = "stages 2\n1/2 1/2\n1/2\nb: 1/2 1/2\n"
    with pytest.raises(TableauParseError, match="^row 1 has 2 entries; explicit schemes allow 0$"):
        parse_tableau(text)


def test_parse_dimension_errors():
    with pytest.raises(TableauParseError, match="^only 2 of 3 a rows before the b line$"):
        parse_tableau("stages 3\n\n1/2\nb: 1 0 0\n")  # row 3 missing
    with pytest.raises(TableauParseError, match="^b line has 3 entries, expected 2$"):
        parse_tableau("stages 2\n\n1/2\nb: 1/2 1/2 0\n")  # b too long
    with pytest.raises(TableauParseError, match="^row 3 has 1 entries, expected 2$"):
        parse_tableau("stages 3\n\n1/2\n0\nb: 1 0 0\n")  # row 3 has 1 entry, needs 2


@pytest.mark.parametrize("text,message", [
    ("", "unexpected end of tableau text"),
    ("stages 2\n\n", "unexpected end of tableau text"),
    ("stages 1\n\n", "unexpected end of tableau text"),
    ("stage 2", "first line must be 'stages <s>'"),
    ("stages 2 3", "first line must be 'stages <s>'"),
    ("stages two", "bad stage count 'two'"),
    ("stages 0", "stage count must be >= 1, got 0"),
    ("stages 1\n\n1/2", "expected 'b:' line after the a rows"),
    ("stages 1\n\n\nb: 1", "expected 'b:' line after the a rows"),
    ("stages 1\n\nb: 1\nname: one\n\nextra", "unexpected trailing line 'extra'"),
], ids=repr)
def test_parse_structure_errors(text, message):
    with pytest.raises(TableauParseError, match=f"^{re.escape(message)}$"):
        parse_tableau(text)


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
