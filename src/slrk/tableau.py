"""Exact-rational Butcher tableaux for explicit Runge-Kutta schemes.

Coefficients are stored as `fractions.Fraction`, so consistency checks
(row sums, abscissa spacing) are exact integer arithmetic, never float
comparisons. The abscissae c are always derived from row sums of a;
``abscissa_grid`` is the one check that they are ordered and equally
spaced, as simple Lawson stepping and the scheme search require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np


class TableauParseError(ValueError):
    """Tableau text that does not follow the text format of parse_tableau."""


def _rat(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction; floats are rejected."""
    if type(x) is Fraction:  # immutable, so it is its own exact copy
        return x
    if isinstance(x, float):
        raise TypeError("tableau coefficients must be exact rationals, not floats")
    return Fraction(x)


@dataclass(frozen=True)
class Tableau:
    """Explicit Runge-Kutta coefficients (a strictly lower triangular).

    a is a full s-by-s grid of Fractions with zeros on and above the
    diagonal; b has length s. c is derived, c[i] = sum_j a[i][j].
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    name: str = ""

    def __post_init__(self):
        a = tuple(tuple(_rat(x) for x in row) for row in self.a)
        b = tuple(_rat(x) for x in self.b)
        s = len(b)
        if len(a) != s or any(len(row) != s for row in a):
            raise ValueError(f"a must be {s}x{s} to match b of length {s}")
        for i, row in enumerate(a):
            if any(row[i:]):
                j = next(j for j in range(i, s) if row[j])
                raise ValueError(f"explicit tableau requires a[{i}][{j}] = 0 on/above the diagonal")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def s(self) -> int:
        """Stage count."""
        return len(self.b)

    @cached_property
    def c(self) -> tuple[Fraction, ...]:
        """Abscissae, exact row sums of a (computed once per tableau)."""
        return tuple(sum(row, Fraction(0)) for row in self.a)

    def as_floats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float64 rendering (a, b, c) for numerical stepping."""
        a = np.array([[float(x) for x in row] for row in self.a])
        b = np.array([float(x) for x in self.b])
        c = np.array([float(x) for x in self.c])
        return a, b, c

    def as_integers(self) -> tuple[np.ndarray, int, np.ndarray, int]:
        """Exact integer rendering (d*a, d, d_b*b, d_b), computed once per tableau.

        d and d_b are the lcm of the denominators of a and of b; the two
        arrays hold Python ints (object dtype), so products never overflow.
        Both arrays are read-only: every call returns the same ones.
        """
        return self._integers

    @cached_property
    def _integers(self) -> tuple[np.ndarray, int, np.ndarray, int]:
        d = math.lcm(*(x.denominator for row in self.a for x in row))
        d_b = math.lcm(*(x.denominator for x in self.b))
        a = np.array([[x.numerator * (d // x.denominator) for x in row] for row in self.a],
                     dtype=object)
        b = np.array([x.numerator * (d_b // x.denominator) for x in self.b], dtype=object)
        a.flags.writeable = b.flags.writeable = False
        return a, d, b, d_b


def _tableau_from_rows(rows, b, name):
    """Build a Tableau from ragged strictly-lower rows (row i has i entries)."""
    s = len(b)
    return Tableau(tuple((*row, *(0,) * (s - len(row))) for row in rows), tuple(b), name)


def euler_tableau() -> Tableau:
    """Forward Euler (one stage, order 1)."""
    return _tableau_from_rows([[]], [1], "euler")


def heun3_tableau() -> Tableau:
    """Heun's third-order method, c = [0, 1/3, 2/3]."""
    rows = [
        [],
        [Fraction(1, 3)],
        [0, Fraction(2, 3)],
    ]
    b = [Fraction(1, 4), 0, Fraction(3, 4)]
    return _tableau_from_rows(rows, b, "heun3")


def rk4_tableau() -> Tableau:
    """Classical fourth-order Runge-Kutta, c = [0, 1/2, 1/2, 1]."""
    rows = [
        [],
        [Fraction(1, 2)],
        [0, Fraction(1, 2)],
        [0, 0, 1],
    ]
    b = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)]
    return _tableau_from_rows(rows, b, "rk4")


def rk6_tableau() -> Tableau:
    """Eight-stage sixth-order scheme with abscissae on the 1/6 grid."""
    rows = [
        [],
        [Fraction(1, 6)],
        [Fraction(1, 12), Fraction(1, 12)],
        [0, Fraction(-4, 33), Fraction(5, 11)],
        [Fraction(-1, 4), Fraction(-29, 44), Fraction(31, 22), 0],
        [Fraction(3, 11), Fraction(8, 33), Fraction(-4, 11), Fraction(1, 11), Fraction(14, 33)],
        [Fraction(-17, 48), Fraction(-5, 12), 1, 1, Fraction(-13, 12), Fraction(11, 16)],
        [Fraction(20, 39), Fraction(12, 39), Fraction(-31, 39), Fraction(-1, 39),
         Fraction(34, 39), Fraction(-11, 39), Fraction(16, 39)],
    ]
    b = [Fraction(13, 200), 0, Fraction(4, 25), Fraction(11, 40),
         0, Fraction(11, 40), Fraction(4, 25), Fraction(13, 200)]
    return _tableau_from_rows(rows, b, "rk6")


BUILTIN_TABLEAUX = {
    "euler": euler_tableau,
    "heun3": heun3_tableau,
    "rk4": rk4_tableau,
    "rk6": rk6_tableau,
}


def abscissa_grid(c, delta_c=None) -> tuple[Fraction, tuple[int, ...]]:
    """Grid step and propagator shifts of ordered, equally spaced abscissae.

    Walks (0 = c[0], c[1], ..., c[s-1], 1) as one sequence: delta_c is the
    given grid step or else the walk's first nonzero increment, each
    increment before the last is 0 or delta_c, and the last, 1 - c[s-1],
    a whole, non-negative number of grid steps. Returns delta_c and the s+1
    shifts (increment / delta_c; forward Euler's are (0, 1) with delta_c = 1);
    raises ValueError for abscissae that one propagator cannot step.
    """
    c = [_rat(ci) for ci in c]
    *steps, last = [hi - lo for lo, hi in zip(c, (*c[1:], 1))]
    delta_c = next((d for d in steps if d), last) if delta_c is None else _rat(delta_c)
    if c[0] != 0 or delta_c <= 0 or any(d and d != delta_c for d in steps):
        raise ValueError("simple Lawson stepping with a linear operator requires ordered, "
                         "equally spaced abscissae")
    last /= delta_c
    if last.denominator != 1 or last < 0:
        raise ValueError(f"final abscissa {c[-1]} is not a whole number of grid steps "
                         f"below 1 (delta_c = {delta_c})")
    return delta_c, (0, *(1 if d else 0 for d in steps), int(last))


def _parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise TableauParseError(f"bad rational token {token!r}") from exc


def parse_tableau(text: str) -> Tableau:
    """Parse the tableau text format.

    Line 1 is ``stages s``; lines 2..s+1 hold the strictly-lower rows of a
    (row i has i-1 entries, so the first is blank); then a ``b:`` line with
    s rationals; optionally a ``name:`` line.
    """
    lines = text.splitlines()

    def fields(i):
        if i >= len(lines):
            raise TableauParseError("unexpected end of tableau text")
        return lines[i].split()

    header = fields(0)
    if len(header) != 2 or header[0] != "stages":
        raise TableauParseError("first line must be 'stages <s>'")
    try:
        s = int(header[1])
    except ValueError as exc:
        raise TableauParseError(f"bad stage count {header[1]!r}") from exc
    if s < 1:
        raise TableauParseError(f"stage count must be >= 1, got {s}")

    rows = []
    for i in range(s):
        tokens = fields(i + 1)
        if tokens and tokens[0] == "b:":
            raise TableauParseError(f"only {i} of {s} a rows before the b line")
        if len(tokens) > i:
            raise TableauParseError(f"row {i + 1} has {len(tokens)} entries; "
                                    f"explicit schemes allow {i}")
        if len(tokens) < i:
            raise TableauParseError(f"row {i + 1} has {len(tokens)} entries, expected {i}")
        rows.append([_parse_rational(tok) for tok in tokens])

    b_line = fields(s + 1)
    if not b_line or b_line[0] != "b:":
        raise TableauParseError("expected 'b:' line after the a rows")
    if len(b_line) - 1 != s:
        raise TableauParseError(f"b line has {len(b_line) - 1} entries, expected {s}")
    b = [_parse_rational(tok) for tok in b_line[1:]]

    name = ""
    for line in lines[s + 2:]:
        if line.startswith("name:"):
            name = line[len("name:"):].strip()
        elif line.strip():
            raise TableauParseError(f"unexpected trailing line {line!r}")

    return _tableau_from_rows(rows, b, name)


def serialize_tableau(t: Tableau) -> str:
    """Render a tableau in the text format; parse(serialize(t)) == t."""
    lines = [f"stages {t.s}"]
    for i in range(t.s):
        lines.append(" ".join(str(t.a[i][j]) for j in range(i)))
    lines.append("b: " + " ".join(str(x) for x in t.b))
    if t.name:
        lines.append(f"name: {t.name}")
    return "\n".join(lines) + "\n"
