"""A fixed reference kernel that measures the machine's current speed.

On a shared host the same code runs up to 1.6 times slower from one
minute to the next, and that drift moves every raw timing of a run
together. The benchmark therefore runs this kernel between its jobs and
divides each job's time by the kernel time measured right after it. The
kernel never calls slrk, so a change to the program cannot change it.

It mixes the four kinds of work the workloads do: interpreted Python
(dicts, floats, Fractions), numpy calls on tiny arrays, a 128x128 FFT
pair with elementwise products, and 512x512 float matvecs. Its inputs
are fixed, not drawn from the workload seed.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Ratios to the kernel are reported in seconds by multiplying with this:
# the kernel's median time on the 2-vCPU Xeon guest the benchmark was
# built on (Python 3, numpy with one OpenBLAS thread).
REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((24, 24))
_GRID = _rng.standard_normal((128, 128)) + 0j
_MATRIX = _rng.standard_normal((512, 512))
_VECTOR = _rng.standard_normal(512)


def _python():
    table = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    return total


def _small_arrays():
    x = _SMALL
    for _ in range(40):
        x = np.tanh(x * 0.5 + _SMALL)
    return x


def _fft():
    return np.abs(np.fft.ifft2(np.fft.fft2(_GRID) * _GRID)).max()


def _matvec():
    v = _VECTOR
    for _ in range(8):
        v = _MATRIX @ v * 0.01
    return v


def timed() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    _python()
    _small_arrays()
    _fft()
    _matvec()
    return time.perf_counter() - t0
