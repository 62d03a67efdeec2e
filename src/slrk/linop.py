"""Stiff linear operators and their exponential propagators.

Two operator variants: a diagonal spectrum (cheap elementwise
exponentials, used by the spectral benchmark) and a dense matrix
(exponentiated by scaling-and-squaring with a degree-13 diagonal Pade
approximant, squared back as often as exact power norms require; see
``expm``). A propagator exp(tau*A) is itself a LinearOperator of the same
kind, applied by ``apply``. A dense propagator is stored column-major, so
the stacked product v @ E.T reads a C-contiguous matrix, which BLAS
multiplies faster at the 3-8 rows of a stage stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pade-13 numerator coefficients for (exp approximant) U/V split.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152  # largest alpha at which Pade 13 is accurate to unit roundoff


@dataclass(frozen=True)
class LinearOperator:
    """The stiff operator: kind 'diagonal' (spectrum array) or 'dense' (matrix)."""

    kind: str
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if self.kind == "diagonal":
            pass
        elif self.kind == "dense":
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError("dense operator requires a square matrix")
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not np.all(np.isfinite(data)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "data", data)


def diagonal_operator(spectrum) -> LinearOperator:
    """Operator that is diagonal in the state basis.

    The spectrum array may have any shape; it is applied elementwise to
    states of the same shape (e.g. a 2D grid of Fourier modes).
    """
    return LinearOperator("diagonal", np.asarray(spectrum))


def dense_operator(matrix) -> LinearOperator:
    """General dense square operator."""
    return LinearOperator("dense", np.asarray(matrix))


def expm(m: np.ndarray) -> np.ndarray:
    """Dense matrix exponential, scaling-and-squaring + Pade 13.

    m is scaled by 2**-s until alpha = min(|m|, max(|m^4|^(1/4),
    (|m^4| |m^6|)^(1/10))) <= theta_13 (1-norms of the approximant's own
    powers, formed unscaled), and the approximant is squared back s times:
    Higham (SIAM J. Matrix Anal. Appl. 26, 2005) with the power bound of
    Al-Mohy & Higham (ibid. 31, 2009), so a non-normal m is not overscaled.
    Raises ValueError if |m| is not finite, which it can be when every entry is.
    """
    m = np.asarray(m)
    n = m.shape[0]
    m = m.astype(np.result_type(m, 1.0), copy=False)
    norm = np.linalg.norm(m, 1) if n else 0.0
    if not np.isfinite(norm):
        raise ValueError("the matrix's 1-norm is not finite")
    # |m^4| |m^6| <= |m|^10 is finite while |m| < 2**100; a larger m is scaled below that.
    presquarings = max(0, int(np.frexp(norm)[1]) - 100)
    if presquarings:  # m is rebound, never scaled in place: it may be the caller's array
        m = m * 2.0 ** -presquarings
    a2 = m @ m
    a4 = a2 @ a2
    a6 = a4 @ a2
    d1, d4, d6 = (np.linalg.norm(p, 1) if n else 0.0 for p in (m, a4, a6))
    alpha = min(d1, max(d4 ** 0.25, (d4 * d6) ** 0.1))
    squarings = int(np.ceil(np.log2(alpha / _THETA13))) if alpha > _THETA13 else 0
    if squarings:  # m is rebound, never scaled in place: it may be the caller's array
        m = m * 2.0 ** -squarings
        for k, p in ((2, a2), (4, a4), (6, a6)):
            p *= 2.0 ** (-k * squarings)
    ident = np.eye(n, dtype=m.dtype if np.iscomplexobj(m) else float)
    b = _PADE13
    u = m @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # r is squared as its transpose, (r^T)^2 = (r^2)^T: the same product, which
    # comes out column-major without a copy (make_propagator's layout).
    r = np.linalg.solve(v - u, v + u).T
    for _ in range(presquarings + squarings):
        r = r @ r
    return r.T


def make_propagator(A: LinearOperator, tau: float) -> LinearOperator:
    """exp(tau * A) as an operator of A's kind: elementwise for diagonal A, expm for dense.

    A dense exponential is stored column-major (E.T is C-contiguous), the
    layout ``apply``'s v @ E.T reads fastest; expm squares in that layout,
    so only an exponential it did not square is copied.

    Raises ValueError if tau, an entry of tau*A or (dense A) the 1-norm of
    tau*A is not finite, or if the exponential overflows.
    """
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(tau * A.data)):
            raise ValueError(f"tau*A is not finite at tau = {tau:g}")
        # tau*A is formed again, not kept: expm drops its argument once it has scaled it.
        try:
            data = (np.exp(tau * A.data) if A.kind == "diagonal"
                    else np.asfortranarray(expm(tau * A.data)))
        except ValueError:  # expm's: finite entries whose column sums overflow
            raise ValueError(f"the 1-norm of tau*A is not finite at tau = {tau:g}") from None
    try:
        return LinearOperator(A.kind, data)  # LinearOperator rejects non-finite entries
    except ValueError:
        raise ValueError(f"exp(tau*A) overflows at tau = {tau:g}") from None


def apply(e: LinearOperator, v: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Apply an operator (typically a propagator) to a state, or to a stack of states.

    The state's trailing dimensions are the spectrum's shape (diagonal) or
    (N,) (dense); leading ones stack states. A dense operator multiplies a
    state or a whole stack in one product, v @ E.T, which reads a
    C-contiguous matrix when E is column-major, as make_propagator stores
    it. ``out`` receives the result and may be v itself.
    """
    v = np.asarray(v)
    if e.kind == "diagonal":
        if v.shape[v.ndim - e.data.ndim:] != e.data.shape:
            raise ValueError(f"state shape {v.shape} != spectrum shape {e.data.shape}")
        return np.multiply(e.data, v, out=out)
    if v.shape[-1:] != e.data.shape[:1]:
        raise ValueError(f"state shape {v.shape} incompatible with {e.data.shape} propagator")
    return np.matmul(v, e.data.T, out=out)
