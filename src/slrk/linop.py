"""Stiff linear operators and their exponential propagators.

Two operator variants: a diagonal spectrum (cheap elementwise
exponentials, used by the spectral benchmark) and a dense matrix
(exponentiated in six N x N arrays by scaling-and-squaring with a
degree-13 diagonal Pade approximant, squared back as often as exact power
norms require; see ``expm``). A propagator exp(tau*A) is itself a
LinearOperator of the same kind, applied by ``apply``. A dense propagator
is stored column-major, so the stacked product v @ E.T reads a
C-contiguous matrix, which BLAS multiplies faster at the 3-8 rows of a
stage stack.
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
        if self.kind not in ("diagonal", "dense"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "dense" and (data.ndim != 2 or data.shape[0] != data.shape[1]):
            raise ValueError("dense operator requires a square matrix")
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
    m is copied once and never written; ``_expm`` works in the copy.
    Raises ValueError if |m| is not finite, which it can be when every entry is.
    """
    m = np.asarray(m)
    return _expm(m.astype(np.result_type(m, 1.0)))


def _expm(m: np.ndarray) -> np.ndarray:
    """``expm`` of a float or complex m that the caller owns: m is overwritten.

    Six N x N arrays at the peak, m's among them: m is scaled in place, U and
    V are summed in two work arrays with out=, and m holds V once U = m @ W is
    formed. Every product, sum and the solve has the operands and order of
    the form r = (V - U)^-1 (V + U), U = m (a6 (b13 a6 + ...) + ... + b1 I).
    """
    n = m.shape[0]
    norm = np.linalg.norm(m, 1) if n else 0.0
    if not np.isfinite(norm):
        raise ValueError("the matrix's 1-norm is not finite")
    # |m^4| |m^6| <= |m|^10 is finite while |m| < 2**100; a larger m is scaled below that.
    presquarings = max(0, int(np.frexp(norm)[1]) - 100)
    if presquarings:
        m *= 2.0 ** -presquarings
    a2 = m @ m
    a4 = a2 @ a2
    a6 = a4 @ a2
    d1, d4, d6 = (np.linalg.norm(p, 1) if n else 0.0 for p in (m, a4, a6))
    alpha = min(d1, max(d4 ** 0.25, (d4 * d6) ** 0.1))
    squarings = int(np.ceil(np.log2(alpha / _THETA13))) if alpha > _THETA13 else 0
    if squarings:
        for k, p in ((1, m), (2, a2), (4, a4), (6, a6)):
            p *= 2.0 ** (-k * squarings)
    b = _PADE13
    w, t = np.empty_like(a2), np.empty_like(a2)
    def add(out, scratch, *terms):  # out += c * p for each (c, p), left to right
        for c, p in terms:
            out += np.multiply(c, p, out=scratch)
    add(np.multiply(b[13], a6, out=w), t, (b[11], a4), (b[9], a2))
    add(np.matmul(a6, w, out=t), w, (b[7], a6), (b[5], a4), (b[3], a2))
    t.flat[::n + 1] += b[1]  # + b1 I, added on the diagonal only
    u = np.matmul(m, t, out=w)
    v = m if m.flags.c_contiguous else m.T  # m's buffer, row-major: BLAS bits follow layout
    add(np.multiply(b[12], a6, out=t), v, (b[10], a4), (b[8], a2))
    add(np.matmul(a6, t, out=v), t, (b[6], a6), (b[4], a4), (b[2], a2))
    v.flat[::n + 1] += b[0]
    del a2, a4, a6
    # r is squared as r^T: (r^T)^2 = (r^2)^T comes out column-major, make_propagator's layout.
    r = np.linalg.solve(np.subtract(v, u, out=t), np.add(v, u, out=v)).T
    for _ in range(presquarings + squarings):
        r = r @ r
    return r.T


def make_propagator(A: LinearOperator, tau: float) -> LinearOperator:
    """exp(tau * A) as an operator of A's kind: elementwise for diagonal A, expm for dense.

    tau*A is formed once, and ``_expm`` works in it. A dense exponential is
    stored column-major (E.T is C-contiguous), the layout ``apply``'s v @ E.T
    reads fastest; expm squares in it, so only an unsquared one is copied.

    Raises ValueError if tau, an entry of tau*A or (dense A) the 1-norm of
    tau*A is not finite, or if the exponential overflows.
    """
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        tau_a = tau * A.data
        if not np.all(np.isfinite(tau_a)):
            raise ValueError(f"tau*A is not finite at tau = {tau:g}")
        try:
            data = (np.exp(tau_a) if A.kind == "diagonal" else
                    np.asfortranarray(_expm(tau_a.astype(np.result_type(tau_a, 1.0), copy=False))))
        except ValueError:  # expm's: finite entries whose column sums overflow
            raise ValueError(f"the 1-norm of tau*A is not finite at tau = {tau:g}") from None
    try:
        return LinearOperator(A.kind, data)  # LinearOperator rejects non-finite entries
    except ValueError:
        raise ValueError(f"exp(tau*A) overflows at tau = {tau:g}") from None


def _state_shape(e: LinearOperator) -> tuple[int, ...]:
    """The shape of one state: the spectrum's (diagonal) or (N,) (dense)."""
    return e.data.shape if e.kind == "diagonal" else e.data.shape[:1]


def apply(e: LinearOperator, v: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Apply an operator (typically a propagator) to a state, or to a stack of states.

    The state's trailing dimensions are the spectrum's shape (diagonal) or
    (N,) (dense); leading ones stack states. A dense operator multiplies a
    state or a whole stack in one product, v @ E.T, which reads a
    C-contiguous matrix when E is column-major, as make_propagator stores
    it. ``out`` receives the result and may be v itself.
    """
    v, shape = np.asarray(v), _state_shape(e)
    if v.shape[v.ndim - len(shape):] != shape:
        raise ValueError(f"state shape {v.shape} does not fit the {e.kind} operator {e.data.shape}")
    if e.kind == "diagonal":
        return np.multiply(e.data, v, out=out)
    return np.matmul(v, e.data.T, out=out)
