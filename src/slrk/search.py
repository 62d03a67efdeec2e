"""Damped Newton search for explicit tableaux with gridded abscissae.

The unknown vector x packs b followed by the strictly-lower rows of a.
The residual F stacks every order condition up to the target order with
the deviation of each nontrivial abscissa from a prescribed equally
spaced grid (one that ``tableau.abscissa_grid`` accepts, so every root
is a scheme that simple Lawson stepping can take), giving an
overdetermined system solved iteratively by x <- x - gamma * pinv(J) F
with a finite-difference Jacobian and an SVD pseudoinverse. Converged
floating roots are only trusted after rationalization reproduces the
order conditions exactly.

The residual evaluates the rooted trees with the subtree program of
slrk.order_conditions, the one exact verification uses, and forms all
elementary weights with a single contraction with b.

Roots of this system form manifolds, so the Jacobian carries genuinely
tiny singular values away from noise level; a plain truncated
pseudoinverse takes enormous steps along those directions and strands
the iteration in least-squares local minima. The pseudoinverse is
therefore Tikhonov-filtered (sigma / (sigma^2 + lambda^2) in place of
1/sigma) with the regularization lambda adapted multiplicatively on
step acceptance, Levenberg-Marquardt style, on top of the hard
relative cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .order_conditions import _densities, _stage_weights, enumerate_trees, order_residuals
from .tableau import Tableau, abscissa_grid

DIVERGENCE_NORM = 1e6
QUADRATIC_PHASE_NORM = 1e-3
PINV_RCOND = 1e-10
LAMBDA_INIT = 1e-2
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e8
LAMBDA_SHRINK = 3.0
LAMBDA_GROW = 4.0
DAMPING = 0.5  # step fraction until the residual falls below QUADRATIC_PHASE_NORM
INIT_SCALE = 0.5  # standard deviation of the Gaussian initial guess
# Give up when the best residual over the last STALL_WINDOW iterations
# is no better than STALL_FACTOR times the best seen before it.
STALL_WINDOW = 30
STALL_FACTOR = 0.9


def uniform_c_pattern(stages: int, delta_c: Fraction) -> tuple[Fraction, ...]:
    """Strictly increasing abscissa targets 0, dc, 2*dc, ..."""
    return tuple(k * delta_c for k in range(stages))


@dataclass(frozen=True)
class SearchConfig:
    """Problem definition and iteration knobs for one search.

    c_pattern (default 0, dc, 2dc, ...) must pass ``abscissa_grid`` with delta_c.
    """

    stages: int
    target_order: int
    delta_c: Fraction
    c_pattern: tuple[Fraction, ...] | None = None
    max_iters: int = 500
    residual_tol: float = 1e-12
    rng_seed: int = 0

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if self.target_order < 1:
            raise ValueError("target_order must be >= 1")
        delta_c = Fraction(self.delta_c)
        if delta_c <= 0:
            raise ValueError(f"delta_c must be > 0, got {delta_c}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.residual_tol > 0:
            raise ValueError(f"residual_tol must be > 0, got {self.residual_tol}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        pattern = self.c_pattern
        if pattern is None:
            pattern = uniform_c_pattern(self.stages, delta_c)
        pattern = tuple(Fraction(ci) for ci in pattern)
        if len(pattern) != self.stages:
            raise ValueError("c_pattern length must equal stages")
        abscissa_grid(pattern, delta_c)  # only patterns that SLRK can step
        object.__setattr__(self, "c_pattern", pattern)
        object.__setattr__(self, "delta_c", delta_c)

    @property
    def n_unknowns(self) -> int:
        return self.stages + self.stages * (self.stages - 1) // 2

    @property
    def n_residuals(self) -> int:
        return len(enumerate_trees(self.target_order)) + self.stages - 1

    @cached_property
    def _c_targets(self) -> np.ndarray:
        """Float abscissa targets of stages 2..s (the grid rows of the residual)."""
        targets = np.array([float(ci) for ci in self.c_pattern[1:]])
        targets.flags.writeable = False
        return targets


class FloatTableau(NamedTuple):
    """Floating-point rendering of tableau coefficients."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class SearchResult:
    status: str  # converged | stalled | diverged
    tableau: FloatTableau | None
    history: tuple[float, ...]
    rng_seed: int = 0


@lru_cache(maxsize=None)
def _inv_density(target_order: int) -> np.ndarray:
    """1/density of every tree of order <= target_order, as floats."""
    inv_gamma = np.array([1.0 / gamma for gamma in _densities(target_order)])
    inv_gamma.flags.writeable = False
    return inv_gamma


@lru_cache(maxsize=None)
def _strict_lower(stages: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the packed strictly-lower entries of a."""
    rows, cols = np.tril_indices(stages, k=-1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def unpack(x: np.ndarray, stages: int) -> FloatTableau:
    """Split a packed vector into (a, b); inverse of pack."""
    x = np.asarray(x, dtype=float)
    b = x[:stages].copy()
    a = np.zeros((stages, stages))
    a[_strict_lower(stages)] = x[stages:]
    return FloatTableau(a=a, b=b)


def pack(tab: FloatTableau) -> np.ndarray:
    """Flatten (b, strictly-lower a) into the search vector."""
    stages = tab.b.shape[0]
    return np.concatenate([tab.b, tab.a[_strict_lower(stages)]])


def _residual_batch(xs: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """Residuals for a batch of packed vectors, shape (batch, n_residuals)."""
    s = cfg.stages
    xs = np.asarray(xs, dtype=float)
    nbatch = xs.shape[0]
    b = xs[:, :s]
    a = np.zeros((nbatch, s, s))
    rows, cols = _strict_lower(s)
    a[:, rows, cols] = xs[:, s:]

    phi = list(_stage_weights(a, cfg.target_order))
    phi_all = np.concatenate(phi, axis=1).reshape(nbatch, len(phi), s)
    f_trees = np.einsum("bi,bni->bn", b, phi_all) - _inv_density(cfg.target_order)
    f_absc = a.sum(axis=2)[:, 1:] - cfg._c_targets
    return np.concatenate([f_trees, f_absc], axis=1)


def residual_vector(x: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """Order-condition residuals stacked with abscissa-grid deviations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n_unknowns,):
        raise ValueError(f"expected {cfg.n_unknowns} unknowns, got shape {x.shape}")
    return _residual_batch(x[None, :], cfg)[0]


def jacobian(x: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """Central-difference Jacobian of the residual, step 1e-6*max(1, |x_m|)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n_unknowns,):
        raise ValueError(f"expected {cfg.n_unknowns} unknowns, got shape {x.shape}")
    dim = x.shape[0]
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    perturb = np.diag(h)
    batch = np.concatenate([x[None, :] + perturb, x[None, :] - perturb], axis=0)
    f = _residual_batch(batch, cfg)
    return ((f[:dim] - f[dim:]) / (2.0 * h[:, None])).T


def _filtered_step(svd, f: np.ndarray, reg_lambda: float) -> np.ndarray:
    """Regularized pseudoinverse applied to f from a precomputed SVD."""
    u, sigma, vt = svd
    if sigma.size == 0 or sigma[0] == 0.0:
        return np.zeros(vt.shape[1])
    keep = sigma >= PINV_RCOND * sigma[0]
    lam = reg_lambda * sigma[0]
    gains = sigma[keep] / (sigma[keep] ** 2 + lam ** 2)
    return vt[keep].T @ (gains * (u[:, keep].T @ f))


def search(cfg: SearchConfig) -> SearchResult:
    """Iterate from one Gaussian initial guess until convergence or give-up.

    Steps that fail to reduce the residual norm are rejected: the
    regularization is grown and the step retried from the same point
    (reusing the SVD), up to the lambda ceiling. One iteration means one
    Jacobian evaluation; the residual is evaluated once at the start and
    once per trial step, and an accepted trial's residual is reused.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    x = INIT_SCALE * rng.standard_normal(cfg.n_unknowns)
    f = residual_vector(x, cfg)
    resid = float(np.linalg.norm(f, np.inf))
    reg_lambda = LAMBDA_INIT
    history = [resid]
    iters = 0
    status = "stalled"
    while True:
        if resid <= cfg.residual_tol:
            status = "converged"
            break
        if np.linalg.norm(x) > DIVERGENCE_NORM:
            status = "diverged"
            break
        if iters >= cfg.max_iters:
            status = "stalled"
            break
        if len(history) > STALL_WINDOW:
            recent = min(history[-STALL_WINDOW:])
            before = min(history[:-STALL_WINDOW])
            if recent > STALL_FACTOR * before:
                status = "stalled"
                break
        try:
            svd = np.linalg.svd(jacobian(x, cfg), full_matrices=False)
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        gamma = 1.0 if resid < QUADRATIC_PHASE_NORM else DAMPING
        accepted = False
        while reg_lambda <= LAMBDA_MAX:
            x_new = x - gamma * _filtered_step(svd, f, reg_lambda)
            f_new = residual_vector(x_new, cfg)
            norm_new = float(np.linalg.norm(f_new, np.inf))
            if norm_new < resid:
                x, f, resid = x_new, f_new, norm_new
                reg_lambda = max(reg_lambda / LAMBDA_SHRINK, LAMBDA_MIN)
                accepted = True
                break
            reg_lambda *= LAMBDA_GROW
        iters += 1
        history.append(resid)
        if not accepted:
            status = "stalled"
            break
    tableau = unpack(x, cfg.stages) if status == "converged" else None
    return SearchResult(status=status, tableau=tableau, history=tuple(history),
                        rng_seed=cfg.rng_seed)


def multi_start_search(cfg: SearchConfig, n_seeds: int) -> list[SearchResult]:
    """Independent searches from n_seeds deterministic seeds.

    Per-seed seeds are drawn from a SeedSequence on cfg.rng_seed, so the
    result list is reproducible regardless of execution order.
    """
    seeds = np.random.SeedSequence(cfg.rng_seed).generate_state(n_seeds)
    return [search(replace(cfg, rng_seed=int(seed))) for seed in seeds]


def rationalize(tab: FloatTableau, max_denominator: int, order: int) -> Tableau | None:
    """Snap float coefficients to small rationals and verify exactly.

    Each coefficient is replaced by its best rational approximation with
    denominator at most max_denominator (continued-fraction convergents).
    Returns the exact tableau only if it satisfies every order condition
    up to `order` exactly; otherwise None.
    """
    stages = tab.b.shape[0]
    a = [[Fraction(0)] * stages for _ in range(stages)]
    for i in range(stages):
        for j in range(i):
            a[i][j] = Fraction(float(tab.a[i, j])).limit_denominator(max_denominator)
    b = [Fraction(float(x)).limit_denominator(max_denominator) for x in tab.b]
    exact = Tableau(tuple(tuple(row) for row in a), tuple(b))
    if all(cond.residual == 0 for cond in order_residuals(exact, order)):
        return exact
    return None
