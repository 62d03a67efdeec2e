"""Damped Newton search for explicit tableaux with gridded abscissae.

The unknown vector x packs b followed by the strictly-lower rows of a.
The residual F stacks every order condition up to the target order with
the deviation of each nontrivial abscissa from a prescribed equally
spaced grid (one that ``tableau.abscissa_grid`` accepts, so every root
is a scheme that simple Lawson stepping can take), giving an
overdetermined system solved iteratively by x <- x - gamma * pinv(J) F
with an SVD pseudoinverse. Converged floating roots are only trusted
after rationalization reproduces the order conditions exactly.

The residual evaluates the rooted trees with the subtree program of
slrk.order_conditions, the one exact verification uses, and forms all
elementary weights with a single contraction with b. The tree rows are
linear in b, so the Jacobian's b-columns are that program's stage weights
phi(t), exactly; only its a-columns are central differences.

Roots of this system form manifolds, so the Jacobian carries genuinely
tiny singular values away from noise level; a plain truncated
pseudoinverse takes enormous steps along those directions and strands
the iteration in least-squares local minima. The pseudoinverse is
therefore Tikhonov-filtered (sigma / (sigma^2 + lambda^2) in place of
1/sigma) on top of the hard relative cutoff, with the regularization
lambda adapted Levenberg-Marquardt style: from one SVD an iteration
tries lambda, 4 lambda, 16 lambda, ... up to a ceiling, scoring the
trial steps in rounds of 2, 4, 8, ... with one residual batch per
round, and the next iteration starts from the accepted lambda / 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .order_conditions import MAX_ORDER, _densities, _stage_weights, order_residuals
from .tableau import Tableau, _tableau_from_rows, abscissa_grid

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
        for name in ("stages", "target_order"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.target_order > MAX_ORDER:
            raise ValueError(f"target_order must be <= {MAX_ORDER}, got {self.target_order}")
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
    # the rule that stopped the seed: residual_tol (converged), divergence_norm
    # (diverged), or max_iters, stall_window, lambda_ceiling, linalg_error (stalled)
    reason: str
    tableau: FloatTableau | None
    history: tuple[float, ...]
    rng_seed: int


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
    """Split packed vectors (..., n) into (a, b) with the same leading axes; inverse of pack."""
    x = np.asarray(x, dtype=float)
    b = x[..., :stages].copy()
    a = np.zeros(x.shape[:-1] + (stages, stages))
    a[(...,) + _strict_lower(stages)] = x[..., stages:]
    return FloatTableau(a=a, b=b)


def pack(tab: FloatTableau) -> np.ndarray:
    """Flatten (b, strictly-lower a) into the search vector, over any leading axes."""
    stages = tab.b.shape[-1]
    return np.concatenate([tab.b, tab.a[(...,) + _strict_lower(stages)]], axis=-1)


def _residual_batch(xs: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Residual rows (one column per tree, then c_2..c_s) and phi stack (batch, trees, s)."""
    a, b = unpack(xs, cfg.stages)
    phi = list(_stage_weights(a, cfg.target_order))
    phi_all = np.concatenate(phi, axis=1).reshape(len(a), len(phi), cfg.stages)
    f_trees = np.einsum("bi,bni->bn", b, phi_all) - _inv_density(cfg.target_order)
    f_absc = a.sum(axis=2)[:, 1:] - cfg._c_targets
    return np.concatenate([f_trees, f_absc], axis=1), phi_all


def _unknowns(x: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n_unknowns,):
        raise ValueError(f"expected {cfg.n_unknowns} unknowns, got shape {x.shape}")
    return x


def residual_vector(x: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """Order-condition residuals stacked with abscissa-grid deviations."""
    return _residual_batch(_unknowns(x, cfg)[None, :], cfg)[0][0]


def jacobian(x: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """Jacobian of the residual: exact b-columns, central differences over a.

    The tree rows are linear in b with b-columns phi(t), and the abscissa rows
    do not depend on b. One residual batch holds x +- h_m e_m for each a-unknown
    m, h_m = 1e-6*max(1, |x_m|), then x itself for phi.
    """
    x = _unknowns(x, cfg)
    s, dim = cfg.stages, x.shape[0]
    h = 1e-6 * np.maximum(1.0, np.abs(x[s:]))
    perturb = np.zeros((dim - s, dim))
    perturb[:, s:] = np.diag(h)
    f, phi = _residual_batch(np.concatenate([x + perturb, x - perturb, x[None, :]]), cfg)
    jac = np.zeros((f.shape[1], dim))
    jac[:phi.shape[1], :s] = phi[-1]
    jac[:, s:] = ((f[:dim - s] - f[dim - s:-1]) / (2.0 * h[:, None])).T
    return jac


def search(cfg: SearchConfig) -> SearchResult:
    """Iterate from one Gaussian initial guess until convergence or give-up.

    Each iteration forms one Jacobian, its SVD and the filter's lambda-free
    parts, then takes the first trial step, in lambda order, that lowers the
    residual norm. The trial steps are scored in rounds of 2, 4, 8, ..., one
    residual batch per round; a batch row is bit for bit its batch-1 value,
    so the history does not depend on the round sizes.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    x = INIT_SCALE * rng.standard_normal(cfg.n_unknowns)
    f = residual_vector(x, cfg)
    resid = float(np.linalg.norm(f, np.inf))
    reg_lambda = LAMBDA_INIT
    history = [resid]

    def stop(status: str, reason: str) -> SearchResult:
        tableau = unpack(x, cfg.stages) if status == "converged" else None
        return SearchResult(status, reason, tableau, tuple(history), cfg.rng_seed)

    while True:
        if resid <= cfg.residual_tol:
            return stop("converged", "residual_tol")
        if np.linalg.norm(x) > DIVERGENCE_NORM:
            return stop("diverged", "divergence_norm")
        if len(history) > cfg.max_iters:
            return stop("stalled", "max_iters")
        # Every step recorded so far was accepted and lowered the residual strictly, so
        # history[-1] is the window's minimum and history[-STALL_WINDOW - 1] the one before it.
        if len(history) > STALL_WINDOW and history[-1] > STALL_FACTOR * history[-STALL_WINDOW - 1]:
            return stop("stalled", "stall_window")
        try:
            u, sigma, vt = np.linalg.svd(jacobian(x, cfg), full_matrices=False)
        except np.linalg.LinAlgError:
            return stop("stalled", "linalg_error")
        # sigma[0] >= 1, so no zero-SVD guard: J's leaf-tree row d(sum(b) - 1)/db is s ones
        keep = sigma >= PINV_RCOND * sigma[0]
        kept, uf, vk = sigma[keep], u[:, keep].T @ f, vt[keep].T
        gamma = 1.0 if resid < QUADRATIC_PHASE_NORM else DAMPING
        lambdas = []
        while reg_lambda <= LAMBDA_MAX:
            lambdas.append(reg_lambda)
            reg_lambda *= LAMBDA_GROW
        start, size = 0, 2
        while start < len(lambdas):
            trial = lambdas[start:start + size]
            xs = np.stack([x - gamma * (vk @ (kept / (kept ** 2 + (lam * sigma[0]) ** 2) * uf))
                           for lam in trial])
            fs = _residual_batch(xs, cfg)[0]
            norms = np.abs(fs).max(axis=1)
            lower = np.flatnonzero(norms < resid)
            if lower.size:
                k = lower[0]
                x, f, resid = xs[k], fs[k], float(norms[k])
                reg_lambda = max(trial[k] / LAMBDA_SHRINK, LAMBDA_MIN)
                break
            start, size = start + size, 2 * size
        else:  # no trial was accepted
            history.append(resid)
            return stop("stalled", "lambda_ceiling")
        history.append(resid)


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
    def snap(x):
        return Fraction(float(x)).limit_denominator(max_denominator)

    rows = [[snap(x) for x in row[:i]] for i, row in enumerate(tab.a)]
    exact = _tableau_from_rows(rows, [snap(x) for x in tab.b], "")
    if all(cond.residual == 0 for cond in order_residuals(exact, order)):
        return exact
    return None
