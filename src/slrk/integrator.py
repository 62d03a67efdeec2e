"""Fixed-step integration of du/dt = g(u) + A u.

Two steppers:

* ``slrk_step``: simple Lawson stepping for tableaux whose abscissae are
  ordered and equally spaced, so a single precomputed propagator
  exp(delta_c * h * A) suffices. Whenever the abscissa advances by one
  grid step, the running state and all stored slopes are multiplied by
  that propagator; if the last abscissa falls short of 1, the remaining
  grid steps are applied before the final combination so the step agrees
  exactly with the general form. Without A it is the classical explicit
  Runge-Kutta step, for any tableau.
* ``lawson_step_general``: the integrating-factor form with one
  exponential per stage pair. Reference semantics, diagonal A only;
  used as the oracle the fast stepper is tested against.

``integrate`` is the one stepping loop over ``slrk_step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linop import LinearOperator, Propagator, apply, make_propagator
from .tableau import Tableau, spacing_report


class NonFiniteStateError(RuntimeError):
    """The integration produced a non-finite value (blow-up or too-large h)."""


@dataclass(frozen=True)
class OdeProblem:
    """Right-hand side g plus optional stiff linear operator A."""

    g: Callable[[np.ndarray], np.ndarray]
    A: LinearOperator | None = None


@dataclass(frozen=True)
class StepPlan:
    """Everything precomputed for repeated stepping of one (problem, tableau, h)."""

    problem: OdeProblem
    tableau: Tableau
    h: float
    propagator: Propagator | None
    a: np.ndarray
    b: np.ndarray
    step_before_stage: tuple[bool, ...]
    trailing_steps: int


def make_plan(problem: OdeProblem, tableau: Tableau, h: float) -> StepPlan:
    """Validate the tableau against the problem and precompute the propagator.

    With A present the tableau must be spacing-conforming with a defined
    grid step delta_c, and (1 - c_s)/delta_c must be a whole number of
    grid steps; exactly one propagator exp(delta_c*h*A) is built.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    spacing = spacing_report(tableau)
    a, b, _ = tableau.as_floats()
    s = tableau.s
    step_before = [False] * s
    trailing = 0
    propagator = None
    if problem.A is not None:
        if not spacing.conforming:
            raise ValueError(
                "simple Lawson stepping with a linear operator requires ordered, "
                "equally spaced abscissae"
            )
        if spacing.delta_c is None:
            raise ValueError(
                "tableau has no nonzero abscissa increment, so the linear operator "
                "cannot be represented by a propagator; pass A=None to integrate g alone"
            )
        c_exact = tableau.c
        leftover = (1 - c_exact[-1]) / spacing.delta_c
        if leftover.denominator != 1 or leftover < 0:
            raise ValueError(
                f"final abscissa {c_exact[-1]} is not a whole number of grid steps "
                f"below 1 (delta_c = {spacing.delta_c})"
            )
        trailing = int(leftover)
        for j in range(1, s):
            step_before[j] = c_exact[j] - c_exact[j - 1] == spacing.delta_c
        propagator = make_propagator(problem.A, float(spacing.delta_c) * h)
    return StepPlan(
        problem=problem,
        tableau=tableau,
        h=h,
        propagator=propagator,
        a=a,
        b=b,
        step_before_stage=tuple(step_before),
        trailing_steps=trailing,
    )


def _slope(plan: StepPlan, u: np.ndarray, stage: int) -> np.ndarray:
    k = plan.h * np.asarray(plan.problem.g(u))
    if not np.all(np.isfinite(k)):
        raise NonFiniteStateError(f"non-finite slope at stage {stage + 1}")
    return k


def slrk_step(plan: StepPlan, u: np.ndarray) -> np.ndarray:
    """One simple Lawson Runge-Kutta step (classical explicit RK when A is absent)."""
    a, b, s, e = plan.a, plan.b, plan.tableau.s, plan.propagator
    k = [_slope(plan, u, 0)]
    for j in range(1, s):
        if e is not None and plan.step_before_stage[j]:
            u = apply(e, u)
            for m in range(j):
                k[m] = apply(e, k[m])
        stage = u
        for m in range(j):
            if a[j, m] != 0.0:
                stage = stage + a[j, m] * k[m]
        k.append(_slope(plan, stage, j))
    if e is not None:
        for _ in range(plan.trailing_steps):
            u = apply(e, u)
            for m in range(s):
                k[m] = apply(e, k[m])
    out = u
    for i in range(s):
        if b[i] != 0.0:
            out = out + b[i] * k[i]
    if not np.all(np.isfinite(out)):
        raise NonFiniteStateError("non-finite state after step")
    return out


def lawson_step_general(tableau: Tableau, g, A: LinearOperator, u: np.ndarray,
                        h: float) -> np.ndarray:
    """One step of the general integrating-factor Runge-Kutta process.

    Stage values use exp(c_i*h*A) and exp((c_i-c_j)*h*A) pairwise, and
    the update uses exp((1-c_i)*h*A); no spacing assumption. Diagonal A
    only, since arbitrary exponentials are cheap elementwise. This is the
    correctness oracle for slrk_step.
    """
    if A.kind != "diagonal":
        raise ValueError("the general Lawson stepper supports diagonal operators only")
    lam = A.data
    if np.asarray(u).shape != lam.shape:
        raise ValueError("state and spectrum shapes differ")
    _, b, c = tableau.as_floats()
    s = tableau.s

    def propagate(tau, v):
        return np.exp(tau * h * lam) * v

    k = []
    for i in range(s):
        stage = propagate(c[i], u)
        for j in range(i):
            aij = float(tableau.a[i][j])
            if aij != 0.0:
                stage = stage + aij * propagate(c[i] - c[j], k[j])
        k.append(h * np.asarray(g(stage)))
    out = propagate(1.0, u)
    for i in range(s):
        if b[i] != 0.0:
            out = out + b[i] * propagate(1.0 - c[i], k[i])
    return out


def integrate(plan: StepPlan, u0: np.ndarray, n_steps: int) -> np.ndarray:
    """Step n_steps times from u0; returns the final state."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    u = np.asarray(u0)
    for _ in range(n_steps):
        u = slrk_step(plan, u)
    return u
