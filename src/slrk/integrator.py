"""Fixed-step integration of du/dt = g(u) + A u.

Two steppers:

* ``slrk_step``: simple Lawson stepping for tableaux whose abscissae are
  ordered and equally spaced, so a single precomputed propagator
  exp(delta_c * h * A) suffices. The step is one loop over the rows of a
  and then b, each preceded by as many propagator applications as the
  abscissa (c_s extended by 1) advances in grid steps. The state and the
  stored slopes are rows of one stack, so each application is one call
  on its live rows (one broadcast multiply for diagonal A, one matrix
  product for dense A), and the stage sums are formed in place in
  buffers the plan keeps. Without A it is the classical explicit
  Runge-Kutta step, for any tableau. It silences numpy's overflow and
  invalid warnings, g's included, and reports non-finite values itself.
* ``lawson_step_general``: the integrating-factor form with one
  exponential per stage pair, for diagonal or dense A. Reference
  semantics; used as the oracle the fast stepper is tested against.

``trajectory`` is the one stepping loop over ``slrk_step``, yielding every
step's state; ``integrate`` drains it and returns the last.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .linop import LinearOperator, _state_shape, apply, make_propagator
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

    ``slrk_step`` works in buffers that the plan allocates once per state
    shape and dtype, so a plan is not re-entrant or thread-safe: it must
    not step two states at once.
    """

    problem: OdeProblem
    h: float
    propagator: LinearOperator | None
    weights: np.ndarray
    shifts: tuple[int, ...]
    _workspaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def make_plan(problem: OdeProblem, tableau: Tableau, h: float) -> StepPlan:
    """Validate the tableau against the problem and precompute the propagator.

    With A present the walk (0, c[1], ..., c[s-1], 1) must pass
    ``abscissa_grid`` (equally spaced steps), which also gives the shifts;
    exactly one propagator E = exp(delta_c*h*A) is built, and a ValueError
    is raised if it overflows. Forward Euler steps as u <- E(u + h*g(u)).
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    a, b, _ = tableau.as_floats()
    shifts = (0,) * (tableau.s + 1)
    propagator = None
    if problem.A is not None:
        if not isinstance(problem.A, LinearOperator):
            raise ValueError(f"A must be a LinearOperator (diagonal_operator or dense_operator), "
                             f"got {type(problem.A).__name__}")
        delta_c, shifts = abscissa_grid(tableau.c)
        propagator = make_propagator(problem.A, float(delta_c) * h)
    return StepPlan(problem=problem, h=h, propagator=propagator,
                    weights=np.vstack([a, b]), shifts=shifts)


def _workspace(plan: StepPlan, u: np.ndarray):
    """The plan's (propagator, buffers) for states of u's shape and dtype, built on first use.

    The buffers are one array of s+2 state-sized rows: the propagated state
    in row 0, slope k_m in row m+1, and a scratch row for one stage-sum term.
    Their dtype is u's promoted with the propagator's, to which the
    propagator is cast once, so applying it casts nothing per step.
    """
    key = (u.shape, u.dtype)
    if key not in plan._workspaces:
        e, dtype = plan.propagator, np.result_type(u, 1.0)
        if e is not None:
            if u.shape != _state_shape(e):
                raise ValueError(f"state shape {u.shape} does not fit the operator {e.data.shape}")
            dtype = np.result_type(dtype, e.data)
            e = replace(e, data=e.data.astype(dtype, copy=False))
        plan._workspaces[key] = (e, np.empty((len(plan.shifts) + 1,) + u.shape, dtype))
    return plan._workspaces[key]


@np.errstate(over="ignore", invalid="ignore")
def slrk_step(plan: StepPlan, u: np.ndarray) -> np.ndarray:
    """One simple Lawson Runge-Kutta step (classical explicit RK when A is absent).

    Rows 0..s-1 of the weights give the stage values, whose slopes are
    stored; row s gives the result, a fresh array. u is not written to.
    """
    u = np.asarray(u)
    e, x = _workspace(plan, u)
    s = len(plan.shifts) - 1
    term = x[s + 1]
    x[0] = u
    for j, (shift, row) in enumerate(zip(plan.shifts, plan.weights)):
        for _ in range(shift):  # the state and the j stored slopes, in one call
            apply(e, x[:j + 1], out=x[:j + 1])
        # A stage is summed in the row its slope then overwrites; the result in a fresh array.
        stage = x[j + 1] if j < s else np.empty_like(term)
        acc = x[0]
        for m in range(j):
            if row[m] != 0.0:
                np.multiply(row[m], x[m + 1], out=term)
                acc = np.add(acc, term, out=stage)
        if j < s:
            k = np.multiply(plan.h, plan.problem.g(acc), out=x[j + 1])
            if not np.all(np.isfinite(k)):
                raise NonFiniteStateError(f"non-finite slope at stage {j + 1}")
    if not np.all(np.isfinite(acc)):
        raise NonFiniteStateError("non-finite state after step")
    return acc if acc is stage else acc.copy()


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


def trajectory(plan: StepPlan, u0: np.ndarray, n_steps: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (step, state) after each of n_steps steps from u0, counting from 1.

    A NonFiniteStateError names the step and time, caused by slrk_step's error.
    """
    u = np.asarray(u0)
    for step in range(1, n_steps + 1):
        try:
            u = slrk_step(plan, u)
        except NonFiniteStateError as err:
            raise NonFiniteStateError(f"{err} in step {step}, t = {step * plan.h:g}") from err
        yield step, u


def integrate(plan: StepPlan, u0: np.ndarray, n_steps: int) -> np.ndarray:
    """Drain ``trajectory`` of n_steps >= 1 steps from u0; returns the final state."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    for _, u in trajectory(plan, u0, n_steps):
        pass
    return u
