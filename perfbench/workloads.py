"""The benchmark's four seeded workloads.

Each workload builds its inputs from the seed, times the program's own
set-up, runs one job at a time, and checks every output it produces:

* ``ns_spectral``: rk6 SLRK steps of the pseudo-spectral Navier-Stokes
  vorticity problem (n=128, nu=1e-2) from a seeded band-limited state.
* ``dense_stiff``: rk6 SLRK steps of du/dt = u - u**3 + A u with a
  seeded dense symmetric A (N=512) of known eigendecomposition.
* ``search``: multi-start Newton searches for 8-stage order-6 schemes on
  rk6's abscissae and 7-stage ones on the uniform 1/6 grid, with every
  converged root rationalized.
* ``verify_stability``: exact order verification of the built-in
  tableaux plus rk4/rk6 stability boundaries at seeded z2.

A job is the timed unit: one step, one ``multi_start_search`` call, or
one verification-and-stability pass. ``units`` counts the work a job did
(steps, Newton iterations, passes). Modules are resolved with importlib
because ``slrk`` re-exports the function ``search`` under the module's
name.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from tracer import Target

NS = importlib.import_module("slrk.navier_stokes")
I = importlib.import_module("slrk.integrator")
L = importlib.import_module("slrk.linop")
S = importlib.import_module("slrk.search")
OC = importlib.import_module("slrk.order_conditions")
ST = importlib.import_module("slrk.stability")
T = importlib.import_module("slrk.tableau")

NS_N, NS_N_SMOKE = 128, 16
NS_NU = 1e-2
NS_H = 0.01
NS_BAND = 6  # seeded initial modes have 1 <= |k| <= NS_BAND
DENSE_N, DENSE_N_SMOKE = 512, 32
DENSE_H = 0.05
SEGMENT_STEPS = 256  # a trajectory restarts from the seeded state after this many steps
ORACLE_STEPS = 2  # leading steps checked against lawson_step_general
NS_TOL = 1e-12  # acceptance criterion 3's tolerance
DENSE_TOL = 1e-12
SEEDS_PER_CALL = 1  # short jobs: a run pairs hundreds of them with reference kernel times
MAX_DENOMINATOR = 1000
RAYS, RAYS_SMOKE = 256, 16
BISECTION_TOL = 1e-10  # region_boundary's unit-modulus residual target
REAL_AXIS_STEP = 1e-6  # real_axis_boundary's bisection width
RK4_REAL_AXIS = -2.7853
ORDERS = {"euler": 1, "heun3": 3, "rk4": 4, "rk6": 6}
CONDITIONS = {"euler": 1, "heun3": 4, "rk4": 8, "rk6": 37}

PER_LAYER = (
    ("navier_stokes.nonlinear_rhs.calls_per_step", "count", "lower"),
    ("navier_stokes.nonlinear_rhs.ms", "ms", "lower"),
    ("navier_stokes.fft.calls_per_step", "count", "lower"),
    ("navier_stokes.fft.ms_per_step", "ms", "lower"),
    ("navier_stokes.hermitian_project.ms_per_step", "ms", "lower"),
    ("navier_stokes.forcing_spectrum.ms_per_step", "ms", "lower"),
    ("navier_stokes.rhs_self.ms_per_step", "ms", "lower"),
    ("linop.apply.calls_per_step", "count", "lower"),
    ("linop.apply.ms_per_step", "ms", "lower"),
    ("linop.apply.bytes_per_step", "B_computed", "lower"),
    ("linop.make_propagator.s", "s", "lower"),
    ("linop.expm.s", "s", "lower"),
    ("integrator.slrk_step.ms", "ms", "lower"),
    ("integrator.self.ms_per_step", "ms", "lower"),
    ("integrator.finite_scans_per_step", "count", "lower"),
    ("integrator.make_plan.s", "s", "lower"),
    ("search.seeds", "count", "higher"),
    ("search.iterations", "count", "higher"),
    ("search.residual_vector.calls", "count/iter", "lower"),
    ("search.residual_vector.ms", "ms/iter", "lower"),
    ("search._residual_batch.vectors", "count/iter", "lower"),
    ("search._residual_batch.ms", "ms/iter", "lower"),
    ("search.jacobian.calls", "count/iter", "lower"),
    ("search.jacobian.ms", "ms/iter", "lower"),
    ("search.svd.calls", "count/iter", "lower"),
    ("search.svd.ms", "ms/iter", "lower"),
    ("search.self.ms", "ms/iter", "lower"),
    ("search.rejected_trials", "count/iter", "lower"),
    ("search.status.converged", "count", "higher"),
    ("search.status.stalled", "count", "lower"),
    ("search.status.diverged", "count", "lower"),
    ("search.useful_ratio", "ratio", "higher"),
    ("search.seed_s_p50", "s", "lower"),
    ("search.seed_s_p90", "s", "lower"),
    ("search.rationalize.ms", "ms", "lower"),
    ("search.rationalize.exact", "count", "higher"),
    ("order_conditions.order_residuals.ms", "ms", "lower"),
    ("order_conditions.verified_order.ms", "ms", "lower"),
    ("stability.stability_polynomial.ms", "ms", "lower"),
    ("stability.region_boundary.ms", "ms", "lower"),
    ("stability.real_axis_boundary.ms", "ms", "lower"),
    ("stability.rays_skipped", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_sum_ms", "ms", "lower"),
    ("trace.untraced_wall_ms_p50", "ms", "lower"),
    ("trace.selfcheck_failures", "count", "lower"),
    ("trace.spans", "count", "lower"),
)

PLAN_TARGETS = (
    Target("slrk.integrator", "make_plan", "integrator.make_plan", keep_durations=True),
    Target("slrk.integrator", "make_propagator", "linop.make_propagator",
           keep_durations=True),
)
EXPM = Target("slrk.linop", "expm", "linop.expm", keep_durations=True)
FINITE = Target("numpy", "isfinite", "numpy.isfinite", inline=True)
APPLY = Target("slrk.integrator", "apply", "linop.apply")


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method); a single sample is its own percentile."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def clear_caches() -> None:
    """Drop every memoized table in slrk so a set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "slrk" or name.startswith("slrk."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Tally:
    """Outputs checked and outputs that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{what}: {'; '.join(problems)}")


class TraceView:
    """A traced run's spans, job by job: counts are run totals, times medians over jobs."""

    def __init__(self, tracer, jobs, units):
        self.tracer = tracer
        self.jobs = jobs  # per traced job: span name -> Totals of that job
        self.units = units  # per traced job: units of work done

    def per_unit(self, name: str, field: str = "calls") -> float:
        """A count summed over the run, per unit of work."""
        return sum(getattr(j[name], field) for j in self.jobs if name in j) / sum(self.units)

    def ms(self, name: str, field: str = "incl_ns") -> float:
        """Median over jobs of a span's time per unit of work, in ms."""
        return statistics.median(getattr(j[name], field) / u / 1e6 if name in j else 0.0
                                 for j, u in zip(self.jobs, self.units) if u)

    def ms_per_call(self, name: str) -> float:
        times = [j[name].incl_ns / j[name].calls / 1e6 for j in self.jobs if name in j]
        return statistics.median(times) if times else 0.0

    def durations_s(self, name: str) -> list[float]:
        return [d / 1e9 for d in self.tracer.totals_for(name).durations_ns]

    def setup_s(self, name: str) -> float:
        durations = self.durations_s(name)
        return statistics.median(durations) if durations else 0.0

    def layer_sum_ms(self) -> float:
        """Sum over span names of the median self time per job, in ms."""
        names = {name for j in self.jobs for name in j} - {FINITE.span}
        return sum(statistics.median(j[name].self_ns / 1e6 if name in j else 0.0
                                     for j in self.jobs) for name in names)


class Workload:
    """One seeded workload; subclasses define inputs, set-up, a job and its checks."""

    name = ""
    unit = ""  # one unit of the work that units() counts
    job = ""  # span name of one job
    warmup_jobs = 1
    fixed_counts = True  # every job makes the same calls, so traced counts must repeat
    setup_targets = ()

    def __init__(self, seed: int, tamper=None):
        self.seed = seed
        self.tamper = tamper  # test hook: corrupts an output before it is checked
        self.tally = Tally()

    def checked(self, out):
        return self.tamper(out) if self.tamper is not None else out

    def start(self) -> None:
        """Fixed checks and state initialisation after set-up."""

    def finish(self) -> None:
        """Checks that run once after the measured window."""

    def digest(self):
        return None

    def tolerances(self) -> dict:
        return {}


class Stepping(Workload):
    """Shared loop for the two SLRK stepping workloads; a job is one step."""

    unit = "step"
    job = "integrator.slrk_step"
    setup_targets = PLAN_TARGETS
    tolerance = 0.0

    def start(self):
        self.state = self.u0
        self.steps = 0
        self.worst_rel = 0.0

    def next_input(self):
        return self.state

    def work(self, u):
        return I.slrk_step(self.plan, u)

    def units(self, out) -> int:
        return 1

    def same(self, a, b) -> bool:
        return np.array_equal(a, b)

    def g(self, u):
        return self.rhs(u)

    def _check(self, what, u, out, oracle):
        view = self.checked(out)
        problems = []
        if not np.all(np.isfinite(view)):
            problems.append("non-finite state")
        elif oracle:
            ref = self.oracle(u)
            rel = float(np.max(np.abs(view - ref)) / np.max(np.abs(ref)))
            self.worst_rel = max(self.worst_rel, rel)
            if not rel <= self.tolerance:
                problems.append(f"oracle relative error {rel:.3e} > {self.tolerance:.0e}")
        self.tally.record(what, problems)

    def accept(self, u, out):
        self._check(f"step {self.steps}", u, out, self.steps < ORACLE_STEPS)
        self.steps += 1
        self.state = out if self.steps % SEGMENT_STEPS else self.u0

    def finish(self):
        u = self.state
        self._check("final step", u, self.work(u), True)

    def tolerances(self):
        return {"oracle_rel_tol": self.tolerance, "oracle_worst_rel": self.worst_rel,
                "oracle_steps": ORACLE_STEPS + 1}

    def layer_metrics(self, view: TraceView) -> dict:
        rhs, fft = "navier_stokes.nonlinear_rhs", "navier_stokes.fft"
        apply_calls = view.per_unit(APPLY.span)
        bytes_per_apply = self.plan.propagator.data.nbytes + 2 * np.asarray(self.u0).nbytes
        return {
            "navier_stokes.nonlinear_rhs.calls_per_step": view.per_unit(rhs),
            "navier_stokes.nonlinear_rhs.ms": view.ms_per_call(rhs),
            "navier_stokes.fft.calls_per_step": view.per_unit(fft),
            "navier_stokes.fft.ms_per_step": view.ms(fft),
            "navier_stokes.hermitian_project.ms_per_step":
                view.ms("navier_stokes.hermitian_project"),
            "navier_stokes.forcing_spectrum.ms_per_step":
                view.ms("navier_stokes.forcing_spectrum"),
            "navier_stokes.rhs_self.ms_per_step": view.ms(rhs, "self_ns"),
            "linop.apply.calls_per_step": apply_calls,
            "linop.apply.ms_per_step": view.ms(APPLY.span),
            "linop.apply.bytes_per_step": apply_calls * bytes_per_apply,
            "linop.make_propagator.s": view.setup_s("linop.make_propagator"),
            "linop.expm.s": view.setup_s("linop.expm"),
            "integrator.slrk_step.ms": view.ms(self.job),
            "integrator.self.ms_per_step": view.ms(self.job, "self_ns"),
            "integrator.finite_scans_per_step": view.per_unit(FINITE.span),
            "integrator.make_plan.s": view.setup_s("integrator.make_plan"),
        }

    def report(self, times, units):
        total = sum(times)
        return [
            ("steps_per_s", units / total, "1/s", "higher", f"{units} steps"),
            ("step_ms_p50", 1e3 * statistics.median(times), "ms", "lower", f"n={len(times)}"),
            ("step_ms_p90", 1e3 * percentile(times, 90), "ms", "lower", f"n={len(times)}"),
        ]


def band_limited_vorticity(grid, rng) -> np.ndarray:
    """Random Hermitian-symmetric, zero-mean coefficients with 1 <= |k| <= NS_BAND.

    Scaled to the same coefficient 2-norm (so the same enstrophy) as
    the analytic initial condition.
    """
    n = grid.n
    k2 = grid.kx ** 2 + grid.ky ** 2
    band = (k2 >= 1) & (k2 <= NS_BAND ** 2)
    w = np.where(band, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0)
    rev = (-np.arange(n)) % n
    w = 0.5 * (w + np.conj(w[np.ix_(rev, rev)]))
    w[0, 0] = 0.0
    return w * (np.linalg.norm(NS.initial_condition(grid)) / np.linalg.norm(w))


class NsSpectral(Stepping):
    name = "ns_spectral"
    tolerance = NS_TOL

    def __init__(self, seed, smoke=False, tamper=None):
        super().__init__(seed, tamper)
        self.n = NS_N_SMOKE if smoke else NS_N
        self.u0 = band_limited_vorticity(NS.make_grid(self.n), np.random.default_rng(seed))
        self.job_targets = (
            Target(self, "rhs", "navier_stokes.nonlinear_rhs"),
            APPLY,
            Target("slrk.navier_stokes", "hermitian_project", "navier_stokes.hermitian_project"),
            Target("slrk.navier_stokes", "forcing_spectrum", "navier_stokes.forcing_spectrum"),
            Target("numpy.fft", "fft2", "navier_stokes.fft"),
            Target("numpy.fft", "ifft2", "navier_stokes.fft"),
            FINITE,
        )

    def setup(self):
        clear_caches()
        self.tableau = T.rk6_tableau()
        problem = NS.make_problem(NS.make_grid(self.n), NS_NU)
        self.rhs = problem.g
        self.operator = problem.A
        self.plan = I.make_plan(replace(problem, g=self.g), self.tableau, NS_H)

    def oracle(self, u):
        return I.lawson_step_general(self.tableau, self.rhs, self.operator, u, NS_H)


def cubic(u):
    return u - u ** 3


class DenseStiff(Stepping):
    name = "dense_stiff"
    setup_targets = PLAN_TARGETS + (EXPM,)
    tolerance = DENSE_TOL

    def __init__(self, seed, smoke=False, tamper=None):
        super().__init__(seed, tamper)
        n = DENSE_N_SMOKE if smoke else DENSE_N
        rng = np.random.default_rng(seed)
        self.eigenvalues = -(10.0 ** rng.uniform(-2.0, 3.0, n))
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        self.basis = q * np.sign(np.diag(r))
        self.matrix = (self.basis * self.eigenvalues) @ self.basis.T
        self.u0 = 0.5 * rng.standard_normal(n)
        self.rhs = cubic
        self.job_targets = (Target(self, "rhs", "problem.g"), APPLY, FINITE)

    def setup(self):
        clear_caches()
        self.tableau = T.rk6_tableau()
        problem = I.OdeProblem(g=self.g, A=L.dense_operator(self.matrix))
        self.plan = I.make_plan(problem, self.tableau, DENSE_H)

    def oracle(self, u):
        """The general Lawson step taken in A's eigenbasis, where A is diagonal."""
        q = self.basis
        y = I.lawson_step_general(self.tableau, lambda v: q.T @ self.rhs(q @ v),
                                  L.diagonal_operator(self.eigenvalues), q.T @ u, DENSE_H)
        return q @ y


class Search(Workload):
    name = "search"
    unit = "Newton iteration"
    job = "search.multi_start_search"
    warmup_jobs = 0
    fixed_counts = False
    job_targets = (
        Target("slrk.search", "search", "search.search", keep_durations=True),
        Target("slrk.search", "residual_vector", "search.residual_vector"),
        Target("slrk.search", "_residual_batch", "search._residual_batch",
               weight=lambda args: np.shape(args[0])[0]),
        Target("slrk.search", "jacobian", "search.jacobian"),
        Target("numpy.linalg", "svd", "search.svd"),
        # Called only for converged roots, so a run may legitimately make no call.
        Target("slrk.search", "rationalize", "search.rationalize", required=False),
    )

    def __init__(self, seed, smoke=False, tamper=None):
        super().__init__(seed, tamper)
        self.calls = 0
        self.rows: list[list] = []  # stages, rng_seed, status, iterations
        self.accepted_steps = 0
        self.exact = 0

    def setup(self):
        clear_caches()
        dc = Fraction(1, 6)
        self.configs = (
            S.SearchConfig(stages=8, target_order=6, delta_c=dc,
                           c_pattern=tuple(T.rk6_tableau().c)),
            S.SearchConfig(stages=7, target_order=6, delta_c=dc,
                           c_pattern=S.uniform_c_pattern(7, dc)),
        )
        for cfg in self.configs:  # builds the lazily cached tree program
            S.residual_vector(np.zeros(cfg.n_unknowns), cfg)

    def next_input(self):
        k = self.calls
        self.calls += 1
        rng_seed = np.random.SeedSequence(self.seed, spawn_key=(k,)).generate_state(1)[0]
        return replace(self.configs[k % 2], rng_seed=int(rng_seed))

    def work(self, cfg):
        results = S.multi_start_search(cfg, SEEDS_PER_CALL)
        exact = [S.rationalize(r.tableau, MAX_DENOMINATOR, cfg.target_order)
                 if r.status == "converged" else None for r in results]
        return results, exact

    def units(self, out) -> int:
        return sum(len(r.history) - 1 for r in out[0])

    def same(self, a, b) -> bool:
        def key(out):
            return [(r.status, r.history, r.rng_seed) for r in out[0]], out[1]
        return key(a) == key(b)

    def accept(self, cfg, out):
        results, exact = self.checked(out)
        for r, e in zip(results, exact):
            problems = []
            if r.status not in ("converged", "stalled", "diverged"):
                problems.append(f"unknown status {r.status!r}")
            if any(b > a for a, b in zip(r.history, r.history[1:])):
                problems.append("residual history rose")
            if r.status == "converged":
                x = S.pack(r.tableau)
                norm = float(np.max(np.abs(S.residual_vector(x, cfg))))
                if not norm <= cfg.residual_tol:
                    problems.append(f"root residual {norm:.3e} > {cfg.residual_tol:.0e}")
                if e is not None and any(c.residual != 0
                                         for c in OC.order_residuals(e, cfg.target_order)):
                    problems.append("rationalized root not exact")
            self.tally.record(f"s={cfg.stages} seed {r.rng_seed}", problems)
            self.rows.append([cfg.stages, int(r.rng_seed), r.status, len(r.history) - 1])
            self.accepted_steps += sum(b < a for a, b in zip(r.history, r.history[1:]))
            self.exact += e is not None

    def converged(self) -> dict:
        return {str(cfg.stages): sum(row[0] == cfg.stages and row[2] == "converged"
                                     for row in self.rows) for cfg in self.configs}

    def digest(self):
        return {"seeds_per_call": SEEDS_PER_CALL, "converged": self.converged(),
                "seeds": self.rows, "columns": ["stages", "rng_seed", "status", "iterations"]}

    def layer_metrics(self, view: TraceView) -> dict:
        iterations = sum(view.units)
        seeds = len(self.rows)
        rv = "search.residual_vector"
        # one residual per seed start, one per iteration, one per trial step
        trials = view.per_unit(rv) * iterations - seeds - iterations
        status = {s: sum(row[2] == s for row in self.rows)
                  for s in ("converged", "stalled", "diverged")}
        seed_s = view.durations_s("search.search")
        return {
            "search.seeds": seeds,
            "search.iterations": iterations,
            "search.residual_vector.calls": view.per_unit(rv),
            "search.residual_vector.ms": view.ms(rv, "self_ns"),
            "search._residual_batch.vectors": view.per_unit("search._residual_batch", "weight"),
            "search._residual_batch.ms": view.ms("search._residual_batch"),
            "search.jacobian.calls": view.per_unit("search.jacobian"),
            "search.jacobian.ms": view.ms("search.jacobian", "self_ns"),
            "search.svd.calls": view.per_unit("search.svd"),
            "search.svd.ms": view.ms("search.svd"),
            "search.self.ms": view.ms("search.search", "self_ns"),
            "search.rejected_trials": (trials - self.accepted_steps) / iterations,
            "search.status.converged": status["converged"],
            "search.status.stalled": status["stalled"],
            "search.status.diverged": status["diverged"],
            "search.useful_ratio": status["converged"] / seeds,
            "search.seed_s_p50": statistics.median(seed_s),
            "search.seed_s_p90": percentile(seed_s, 90),
            "search.rationalize.ms": view.ms_per_call("search.rationalize"),
            "search.rationalize.exact": self.exact,
        }

    def report(self, times, units):
        total = sum(times)
        seeds = len(self.rows)
        converged = self.converged()
        n = f"n={len(times)} seeds"
        return [
            ("seeds_per_s", seeds / total, "1/s", "higher", f"{seeds} seeds"),
            ("newton_iters_per_s", units / total, "1/s", "higher", f"{units} iterations"),
            ("seed_s_p50", statistics.median(times), "s", "lower", n),
            ("seed_s_p90", percentile(times, 90), "s", "lower", n),
            ("roots_per_min", 60.0 * sum(converged.values()) / total, "1/min", "higher",
             "converged by stage count " + ", ".join(f"s={k}: {v}"
                                                     for k, v in converged.items())),
        ]


class VerifyStability(Workload):
    name = "verify_stability"
    unit = "pass"
    job = "verify_stability.pass"
    job_targets = (
        Target("slrk.order_conditions", "order_residuals", "order_conditions.order_residuals"),
        Target("slrk.order_conditions", "verified_order", "order_conditions.verified_order"),
        Target("slrk.stability", "stability_polynomial", "stability.stability_polynomial"),
        Target("slrk.stability", "region_boundary", "stability.region_boundary"),
        Target("slrk.stability", "real_axis_boundary", "stability.real_axis_boundary"),
    )

    def __init__(self, seed, smoke=False, tamper=None):
        super().__init__(seed, tamper)
        self.rays = RAYS_SMOKE if smoke else RAYS
        self.rng = np.random.default_rng(seed)
        self.passes = 0
        self.rays_skipped = 0
        self.worst_modulus_error = 0.0

    def setup(self):
        clear_caches()
        self.tableaux = {name: getattr(T, f"{name}_tableau")() for name in ORDERS}
        OC.enumerate_trees(max(ORDERS.values()) + 1)  # verified_order looks one order past

    def start(self):
        rk4 = ST.real_axis_boundary(ST.stability_polynomial(self.tableaux["rk4"]), 0.0)
        problems = [] if abs(rk4 - RK4_REAL_AXIS) <= 1e-3 else [f"rk4 boundary {rk4}"]
        self.tally.record("rk4 real-axis boundary at z2=0", problems)

    def next_input(self):
        return complex(self.rng.uniform(-20.0, 0.0), self.rng.uniform(0.0, 5.0))

    def work(self, z2):
        verify = {name: (OC.order_residuals(tab, ORDERS[name]), OC.verified_order(tab))
                  for name, tab in self.tableaux.items()}
        stability = {}
        for name in ("rk4", "rk6"):
            phi = ST.stability_polynomial(self.tableaux[name])
            stability[name] = (phi, ST.region_boundary(phi, z2, self.rays),
                               ST.real_axis_boundary(phi, z2))
        return verify, stability

    def units(self, out) -> int:
        return 1

    def same(self, a, b) -> bool:
        (va, sa), (vb, sb) = a, b
        return va == vb and all(
            sa[k][0] == sb[k][0] and np.array_equal(sa[k][1].points, sb[k][1].points)
            and sa[k][2] == sb[k][2] for k in sa)

    def accept(self, z2, out):
        verify, stability = self.checked(out)
        for name, (conditions, order) in verify.items():
            problems = []
            if len(conditions) != CONDITIONS[name]:
                problems.append(f"{len(conditions)} conditions, expected {CONDITIONS[name]}")
            if any(c.residual != 0 for c in conditions):
                problems.append("nonzero exact residual")
            if order != ORDERS[name]:
                problems.append(f"verified order {order}, expected {ORDERS[name]}")
            self.tally.record(f"{name} verification", problems)
        scale = np.exp(z2.real)
        for name, (phi, boundary, x) in stability.items():
            errors = [abs(scale * abs(phi(z)) - 1.0) for z in boundary.points]
            worst = max(errors, default=float("inf"))
            self.worst_modulus_error = max(self.worst_modulus_error, worst)
            problems = [] if worst <= BISECTION_TOL else [f"|e^z2 Phi| - 1 = {worst:.2e}"]
            self.tally.record(f"{name} region boundary at z2={z2:.4f}", problems)
            self.rays_skipped += len(boundary.skipped_angles)

            def modulus(t):
                return scale * abs(phi(complex(t)))
            stable_edge = x <= 0.0 and modulus(x) <= 1.0 < modulus(x - REAL_AXIS_STEP)
            self.tally.record(f"{name} real-axis boundary at z2={z2:.4f}",
                              [] if stable_edge else [f"{x} is not the stability edge"])
        self.passes += 1

    def tolerances(self):
        return {"bisection_tol": BISECTION_TOL,
                "worst_modulus_error": self.worst_modulus_error}

    def layer_metrics(self, view: TraceView) -> dict:
        out = {f"{t.span}.ms": view.ms(t.span) for t in self.job_targets}
        out["stability.rays_skipped"] = self.rays_skipped / self.passes
        return out

    def report(self, times, units):
        return [
            ("passes_per_s", units / sum(times), "1/s", "higher", f"{units} passes"),
            ("pass_ms_p50", 1e3 * statistics.median(times), "ms", "lower", f"n={len(times)}"),
            ("pass_ms_p90", 1e3 * percentile(times, 90), "ms", "lower", f"n={len(times)}"),
        ]


WORKLOADS = {w.name: w for w in (NsSpectral, DenseStiff, Search, VerifyStability)}
