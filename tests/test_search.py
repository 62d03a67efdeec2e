"""Newton search: residuals, Jacobian, stepping, rationalization."""

import importlib
import re
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest

from slrk.search import (
    DAMPING,
    DIVERGENCE_NORM,
    INIT_SCALE,
    LAMBDA_GROW,
    LAMBDA_INIT,
    LAMBDA_MAX,
    LAMBDA_MIN,
    LAMBDA_SHRINK,
    PINV_RCOND,
    QUADRATIC_PHASE_NORM,
    STALL_FACTOR,
    STALL_WINDOW,
    FloatTableau,
    SearchConfig,
    SearchResult,
    jacobian,
    multi_start_search,
    pack,
    rationalize,
    residual_vector,
    search,
    uniform_c_pattern,
    unpack,
)
from slrk.order_conditions import enumerate_trees, order_residuals, verified_order
from slrk.tableau import Tableau, rk6_tableau

# slrk re-exports the function `search`, which shadows the module attribute.
search_module = importlib.import_module("slrk.search")


def rk6_config(**kw):
    t6 = rk6_tableau()
    return SearchConfig(stages=8, target_order=6, delta_c=Fraction(1, 6),
                        c_pattern=tuple(t6.c), **kw)


def s7_config(**kw):
    return SearchConfig(stages=7, target_order=6, delta_c=Fraction(1, 6),
                        c_pattern=uniform_c_pattern(7, Fraction(1, 6)), **kw)


def rk6_packed():
    a, b, _ = rk6_tableau().as_floats()
    return pack(FloatTableau(a=a, b=b))


def test_dimensions():
    cfg = rk6_config()
    assert cfg.n_unknowns == 36
    assert len(enumerate_trees(cfg.target_order)) + cfg.stages - 1 == 44
    f = residual_vector(np.zeros(36), cfg)
    assert f.shape == (44,)


def test_residual_zero_at_exact_root():
    cfg = rk6_config()
    f = residual_vector(rk6_packed(), cfg)
    assert np.max(np.abs(f)) <= 1e-14


def subtree_size_product(t):
    """Tree density, independent of slrk: product of all subtree sizes."""
    return t.order * reduce(mul, map(subtree_size_product, t.children), 1)


def reference_residual_batch(xs, cfg):
    """Plain per-tree evaluator: one matmul per child, one einsum per weight."""
    s = cfg.stages
    nbatch = xs.shape[0]
    b = xs[:, :s]
    a = np.zeros((nbatch, s, s))
    rows, cols = np.tril_indices(s, k=-1)
    a[:, rows, cols] = xs[:, s:]

    def phi(tree):
        if not tree.children:
            return np.ones((nbatch, s))
        return reduce(mul, [(a @ phi(c)[..., None])[..., 0] for c in tree.children])

    trees = enumerate_trees(cfg.target_order)
    weights = np.stack([np.einsum("bi,bi->b", b, phi(t)) for t in trees], axis=1)
    inv_gamma = np.array([1.0 / subtree_size_product(t) for t in trees])
    targets = np.array([float(ci) for ci in cfg.c_pattern])
    return np.concatenate([weights - inv_gamma, a.sum(axis=2)[:, 1:] - targets[1:]], axis=1)


@pytest.mark.parametrize("stages,order", [(4, 4), (7, 6), (8, 6)])
def test_residual_batch_bitwise_matches_per_tree_reference(stages, order):
    # 8 uniform steps of 1/6 would end past 1, so 8 stages take rk6's pattern
    cfg = rk6_config() if stages == 8 else SearchConfig(
        stages=stages, target_order=order, delta_c=Fraction(1, 6))
    rng = np.random.default_rng(stages * 10 + order)
    for nbatch in (1, 2, 2 * cfg.n_unknowns):
        for scale in (1e-3, 0.5, 3.0):
            xs = scale * rng.standard_normal((nbatch, cfg.n_unknowns))
            got = search_module._residual_batch(xs, cfg)[0]
            assert got.shape == (nbatch, len(enumerate_trees(order)) + stages - 1)
            assert np.array_equal(got, reference_residual_batch(xs, cfg))


def test_residual_batch_rows_independent_of_batch():
    cfg = rk6_config()
    xs = 0.5 * np.random.default_rng(3).standard_normal((2 * cfg.n_unknowns + 1, 36))
    batch = search_module._residual_batch(xs, cfg)[0]
    for k, x in enumerate(xs):
        assert np.array_equal(batch[k], residual_vector(x, cfg))


def perturbed_rk6():
    """rk6 moved by small rationals, so that no tree residual is zero."""
    t6 = rk6_tableau()
    a = [list(row) for row in t6.a]
    b = list(t6.b)
    a[3][1] += Fraction(1, 7)
    a[6][4] -= Fraction(2, 13)
    b[2] += Fraction(1, 11)
    return Tableau(tuple(tuple(row) for row in a), tuple(b))


def test_rk6_float_residuals_match_exact_order_residuals():
    cfg = rk6_config()
    f = residual_vector(rk6_packed(), cfg)
    assert np.max(np.abs(f)) <= 1e-15
    exact = np.array([float(c.residual) for c in order_residuals(rk6_tableau(), 6)])
    assert np.max(np.abs(f[:37] - exact)) <= 1e-15
    # Off the root: rational perturbations of rk6 give nonzero exact residuals,
    # which the float tree rows reproduce to rounding.
    perturbed = perturbed_rk6()
    exact = np.array([float(c.residual) for c in order_residuals(perturbed, 6)])
    assert np.max(np.abs(exact)) > 1e-2
    af, bf, _ = perturbed.as_floats()
    f = residual_vector(pack(FloatTableau(a=af, b=bf)), cfg)
    assert np.max(np.abs(f[:37] - exact)) <= 1e-15


@pytest.mark.parametrize("stages", [7, 8])
def test_residual_batch_rows_equal_residual_vector_at_small_batches(stages):
    # search() scores its trial steps in batches of this size and reads each row
    # as the residual of one step
    cfg = rk6_config() if stages == 8 else s7_config()
    rng = np.random.default_rng(40 + stages)
    for nbatch in range(1, 9):
        for scale in (1e-3, 0.5, 3.0):
            xs = scale * rng.standard_normal((nbatch, cfg.n_unknowns))
            batch = search_module._residual_batch(xs, cfg)[0]
            for x, row in zip(xs, batch):
                assert np.array_equal(row, residual_vector(x, cfg))


def filtered_step(svd, f, reg_lambda):
    """The 0.15.0 filtered pseudoinverse step, the reference for search()'s inline filter."""
    u, sigma, vt = svd
    keep = sigma >= PINV_RCOND * sigma[0]
    lam = reg_lambda * sigma[0]
    gains = sigma[keep] / (sigma[keep] ** 2 + lam ** 2)
    return vt[keep].T @ (gains * (u[:, keep].T @ f))


def sequential_search(cfg):
    """The 0.14.0 search loop, one residual_vector call per trial step: the rounds' reference.

    Also returns, per iteration that formed an SVD, how many trial steps it
    tried and how many lay below the lambda ceiling.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    x = INIT_SCALE * rng.standard_normal(cfg.n_unknowns)
    f = residual_vector(x, cfg)
    resid = float(np.linalg.norm(f, np.inf))
    reg_lambda = LAMBDA_INIT
    history = [resid]
    trials = []

    def stop(status, reason):
        tableau = unpack(x, cfg.stages) if status == "converged" else None
        return SearchResult(status, reason, tableau, tuple(history), cfg.rng_seed), trials

    while True:
        if resid <= cfg.residual_tol:
            return stop("converged", "residual_tol")
        if np.linalg.norm(x) > DIVERGENCE_NORM:
            return stop("diverged", "divergence_norm")
        if len(history) > cfg.max_iters:
            return stop("stalled", "max_iters")
        if len(history) > STALL_WINDOW and history[-1] > STALL_FACTOR * history[-STALL_WINDOW - 1]:
            return stop("stalled", "stall_window")
        try:
            svd = np.linalg.svd(jacobian(x, cfg), full_matrices=False)
        except np.linalg.LinAlgError:
            return stop("stalled", "linalg_error")
        gamma = 1.0 if resid < QUADRATIC_PHASE_NORM else DAMPING
        offered, lam = 0, reg_lambda
        while lam <= LAMBDA_MAX:
            offered, lam = offered + 1, lam * LAMBDA_GROW
        tried = 0
        while reg_lambda <= LAMBDA_MAX:
            tried += 1
            x_new = x - gamma * filtered_step(svd, f, reg_lambda)
            f_new = residual_vector(x_new, cfg)
            norm_new = float(np.linalg.norm(f_new, np.inf))
            if norm_new < resid:
                x, f, resid = x_new, f_new, norm_new
                reg_lambda = max(reg_lambda / LAMBDA_SHRINK, LAMBDA_MIN)
                break
            reg_lambda *= LAMBDA_GROW
        else:
            trials.append((tried, offered))
            history.append(resid)
            return stop("stalled", "lambda_ceiling")
        trials.append((tried, offered))
        history.append(resid)


def assert_same_result(got, want):
    assert (got.status, got.reason, got.history, got.rng_seed) == \
        (want.status, want.reason, want.history, want.rng_seed)
    if want.tableau is None:
        assert got.tableau is None
    else:
        assert np.array_equal(got.tableau.a, want.tableau.a)
        assert np.array_equal(got.tableau.b, want.tableau.b)


@pytest.mark.parametrize("cfg", [
    rk6_config(rng_seed=5),
    s7_config(rng_seed=5),
    rk6_config(rng_seed=5, max_iters=7),
    SearchConfig(stages=4, target_order=4, delta_c=Fraction(1, 2), rng_seed=5,
                 c_pattern=(Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1))),
], ids=["s8", "s7", "max_iters7", "s4"])
def test_search_equals_the_sequential_trial_loop(cfg):
    results = multi_start_search(cfg, 20)
    for got in results:
        want, _ = sequential_search(replace(cfg, rng_seed=got.rng_seed))
        assert_same_result(got, want)
    if cfg.stages >= 7 and cfg.max_iters > 7:
        assert any(r.reason == "lambda_ceiling" for r in results)


def trial_rounds(tried, offered):
    """Batch sizes of the rounds of 2, 4, 8, ... that reach the tried-th of `offered` steps."""
    sizes, start, size = [], 0, 2
    while start < tried:
        sizes.append(min(size, offered - start))
        start, size = start + size, 2 * size
    return sizes


@pytest.mark.parametrize("stages,rng_seed", [(8, 1), (8, 2), (7, 3)])
def test_search_evaluates_residual_once_per_trial_step(monkeypatch, stages, rng_seed):
    cfg = rk6_config if stages == 8 else s7_config
    cfg = cfg(rng_seed=rng_seed, max_iters=60)
    reference, trials = sequential_search(cfg)
    counts = {"residual": 0, "jacobian": 0}
    batches = []

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    def recording(xs, cfg):
        batches.append(len(xs))
        return batch(xs, cfg)

    batch = search_module._residual_batch
    monkeypatch.setattr(search_module, "_residual_batch", recording)
    monkeypatch.setattr(search_module, "residual_vector",
                        counting("residual", search_module.residual_vector))
    monkeypatch.setattr(search_module, "jacobian",
                        counting("jacobian", search_module.jacobian))
    result = search(cfg)
    assert_same_result(result, reference)
    iterations = len(result.history) - 1
    rounds = [trial_rounds(tried, offered) for tried, offered in trials]
    assert any(len(r) > 1 for r in rounds)  # some first rounds were all rejected
    assert counts["jacobian"] == iterations
    assert counts["residual"] == 1  # at the start only; it evaluates a batch of 1
    # the start, then per iteration the Jacobian's batch (x +- h e_m over the a-unknowns,
    # then x) and one batch per trial round
    jac_batch = 2 * (cfg.n_unknowns - cfg.stages) + 1
    assert batches == [1] + [size for r in rounds for size in [jac_batch] + r]
    assert len(batches) == 1 + iterations + sum(map(len, rounds))


def test_each_stop_reason_is_reachable(monkeypatch):
    assert search(rk6_config(max_iters=0)).reason == "max_iters"
    stalled = multi_start_search(s7_config(), 10)
    assert {r.status for r in stalled} == {"stalled"}
    assert {r.reason for r in stalled} == {"stall_window", "lambda_ceiling"}
    order4 = SearchConfig(stages=4, target_order=4, delta_c=Fraction(1, 2), rng_seed=11,
                          c_pattern=(Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)))
    converged = [r for r in multi_start_search(order4, 4) if r.status == "converged"]
    assert converged and {r.reason for r in converged} == {"residual_tol"}
    monkeypatch.setattr(search_module, "INIT_SCALE", 1e7)  # starts beyond DIVERGENCE_NORM
    result = search(rk6_config())
    assert (result.status, result.reason) == ("diverged", "divergence_norm")
    monkeypatch.undo()

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    result = search(rk6_config())
    assert (result.status, result.reason, len(result.history)) == ("stalled", "linalg_error", 1)


def test_residual_at_zero_vector():
    cfg = rk6_config()
    f = residual_vector(np.zeros(36), cfg)
    assert f[0] == -1.0  # sum(b) - 1 for the single-node tree


def test_pack_unpack_round_trip():
    cfg = rk6_config()
    x = np.random.default_rng(0).standard_normal(cfg.n_unknowns)
    assert np.array_equal(pack(unpack(x, 8)), x)


def test_unpack_of_a_batch_equals_the_single_vector_unpacks():
    cfg = rk6_config()
    xs = np.random.default_rng(17).standard_normal((5, cfg.n_unknowns))
    batch = unpack(xs, 8)
    assert batch.a.shape == (5, 8, 8) and batch.b.shape == (5, 8)
    assert not np.shares_memory(batch.b, xs)  # b is a copy, as for one vector
    for k, x in enumerate(xs):
        one = unpack(x, 8)
        assert batch.a[k].tobytes() == one.a.tobytes() and batch.b[k].tobytes() == one.b.tobytes()
        assert pack(FloatTableau(batch.a[k], batch.b[k])).tobytes() == x.tobytes()
    assert pack(batch).tobytes() == xs.tobytes()
    deep = unpack(xs.reshape(5, 1, -1), 8)  # any number of leading axes
    assert deep.a.tobytes() == batch.a.tobytes() and deep.a.shape == (5, 1, 8, 8)


def test_residual_batch_bits_do_not_depend_on_the_input_layout():
    # unpack copies b, so a strided view scores as its contiguous copy does
    cfg = rk6_config()
    view = np.random.default_rng(19).standard_normal((6, 2 * cfg.n_unknowns))[:, ::2]
    got = search_module._residual_batch(view, cfg)
    want = search_module._residual_batch(np.ascontiguousarray(view), cfg)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert residual_vector(view[2], cfg).tobytes() == want[0][2].tobytes()


@pytest.mark.parametrize("function", [residual_vector, jacobian])
@pytest.mark.parametrize("shape", [(35,), (1, 36), ()])
def test_wrong_number_of_unknowns_is_rejected(function, shape):
    message = f"expected 36 unknowns, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(np.zeros(shape), rk6_config())


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(stages=3, target_order=3, delta_c=Fraction(1, 3),
                     c_pattern=(Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(ValueError):
        SearchConfig(stages=3, target_order=3, delta_c=Fraction(1, 3),
                     c_pattern=(0, Fraction(1, 2), Fraction(2, 3)))
    # patterns that simple Lawson stepping could not take
    with pytest.raises(ValueError, match="final abscissa 2/5 is not a whole number"):
        SearchConfig(stages=2, target_order=2, delta_c=Fraction(2, 5))
    # every stage at 0, then two grid steps to 1: a pattern one propagator steps
    cfg = SearchConfig(stages=2, target_order=1, delta_c=Fraction(1, 2), c_pattern=(0, 0))
    assert cfg.c_pattern == (0, 0)


def test_one_stage_search_finds_euler():
    # c = (0,): the walk (0, 1) is one grid step of delta_c = 1, and b = 1 is the only root.
    cfg = SearchConfig(stages=1, target_order=1, delta_c=1)
    results = multi_start_search(cfg, 2)
    assert [r.status for r in results] == ["converged"] * 2
    exact = rationalize(results[0].tableau, 1000, 1)
    assert exact is not None and exact.b == (1,)


@pytest.mark.parametrize("bad,message", [
    ({"delta_c": Fraction(-1, 2)}, "delta_c must be > 0"),
    ({"delta_c": 0}, "delta_c must be > 0"),
    ({"target_order": 0}, "target_order must be >= 1"),
    ({"max_iters": -1}, "max_iters must be >= 0"),
    ({"residual_tol": 0.0}, "residual_tol must be > 0"),
    ({"residual_tol": float("nan")}, "residual_tol must be > 0"),
    ({"stages": 4, "target_order": 2, "delta_c": Fraction(1, 2)},
     "final abscissa 3/2 is not a whole number"),
    ({"target_order": 11}, "target_order"),
    ({"stages": 0}, "^stages must be >= 1, got 0$"),
    ({"stages": 8.0}, "^stages must be an integer, got 8.0$"),
    ({"target_order": 4.5}, "^target_order must be an integer, got 4.5$"),
    ({"target_order": "4"}, "^target_order must be an integer, got '4'$"),
    ({"c_pattern": (0, Fraction(1, 3))}, "^c_pattern length must equal stages$"),
])
def test_config_rejects_bad_iteration_settings(bad, message):
    kw = {"stages": 3, "target_order": 3, "delta_c": Fraction(1, 3), **bad}
    with pytest.raises(ValueError, match=message):
        SearchConfig(**kw)


def test_config_accepts_numpy_integer_counts():
    cfg = SearchConfig(stages=np.int64(3), target_order=np.int32(3), delta_c=Fraction(1, 3))
    assert cfg.n_unknowns == 6


def test_config_allows_zero_iterations():
    cfg = rk6_config(max_iters=0)
    result = search(cfg)
    assert (result.status, result.reason) == ("stalled", "max_iters")
    assert len(result.history) == 1


def test_jacobian_linear_rows():
    cfg = rk6_config()
    x = 0.5 * np.random.default_rng(8).standard_normal(36)
    j = jacobian(x, cfg)
    # d(sum b - 1)/db_k = 1, zero for the a entries
    assert np.max(np.abs(j[0, :8] - 1.0)) <= 1e-8
    assert np.max(np.abs(j[0, 8:])) <= 1e-8
    # abscissa constraint for stage 2 (row 37): 1 exactly in the a_10 column
    expected = np.zeros(36)
    expected[8] = 1.0
    assert np.max(np.abs(j[37] - expected)) <= 1e-8


def test_jacobian_matches_forward_difference_oracle():
    cfg = rk6_config()
    x = 0.5 * np.random.default_rng(21).standard_normal(36)
    j = jacobian(x, cfg)
    h = 1e-5
    f0 = residual_vector(x, cfg)
    oracle = np.empty_like(j)
    for m in range(36):
        xp = x.copy()
        xp[m] += h
        oracle[:, m] = (residual_vector(xp, cfg) - f0) / h
    assert np.linalg.norm(j - oracle) / np.linalg.norm(oracle) <= 1e-4


def exact_stage_weights(tab, order):
    """phi(t) of every tree of order <= order, in Fractions, one tree at a time."""
    a = [[Fraction(v) for v in row] for row in tab.a]

    def phi(tree):
        vec = [Fraction(1)] * len(a)
        for child in tree.children:
            sub = phi(child)
            vec = [v * sum(aij * sj for aij, sj in zip(row, sub)) for v, row in zip(vec, a)]
        return vec

    return [phi(t) for t in enumerate_trees(order)]


def test_jacobian_b_columns_are_exact_stage_weights():
    cfg = rk6_config()
    tab = perturbed_rk6()
    af, bf, _ = tab.as_floats()
    x = pack(FloatTableau(a=af, b=bf))
    assert np.min(np.abs(residual_vector(x, cfg)[:37])) > 1e-6
    want = np.array([[float(v) for v in phi] for phi in exact_stage_weights(tab, 6)])
    got = jacobian(x, cfg)[:37, :8]
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("stages", [7, 8])
def test_jacobian_abscissa_rows_have_zero_b_columns(stages):
    cfg = rk6_config() if stages == 8 else s7_config()
    x = 0.5 * np.random.default_rng(50 + stages).standard_normal(cfg.n_unknowns)
    j = jacobian(x, cfg)
    assert j.shape == (37 + stages - 1, cfg.n_unknowns)
    assert np.all(j[37:, :stages] == 0.0)


def central_difference_jacobian(x, cfg):
    """Every column a central difference of residual_vector, step 1e-6*max(1, |x_m|)."""
    cols = []
    for m in range(cfg.n_unknowns):
        h = 1e-6 * max(1.0, abs(x[m]))
        xp, xm = x.copy(), x.copy()
        xp[m] += h
        xm[m] -= h
        cols.append((residual_vector(xp, cfg) - residual_vector(xm, cfg)) / (2.0 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("stages", [7, 8])
def test_jacobian_matches_central_differences(stages):
    cfg = rk6_config() if stages == 8 else s7_config()
    rng = np.random.default_rng(60 + stages)
    for scale in (0.1, 0.5, 1.5):
        x = scale * rng.standard_normal(cfg.n_unknowns)
        j = jacobian(x, cfg)
        oracle = central_difference_jacobian(x, cfg)
        assert np.linalg.norm(j - oracle) <= 1e-7 * np.linalg.norm(oracle)
        # the a-columns are those central differences, bit for bit
        assert np.array_equal(j[:, stages:], oracle[:, stages:])


@pytest.mark.parametrize("order", [1, 3])
def test_jacobian_with_no_a_unknowns(order):
    # one stage: a is empty, c = (0,), and every tree but the leaf has phi = a.(...) = 0
    cfg = SearchConfig(stages=1, target_order=order, delta_c=1)
    j = jacobian(np.array([0.7]), cfg)
    want = np.zeros((len(enumerate_trees(order)), 1))
    want[0, 0] = 1.0
    assert np.array_equal(j, want)


def first_newton_step(x, cfg):
    """The first trial step search() takes from x, and the residual norms before and after."""
    f = residual_vector(x, cfg)
    norm = float(np.linalg.norm(f, np.inf))
    gamma = 1.0 if norm < QUADRATIC_PHASE_NORM else DAMPING
    svd = np.linalg.svd(jacobian(x, cfg), full_matrices=False)
    x_new = x - gamma * filtered_step(svd, f, LAMBDA_INIT)
    return norm, float(np.linalg.norm(residual_vector(x_new, cfg), np.inf))


def test_newton_step_fixed_point_at_root():
    _, stepped = first_newton_step(rk6_packed(), rk6_config())
    assert stepped <= 1e-12


def test_newton_step_first_iteration_regression_statistic():
    # Empirical: the damped first step reduces the residual from a random
    # Gaussian init in at least 80 of 100 seeds.
    cfg = rk6_config()
    good = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = 0.5 * rng.standard_normal(36)
        before, after = first_newton_step(x, cfg)
        good += after <= before
    assert good >= 80


@pytest.mark.parametrize("cfg", [
    rk6_config(), s7_config(), rk6_config(max_iters=7),
], ids=["s8", "s7", "max_iters7"])
def test_history_falls_strictly(cfg):
    # search's stall test reads two history entries in place of two window minima
    for result in multi_start_search(cfg, 10):
        history = result.history
        if result.status == "stalled" and history[-2:-1] == history[-1:]:
            history = history[:-1]  # the stop where no trial step was accepted
        assert all(later < earlier for earlier, later in zip(history, history[1:]))


def test_search_determinism():
    cfg = rk6_config(rng_seed=123, max_iters=40)
    r1 = search(cfg)
    r2 = search(cfg)
    assert r1.status == r2.status
    assert r1.history == r2.history


def test_search_finds_order4_family_and_rationalizes():
    cfg = SearchConfig(stages=4, target_order=4, delta_c=Fraction(1, 2),
                       c_pattern=(Fraction(0), Fraction(1, 2), Fraction(1, 2),
                                  Fraction(1)), rng_seed=11)
    results = multi_start_search(cfg, 24)
    converged = [r for r in results if r.status == "converged"]
    assert converged
    exact = [t for t in (rationalize(r.tableau, 1000, 4) for r in converged)
             if t is not None]
    assert exact  # at least one seed lands on a small-rational family member
    for tab in exact:
        assert verified_order(tab) >= 4
    # generic family members look irrational and must be rejected
    assert any(rationalize(r.tableau, 1000, 4) is None for r in converged)


def test_converged_float_root_consistent_with_exact_verification():
    cfg = SearchConfig(stages=4, target_order=4, delta_c=Fraction(1, 2),
                       c_pattern=(Fraction(0), Fraction(1, 2), Fraction(1, 2),
                                  Fraction(1)), rng_seed=11)
    results = multi_start_search(cfg, 24)
    for res in results:
        if res.status != "converged":
            continue
        exact = rationalize(res.tableau, 1000, 4)
        if exact is None:
            continue
        a, b, _ = exact.as_floats()
        f = residual_vector(pack(FloatTableau(a=a, b=b)), cfg)
        assert np.max(np.abs(f)) <= 1e-14
        break
    else:
        pytest.fail("no rationalizable converged result")


def test_rationalize_table1_floats():
    a, b, _ = rk6_tableau().as_floats()
    exact = rationalize(FloatTableau(a=a, b=b), 1000, 6)
    assert exact is not None
    assert exact.a == rk6_tableau().a
    assert exact.b == rk6_tableau().b
    assert all(c.residual == 0 for c in order_residuals(exact, 6))


def test_rationalize_simple_convergent():
    assert Fraction(0.333333333333).limit_denominator(10) == Fraction(1, 3)


def test_rationalize_rejects_non_root():
    a, b, _ = rk6_tableau().as_floats()
    b = b.copy()
    b[0] += 3e-4  # breaks the order conditions but survives denominator 1000
    assert rationalize(FloatTableau(a=a, b=b), 1000, 6) is None


def test_uniform_c_pattern():
    pattern = uniform_c_pattern(4, Fraction(1, 3))
    assert pattern == (0, Fraction(1, 3), Fraction(2, 3), 1)
