"""Newton search: residuals, Jacobian, stepping, rationalization."""

import importlib
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest

from slrk.search import (
    DAMPING,
    LAMBDA_INIT,
    QUADRATIC_PHASE_NORM,
    FloatTableau,
    SearchConfig,
    _filtered_step,
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


def rk6_packed():
    a, b, _ = rk6_tableau().as_floats()
    return pack(FloatTableau(a=a, b=b))


def test_dimensions():
    cfg = rk6_config()
    assert cfg.n_unknowns == 36
    assert cfg.n_residuals == 44
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
    """Plain per-tree evaluator: one einsum per child, one per weight."""
    s = cfg.stages
    nbatch = xs.shape[0]
    b = xs[:, :s]
    a = np.zeros((nbatch, s, s))
    rows, cols = np.tril_indices(s, k=-1)
    a[:, rows, cols] = xs[:, s:]

    def phi(tree):
        if not tree.children:
            return np.ones((nbatch, s))
        return reduce(mul, [np.einsum("bij,bj->bi", a, phi(c)) for c in tree.children])

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
            got = search_module._residual_batch(xs, cfg)
            assert got.shape == (nbatch, cfg.n_residuals)
            assert np.array_equal(got, reference_residual_batch(xs, cfg))


def test_residual_batch_rows_independent_of_batch():
    cfg = rk6_config()
    xs = 0.5 * np.random.default_rng(3).standard_normal((2 * cfg.n_unknowns + 1, 36))
    batch = search_module._residual_batch(xs, cfg)
    for k, x in enumerate(xs):
        assert np.array_equal(batch[k], residual_vector(x, cfg))


def test_rk6_float_residuals_match_exact_order_residuals():
    cfg = rk6_config()
    f = residual_vector(rk6_packed(), cfg)
    assert np.max(np.abs(f)) <= 1e-15
    exact = np.array([float(c.residual) for c in order_residuals(rk6_tableau(), 6)])
    assert np.max(np.abs(f[:37] - exact)) <= 1e-15
    # Off the root: rational perturbations of rk6 give nonzero exact residuals,
    # which the float tree rows reproduce to rounding.
    t6 = rk6_tableau()
    a = [list(row) for row in t6.a]
    b = list(t6.b)
    a[3][1] += Fraction(1, 7)
    a[6][4] -= Fraction(2, 13)
    b[2] += Fraction(1, 11)
    perturbed = Tableau(tuple(tuple(row) for row in a), tuple(b))
    exact = np.array([float(c.residual) for c in order_residuals(perturbed, 6)])
    assert np.max(np.abs(exact)) > 1e-2
    af, bf, _ = perturbed.as_floats()
    f = residual_vector(pack(FloatTableau(a=af, b=bf)), cfg)
    assert np.max(np.abs(f[:37] - exact)) <= 1e-15


@pytest.mark.parametrize("stages,rng_seed", [(8, 1), (8, 2), (7, 3)])
def test_search_evaluates_residual_once_per_trial_step(monkeypatch, stages, rng_seed):
    if stages == 8:
        cfg = rk6_config(rng_seed=rng_seed, max_iters=60)
    else:
        cfg = SearchConfig(stages=7, target_order=6, delta_c=Fraction(1, 6),
                           rng_seed=rng_seed, max_iters=60)
    counts = {"residual": 0, "trial": 0, "jacobian": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(search_module, "residual_vector",
                        counting("residual", search_module.residual_vector))
    monkeypatch.setattr(search_module, "_filtered_step",
                        counting("trial", search_module._filtered_step))
    monkeypatch.setattr(search_module, "jacobian",
                        counting("jacobian", search_module.jacobian))
    result = search(cfg)
    iterations = len(result.history) - 1
    assert counts["jacobian"] == iterations
    assert counts["trial"] > iterations  # some trial steps were rejected
    assert counts["residual"] == 1 + counts["trial"]


def test_residual_at_zero_vector():
    cfg = rk6_config()
    f = residual_vector(np.zeros(36), cfg)
    assert f[0] == -1.0  # sum(b) - 1 for the single-node tree


def test_pack_unpack_round_trip():
    cfg = rk6_config()
    x = np.random.default_rng(0).standard_normal(cfg.n_unknowns)
    assert np.array_equal(pack(unpack(x, 8)), x)


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
    with pytest.raises(ValueError, match="no nonzero abscissa increment"):
        SearchConfig(stages=2, target_order=1, delta_c=Fraction(1, 2), c_pattern=(0, 0))


@pytest.mark.parametrize("bad,message", [
    ({"delta_c": Fraction(-1, 2)}, "delta_c must be > 0"),
    ({"delta_c": 0}, "delta_c must be > 0"),
    ({"target_order": 0}, "target_order must be >= 1"),
    ({"max_iters": -1}, "max_iters must be >= 0"),
    ({"residual_tol": 0.0}, "residual_tol must be > 0"),
    ({"residual_tol": float("nan")}, "residual_tol must be > 0"),
    ({"stages": 4, "target_order": 2, "delta_c": Fraction(1, 2)},
     "final abscissa 3/2 is not a whole number"),
])
def test_config_rejects_bad_iteration_settings(bad, message):
    kw = {"stages": 3, "target_order": 3, "delta_c": Fraction(1, 3), **bad}
    with pytest.raises(ValueError, match=message):
        SearchConfig(**kw)


def test_config_allows_zero_iterations():
    cfg = rk6_config(max_iters=0)
    result = search(cfg)
    assert result.status == "stalled"
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


def first_newton_step(x, cfg):
    """The first trial step search() takes from x, and the residual norms before and after."""
    f = residual_vector(x, cfg)
    norm = float(np.linalg.norm(f, np.inf))
    gamma = 1.0 if norm < QUADRATIC_PHASE_NORM else DAMPING
    svd = np.linalg.svd(jacobian(x, cfg), full_matrices=False)
    x_new = x - gamma * _filtered_step(svd, f, LAMBDA_INIT)
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
