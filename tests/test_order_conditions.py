"""Rooted trees, densities, elementary weights, exact order verification."""

import random
from fractions import Fraction

import pytest

from slrk.order_conditions import (
    LEAF,
    VERIFIED_ORDER_CAP,
    RootedTree,
    _densities,
    enumerate_trees,
    order_residuals,
    verified_order,
)
from slrk.tableau import Tableau, euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau

PATH2 = RootedTree((LEAF,))
PATH3 = RootedTree((PATH2,))
BUSHY3 = RootedTree((LEAF, LEAF))


def rooted_tree_counts(n_max):
    """Independent oracle: the rooted-tree counting recurrence.

    r(n+1) = (1/n) * sum_{k=1..n} (sum_{d | k} d*r(d)) * r(n-k+1).
    """
    r = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            dsum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += dsum * r[n - k + 1]
        assert total % n == 0
        r.append(total // n)
    return r[1:]


def subtree_size_product(t):
    """Independent density oracle: product of all subtree sizes."""
    prod = t.order
    for child in t.children:
        prod *= subtree_size_product(child)
    return prod


def reference_weight(tab, t):
    """Independent weight oracle: recursive per-tree Fraction evaluation.

    phi_i(t) = prod over children c of sum_j a_ij phi_j(c); weight = b . phi.
    """
    def phi(tree):
        out = [Fraction(1)] * tab.s
        for child in tree.children:
            child_phi = phi(child)
            for i in range(tab.s):
                out[i] *= sum((tab.a[i][j] * child_phi[j] for j in range(i)), Fraction(0))
        return out

    return sum((bi * pi for bi, pi in zip(tab.b, phi(t))), Fraction(0))


def weights(tab, p):
    """Exact elementary weight of every tree of order <= p: residual + 1/density."""
    return {c.tree: c.residual + 1 / c.density for c in order_residuals(tab, p)}


def perturbed(tab, name, da=(), db=()):
    """tab with exact rational offsets added to entries of a and b."""
    a = [list(row) for row in tab.a]
    b = list(tab.b)
    for (i, j), d in da:
        a[i][j] += d
    for i, d in db:
        b[i] += d
    return Tableau(tuple(tuple(row) for row in a), tuple(b), name)


# rk6 off its root: a row-sum change (order 1), a b shift between the two
# stages at c = 1/6 (order 2), a row-sum-preserving shift in a (order 3).
PERTURBED_RK6 = [
    (perturbed(rk6_tableau(), "rk6-row-sum", da=[((3, 1), Fraction(1, 7))]), 1),
    (perturbed(rk6_tableau(), "rk6-b-shift",
               db=[(1, Fraction(1, 7)), (2, -Fraction(1, 7))]), 2),
    (perturbed(rk6_tableau(), "rk6-a-shift",
               da=[((3, 1), Fraction(1, 7)), ((3, 2), -Fraction(1, 7))]), 3),
]


def test_counts_per_order():
    trees = enumerate_trees(6)
    counts = [sum(t.order == k for t in trees) for k in range(1, 7)]
    assert counts == [1, 1, 2, 4, 9, 20]
    assert len(trees) == 37


def test_counts_match_recurrence_oracle():
    oracle = rooted_tree_counts(10)
    trees = enumerate_trees(10)
    counts = [sum(t.order == k for t in trees) for k in range(1, 11)]
    assert counts == oracle


def test_enumerate_small_orders():
    assert enumerate_trees(1) == [LEAF]
    assert enumerate_trees(2) == [LEAF, PATH2]


def test_enumerate_range_check():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_trees(11)


def test_enumeration_deterministic_and_closed_under_canonical_form():
    trees = enumerate_trees(7)
    assert trees == enumerate_trees(7)
    # level sequences are canonical: distinct trees, distinct sequences
    assert len({t.level_sequence() for t in trees}) == len(trees)
    for t in trees:
        assert RootedTree(tuple(reversed(t.children))) == t


def canonical_level_sequence(seq):
    """Oracle: a level sequence with each node's subtrees reordered, descending."""
    kids, i = [], 1
    while i < len(seq):
        j = i + 1
        while j < len(seq) and seq[j] > seq[i]:
            j += 1
        kids.append(canonical_level_sequence(tuple(d - 1 for d in seq[i:j])))
        i = j
    return (1, *(d + 1 for kid in sorted(kids, reverse=True) for d in kid))


def ordered_level_sequences(n):
    """Oracle: the level sequence of every ordered (plane) tree on n nodes."""
    def grow(seq):
        if len(seq) == n:
            yield tuple(seq)
            return
        for depth in range(2, seq[-1] + 2):
            yield from grow(seq + [depth])
    return grow([1])


def test_enumeration_order_matches_brute_force_oracle():
    # The order fixes the search's residual rows and the rows verify prints.
    canonical = {canonical_level_sequence(seq)
                 for n in range(1, 9) for seq in ordered_level_sequences(n)}
    oracle = sorted(canonical, key=lambda seq: (len(seq), seq))
    assert len(oracle) == 200
    assert [t.level_sequence() for t in enumerate_trees(8)] == oracle


def test_isomorphic_trees_compare_equal():
    a = RootedTree((PATH2, LEAF, BUSHY3))
    b = RootedTree((BUSHY3, LEAF, PATH2))
    assert a == b
    assert hash(a) == hash(b)


def test_density_base_cases():
    assert enumerate_trees(3) == [LEAF, PATH2, BUSHY3, PATH3]
    assert _densities(3) == (1, 2, 3, 6)


def test_density_matches_subtree_product_oracle():
    trees = enumerate_trees(8)
    assert all(type(gamma) is int for gamma in _densities(8))
    assert list(_densities(8)) == [subtree_size_product(t) for t in trees]
    conditions = order_residuals(rk4_tableau(), 8)
    assert [c.density for c in conditions] == [subtree_size_product(t) for t in trees]


@pytest.mark.parametrize("make", [euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau])
def test_single_node_weight_is_b_sum(make):
    t = make()
    assert weights(t, 1)[LEAF] == sum(t.b)


def test_path2_weight_on_rk4():
    t = rk4_tableau()
    expected = sum(bi * ci for bi, ci in zip(t.b, t.c))
    assert weights(t, 2)[PATH2] == expected == Fraction(1, 2)


def test_rk6_satisfies_all_order6_conditions():
    exact = weights(rk6_tableau(), 6)
    assert list(exact) == enumerate_trees(6)
    for tree, weight in exact.items():
        assert weight == Fraction(1, subtree_size_product(tree))


def test_weight_invariant_under_child_permutation():
    rng = random.Random(99)
    tab = rk6_tableau()
    exact = weights(tab, 6)
    trees = [t for t in enumerate_trees(6) if len(t.children) > 1]
    for t in trees:
        kids = list(t.children)
        rng.shuffle(kids)
        shuffled = RootedTree(tuple(kids))
        assert shuffled == t
        assert exact[shuffled] == exact[t] == reference_weight(tab, shuffled)


def test_order_residuals_rk6():
    conditions = order_residuals(rk6_tableau(), 6)
    assert len(conditions) == 37
    assert all(c.residual == 0 for c in conditions)


def test_order_residuals_rk4():
    conditions = order_residuals(rk4_tableau(), 4)
    assert len(conditions) == 8
    assert all(c.residual == 0 for c in conditions)
    order5 = order_residuals(rk4_tableau(), 5)
    assert any(c.residual != 0 for c in order5)


def test_order_residuals_rejects_order_zero():
    with pytest.raises(ValueError, match="^order must be >= 1, got 0$"):
        order_residuals(rk4_tableau(), 0)


def test_verified_order():
    assert verified_order(rk6_tableau()) == 6
    assert verified_order(rk4_tableau()) == 4
    assert verified_order(heun3_tableau()) == 3
    assert verified_order(euler_tableau()) == 1


@pytest.mark.parametrize("tab", [make() for make in
                                 (euler_tableau, heun3_tableau, rk4_tableau, rk6_tableau)]
                         + [tab for tab, _ in PERTURBED_RK6], ids=lambda tab: tab.name)
def test_exact_residuals_match_recursive_oracle(tab):
    # Every order 1..8 builds its own subtree program; all must give the
    # oracle's Fractions exactly, zero or not.
    oracle = {t: reference_weight(tab, t) - Fraction(1, subtree_size_product(t))
              for t in enumerate_trees(8)}
    assert any(r != 0 for r in oracle.values())
    for p in range(1, 9):
        conditions = order_residuals(tab, p)
        assert [c.tree for c in conditions] == enumerate_trees(p)
        for c in conditions:
            assert type(c.residual) is Fraction
            assert c.residual == oracle[c.tree]
            assert type(c.density) is Fraction
            assert c.density == subtree_size_product(c.tree)
    for t, weight in weights(tab, 5).items():
        assert type(weight) is Fraction
        assert weight == reference_weight(tab, t)


@pytest.mark.parametrize("tab,order", PERTURBED_RK6, ids=lambda v: getattr(v, "name", v))
def test_verified_order_drops_on_perturbed_tableaux(tab, order):
    assert verified_order(tab) == order
    # the largest p whose oracle residuals all vanish
    oracle = max([0] + [p for p in range(1, VERIFIED_ORDER_CAP + 1)
                        if all(reference_weight(tab, t) == Fraction(1, subtree_size_product(t))
                               for t in enumerate_trees(p))])
    assert oracle == order
