"""Rooted-tree order conditions for explicit Runge-Kutta tableaux.

A scheme has order p iff the elementary weight of every rooted tree t
with at most p nodes equals 1/density(t); order 6 involves 37 trees.

The stage weights of all trees come from one program over their distinct
subtrees, which forms each stage vector a.phi once per distinct child
subtree. The same program runs on float arrays for the search residual
(slrk.search) and, for the exact verification here, on object arrays of
Python ints: a is scaled by the lcm d of its denominators, so phi(t)
comes out scaled by d^(order(t)-1) and each weight is one Fraction
formed at the end, with no Fraction arithmetic inside the program.
Tree densities are likewise built once per program (`_densities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .tableau import Tableau

MAX_ORDER = 10
VERIFIED_ORDER_CAP = 8


@dataclass(frozen=True)
class RootedTree:
    """Unordered rooted tree in canonical form.

    Children are stored sorted by their level sequence, so isomorphic
    trees compare (and hash) equal.
    """

    children: tuple["RootedTree", ...] = ()

    def __post_init__(self):
        kids = tuple(sorted(self.children, key=lambda t: t.level_sequence(), reverse=True))
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "_order", 1 + sum(k.order for k in kids))
        seq = [1]
        for k in kids:
            seq.extend(d + 1 for d in k.level_sequence())
        object.__setattr__(self, "_levelseq", tuple(seq))

    @property
    def order(self) -> int:
        """Number of nodes."""
        return self._order

    def level_sequence(self) -> tuple[int, ...]:
        """Preorder node depths (root depth 1); canonical serialization."""
        return self._levelseq


LEAF = RootedTree()


@lru_cache(maxsize=None)
def _trees_of_order(n: int) -> tuple[RootedTree, ...]:
    if n == 1:
        return (LEAF,)
    trees = {RootedTree(forest) for forest in _forests(n - 1)}
    return tuple(sorted(trees, key=RootedTree.level_sequence))


@lru_cache(maxsize=None)
def _forests(total: int) -> tuple[tuple[RootedTree, ...], ...]:
    """All multisets of trees with orders summing to `total`."""
    pool = [t for k in range(1, total + 1) for t in _trees_of_order(k)]
    out = []

    def extend(prefix, remaining, start):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.order > remaining:
                continue
            prefix.append(t)
            extend(prefix, remaining - t.order, i)
            prefix.pop()

    extend([], total, 0)
    return tuple(out)


def enumerate_trees(max_order: int) -> list[RootedTree]:
    """All non-isomorphic rooted trees with up to max_order nodes.

    Deterministic order: by node count, then by level sequence.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in [1, {MAX_ORDER}], got {max_order}")
    return [t for n in range(1, max_order + 1) for t in _trees_of_order(n)]


@lru_cache(maxsize=None)
def _program(max_order: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """The trees of order <= max_order as a program over distinct subtrees.

    enumerate_trees orders trees by node count, so every subtree of a tree
    is itself an earlier tree. Step k holds the indices of tree k's children
    and whether any tree holds tree k as a child; only then is a.phi_k
    needed, and it is formed once and shared by all those parents.
    """
    trees = enumerate_trees(max_order)
    index = {t: k for k, t in enumerate(trees)}
    children = [tuple(index[c] for c in t.children) for t in trees]
    used = {kid for kids in children for kid in kids}
    return tuple((kids, k in used) for k, kids in enumerate(children))


def _stage_weights(a: np.ndarray, max_order: int):
    """Yield phi(t), shape (batch, s), for each tree in enumerate_trees order.

    `a` has shape (batch, s, s): float64 for the search residual, or object
    dtype holding Fractions (batch 1) for exact verification. The
    elementary weight of tree t is b . phi(t). Each tree is evaluated only
    when the generator reaches it, so a caller that stops early pays only
    for the trees it has seen.
    """
    a_phi = {}
    for node, (kids, used) in enumerate(_program(max_order)):
        if kids:
            acc = a_phi[kids[0]]
            for kid in kids[1:]:
                acc = acc * a_phi[kid]
        else:
            acc = np.ones(a.shape[:2], dtype=a.dtype)
        if used:
            a_phi[node] = np.einsum("bij,bj->bi", a, acc)
        yield acc


@lru_cache(maxsize=None)
def _densities(max_order: int) -> tuple[int, ...]:
    """Density of every tree of order <= max_order, in enumerate_trees order.

    The density of t is order(t) times the product of its children's densities.
    """
    gammas = []
    for t, (kids, _) in zip(enumerate_trees(max_order), _program(max_order)):
        gammas.append(t.order * math.prod(gammas[kid] for kid in kids))
    return tuple(gammas)


def _exact_weights(tab: Tableau, max_order: int):
    """Yield (tree, numerator, denominator) of each exact elementary weight.

    The program runs on d*a in Python ints, so b . phi(t) is the weight
    times d_b * d^(order(t)-1); numerator and denominator are not reduced.
    """
    a, d, b, d_b = tab.as_integers()
    for t, phi in zip(enumerate_trees(max_order), _stage_weights(a[None], max_order)):
        yield t, b.dot(phi[0]), d_b * d ** (t.order - 1)


def elementary_weight(tab: Tableau, t: RootedTree) -> Fraction:
    """Exact elementary weight of tree t under the given tableau."""
    weights = {tree: (num, den) for tree, num, den in _exact_weights(tab, t.order)}
    return Fraction(*weights[t])


@dataclass(frozen=True)
class OrderCondition:
    """One order condition: residual = weight(tree) - 1/density(tree)."""

    tree: RootedTree
    density: Fraction
    residual: Fraction


def order_residuals(tab: Tableau, p: int) -> list[OrderCondition]:
    """Exact residuals for every tree of order <= p."""
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    return [OrderCondition(t, Fraction(gamma), Fraction(num * gamma - den, den * gamma))
            for (t, num, den), gamma in zip(_exact_weights(tab, p), _densities(p))]


def verified_order(tab: Tableau) -> int:
    """Largest p <= 8 with every order-<=p residual exactly zero."""
    weights = zip(_exact_weights(tab, VERIFIED_ORDER_CAP), _densities(VERIFIED_ORDER_CAP))
    for (t, num, den), gamma in weights:
        if num * gamma != den:
            return t.order - 1
    return VERIFIED_ORDER_CAP
