"""Rooted-tree order conditions for explicit Runge-Kutta tableaux.

A scheme has order p iff the elementary weight of every rooted tree t
with at most p nodes equals 1/density(t); order 6 involves 37 trees.

The stage weights of all trees come from one program over their distinct
subtrees, which forms each stage vector a.phi by one stacked matmul, once
per distinct child subtree and only when a parent first needs it. The
same program runs on float arrays for the search residual and its
Jacobian (slrk.search) and, for the exact verification here, on object
arrays of Python ints: a is scaled by the lcm d of its denominators, so phi(t)
comes out scaled by d^(order(t)-1) and each weight is one Fraction
formed at the end, with no Fraction arithmetic inside the program.
Tree densities are likewise built once per program (`_densities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .tableau import Tableau

MAX_ORDER = 10
VERIFIED_ORDER_CAP = 8


_LEVEL_SEQUENCE = attrgetter("_levelseq")


@dataclass(frozen=True)
class RootedTree:
    """Unordered rooted tree in canonical form.

    Children are stored sorted by their level sequence, so isomorphic
    trees have one level sequence, by which they compare and hash.
    """

    children: tuple["RootedTree", ...] = field(default=(), compare=False)
    _levelseq: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        kids = tuple(sorted(self.children, key=_LEVEL_SEQUENCE, reverse=True))
        seq = (1, *(d + 1 for k in kids for d in k._levelseq))
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "_order", len(seq))
        object.__setattr__(self, "_levelseq", seq)

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
    """Trees of n nodes by level sequence, one root over each multiset of smaller trees."""
    if n == 1:
        return (LEAF,)
    # Ordered by node count, so a scan stops at the first tree too large to fit.
    pool = [t for k in range(1, n) for t in _trees_of_order(k)]
    trees = []

    def extend(prefix, remaining, start):
        if remaining == 0:
            trees.append(RootedTree(prefix))
            return
        for i in range(start, len(pool)):
            if pool[i]._order > remaining:
                break
            extend((*prefix, pool[i]), remaining - pool[i]._order, i)

    extend((), n - 1, 0)
    return tuple(sorted(trees, key=_LEVEL_SEQUENCE))


def enumerate_trees(max_order: int) -> list[RootedTree]:
    """All non-isomorphic rooted trees with up to max_order nodes.

    Deterministic order: by node count, then by level sequence.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in [1, {MAX_ORDER}], got {max_order}")
    return [t for n in range(1, max_order + 1) for t in _trees_of_order(n)]


@lru_cache(maxsize=None)
def _program(max_order: int) -> tuple[tuple[int, ...], ...]:
    """The trees of order <= max_order as a program over distinct subtrees.

    enumerate_trees orders trees by node count, so every subtree of a tree
    is itself an earlier tree. Step k holds the indices of tree k's children.
    """
    trees = enumerate_trees(max_order)
    index = {t: k for k, t in enumerate(trees)}
    return tuple(tuple(index[c] for c in t.children) for t in trees)


def _stage_weights(a: np.ndarray, max_order: int):
    """Yield phi(t), shape (batch, s), for each tree in enumerate_trees order.

    `a` has shape (batch, s, s): float64 for the search residual, or object
    dtype holding Python ints (batch 1) for exact verification. The
    elementary weight of tree t is b . phi(t). Each a.phi_k is formed by one
    stacked matmul when a parent first needs it, and shared by all its
    parents. Each tree is evaluated only when the generator reaches it, so
    a caller that stops early pays only for the trees it has seen.
    """
    phi, a_phi = [], {}
    for kids in _program(max_order):
        acc = None
        for kid in kids:
            if kid not in a_phi:
                a_phi[kid] = (a @ phi[kid][..., None])[..., 0]
            acc = a_phi[kid] if acc is None else acc * a_phi[kid]
        if acc is None:  # the leaf
            acc = np.ones(a.shape[:2], dtype=a.dtype)
        phi.append(acc)
        yield acc


@lru_cache(maxsize=None)
def _densities(max_order: int) -> tuple[int, ...]:
    """Density of every tree of order <= max_order, in enumerate_trees order.

    The density of t is order(t) times the product of its children's densities.
    """
    gammas = []
    for t, kids in zip(enumerate_trees(max_order), _program(max_order)):
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
