import itertools
import random

import pytest

from amplify.graphs import AmplifiedGraph, apply_permutation, parse_graph

G1 = "vertex a\n"
G2 = "vertex a\nvertex b\nedge a b\n"
G3 = "vertex a\nvertex b\nvertex c\nedge a b\nedge b c\n"
G4 = "vertex a\nedge a a\n"
G5 = "vertex a\nvertex b\nvertex c\nedge a b\n"
TRIANGLE = "vertex a\nvertex b\nvertex c\nedge a b\nedge b c\nedge a c\n"
# Cycle lengths whose boolean period, lcm = 4620, exceeds the reachability
# table's POWER_CAP of 4096.
PAST_POWER_CAP = (3, 4, 5, 7, 11)


@pytest.fixture
def g1():
    return parse_graph(G1)


@pytest.fixture
def g2():
    return parse_graph(G2)


@pytest.fixture
def g3():
    return parse_graph(G3)


@pytest.fixture
def g4():
    return parse_graph(G4)


@pytest.fixture
def g5():
    return parse_graph(G5)


@pytest.fixture
def triangle():
    return parse_graph(TRIANGLE)


def make_graph(rows, prefix="x"):
    n = len(rows)
    return AmplifiedGraph(tuple(f"{prefix}{i}" for i in range(n)), tuple(rows))


def random_graph(rng: random.Random, n: int, density: float = 0.5, prefix="x"):
    rows = []
    for _ in range(n):
        row = 0
        for w in range(n):
            if rng.random() < density:
                row |= 1 << w
        rows.append(row)
    return make_graph(rows, prefix=prefix)


def cycle_union(lengths, prefix="x"):
    """Disjoint directed cycles of the given lengths, numbered consecutively."""
    rows = []
    for length in lengths:
        start = len(rows)
        rows += [1 << (start + (i + 1) % length) for i in range(length)]
    return make_graph(rows, prefix=prefix)


def relabeled_image(g, phi, prefix="y"):
    """The graph on which the bijection ``phi`` is an isomorphism from ``g``."""
    inv = [0] * len(phi)
    for v, x in enumerate(phi):
        inv[x] = v
    return apply_permutation(g, inv, [f"{prefix}{i}" for i in range(len(phi))])


def all_graphs(n, prefix="x"):
    """Every labeled graph on n vertices (2^(n*n) of them)."""
    for packed in range(1 << (n * n)):
        mask = (1 << n) - 1
        rows = tuple((packed >> (n * i)) & mask for i in range(n))
        yield make_graph(rows, prefix=prefix)


def brute_force_isomorphism(g, h):
    """Exhaustive bijection search; the test oracle for the pruned search."""
    n = g.vertex_count
    if h.vertex_count != n:
        return None
    for perm in itertools.permutations(range(n)):
        if all(
            g.has_edge(v, w) == h.has_edge(perm[v], perm[w])
            for v in range(n)
            for w in range(n)
        ):
            return perm
    return None
