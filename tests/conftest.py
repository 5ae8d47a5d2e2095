import itertools
import random

import pytest

from amplify.classification import Lemma23Report, VHSpec
from amplify.graphs import (
    AmplifiedGraph,
    apply_permutation,
    bits,
    parse_graph,
    weakly_connected_components,
)
from amplify.reachability import build_reachability, exact_reach
from amplify.skewlattice import SkewWindow, unique_predecessor_elements

G1 = "vertex a\n"
G2 = "vertex a\nvertex b\nedge a b\n"
G3 = "vertex a\nvertex b\nvertex c\nedge a b\nedge b c\n"
G4 = "vertex a\nedge a a\n"
G5 = "vertex a\nvertex b\nvertex c\nedge a b\n"
TRIANGLE = "vertex a\nvertex b\nvertex c\nedge a b\nedge b c\nedge a c\n"
# Cycle lengths whose boolean period, lcm = 4620, exceeds the reachability
# table's POWER_CAP of 4096, though no single vertex's walk period does.
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


def chained_cycle_union(lengths, prefix="x"):
    """``cycle_union`` plus an edge from each cycle's first vertex to the
    next cycle's first vertex, which makes it weakly connected."""
    g = cycle_union(lengths, prefix=prefix)
    rows = list(g.rows)
    firsts = list(itertools.accumulate(lengths, initial=0))[:-1]
    for a, b in zip(firsts, firsts[1:]):
        rows[a] |= 1 << b
    return make_graph(rows, prefix=prefix)


def relabeled_image(g, phi, prefix="y"):
    """The graph on which the bijection ``phi`` is an isomorphism from ``g``."""
    inv = [0] * len(phi)
    for v, x in enumerate(phi):
        inv[x] = v
    return apply_permutation(g, inv, [f"{prefix}{i}" for i in range(len(phi))])


SYMMETRIC_FAMILIES = ("edgeless", "complete", "closure", "cycles", "copies")


def symmetric_graph(family, n, rng):
    """A randomly relabeled member of a symmetric family on n >= 1 vertices.

    ``closure`` is every edge including loops: the amplified transitive
    closure of any strongly connected graph.  ``copies`` is disjoint copies
    of one random graph whose size divides n.
    """
    full = (1 << n) - 1
    if family == "edgeless":
        g = make_graph([0] * n)
    elif family == "complete":
        g = make_graph([full & ~(1 << v) for v in range(n)])
    elif family == "closure":
        g = make_graph([full] * n)
    elif family == "cycles":
        lengths = []
        while sum(lengths) < n:
            lengths.append(rng.randint(1, n - sum(lengths)))
        g = cycle_union(lengths)
    else:
        size = rng.choice([c for c in range(1, n + 1) if n % c == 0])
        one = random_graph(rng, size).rows
        g = make_graph([row << start for start in range(0, n, size) for row in one])
    phi = list(range(n))
    rng.shuffle(phi)
    return relabeled_image(g, phi, prefix="x")


def all_graphs(n, prefix="x"):
    """Every labeled graph on n vertices (2^(n*n) of them)."""
    for packed in range(1 << (n * n)):
        mask = (1 << n) - 1
        rows = tuple((packed >> (n * i)) & mask for i in range(n))
        yield make_graph(rows, prefix=prefix)


def is_witness(g, h, phi):
    """Whether the bijection ``phi`` carries the edges of g onto those of h."""
    n = g.vertex_count
    return all(
        g.has_edge(v, w) == h.has_edge(phi[v], phi[w])
        for v in range(n)
        for w in range(n)
    )


def reach_sets_by_length(g, max_k):
    """Forward recursion oracle: masks[k][v] = vertices at distance exactly k.

    Computed directly per length with no periodicity reduction.
    """
    n = g.vertex_count
    masks = [[1 << v for v in range(n)]]
    for _ in range(max_k):
        prev = masks[-1]
        nxt = []
        for v in range(n):
            acc = 0
            for u in bits(g.rows[v]):
                acc |= prev[u]
            nxt.append(acc)
        masks.append(nxt)
    return masks


def recover_from_lattice(lattice, tau):
    """Rebuild a graph from a hereditary-set lattice and its translation.

    The paper's reconstruction, using nothing but the lattice order and
    ``tau``: P is the set of elements with a unique predecessor, the
    generators are the members of P outside tau(P), and x -> y is an edge
    exactly when tau(y) lies inside x.  Returns the generators and the edge
    rows over their positions.
    """
    principal = unique_predecessor_elements(lattice)
    moved = {tau(x) for x in principal}
    generators = [x for x in principal if x not in moved]
    rows = [
        sum(1 << j for j, y in enumerate(generators) if tau(y).issubset(x))
        for x in generators
    ]
    return generators, rows


def brute_force_isomorphism(g, h):
    """Exhaustive bijection search; the test oracle for the pruned search.

    Permutations are tried in lexicographic order, so the witness returned is
    the lex-least one, which ``digraph_isomorphism`` must return as well.
    """
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


def reference_check_lemma23(graph: AmplifiedGraph, spec: VHSpec) -> Lemma23Report:
    """Basepoint detection read off the definition over the power table.

    The test oracle for ``check_lemma23``: every containment is one
    ``exact_reach`` call, and the shift m is scanned upward from 0.
    """
    n = graph.vertex_count
    if n == 0:
        raise ValueError("empty graph")
    if len(spec.levels) != n:
        raise ValueError("level map does not cover every vertex")
    if weakly_connected_components(graph).component_count != 1:
        raise ValueError("graph is not connected")
    levels = spec.levels
    table = build_reachability(graph)

    def partition_for():
        for u in range(n):
            low = tuple(v for v in range(n) if levels[v] < levels[u])
            if low:
                high = tuple(v for v in range(n) if levels[v] >= levels[u])
                return low, high
        return None

    # Shift-containment: H(v, n_v) inside the m-translate of H(w, n_w) for
    # some m >= 0 requires a path of length n_v - n_w - m from w to v.
    for v in range(n):
        for w in range(n):
            if v == w:
                continue
            for m in range(0, levels[v] - levels[w] + 1):
                if exact_reach(table, w, v, levels[v] - levels[w] - m):
                    return Lemma23Report(
                        verdict="violated",
                        violated_condition="cond3-shift-containment",
                        witness=((v, w), m),
                        partition=partition_for(),
                    )

    # Connectivity of the symmetrized one-step containment relation on V.
    und = [0] * n
    for v in range(n):
        for w in range(n):
            if v != w and exact_reach(table, v, w, levels[w] + 1 - levels[v]):
                und[v] |= 1 << w
                und[w] |= 1 << v
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= und[v] & ~seen
        seen |= nxt
        frontier = nxt
    if seen != (1 << n) - 1:
        outside = next(v for v in range(n) if not (seen >> v) & 1)
        return Lemma23Report(
            verdict="violated",
            violated_condition="cond2-connectivity",
            witness=(0, outside),
            partition=partition_for(),
        )

    if any(lv != levels[0] for lv in levels):
        raise RuntimeError(
            "internal inconsistency: conditions hold for non-constant levels"
        )
    return Lemma23Report(verdict="constant", level=levels[0])


def reference_canonical_perm(n, rows):
    """Canonical labeling by branch-and-bound over all placements, without
    automorphism pruning: the test oracle for ``canonical_perm``.

    The matrix is compared in growing-corner order: placing position ``k``
    appends the packed segment [A[p_k][p_0..p_k], A[p_0..p_{k-1}][p_k]] and
    segments are compared as integers, which is lexicographic on the bits.
    """
    if n == 0:
        return ()
    best_have = False
    best_seq = [0] * n
    best_perm = [0] * n
    seq = [0] * n
    prefix = [0] * n

    def rec(depth: int, used: int, state: int) -> bool:
        # state 0: path segments equal the incumbent so far; -1: strictly
        # smaller at some earlier depth (or no incumbent yet).
        nonlocal best_have
        if depth == n:
            if not best_have or state < 0:
                best_seq[:] = seq
                best_perm[:] = prefix
                best_have = True
                return True
            return False
        cands = []
        for v in range(n):
            if (used >> v) & 1:
                continue
            row_v = rows[v]
            e = 0
            for i in range(depth):
                e = (e << 1) | ((row_v >> prefix[i]) & 1)
            e = (e << 1) | ((row_v >> v) & 1)
            for i in range(depth):
                e = (e << 1) | ((rows[prefix[i]] >> v) & 1)
            cands.append((e, v))
        cands.sort()
        replaced = False
        for e, v in cands:
            if best_have and state == 0:
                if e > best_seq[depth]:
                    break
                child_state = 0 if e == best_seq[depth] else -1
            else:
                child_state = -1
            prefix[depth] = v
            seq[depth] = e
            if rec(depth + 1, used | (1 << v), child_state):
                replaced = True
                state = 0
        return replaced

    rec(0, 0, -1)
    return tuple(best_perm)


def reference_apply_permutation(graph, perm, names=None):
    """Relabelling read off the adjacency one vertex pair at a time: the test
    oracle for ``apply_permutation``."""
    n = graph.vertex_count
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if graph.has_edge(perm[i], perm[j]):
                row |= 1 << j
        rows.append(row)
    if names is None:
        names = [graph.names[perm[i]] for i in range(n)]
    return AmplifiedGraph(tuple(names), tuple(rows))


def reference_skew_window(base, lo, hi):
    """The cover band built one edge bit at a time: the test oracle for
    ``skew_window``."""
    n = base.vertex_count
    names = []
    for level in range(lo, hi + 1):
        names.extend(f"{name}@{level}" for name in base.names)
    rows = []
    for level in range(lo, hi + 1):
        for v in range(n):
            row = 0
            if level < hi:
                offset = (level + 1 - lo) * n
                for w in bits(base.rows[v]):
                    row |= 1 << (offset + w)
            rows.append(row)
    return SkewWindow(base, lo, hi, AmplifiedGraph(tuple(names), tuple(rows)))


def seeded_graphs(rng, count, sizes):
    """``count`` graphs with sizes drawn from ``sizes``: random graphs of
    varying density in turn with every symmetric family (edgeless, complete,
    closure, cycle unions, disjoint copies)."""
    families = ("random",) + SYMMETRIC_FAMILIES
    for i in range(count):
        n = rng.choice(sizes)
        family = families[i % len(families)]
        if family == "random":
            yield random_graph(rng, n, density=rng.uniform(0.1, 0.7))
        else:
            yield symmetric_graph(family, n, rng)


def sparse_graph(rng, n, degree=2):
    """A random graph on n vertices with about ``degree`` out-edges each,
    built without an n * n pass."""
    return make_graph(
        [sum({1 << rng.randrange(n) for _ in range(degree)}) for _ in range(n)]
    )
