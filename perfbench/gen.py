"""Seeded graph families and ground truth for the benchmark.

Everything here is plain data: a graph is a tuple of row bitmasks (bit ``w``
of ``rows[v]`` is the edge ``v -> w``).  Nothing imports ``amplify``, so the
ground truth is independent of the code under test.  Non-isomorphic pairs
are built to differ in an isomorphism invariant (degree signature, cycle
lengths, or the same on transitive closures), so every label is known by
construction.
"""

from __future__ import annotations

import random


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def edge_count(rows) -> int:
    return sum(row.bit_count() for row in rows)


def random_rows(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    return tuple(
        sum(1 << w for w in range(n) if rng.random() < density) for _ in range(n)
    )


def edgeless(n: int) -> tuple[int, ...]:
    return (0,) * n


def complete(n: int) -> tuple[int, ...]:
    """Every edge v -> w with v != w."""
    full = (1 << n) - 1
    return tuple(full & ~(1 << v) for v in range(n))


def cycle_union(lengths) -> tuple[int, ...]:
    rows = []
    offset = 0
    for length in lengths:
        for i in range(length):
            rows.append(1 << (offset + (i + 1) % length))
        offset += length
    return tuple(rows)


def strongly_connected(rng: random.Random, n: int, chords: int) -> tuple[int, ...]:
    """A Hamiltonian cycle in random order plus ``chords`` random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    for i, v in enumerate(order):
        rows[v] |= 1 << order[(i + 1) % n]
    for _ in range(chords):
        v, w = rng.randrange(n), rng.randrange(n)
        rows[v] |= 1 << w
    return tuple(rows)


def acyclic(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    """Edges only from lower to higher index (then relabeled at random)."""
    rows = tuple(
        sum(1 << w for w in range(v + 1, n) if rng.random() < density)
        for v in range(n)
    )
    return permute(rows, shuffled(rng, n))


def shuffled(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def permute(rows, phi) -> tuple[int, ...]:
    """The copy in which old vertex ``v`` becomes ``phi[v]``."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[phi[v]] = sum(1 << phi[w] for w in bits(row))
    return tuple(out)


def is_witness(rows_e, rows_f, phi) -> bool:
    """Whether ``phi`` is an adjacency-preserving bijection e -> f."""
    n = len(rows_e)
    if len(rows_f) != n or sorted(phi) != list(range(n)):
        return False
    return all(
        ((rows_e[v] >> w) & 1) == ((rows_f[phi[v]] >> phi[w]) & 1)
        for v in range(n)
        for w in range(n)
    )


def closure(rows) -> tuple[int, ...]:
    """Edge v -> w iff a path of length >= 1 runs from v to w."""
    out = []
    for v in range(len(rows)):
        seen = 0
        frontier = rows[v]
        while frontier & ~seen:
            seen |= frontier
            nxt = 0
            for u in bits(frontier):
                nxt |= rows[u]
            frontier = nxt
        out.append(seen)
    return tuple(out)


def signature(rows) -> list[tuple[int, int, int]]:
    """Sorted (out-degree, in-degree, self-loop) triples: an iso invariant."""
    n = len(rows)
    indeg = [0] * n
    for row in rows:
        for w in bits(row):
            indeg[w] += 1
    return sorted((rows[v].bit_count(), indeg[v], (rows[v] >> v) & 1) for v in range(n))


def weak_components(rows) -> list[int]:
    """Component index per vertex, numbered by first occurrence."""
    n = len(rows)
    adj = [rows[v] for v in range(n)]
    for v in range(n):
        for w in bits(rows[v]):
            adj[w] |= 1 << v
    comp = [-1] * n
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = count
        while stack:
            v = stack.pop()
            for w in bits(adj[v]):
                if comp[w] < 0:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return comp


def moved_edge(rng: random.Random, rows, invariant=signature) -> tuple[int, ...]:
    """Same vertex and edge counts, different ``invariant``: never isomorphic."""
    n = len(rows)
    edges = [(v, w) for v in range(n) for w in bits(rows[v])]
    holes = [(v, w) for v in range(n) for w in range(n) if not (rows[v] >> w) & 1]
    if not edges or not holes:
        raise ValueError("no edge to move")
    target = invariant(rows)
    for _ in range(1000):
        (a, b), (c, d) = rng.choice(edges), rng.choice(holes)
        out = list(rows)
        out[a] &= ~(1 << b)
        out[c] |= 1 << d
        if invariant(out) != target:
            return tuple(out)
    raise ValueError("no invariant-changing edge move found")


def closure_signature(rows):
    return signature(closure(rows))


def partitions(total: int, smallest: int = 2):
    """All multisets of cycle lengths >= ``smallest`` summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def disconnect(rng: random.Random, rows) -> tuple[int, ...]:
    """Move every in-edge of one vertex elsewhere, so nothing reaches it.

    Keeps vertex and edge counts; the closure of the result is not complete,
    so a strongly connected input is never stably isomorphic to it.
    """
    n = len(rows)
    x = rng.randrange(n)
    out = [row & ~(1 << x) for row in rows]
    moved = edge_count(rows) - edge_count(out)
    holes = [
        (v, w) for v in range(n) for w in range(n)
        if w != x and not (out[v] >> w) & 1
    ]
    for v, w in rng.sample(holes, moved):
        out[v] |= 1 << w
    return tuple(out)


def level_map(rng: random.Random, n: int, constant: bool) -> tuple[int, ...]:
    if constant:
        return (rng.randint(-3, 3),) * n
    while True:
        levels = tuple(rng.randint(-2, 2) for _ in range(n))
        if len(set(levels)) > 1:
            return levels


def connected_rows(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    """A weakly connected random graph (a random spanning tree plus noise)."""
    rows = list(random_rows(rng, n, density))
    order = shuffled(rng, n)
    for i in range(1, n):
        v, w = order[i], order[rng.randrange(i)]
        if rng.random() < 0.5:
            rows[v] |= 1 << w
        else:
            rows[w] |= 1 << v
    return tuple(rows)


def principal_sets(rows) -> set[int]:
    """Hereditary closure {v} + everything reachable, for every vertex."""
    reach = closure(rows)
    return {reach[v] | (1 << v) for v in range(len(rows))}


def graph_text(names, rows) -> str:
    lines = [f"vertex {name}" for name in names]
    for v, row in enumerate(rows):
        for w in bits(row):
            lines.append(f"edge {names[v]} {names[w]}")
    return "".join(line + "\n" for line in lines)


def names(n: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))
