"""Finite presentations of amplified directed graphs.

In an amplified graph every edge bundle between two vertices is either empty
or infinite, so a finite presentation is just a vertex list plus a boolean
edge relation.  Rows of the relation are stored as integer bitmasks: bit
``w`` of ``rows[v]`` is set when there is an (infinite) bundle of edges from
``v`` to ``w``.  Graphs are immutable and hashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class ParseError(ValueError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


@dataclass(frozen=True)
class AmplifiedGraph:
    """A finite amplified graph: named vertices and a boolean edge relation."""

    names: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        n = len(self.names)
        if len(self.rows) != n:
            raise ValueError("row count does not match vertex count")
        if len(set(self.names)) != n:
            raise ValueError("vertex names are not unique")
        for name in self.names:
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad vertex name {name!r}")
        full = (1 << n) - 1
        for row in self.rows:
            if row & ~full:
                raise ValueError("edge bit outside vertex range")

    @property
    def vertex_count(self) -> int:
        return len(self.names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """In-adjacency masks: bit ``v`` of ``columns[w]`` iff v -> w."""
        cols = [0] * self.vertex_count
        for v, row in enumerate(self.rows):
            for w in bits(row):
                cols[w] |= 1 << v
        return tuple(cols)

    @cached_property
    def undirected(self) -> tuple[int, ...]:
        """Neighbour masks over edges of either direction: rows | columns."""
        return tuple(map(int.__or__, self.rows, self.columns))

    def vertex(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"no vertex named {name!r}") from None

    def has_edge(self, v: int, w: int) -> bool:
        return (self.rows[v] >> w) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, row in enumerate(self.rows):
            for w in bits(row):
                yield v, w

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


@dataclass(frozen=True)
class ComponentPartition:
    """Weakly connected components, numbered by first occurrence."""

    component_of: tuple[int, ...]
    component_count: int


def parse_graph(text: str) -> AmplifiedGraph:
    """Parse the line-oriented graph format.

    Lines are ``vertex <name>``, ``edge <src> <dst>``, blank, or ``#``
    comments; names match ``[A-Za-z0-9_]+`` and must be declared before use.
    Duplicate edge lines are idempotent.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "vertex":
            if len(fields) != 2:
                raise ParseError(lineno, "expected: vertex <name>")
            name = fields[1]
            if not _NAME_RE.match(name):
                raise ParseError(lineno, f"bad vertex name {name!r}")
            if name in index:
                raise ParseError(lineno, f"duplicate vertex declaration {name!r}")
            index[name] = len(names)
            names.append(name)
            rows.append(0)
        elif fields[0] == "edge":
            if len(fields) != 3:
                raise ParseError(lineno, "expected: edge <src> <dst>")
            for name in fields[1:]:
                if name not in index:
                    raise ParseError(lineno, f"undeclared vertex {name!r}")
            rows[index[fields[1]]] |= 1 << index[fields[2]]
        else:
            raise ParseError(lineno, f"unknown directive {fields[0]!r}")
    return AmplifiedGraph(tuple(names), tuple(rows))


def to_text(graph: AmplifiedGraph) -> str:
    """Serialize in the parse_graph grammar, vertices in declaration order."""
    lines = [f"vertex {name}" for name in graph.names]
    for v, w in graph.edges():
        lines.append(f"edge {graph.names[v]} {graph.names[w]}")
    return "".join(line + "\n" for line in lines)


def weakly_connected_components(graph: AmplifiedGraph) -> ComponentPartition:
    """Partition vertices by the symmetric-transitive closure of the edges."""
    n = graph.vertex_count
    component_of = [-1] * n
    count = 0
    for v in range(n):
        if component_of[v] < 0:
            for w in bits(_fill(graph.undirected, 1 << v)):
                component_of[w] = count
            count += 1
    return ComponentPartition(tuple(component_of), count)


def _fill(rows: Sequence[int], seen: int, within: int = -1) -> int:
    """The vertices that ``rows`` leads to from ``seen`` without leaving
    ``within`` (default: every vertex), as a bitmask that includes ``seen``."""
    frontier = seen
    while frontier:
        reach = 0
        for u in bits(frontier):
            reach |= rows[u]
        frontier = reach & within & ~seen
        seen |= frontier
    return seen


def _walk(rows: tuple[int, ...], v: int, limit: int):
    """The frontiers from v up to their first repeat, as ``(frontiers, p, q)``
    with frontier p + q == frontier p; bit w of frontier k is set when a
    length-k walk runs v -> w.  With no repeat by frontier ``limit``,
    p = q = None.
    """
    walk, index = [1 << v], {1 << v: 0}
    while len(walk) <= limit:
        nxt = 0
        for u in bits(walk[-1]):
            nxt |= rows[u]
        if nxt in index:
            p = index[nxt]
            return tuple(walk), p, len(walk) - p
        index[nxt] = len(walk)
        walk.append(nxt)
    return tuple(walk), None, None


def apply_permutation(
    graph: AmplifiedGraph,
    perm: Sequence[int],
    names: Sequence[str] | None = None,
) -> AmplifiedGraph:
    """Relabel so that new position ``i`` holds old vertex ``perm[i]``.

    Each old row's bits move to their new positions: O(n + m).  Raises
    ValueError unless ``perm`` is a permutation of ``range(n)``.
    """
    n = graph.vertex_count
    if len(perm) != n or set(perm) != set(range(n)):
        raise ValueError("perm is not a permutation of the vertices")
    position = [0] * n
    for i, v in enumerate(perm):
        position[v] = i
    rows = [sum([1 << position[w] for w in bits(graph.rows[v])]) for v in perm]
    if names is None:
        names = [graph.names[v] for v in perm]
    return AmplifiedGraph(tuple(names), tuple(rows))


def t_move(graph: AmplifiedGraph, u: int, v: int, w: int) -> AmplifiedGraph:
    """Add the (infinite) bundle u -> w, given bundles u -> v and v -> w."""
    if not graph.has_edge(u, v):
        raise ValueError(
            f"t-move precondition failed: no edge {graph.names[u]} -> {graph.names[v]}"
        )
    if not graph.has_edge(v, w):
        raise ValueError(
            f"t-move precondition failed: no edge {graph.names[v]} -> {graph.names[w]}"
        )
    rows = list(graph.rows)
    rows[u] |= 1 << w
    return AmplifiedGraph(graph.names, tuple(rows))


def amplified_transitive_closure(graph: AmplifiedGraph) -> AmplifiedGraph:
    """Graph with an edge v -> w iff some path of length >= 1 runs v to w."""
    n = graph.vertex_count
    closure = list(graph.rows)
    # Warshall: after pass k, closure[v] holds every end of a path from v
    # whose inner vertices all lie in 0..k.
    for k in range(n):
        bit, through = 1 << k, closure[k]
        for v in range(n):
            if closure[v] & bit:
                closure[v] |= through
    return AmplifiedGraph(graph.names, tuple(closure))


def t_move_fixpoint(graph: AmplifiedGraph) -> AmplifiedGraph:
    """Iterate t-moves over all eligible triples until no move applies."""
    current = graph
    n = graph.vertex_count
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in bits(current.rows[u]):
                for w in bits(current.rows[v]):
                    if not current.has_edge(u, w):
                        current = t_move(current, u, v, w)
                        changed = True
    return current
