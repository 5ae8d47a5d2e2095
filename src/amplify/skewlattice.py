"""The level-graded cover of a graph and its hereditary-set lattice.

The cover of E has vertices E0 x Z and one edge (v,k) -> (w,k+1) per edge
v -> w; it is acyclic even when E is not.  Its principal hereditary sets are
represented symbolically by their generator (vertex, level); containments
between them reduce to exact-length reachability in the base graph, so the
infinite lattice never needs to be materialized.  Finite windows of the
cover, plus a brute-force enumeration of all hereditary subsets of a small
graph, serve as oracles for the symbolic layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import AmplifiedGraph, bits
from .reachability import ReachabilityTable, exact_reach

HEREDITARY_ENUM_CAP = 20


@dataclass(frozen=True)
class PrincipalHereditary:
    """The smallest hereditary set of the cover containing (vertex, level).

    The cover is acyclic, so distinct tokens denote distinct sets; equality
    is componentwise.
    """

    graph: AmplifiedGraph
    vertex: int
    level: int


@dataclass(frozen=True)
class FiniteHereditarySet:
    """A hereditary vertex set of a finite graph, as a member bitmask."""

    graph: AmplifiedGraph
    members: int

    def issubset(self, other: "FiniteHereditarySet") -> bool:
        return self.members & ~other.members == 0

    def vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.members))


@dataclass(frozen=True)
class SkewWindow:
    """The finite band of the cover with levels in [lo, hi].

    Window vertex (v, level) has index (level - lo) * |E0| + v and is named
    "<name>@<level>".
    """

    base: AmplifiedGraph
    lo: int
    hi: int
    graph: AmplifiedGraph

    def vertex_index(self, v: int, level: int) -> int:
        if not 0 <= v < self.base.vertex_count:
            raise ValueError(f"vertex {v} outside the base graph")
        if not self.lo <= level <= self.hi:
            raise ValueError(f"level {level} outside window [{self.lo}, {self.hi}]")
        return (level - self.lo) * self.base.vertex_count + v


def skew_window(base: AmplifiedGraph, lo: int, hi: int) -> SkewWindow:
    """Materialize the cover band with levels lo..hi (inclusive)."""
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
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


def translate(h: PrincipalHereditary, k: int) -> PrincipalHereditary:
    """The level-translation action: (v, n) -> (v, n + k)."""
    return PrincipalHereditary(h.graph, h.vertex, h.level + k)


def principal_contains(
    table: ReachabilityTable,
    inner: PrincipalHereditary,
    outer: PrincipalHereditary,
) -> bool:
    """Whether inner's set lies inside outer's.

    H(w, n) is contained in H(v, m) exactly when a path of length n - m runs
    from v to w in the base graph.
    """
    if inner.graph != outer.graph:
        raise ValueError("tokens refer to different base graphs")
    if table.size != inner.graph.vertex_count:
        raise ValueError("reachability table does not match the base graph")
    return exact_reach(table, outer.vertex, inner.vertex, inner.level - outer.level)


def enumerate_hereditary(graph: AmplifiedGraph) -> list[FiniteHereditarySet]:
    """All hereditary subsets, in ascending bitmask order (oracle use only).

    Every subset is tested directly against the definition: a set is
    hereditary when each member's out-neighbours are members too.
    """
    n = graph.vertex_count
    if n > HEREDITARY_ENUM_CAP:
        raise ValueError(f"enumeration capped at {HEREDITARY_ENUM_CAP} vertices")
    rows = graph.rows
    out = []
    for members in range(1 << n):
        if all(rows[v] & ~members == 0 for v in bits(members)):
            out.append(FiniteHereditarySet(graph, members))
    return out


def unique_predecessor_elements(
    lattice: list[FiniteHereditarySet],
) -> list[FiniteHereditarySet]:
    """Lattice elements with a unique predecessor, by brute force over pairs.

    L qualifies when its strict subsets within the lattice are nonempty and
    have a maximum element.
    """
    out = []
    for el in lattice:
        preds = [
            k.members
            for k in lattice
            if k.members != el.members and k.members & ~el.members == 0
        ]
        if not preds:
            continue
        if any(all(other & ~cand == 0 for other in preds) for cand in preds):
            out.append(el)
    return out


def principal_set_members(
    window: SkewWindow, h: PrincipalHereditary
) -> FiniteHereditarySet:
    """The members of h's set with levels inside the window band.

    Read off the band itself: the hereditary closure of (vertex, level) in
    the window graph, whose edges climb one level at a time up to its top.
    """
    if h.graph != window.base:
        raise ValueError("token refers to a different base graph")
    rows = window.graph.rows
    members = frontier = 1 << window.vertex_index(h.vertex, h.level)
    while frontier:
        reach = 0
        for u in bits(frontier):
            reach |= rows[u]
        frontier = reach & ~members
        members |= frontier
    return FiniteHereditarySet(window.graph, members)
