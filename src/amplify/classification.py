"""Classification engines for amplified graphs.

Reconstruction of a graph from its lattice data, the basepoint-detection
checker, normalization of lattice isomorphisms, and the verdict engines for
graded (gauge-equivariant) and stable isomorphism classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import lcm

from .graphs import (
    AmplifiedGraph,
    _fill,
    _walk,
    amplified_transitive_closure,
    apply_permutation,
    bits,
    weakly_connected_components,
)
from .isomorph import canonical_form, digraph_isomorphism
from .reachability import build_reachability, exact_reach

SEARCH_VERTEX_CAP = 6
SEARCH_SHIFT_CAP = 3


@dataclass(frozen=True)
class VHSpec:
    """A claimed family {H(v, levels[v])} of principal sets, one per vertex."""

    levels: tuple[int, ...]


@dataclass(frozen=True)
class Lemma23Report:
    """Outcome of the basepoint-detection check.

    verdict is "constant" (with the common level) or "violated" (with the
    failing condition, a concrete witness, and the low/high level partition
    for the first vertex whose low side is nonempty).
    """

    verdict: str
    level: int | None = None
    violated_condition: str | None = None
    witness: tuple | None = None
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class LatticeIsoData:
    """A candidate lattice isomorphism on principal generators.

    Represents H(v, n) -> H(vertex_map[v], n + shift[v]); it commutes with
    level translation by construction.
    """

    vertex_map: tuple[int, ...]
    shift: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """An isomorphism verdict with witness and canonical-form summary."""

    isomorphic: bool
    witness: tuple[int, ...] | None
    graph_e: AmplifiedGraph
    graph_f: AmplifiedGraph
    canonical_e: str
    canonical_f: str

    def report(self) -> str:
        lines = [f"isomorphic: {'true' if self.isomorphic else 'false'}"]
        if self.witness is not None:
            pairs = ", ".join(
                f"{self.graph_e.names[v]}->{self.graph_f.names[w]}"
                for v, w in enumerate(self.witness)
            )
            lines.append(f"witness: {pairs}")
        lines.append("canonical_E: " + _escape(self.canonical_e))
        lines.append("canonical_F: " + _escape(self.canonical_f))
        return "".join(line + "\n" for line in lines)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def reconstruct(graph: AmplifiedGraph) -> tuple[AmplifiedGraph, tuple[int, ...]]:
    """Rebuild the graph from its principal lattice data.

    Vertices of the rebuilt graph are the level-0 principal sets; there is an
    edge H(v,0) -> H(w,0) exactly when H(w,1) sits inside H(v,0), that is,
    when v -> w is an edge.  Returns the rebuilt graph and the witness
    bijection v -> H(v,0) (an index map) that the isomorphism checker accepts.
    """
    names = tuple(f"H_{name}_0" for name in graph.names)
    return AmplifiedGraph(names, graph.rows), tuple(range(graph.vertex_count))


def check_lemma23(graph: AmplifiedGraph, spec: VHSpec) -> Lemma23Report:
    """Decide whether the claimed family pins down the nonnegative-level set.

    Checks, for V = {H(v, n_v)}, that no member sits inside a nonnegative
    translate of another (shift-containment), and that the symmetrized
    one-step containment relation connects all of V.  If both hold the
    levels must be a single constant n, and that n is reported; a concrete
    witness is attached otherwise.

    Decided from adjacency.  H(v, n_v) lies inside the m-translate of
    H(w, n_w) iff a path w -> v has length n_v - n_w - m.  (1) So
    shift-containment fails iff some non-loop edge climbs in level: along a
    path w -> v (w != v) no longer than n_v - n_w the level gains sum to at
    least its length, so some step gains at least 1.  (2) If no edge climbs,
    a length-(n_w + 1 - n_v) path v -> w has length 1 and n_w = n_v: the
    one-step containments are the equal-level edges, and in a connected
    graph they connect V iff the levels are constant.
    """
    n = graph.vertex_count
    if n == 0:
        raise ValueError("empty graph")
    if len(spec.levels) != n:
        raise ValueError("level map does not cover every vertex")
    full = (1 << n) - 1
    if _fill(graph.undirected, 1) != full:
        raise ValueError("graph is not connected")
    levels = spec.levels
    lowest = min(levels)
    for v in range(n):
        # Shift-containment: search back from v for the first w with a path
        # w -> v (w != v) of length k <= n_v - n_w; shortest ones have k < n.
        hits, seen, frontier = 0, 1 << v, 1 << v
        for k in range(1, min(levels[v] - lowest, n - 1) + 1):
            back = 0
            for u in bits(frontier):
                back |= graph.columns[u]
            frontier = back & ~seen
            seen |= frontier
            hits |= sum(1 << w for w in bits(frontier) if levels[v] - levels[w] >= k)
        if hits:
            w = next(bits(hits))
            d = levels[v] - levels[w]
            condition = "cond3-shift-containment"
            witness = ((v, w), d - _longest_walk(graph.rows, w, v, d))
            break
    else:
        same = sum(1 << v for v in range(n) if levels[v] == levels[0])
        outside = full & ~_fill(graph.undirected, 1, same)
        if not outside:
            return Lemma23Report(verdict="constant", level=levels[0])
        condition, witness = "cond2-connectivity", (0, next(bits(outside)))
    # Either violation makes the levels non-constant.
    top = next(lv for lv in levels if lv > lowest)
    return Lemma23Report(
        verdict="violated",
        violated_condition=condition,
        witness=witness,
        partition=(
            tuple(v for v in range(n) if levels[v] < top),
            tuple(v for v in range(n) if levels[v] >= top),
        ),
    )


def _longest_walk(rows: tuple[int, ...], w: int, v: int, d: int) -> int:
    """The largest k <= d with a length-k walk w -> v; one must exist.

    Reads the frontiers from w to d or to their first repeat; if frontier p
    recurs at p + q, a hit at j >= p recurs last at d - (d - j) mod q.
    """
    walk, start, period = _walk(rows, w, d)
    if start is None:
        start, period = d + 1, 1
    hits = (j for j, frontier in enumerate(walk) if (frontier >> v) & 1)
    return max(j if j < start else d - (d - j) % period for j in hits)


def _require_bijection(
    e: AmplifiedGraph, f: AmplifiedGraph, rho: LatticeIsoData
) -> None:
    n = e.vertex_count
    if f.vertex_count != n or sorted(rho.vertex_map) != list(range(n)):
        raise ValueError("vertex map is not a bijection onto the codomain")
    if len(rho.shift) != n:
        raise ValueError("shift map does not cover every vertex")


def validate_lattice_iso(
    e: AmplifiedGraph, f: AmplifiedGraph, rho: LatticeIsoData
) -> bool:
    """Whether (vertex_map, shift) preserves all principal containments.

    Verified as: for all v, w and every path length k, a length-k path
    v -> w exists in E iff a length-(k + shift[w] - shift[v]) path runs
    between the images in F.  Both sides repeat once k passes the preperiods
    of the walks from v in E and from phi(v) in F, with the lcm of their
    periods, so each v scans k within that horizon, widened by the shift
    spread.  The definition; oracle and tests only.
    """
    _require_bijection(e, f, rho)
    n = e.vertex_count
    phi = rho.vertex_map
    if n == 0:
        return True
    te = build_reachability(e)
    tf = build_reachability(f)
    shift = rho.shift
    spread = max(shift) - min(shift)
    for v in range(n):
        _, pe, qe = te.walks[v]
        _, pf, qf = tf.walks[phi[v]]
        horizon = max(pe, pf) + lcm(qe, qf) + spread
        for w in range(n):
            delta = shift[w] - shift[v]
            for k in range(-horizon, horizon + 1):
                if exact_reach(te, v, w, k) != exact_reach(tf, phi[v], phi[w], k + delta):
                    return False
    return True


def _is_lattice_iso(
    e: AmplifiedGraph, f: AmplifiedGraph, rho: LatticeIsoData
) -> bool:
    """``validate_lattice_iso`` in O(n^2): phi preserves adjacency and the
    shift s is constant on each weakly connected component of E.

    (<=) A graph isomorphism conjugates every boolean power, and across
    components neither side has paths.
    (=>) Pulled back along phi, an E-edge u -> u' needs an F-walk of length
    1 + s[u'] - s[u] >= 1; every F-edge forces s to be non-increasing along
    it.  So s is constant along edges, and k = 1 then gives adjacency.
    Every k this uses lies inside the horizon.
    """
    _require_bijection(e, f, rho)
    if apply_permutation(f, rho.vertex_map).rows != e.rows:
        return False
    comp = weakly_connected_components(e)
    return len(set(zip(comp.component_of, rho.shift))) == comp.component_count


def normalize_lattice_iso(
    e: AmplifiedGraph, f: AmplifiedGraph, rho: LatticeIsoData
) -> LatticeIsoData:
    """Compose a lattice isomorphism with translations to kill its shifts.

    A lattice isomorphism's shift is constant on each weakly connected
    component (Lemma 2.3), so subtracting that constant per component yields
    an equivalent isomorphism with shift identically zero.  Raises
    ValueError unless rho is a lattice isomorphism.
    """
    if not _is_lattice_iso(e, f, rho):
        raise ValueError("not a lattice isomorphism")
    return LatticeIsoData(rho.vertex_map, (0,) * e.vertex_count)


def decide_gauge_iso(e: AmplifiedGraph, f: AmplifiedGraph) -> Verdict:
    """Graded-isomorphism verdict: direct digraph isomorphism.

    On success the witness, taken with zero shifts, is cross-checked as a
    lattice isomorphism by the O(n^2) component-shift test.
    """
    witness = digraph_isomorphism(e, f)
    if witness is not None:
        rho = LatticeIsoData(witness, (0,) * e.vertex_count)
        if not _is_lattice_iso(e, f, rho):
            raise RuntimeError("witness failed the lattice cross-check")
    return Verdict(
        isomorphic=witness is not None,
        witness=witness,
        graph_e=e,
        graph_f=f,
        canonical_e=canonical_form(e),
        canonical_f=canonical_form(f),
    )


def decide_stable_iso(e: AmplifiedGraph, f: AmplifiedGraph) -> Verdict:
    """Stable-isomorphism verdict: the graded verdict of the transitive
    closures, whose witness and canonical forms refer to the closures."""
    return decide_gauge_iso(
        amplified_transitive_closure(e), amplified_transitive_closure(f)
    )


def search_bounded_iso(
    e: AmplifiedGraph, f: AmplifiedGraph, bound: int
) -> LatticeIsoData | None:
    """Exhaustive oracle: first validated lattice isomorphism, or None.

    Enumerates every vertex bijection (lexicographic by image sequence) and
    every component-wise shift with |c| <= bound (lexicographic over the
    shift tuples).  Small inputs only.
    """
    if e.vertex_count > SEARCH_VERTEX_CAP or f.vertex_count > SEARCH_VERTEX_CAP:
        raise ValueError(f"oracle capped at {SEARCH_VERTEX_CAP} vertices")
    if not 0 <= bound <= SEARCH_SHIFT_CAP:
        raise ValueError(f"oracle shift bound must lie in 0..{SEARCH_SHIFT_CAP}")
    n = e.vertex_count
    if f.vertex_count != n:
        return None
    comp = weakly_connected_components(e)
    shift_values = range(-bound, bound + 1)
    for phi in permutations(range(n)):
        for per_component in product(shift_values, repeat=comp.component_count):
            shift = tuple(per_component[comp.component_of[v]] for v in range(n))
            rho = LatticeIsoData(phi, shift)
            if validate_lattice_iso(e, f, rho):
                return rho
    return None
