"""Classification engines for amplified graphs.

Reconstruction of a graph from its lattice data, the basepoint-detection
checker, normalization of lattice isomorphisms, and the verdict engines for
graded (gauge-equivariant) and stable isomorphism classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .graphs import (
    AmplifiedGraph,
    ComponentPartition,
    amplified_transitive_closure,
    apply_permutation,
    weakly_connected_components,
)
from .isomorph import canonical_form, digraph_isomorphism
from .reachability import build_reachability, exact_reach
from .skewlattice import PrincipalHereditary, in_vertex_window, principal_contains, translate

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
    edge H(v,0) -> H(w,0) exactly when the translate of H(w,0) by one level
    sits inside H(v,0).  Returns the rebuilt graph and the witness bijection
    v -> H(v,0) (as an index map), which the isomorphism checker accepts.
    """
    n = graph.vertex_count
    table = build_reachability(graph)
    tokens = [PrincipalHereditary(graph, v, 0) for v in range(n)]
    assert all(in_vertex_window(t) for t in tokens)
    rows = []
    for v in range(n):
        row = 0
        for w in range(n):
            if principal_contains(table, translate(tokens[w], 1), tokens[v]):
                row |= 1 << w
        rows.append(row)
    names = tuple(f"H_{name}_0" for name in graph.names)
    rebuilt = AmplifiedGraph(names, tuple(rows))
    return rebuilt, tuple(range(n))


def check_lemma23(graph: AmplifiedGraph, spec: VHSpec) -> Lemma23Report:
    """Decide whether the claimed family pins down the nonnegative-level set.

    Checks, for V = {H(v, n_v)}, that no member sits inside a nonnegative
    translate of another (shift-containment), and that the symmetrized
    one-step containment relation connects all of V.  If both hold the
    levels must be a single constant n, and that n is reported; a concrete
    witness is attached otherwise.
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

    Verified as: for all v, w and every path length k within the periodicity
    horizon of both graphs (widened by the shift spread), a length-k path
    v -> w exists in E iff a length-(k + shift[w] - shift[v]) path runs
    between the images in F.  The definition; oracle and tests only.
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
    horizon = max(te.preperiod + te.period, tf.preperiod + tf.period) + spread
    for v in range(n):
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
    """Stable-isomorphism verdict: compare transitive closures up to iso."""
    te = amplified_transitive_closure(e)
    tf = amplified_transitive_closure(f)
    witness = digraph_isomorphism(te, tf)
    return Verdict(
        isomorphic=witness is not None,
        witness=witness,
        graph_e=te,
        graph_f=tf,
        canonical_e=canonical_form(te),
        canonical_f=canonical_form(tf),
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
    if bound > SEARCH_SHIFT_CAP:
        raise ValueError(f"oracle shift bound capped at {SEARCH_SHIFT_CAP}")
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
