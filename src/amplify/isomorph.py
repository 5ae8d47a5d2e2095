"""Digraph isomorphism and canonical forms for amplified graphs.

An isomorphism of amplified graphs is determined by an adjacency-preserving
vertex bijection (edge bundles are empty or infinite, so any edge-level
bijection works).  The search prunes with iterated in/out-degree signature
refinement and backtracks over admissible images in index order.
"""

from __future__ import annotations

from . import kernels
from .graphs import AmplifiedGraph, apply_permutation, bits, to_text


def _refined_colors(g: AmplifiedGraph, h: AmplifiedGraph):
    """Jointly refined vertex colors, or None when histograms prove non-iso."""
    n = g.vertex_count
    pair = (g, h)
    keys = [
        [
            (graph.rows[v].bit_count(), graph.columns[v].bit_count(),
             (graph.rows[v] >> v) & 1)
            for v in range(n)
        ]
        for graph in pair
    ]
    colors = None
    size = -1
    for _ in range(max(n, 1)):
        palette = sorted({k for ks in keys for k in ks})
        rank = {k: i for i, k in enumerate(palette)}
        colors = [[rank[k] for k in ks] for ks in keys]
        if len(palette) == size:
            break
        size = len(palette)
        keys = []
        for graph, cl in zip(pair, colors):
            ks = []
            for v in range(n):
                out_c = tuple(sorted(cl[w] for w in bits(graph.rows[v])))
                in_c = tuple(sorted(cl[w] for w in bits(graph.columns[v])))
                ks.append((cl[v], out_c, in_c))
            keys.append(ks)
    col_g, col_h = colors
    if sorted(col_g) != sorted(col_h):
        return None
    return col_g, col_h


def digraph_isomorphism(g: AmplifiedGraph, h: AmplifiedGraph):
    """An adjacency-preserving vertex bijection g -> h, or None.

    The witness maps indices: ``phi[v]`` is the image of vertex ``v``.  Among
    all witnesses, the one found first by the index-ordered backtracking
    search is returned, so the result is deterministic.
    """
    n = g.vertex_count
    if h.vertex_count != n:
        return None
    if n == 0:
        return ()
    refined = _refined_colors(g, h)
    if refined is None:
        return None
    col_g, col_h = refined
    of_color = dict.fromkeys(col_h, 0)
    for w, c in enumerate(col_h):
        of_color[c] |= 1 << w
    candidates = [of_color[c] for c in col_g]
    return kernels.find_isomorphism(g.rows, h.rows, candidates)


def canonical_permutation(g: AmplifiedGraph) -> tuple[int, ...]:
    """The relabeling (position -> original vertex) used by canonical_form."""
    return kernels.canonical_perm(g.rows)


def canonical_form(g: AmplifiedGraph) -> str:
    """Canonical serialization; equal across graphs iff they are isomorphic.

    Output is graph text in the parse grammar with vertices renamed
    ``v0..v(n-1)`` along the minimizing relabeling.
    """
    perm = canonical_permutation(g)
    names = [f"v{i}" for i in range(g.vertex_count)]
    return to_text(apply_permutation(g, perm, names))
