"""The two hot combinatorial searches of the package.

``find_isomorphism`` searches for an adjacency preserving bijection and
``canonical_perm`` finds the canonical relabeling, pruned by the
automorphisms it meets.  Both break ties deterministically, so the witness
and the permutation depend only on the input matrices.  Graphs are packed
adjacency rows of any width.
"""

from __future__ import annotations

# Stamped on benchmark records, which refuse to compare different kernels.
BACKEND = "pure"


def find_isomorphism(rows_g, rows_h, candidates):
    """Backtracking search for a bijection phi with G[v][w] == H[phi v][phi w].

    ``candidates[v]`` is a bitmask of admissible images for vertex ``v``;
    images are tried in increasing index order, so the first witness found is
    deterministic.  Returns a tuple ``phi`` or None.
    """
    n = len(rows_g)
    if n == 0:
        return ()
    phi = [-1] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        m = candidates[v] & ~used
        row_v = rows_g[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if ((row_v >> v) & 1) != ((rows_h[w] >> w) & 1):
                continue
            ok = True
            for u in range(v):
                pu = phi[u]
                if ((row_v >> u) & 1) != ((rows_h[w] >> pu) & 1) or (
                    (rows_g[u] >> v) & 1
                ) != ((rows_h[pu] >> w) & 1):
                    ok = False
                    break
            if ok:
                phi[v] = w
                if extend(v + 1, used | (1 << w)):
                    return True
                phi[v] = -1
        return False

    return tuple(phi) if extend(0, 0) else None


def canonical_perm(rows):
    """Permutation (new position -> old vertex) minimizing the relabeled matrix.

    The matrix is compared in growing-corner order: placing position ``k``
    appends the packed segment [A[p_k][p_0..p_k], A[p_0..p_{k-1}][p_k]] and
    segments are compared as integers, which is lexicographic on the bits.
    Branch-and-bound over placements keeps the first minimal leaf in
    depth-first order, so the minimum is exact.  Each node extends its
    parent's row and column bits by one, rather than rereading the prefix.

    Automorphism pruning, after the search tree of McKay and Piperno
    (*Practical graph isomorphism II*, 2014):

    - A leaf that ties the incumbent relabels the matrix to the same one, so
      g with g[best[i]] = prefix[i] is an automorphism.  It is recorded.
    - At a node with prefix p_0..p_{d-1}, a child v' is skipped when an
      already-tried sibling v lies in its orbit under the group generated
      by the recorded automorphisms that fix every p_i.
    - Some g in that group maps v to v' and fixes the prefix, so it maps
      v's subtree onto v''s, leaf for leaf with equal segment sequences.
      Once v's subtree is done no leaf under it is below the incumbent.  The
      leaves under v' come later in depth-first order and a tie never
      replaces the incumbent, so skipping them leaves the first minimal
      leaf, and the returned permutation, unchanged.  Generators that fix
      the prefix span only a subgroup of its stabiliser, which is still
      sound.
    """
    n = len(rows)
    if n == 0:
        return ()
    best_have = False
    best_seq = [0] * n
    best_perm = [0] * n
    seq = [0] * n
    prefix = [0] * n
    loops = [(rows[v] >> v) & 1 for v in range(n)]
    # Recorded automorphisms, each with the mask of the vertices it fixes.
    auts: list[tuple[list[int], int]] = []

    def rec(depth: int, used: int, state: int, out_bits, in_bits) -> bool:
        # state 0: path segments equal the incumbent so far; -1: strictly
        # smaller at some earlier depth (or no incumbent yet).
        # out_bits[v] packs A[v][p_0..p_{depth-1}], in_bits[v] A[p_0..][v].
        nonlocal best_have
        if depth == n:
            if not best_have or state < 0:
                best_seq[:] = seq
                best_perm[:] = prefix
                best_have = True
                return True
            gamma = [0] * n
            for old, new in zip(best_perm, prefix):
                gamma[old] = new
            auts.append((gamma, sum(1 << x for x in range(n) if gamma[x] == x)))
            return False
        cands = [
            (out_bits[v] << depth + 1 | loops[v] << depth | in_bits[v], v)
            for v in range(n)
            if not (used >> v) & 1
        ]
        cands.sort()
        replaced = False
        # Union-find orbits of the recorded automorphisms that fix the
        # prefix; the first ``merged`` of them have been folded in.
        orbit = None
        merged = 0
        tried = []
        for e, v in cands:
            if best_have and state == 0:
                if e > best_seq[depth]:
                    break
                child_state = 0 if e == best_seq[depth] else -1
            else:
                child_state = -1
            if merged < len(auts):
                for gamma, fixed in auts[merged:]:
                    if used & ~fixed:
                        continue
                    if orbit is None:
                        orbit = list(range(n))
                    for x in range(n):
                        a, b = _find(orbit, x), _find(orbit, gamma[x])
                        if a != b:
                            orbit[max(a, b)] = min(a, b)
                merged = len(auts)
            if orbit is not None:
                root = _find(orbit, v)
                if any(_find(orbit, u) == root for u in tried):
                    continue
            tried.append(v)
            prefix[depth] = v
            seq[depth] = e
            row_v = rows[v]
            if rec(
                depth + 1,
                used | (1 << v),
                child_state,
                [code << 1 | (row >> v) & 1 for code, row in zip(out_bits, rows)],
                [code << 1 | (row_v >> w) & 1 for w, code in enumerate(in_bits)],
            ):
                replaced = True
                state = 0
        return replaced

    rec(0, 0, -1, [0] * n, [0] * n)
    return tuple(best_perm)


def _find(orbit: list[int], x: int) -> int:
    """Union-find root of ``x``, halving the path on the way."""
    while orbit[x] != x:
        orbit[x] = orbit[orbit[x]]
        x = orbit[x]
    return x
