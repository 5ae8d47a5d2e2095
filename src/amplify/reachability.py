"""Exact-length reachability over the boolean semiring.

The walk frontiers from each vertex (the ends of its length-k walks) are
eventually periodic; the table stores each vertex's frontiers up to their
first repeat together with its preperiod and period, which makes length-k
path existence decidable for unbounded (and negative) k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .graphs import AmplifiedGraph, _walk

POWER_CAP = 4096


@dataclass(frozen=True)
class ReachabilityTable:
    """``walks[v] = (frontiers, p_v, q_v)`` from ``graphs._walk``.

    Frontier k from v is row v of A^k, so the powers' preperiod is the
    largest p_v and their period the lcm of the q_v.
    """

    walks: tuple[tuple[tuple[int, ...], int, int], ...]
    preperiod: int
    period: int


# Two entries hold the traffic: search_bounded_iso validates every candidate
# against the same two graphs, E and F.
@lru_cache(maxsize=2)
def _build(rows: tuple[int, ...]) -> ReachabilityTable:
    walks = tuple(_walk(rows, v, POWER_CAP) for v in range(len(rows)))
    if any(p is None for _, p, _ in walks):
        raise RuntimeError(f"no repeat among the first {POWER_CAP} walk frontiers")
    preperiod = max((p for _, p, _ in walks), default=0)
    return ReachabilityTable(walks, preperiod, lcm(*(q for _, _, q in walks)))


def build_reachability(graph: AmplifiedGraph) -> ReachabilityTable:
    """Walk table for the graph's edge relation.

    The tables of the last two relations asked for are cached.
    """
    return _build(graph.rows)


def exact_reach(table: ReachabilityTable, v: int, w: int, k: int) -> bool:
    """True iff a path of length exactly k runs from v to w (k may be < 0)."""
    if k < 0:
        return False
    frontiers, p, q = table.walks[v]
    if k >= p + q:
        k = p + (k - p) % q
    return (frontiers[k] >> w) & 1 == 1
