"""Exact-length reachability over the boolean semiring.

Successive boolean powers of the adjacency relation are eventually periodic;
the table stores the powers up to the first repeat together with the
preperiod and period, which makes length-k path existence decidable for
unbounded (and negative) k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import AmplifiedGraph, bits

POWER_CAP = 4096


@dataclass(frozen=True)
class ReachabilityTable:
    """Boolean powers A^0 .. A^(p+q-1) with preperiod p and period q.

    Invariants: powers[0] is the identity relation, A^(p+q) == A^p, and for
    k >= p the power A^k equals powers[p + (k - p) % q].
    """

    size: int
    powers: tuple[tuple[int, ...], ...]
    preperiod: int
    period: int


def _bool_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for row in a:
        acc = 0
        for j in bits(row):
            acc |= b[j]
        out.append(acc)
    return tuple(out)


# Two entries hold the traffic: search_bounded_iso validates every candidate
# against the same two graphs, E and F.
@lru_cache(maxsize=2)
def _build(rows: tuple[int, ...]) -> ReachabilityTable:
    n = len(rows)
    identity = tuple(1 << i for i in range(n))
    powers = [identity]
    seen = {identity: 0}
    current = identity
    while True:
        current = _bool_mul(current, rows)
        if current in seen:
            p = seen[current]
            return ReachabilityTable(n, tuple(powers), p, len(powers) - p)
        if len(powers) >= POWER_CAP:
            raise RuntimeError(
                f"no repeat among the first {POWER_CAP} boolean powers"
            )
        seen[current] = len(powers)
        powers.append(current)


def build_reachability(graph: AmplifiedGraph) -> ReachabilityTable:
    """Power table for the graph's edge relation.

    The tables of the last two relations asked for are cached.
    """
    return _build(graph.rows)


def exact_reach(table: ReachabilityTable, v: int, w: int, k: int) -> bool:
    """True iff a path of length exactly k runs from v to w (k may be < 0)."""
    if k < 0:
        return False
    p, q = table.preperiod, table.period
    if k >= p + q:
        k = p + (k - p) % q
    return (table.powers[k][v] >> w) & 1 == 1

