"""The three workloads: seeded rounds of operations and their checks.

A round is a fixed mix of operations (the same families and counts in every
round, with random graphs, sizes and labelings drawn from the round's own
seed), so a run made of whole rounds always has the same proportions.
Operations are plain data until ``bind`` turns one into a zero-argument
call on the ``amplify`` API; ``check`` then compares the output with the
ground truth known by construction.  ``check`` never imports ``amplify``.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import gen

NAMES = ("verdict", "cli-report", "lattice")

# Cycle unions for the lattice workload: periods 105, 140 and 315, and
# 4620, which is past the reachability table's POWER_CAP of 4096.
LONG_PERIODS = ((3, 5, 7), (4, 5, 7), (5, 7, 9))
PAST_POWER_CAP = (3, 4, 5, 7, 11)


@dataclass(frozen=True)
class Op:
    """One operation: what to call, on which inputs, and the expected answer.

    ``kind`` is a CLI verb or the name of a library call.  ``pair`` is the
    index (within the round) of an earlier ``canon`` op whose output must
    equal this one's exactly when ``expect`` is true.
    """

    kind: str
    args: tuple
    expect: object
    pair: int | None = None


def round_rng(workload: str, seed: str, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def make_round(workload: str, seed: str, index: int) -> list[Op]:
    return _MAKERS[workload](round_rng(workload, seed, index))


# ---------------------------------------------------------------- families


def _relabel(rng, rows):
    return gen.permute(rows, gen.shuffled(rng, len(rows)))


def _pair(rng, rows, iso, invariant=gen.signature):
    """(e, f) with f a permuted copy of rows, or of an invariant-changed copy."""
    other = rows if iso else gen.moved_edge(rng, rows, invariant)
    return rows, _relabel(rng, other)


def _random_pair(rng, iso, n_lo, n_hi, d_lo, d_hi, invariant=gen.signature):
    while True:
        n = rng.randint(n_lo, n_hi)
        rows = gen.random_rows(rng, n, rng.uniform(d_lo, d_hi))
        if 0 < gen.edge_count(rows) < n * n:
            try:
                return _pair(rng, rows, iso, invariant)
            except ValueError:
                continue


def _cycle_pair(rng, iso, totals, smallest=2):
    total = rng.choice(totals)
    parts = list(gen.partitions(total, smallest))
    first = rng.choice(parts)
    second = first if iso else rng.choice([p for p in parts if p != first])
    return (
        _relabel(rng, gen.cycle_union(first)),
        _relabel(rng, gen.cycle_union(second)),
    )


def _strong_pair(rng, iso, n_lo, n_hi, stable):
    while True:
        n = rng.randint(n_lo, n_hi)
        rows = gen.strongly_connected(rng, n, n // 2)
        if iso:
            return rows, _relabel(rng, rows)
        try:
            other = gen.disconnect(rng, rows) if stable else gen.moved_edge(rng, rows)
        except ValueError:
            continue
        return rows, _relabel(rng, other)


def _symmetric_pair(rng, rows):
    return _relabel(rng, rows), _relabel(rng, rows)


# ---------------------------------------------------------------- verdict


def _verdict_ops(rng):
    """Ten isomorphic and ten non-isomorphic pairs, equal vertex/edge counts.

    Sizes are pinned where canonical labeling cost explodes (sparse random
    graphs, symmetric graphs, complete closures), so that every round costs
    about the same and a run's figures do not hinge on a few inputs.
    """
    gauge = []
    for iso in (True, False, True, False, False):
        gauge.append((_random_pair(rng, iso, 8, 14, 0.2, 0.5), iso))
    for iso in (True, False):
        gauge.append((_random_pair(rng, iso, 8, 8, 0.1, 0.15), iso))
    gauge.append((_symmetric_pair(rng, gen.edgeless(7)), True))
    gauge.append((_symmetric_pair(rng, gen.complete(7)), True))
    for iso in (True, False, False):
        gauge.append((_cycle_pair(rng, iso, (7, 8, 9)), iso))
    for iso in (True, False):
        gauge.append((_strong_pair(rng, iso, 8, 10, stable=False), iso))
    stable = []
    for iso in (True, False):
        stable.append((_strong_pair(rng, iso, 7, 7, stable=True), iso))
        stable.append((_cycle_pair(rng, iso, (6,), smallest=3), iso))
        stable.append(
            (_random_pair(rng, iso, 5, 7, 0.15, 0.3, gen.closure_signature), iso)
        )
    return [Op("gauge", pair, iso) for pair, iso in gauge] + [
        Op("stable", pair, iso) for pair, iso in stable
    ]


# ---------------------------------------------------------------- cli-report


def _cli_ops(rng):
    ops = []
    for iso in (True, False):
        ops.append(Op("iso", _random_pair(rng, iso, 8, 12, 0.2, 0.5), iso))
        ops.append(Op("iso", _cycle_pair(rng, iso, (7, 8)), iso))
    ops.append(Op("stable-iso", _strong_pair(rng, True, 6, 6, stable=True), True))
    ops.append(Op("stable-iso", _strong_pair(rng, False, 6, 7, stable=True), False))
    ops.append(
        Op("stable-iso", _random_pair(rng, True, 5, 7, 0.15, 0.3), True)
    )
    for pair, iso in (
        (_random_pair(rng, True, 8, 12, 0.2, 0.5), True),
        (_cycle_pair(rng, False, (7, 8)), False),
    ):
        ops.append(Op("canon", (pair[0],), None))
        ops.append(Op("canon", (pair[1],), iso, pair=len(ops) - 1))
    ops.append(Op("reconstruct", (_random_pair(rng, True, 6, 10, 0.1, 0.4)[0],), None))
    ops.append(Op("tclosure", (_random_pair(rng, True, 8, 10, 0.1, 0.2)[0],), None))
    ops.append(Op("tmove", _tmove_args(rng), None))
    for constant in (True, False):
        rows = gen.connected_rows(rng, rng.randint(4, 8), 0.15)
        ops.append(Op("check-h0", (rows, gen.level_map(rng, len(rows), constant)), constant))
    ops.append(Op("normalize-iso", _shifted_iso(rng, _random_pair(rng, True, 5, 8, 0.15, 0.3)[0]), None))
    rows = gen.random_rows(rng, rng.randint(3, 5), 0.4)
    lo = rng.randint(-2, 1)
    ops.append(Op("skew-window", (rows, lo, lo + rng.randint(2, 4)), None))
    for iso in (True, False):
        ops.append(Op("oracle", _oracle_pair(rng, iso), iso))
    return ops


def _tmove_args(rng):
    while True:
        rows = gen.random_rows(rng, rng.randint(6, 9), 0.25)
        n = len(rows)
        moves = [
            (u, v, w)
            for u in range(n)
            for v in gen.bits(rows[u])
            for w in gen.bits(rows[v])
            if not (rows[u] >> w) & 1
        ]
        if moves:
            return (rows,) + rng.choice(moves)


def _shifted_iso(rng, rows):
    """(e, f, phi, shift): f = e relabeled by phi, one random shift per component."""
    phi = gen.shuffled(rng, len(rows))
    comp = gen.weak_components(rows)
    per_component = [rng.randint(-3, 3) for _ in range(max(comp) + 1)]
    shift = tuple(per_component[c] for c in comp)
    return rows, gen.permute(rows, phi), phi, shift


def _oracle_pair(rng, iso):
    """A connected pair on 3-5 vertices, so the oracle tries 5 shifts per map."""
    while True:
        rows = gen.connected_rows(rng, rng.randint(3, 5), 0.3)
        try:
            return _pair(rng, rows, iso)
        except ValueError:
            continue


# ---------------------------------------------------------------- lattice


def _lattice_ops(rng):
    ops = []
    for _ in range(3):
        ops.append(Op("normalize", _shifted_iso(rng, _random_pair(rng, True, 6, 10, 0.15, 0.3)[0]), None))
    for lengths in LONG_PERIODS + (PAST_POWER_CAP,):
        ops.append(Op("normalize", _shifted_iso(rng, _relabel(rng, gen.cycle_union(lengths))), None))
    for constant in (True, True, False, False):
        rows = gen.connected_rows(rng, rng.randint(4, 9), 0.2)
        ops.append(Op("lemma23", (rows, gen.level_map(rng, len(rows), constant)), constant))
    for _ in range(2):
        ops.append(Op("rebuild", (_random_pair(rng, True, 8, 14, 0.1, 0.5)[0],), None))
    for iso in (True, True, False, False):
        ops.append(Op("search", _oracle_pair(rng, iso), iso))
    for _ in range(2):
        ops.append(Op("hereditary", (gen.acyclic(rng, rng.randint(6, 8), 0.3),), None))
    return ops


_MAKERS = {"verdict": _verdict_ops, "cli-report": _cli_ops, "lattice": _lattice_ops}


# ---------------------------------------------------------------- binding


def _graph(amp, rows, prefix):
    return amp.AmplifiedGraph(gen.names(len(rows), prefix), tuple(rows))


def write_graph(path: Path, rows, prefix: str) -> str:
    path.write_text(gen.graph_text(gen.names(len(rows), prefix), rows), encoding="utf-8")
    return str(path)


def bind(op: Op, amp, cli, workdir: Path, tag: str):
    """A zero-argument call performing ``op``; files go under ``workdir``.

    ``amp`` is the ``amplify`` package and ``cli`` its ``amplify.cli`` module.
    """
    k, a = op.kind, op.args
    if k == "gauge" or k == "stable":
        decide = amp.decide_gauge_iso if k == "gauge" else amp.decide_stable_iso
        e, f = _graph(amp, a[0], "v"), _graph(amp, a[1], "v")

        def call():
            verdict = decide(e, f)
            verdict.isomorphic  # the only field a verdict caller reads
            return verdict

        return call
    if k == "normalize":
        e, f = _graph(amp, a[0], "v"), _graph(amp, a[1], "v")
        rho = amp.LatticeIsoData(a[2], a[3])
        return lambda: amp.normalize_lattice_iso(e, f, rho)
    if k == "lemma23":
        g, spec = _graph(amp, a[0], "v"), amp.VHSpec(a[1])
        return lambda: amp.check_lemma23(g, spec)
    if k == "rebuild":
        g = _graph(amp, a[0], "v")
        return lambda: amp.reconstruct(g)
    if k == "search":
        e, f = _graph(amp, a[0], "v"), _graph(amp, a[1], "v")
        return lambda: amp.search_bounded_iso(e, f, 2)
    if k == "hereditary":
        g = _graph(amp, a[0], "v")
        return lambda: amp.unique_predecessor_elements(amp.enumerate_hereditary(g))
    argv = _argv(op, workdir, tag)
    return lambda: _run_cli(cli, argv)


def _argv(op: Op, workdir: Path, tag: str) -> list[str]:
    k, a = op.kind, op.args
    e_path = write_graph(workdir / f"{tag}e.graph", a[0], "a")
    if k in ("iso", "stable-iso"):
        return [k, e_path, write_graph(workdir / f"{tag}f.graph", a[1], "b")]
    if k in ("canon", "reconstruct", "tclosure"):
        return [k, e_path]
    if k == "tmove":
        return [k, e_path] + [f"a{v}" for v in a[1:]]
    if k == "check-h0":
        return [k, e_path] + [f"a{v}={level}" for v, level in enumerate(a[1])]
    if k == "normalize-iso":
        f_path = write_graph(workdir / f"{tag}f.graph", a[1], "b")
        entries = [f"a{v}=b{a[2][v]}:{a[3][v]}" for v in range(len(a[0]))]
        return [k, e_path, f_path] + entries
    if k == "skew-window":
        return [k, e_path, "--window", str(a[1]), str(a[2])]
    if k == "oracle":
        f_path = write_graph(workdir / f"{tag}f.graph", a[1], "b")
        return [k, e_path, f_path, "--bound", "2"]
    raise ValueError(f"unknown op kind {k!r}")


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- checks


def check(op: Op, out, outputs: list) -> str | None:
    """None when ``out`` is right for ``op``, else what is wrong.

    ``outputs`` holds the outputs of the round's earlier ops, by index.
    """
    k, a = op.kind, op.args
    if k in ("gauge", "stable"):
        return _check_verdict(out.isomorphic, out.witness, a, op.expect, k == "stable")
    if k == "normalize":
        if tuple(out.vertex_map) != tuple(a[2]):
            return "normalization changed the vertex map"
        return None if all(s == 0 for s in out.shift) else f"shifts not zero: {out.shift}"
    if k == "lemma23":
        if (out.verdict == "constant") != op.expect:
            return f"verdict {out.verdict} for levels {a[1]}"
        return None if not op.expect or out.level == a[1][0] else f"level {out.level}"
    if k == "rebuild":
        rebuilt, witness = out
        return None if gen.is_witness(a[0], rebuilt.rows, witness) else "bad reconstruction witness"
    if k == "search":
        if (out is not None) != op.expect:
            return f"oracle found={out is not None}, expected {op.expect}"
        if out is not None and not gen.is_witness(a[0], a[1], out.vertex_map):
            return "oracle map is not an isomorphism"
        return None
    if k == "hereditary":
        found = {s.members for s in out}
        return None if found == gen.principal_sets(a[0]) else "unique-predecessor sets are not the principal sets"
    return _check_cli(op, out, outputs)


def _check_verdict(isomorphic, witness, pair, expect, stable):
    if isomorphic != expect:
        return f"verdict {isomorphic}, expected {expect}"
    if not isomorphic:
        return None if witness is None else "witness on a negative verdict"
    e, f = pair
    if stable:
        e, f = gen.closure(e), gen.closure(f)
    return None if gen.is_witness(e, f, witness) else "witness does not preserve adjacency"


def parse_text(text: str):
    """(names, rows) of graph text in the CLI's grammar; '#' lines skipped."""
    names, index, edges = [], {}, []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "vertex":
            index[fields[1]] = len(names)
            names.append(fields[1])
        elif fields[0] == "edge":
            edges.append((fields[1], fields[2]))
        else:
            raise ValueError(f"unexpected line {line!r}")
    rows = [0] * len(names)
    for src, dst in edges:
        rows[index[src]] |= 1 << index[dst]
    return names, tuple(rows)


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _mapping(text: str, src: str, dst: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse 'a0->b3[:s], ...' into (images, shifts)."""
    images, shifts = {}, {}
    for entry in text.split(", "):
        left, right = entry.split("->")
        image, _, shift = right.partition(":")
        v = int(left[len(src):])
        images[v] = int(image[len(dst):])
        shifts[v] = int(shift or 0)
    n = len(images)
    return tuple(images[v] for v in range(n)), tuple(shifts[v] for v in range(n))


def _check_cli(op: Op, out, outputs) -> str | None:
    code, stdout, stderr = out
    k, a = op.kind, op.args
    want = {"iso": 0 if op.expect else 1, "stable-iso": 0 if op.expect else 1,
            "check-h0": 0 if op.expect else 1, "oracle": 0 if op.expect else 1}.get(k, 0)
    if code != want:
        return f"{k}: exit {code}, expected {want}: {stderr.strip()}"
    fields = _fields(stdout)
    if k in ("iso", "stable-iso"):
        iso = fields.get("isomorphic") == "true"
        witness = None
        if "witness" in fields:
            witness = _mapping(fields["witness"], "a", "b")[0]
        bad = _check_verdict(iso, witness, a, op.expect, k == "stable-iso")
        if bad:
            return f"{k}: {bad}"
        if (fields["canonical_E"] == fields["canonical_F"]) != op.expect:
            return f"{k}: canonical forms disagree with the verdict"
        return None
    if k == "canon":
        names, rows = parse_text(stdout)
        if len(rows) != len(a[0]) or gen.edge_count(rows) != gen.edge_count(a[0]):
            return "canon: form has other vertex or edge counts"
        first = outputs[op.pair] if op.pair is not None else None
        if first is not None and (first[1] == stdout) != op.expect:
            return "canon: forms equal iff isomorphic fails"
        return None
    if k == "reconstruct":
        names, rebuilt = parse_text(stdout)
        phi = {}
        for line in stdout.splitlines():
            if line.startswith("# witness: "):
                src, dst = line[len("# witness: "):].split(" -> ")
                phi[int(src[1:])] = names.index(dst)
        witness = tuple(phi.get(v, -1) for v in range(len(a[0])))
        return None if gen.is_witness(a[0], rebuilt, witness) else "reconstruct: bad witness"
    if k == "tclosure":
        return _same_graph(stdout, gen.closure(a[0]), k)
    if k == "tmove":
        rows, u, _, w = a
        moved = list(rows)
        moved[u] |= 1 << w
        return _same_graph(stdout, moved, k)
    if k == "check-h0":
        if op.expect:
            return None if fields == {"verdict": "constant", "level": str(a[1][0])} else f"check-h0: {fields}"
        return None if fields.get("verdict") == "violated" else f"check-h0: {fields}"
    if k == "normalize-iso":
        images, shifts = _mapping(fields["map"], "a", "b")
        if images != tuple(a[2]) or any(shifts):
            return f"normalize-iso: {fields['map']}"
        return None
    if k == "skew-window":
        return _same_graph(stdout, _window(a[0], a[1], a[2]), k, _window_names(a[0], a[1], a[2]))
    if k == "oracle":
        if not op.expect:
            return None if fields == {"found": "false"} else f"oracle: {fields}"
        images, _ = _mapping(fields["map"], "a", "b")
        return None if gen.is_witness(a[0], a[1], images) else "oracle: map is not an isomorphism"
    return f"no check for {k}"


def _same_graph(stdout, rows, verb, names=None):
    got_names, got_rows = parse_text(stdout)
    want_names = list(names or gen.names(len(rows), "a"))
    if got_names != want_names or got_rows != tuple(rows):
        return f"{verb}: output graph differs from the expected one"
    return None


def _window_names(rows, lo, hi):
    return [f"a{v}@{level}" for level in range(lo, hi + 1) for v in range(len(rows))]


def _window(rows, lo, hi):
    n = len(rows)
    out = []
    for level in range(lo, hi + 1):
        for v in range(n):
            row = 0
            if level < hi:
                for w in gen.bits(rows[v]):
                    row |= 1 << ((level + 1 - lo) * n + w)
            out.append(row)
    return out


def digest(op: Op, out):
    """A comparable summary of an output (used to compare traced runs)."""
    k = op.kind
    if k in ("gauge", "stable"):
        return out.isomorphic, out.witness
    if k == "normalize" or (k == "search" and out is not None):
        return tuple(out.vertex_map), tuple(out.shift)
    if k == "lemma23":
        return out.verdict, out.level, out.violated_condition, out.witness
    if k == "rebuild":
        return out[0].rows, out[1]
    if k == "hereditary":
        return tuple(s.members for s in out)
    return out


def iso_pairs(op: Op):
    """(e, f, stable) pairs whose label ``op.expect`` an outside checker can confirm."""
    if op.kind in ("gauge", "iso", "search", "oracle"):
        return [(op.args[0], op.args[1], False)]
    if op.kind in ("stable", "stable-iso"):
        return [(op.args[0], op.args[1], True)]
    return []
